//! The unified `Sketch` trait layer.
//!
//! The paper's thesis is that every α-property structure is *the same kind of
//! object*: a linear-update summary fed `(i, Δ)` pairs, whose space drops
//! from `log n` to `log α` factors. This module captures that shape once so
//! that every structure in the workspace — the 15 α-property algorithms in
//! `bd-core` and the 15 turnstile baselines in `bd-sketch` — presents one
//! ingestion interface:
//!
//! * [`Sketch`] — the ingestion contract: [`Sketch::update`] applies one
//!   `(item, Δ)`, [`Sketch::update_batch`] applies a slice of updates (with a
//!   default sequential loop; hot structures override it with pre-aggregating
//!   implementations), and space is reported through the [`SpaceUsage`]
//!   supertrait.
//! * Capability traits refining `Sketch` by query type: [`PointQuery`]
//!   (per-item frequency estimates), [`NormEstimate`] (scalar norm/statistic
//!   estimates), [`SampleQuery`] (distributional samples, returning
//!   [`SampleOutcome`]), and [`Mergeable`] (identically-seeded sketches that
//!   combine into the sketch of the concatenated streams — the hook for
//!   sharded/parallel ingestion).
//!
//! Randomized sketches own their RNG: constructors take a `u64` seed, and no
//! update path takes an `&mut impl Rng` parameter. Two sketches built from
//! the same seed and fed the same updates are bit-for-bit identical, which is
//! what makes [`Mergeable`] and deterministic replay possible.

use crate::space::SpaceUsage;
use crate::update::{Item, StreamBatch, Update};

/// Outcome of querying a sampling sketch (L1 samplers, support samplers
/// reporting one coordinate, ...).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SampleOutcome {
    /// A sampled item together with an estimate of its frequency.
    Sample {
        /// The sampled item.
        item: Item,
        /// The (typically `(1 ± O(ε))`-relative-error) frequency estimate.
        estimate: f64,
    },
    /// The sketch declined to output a sample this time.
    Fail,
}

/// A linear-update stream summary: the unified ingestion interface of the
/// workspace.
///
/// Object safety: `Sketch` is usable as `dyn Sketch`, so heterogeneous
/// collections of sketches can be driven by one
/// [`StreamRunner`](crate::runner::StreamRunner).
pub trait Sketch: SpaceUsage {
    /// Apply one update `f_item ← f_item + delta`.
    fn update(&mut self, item: Item, delta: i64);

    /// Apply a slice of updates.
    ///
    /// The default implementation is the sequential loop. Structures on hot
    /// paths override this with batched implementations that pre-aggregate
    /// duplicate items and amortize hash evaluations; overrides must be
    /// *observably equivalent* to the loop — identical final state for
    /// deterministic (linear) sketches, identical output distribution for
    /// sampling sketches (weighted updates are already defined as batched
    /// unit updates, paper §1.3).
    fn update_batch(&mut self, batch: &[Update]) {
        for u in batch {
            self.update(u.item, u.delta);
        }
    }

    /// Feed a whole stream through [`Sketch::update_batch`].
    fn absorb(&mut self, stream: &StreamBatch)
    where
        Self: Sized,
    {
        self.update_batch(&stream.updates);
    }
}

/// Sketches that answer per-item frequency point queries.
pub trait PointQuery: Sketch {
    /// The point estimate of `f_item`.
    fn point(&self, item: Item) -> f64;
}

/// Sketches that answer many point queries through one batched hash pass.
///
/// Contract: `point_many(items, out)` appends one estimate per item to `out`
/// and each appended value is **bit-identical** to the corresponding
/// [`PointQuery::point`] call on the same state. The batch exists purely to
/// amortize hash evaluation (chunk-at-a-time `RowHashes` plans instead of k
/// scalar lookups); it must not change the arithmetic. Implementations take
/// `&self` so concurrent readers can share one snapshot — any scratch is
/// call-local.
pub trait PointQueryBatch: PointQuery {
    /// Append the point estimate of every item in `items` to `out`, in
    /// order. Does not clear `out`.
    fn point_many(&self, items: &[Item], out: &mut Vec<f64>);
}

/// Sketches that estimate a scalar statistic of the stream (`‖f‖₁`, `‖f‖₀`,
/// `‖f‖₂`, ... — which one is part of the implementing type's contract).
pub trait NormEstimate: Sketch {
    /// The scalar estimate.
    fn norm_estimate(&self) -> f64;
}

/// Sketches that sample coordinates from a distribution over the support.
pub trait SampleQuery: Sketch {
    /// Draw the sketch's sample (or [`SampleOutcome::Fail`]).
    fn sample(&self) -> SampleOutcome;
}

/// Sketches that recover explicit support coordinates (support samplers,
/// sparse recovery): the query returns the recovered item identities, sorted
/// and deduplicated, or empty when recovery declines.
pub trait SupportQuery: Sketch {
    /// The recovered support items.
    fn support_query(&self) -> Vec<Item>;
}

/// Sketches that merge: `a.merge_from(&b)` leaves `a` equal to the sketch of
/// the concatenation of the two input streams.
///
/// Contract: both sides must be *identically seeded* (built from the same
/// `u64` seed with the same shape parameters), so they share hash functions.
/// Merging is the substrate for sharded ingestion: split a stream across
/// workers, feed each worker's shard into its own copy, merge the copies.
/// Implementations panic on shape mismatch.
pub trait Mergeable: Sketch {
    /// Fold `other` into `self`.
    fn merge_from(&mut self, other: &Self);
}

/// Aggregate a batch into per-item net deltas, preserving first-touch order.
///
/// Linear sketches use this to collapse duplicate items before hashing: the
/// returned list has one entry per distinct item (order of first occurrence,
/// so replays are deterministic), zero-sum items included (callers that skip
/// `delta == 0` keep skipping them).
pub fn aggregate_net(batch: &[Update]) -> Vec<(Item, i64)> {
    let mut order: Vec<(Item, i64)> = Vec::new();
    let mut index: std::collections::HashMap<Item, usize> =
        std::collections::HashMap::with_capacity(batch.len().min(1024));
    for u in batch {
        match index.entry(u.item) {
            std::collections::hash_map::Entry::Occupied(e) => {
                order[*e.get()].1 += u.delta;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(order.len());
                order.push((u.item, u.delta));
            }
        }
    }
    order
}

/// Aggregate a batch into per-item `(inserted mass, deleted mass)` pairs,
/// preserving first-touch order.
///
/// Sampling sketches that treat insertions and deletions asymmetrically
/// (CSSS's `(a⁺, a⁻)` halves) use this form: it preserves the total update
/// mass `Σ|Δ|`, which drives their sampling-rate schedules.
pub fn aggregate_signed_mass(batch: &[Update]) -> Vec<(Item, u64, u64)> {
    let mut order: Vec<(Item, u64, u64)> = Vec::new();
    let mut index: std::collections::HashMap<Item, usize> =
        std::collections::HashMap::with_capacity(batch.len().min(1024));
    for u in batch {
        if u.delta == 0 {
            continue;
        }
        let slot = match index.entry(u.item) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(order.len());
                order.push((u.item, 0, 0));
                order.len() - 1
            }
        };
        if u.delta > 0 {
            order[slot].1 += u.delta as u64;
        } else {
            order[slot].2 += u.delta.unsigned_abs();
        }
    }
    order
}

/// A reusable buffer that holds no sketch state: ingest keeps it warm
/// across calls, and a clone starts empty. Sketches derive `Clone`, and
/// every epoch cut clones each worker's sketch into the snapshot it
/// publishes; wrapping each scratch field in `Scratch` keeps those clones
/// to the state alone. Dereferences to the buffer.
#[derive(Debug, Default)]
pub struct Scratch<T>(T);

impl<T: Default> Clone for Scratch<T> {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl<T> std::ops::Deref for Scratch<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Reusable, allocation-free chunk aggregation — the scratch the batched
/// `update_batch` hot paths thread through their steady state.
///
/// [`aggregate_net`] and [`aggregate_signed_mass`] allocate a fresh
/// `HashMap` (SipHash-keyed) and output vector per chunk; on Zipfian chunks
/// that is a measurable slice of total ingest cost. `BatchScratch` keeps an
/// open-addressing table (power-of-two capacity, multiply-shift hashed,
/// generation-stamped so clearing is O(1)) plus the output vectors alive
/// across calls: after warm-up, aggregation performs **zero** heap
/// allocations per chunk. Semantics are identical to the free functions,
/// including first-touch ordering.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    /// Open-addressing slots: `(generation, key, index into the out vec)`.
    slots: Vec<(u64, Item, u32)>,
    /// Current generation; slots whose stamp differs are free.
    generation: u64,
    net: Vec<(Item, i64)>,
    signed: Vec<(Item, u64, u64)>,
}

impl BatchScratch {
    /// Fibonacci multiply-shift over the slot-count mask.
    #[inline]
    fn slot_hash(key: Item, mask: usize) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask
    }

    /// Start a fresh aggregation sized for `len` updates: bump the
    /// generation (O(1) clear) and grow the table only if the chunk is
    /// bigger than anything seen before.
    fn reset(&mut self, len: usize) {
        let want = (len.max(8) * 2).next_power_of_two();
        if self.slots.len() < want {
            self.slots = vec![(0, 0, 0); want];
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Find `key`'s slot: `Ok(idx)` for an existing entry (value = index of
    /// its output row), `Err(slot)` for the free slot to claim.
    #[inline]
    fn probe(&self, key: Item) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut s = Self::slot_hash(key, mask);
        loop {
            let (gen, k, idx) = self.slots[s];
            if gen != self.generation {
                return Err(s);
            }
            if k == key {
                return Ok(idx);
            }
            s = (s + 1) & mask;
        }
    }

    /// The output of the last [`BatchScratch::aggregate_signed_mass`] call,
    /// readable beside [`BatchScratch::index_of`].
    pub fn signed_mass(&self) -> &[(Item, u64, u64)] {
        &self.signed
    }

    /// Position of `key` in the output of the last aggregation, if that
    /// chunk touched it: one probe of the table the aggregation filled.
    pub fn index_of(&self, key: Item) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(key).ok().map(|idx| idx as usize)
    }

    /// [`aggregate_net`], reusing this scratch's buffers. The returned slice
    /// lives in the scratch and is overwritten by the next aggregation.
    pub fn aggregate_net(&mut self, batch: &[Update]) -> &[(Item, i64)] {
        self.reset(batch.len());
        self.net.clear();
        for u in batch {
            match self.probe(u.item) {
                Ok(idx) => self.net[idx as usize].1 += u.delta,
                Err(slot) => {
                    self.slots[slot] = (self.generation, u.item, self.net.len() as u32);
                    self.net.push((u.item, u.delta));
                }
            }
        }
        &self.net
    }

    /// [`aggregate_signed_mass`], reusing this scratch's buffers. The
    /// returned slice lives in the scratch and is overwritten by the next
    /// aggregation.
    pub fn aggregate_signed_mass(&mut self, batch: &[Update]) -> &[(Item, u64, u64)] {
        self.reset(batch.len());
        self.signed.clear();
        for u in batch {
            if u.delta == 0 {
                continue;
            }
            let idx = match self.probe(u.item) {
                Ok(idx) => idx as usize,
                Err(slot) => {
                    self.slots[slot] = (self.generation, u.item, self.signed.len() as u32);
                    self.signed.push((u.item, 0, 0));
                    self.signed.len() - 1
                }
            };
            if u.delta > 0 {
                self.signed[idx].1 += u.delta as u64;
            } else {
                self.signed[idx].2 += u.delta.unsigned_abs();
            }
        }
        &self.signed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceReport;

    #[test]
    fn scratch_clones_empty() {
        let mut s: Scratch<Vec<u64>> = Scratch::default();
        s.extend(0..100);
        assert_eq!(s.len(), 100);
        assert_eq!(s.clone().capacity(), 0);
    }

    /// A toy exact sketch for exercising the trait machinery.
    #[derive(Default)]
    struct Exact {
        f: std::collections::HashMap<Item, i64>,
    }

    impl SpaceUsage for Exact {
        fn space(&self) -> SpaceReport {
            SpaceReport {
                counters: self.f.len() as u64,
                counter_bits: 128 * self.f.len() as u64,
                ..Default::default()
            }
        }
    }

    impl Sketch for Exact {
        fn update(&mut self, item: Item, delta: i64) {
            *self.f.entry(item).or_insert(0) += delta;
        }
    }

    impl PointQuery for Exact {
        fn point(&self, item: Item) -> f64 {
            self.f.get(&item).copied().unwrap_or(0) as f64
        }
    }

    #[test]
    fn default_batch_is_sequential_loop() {
        let batch = vec![Update::new(1, 3), Update::new(2, -1), Update::new(1, 4)];
        let mut a = Exact::default();
        a.update_batch(&batch);
        let mut b = Exact::default();
        for u in &batch {
            b.update(u.item, u.delta);
        }
        assert_eq!(a.point(1), b.point(1));
        assert_eq!(a.point(2), b.point(2));
    }

    #[test]
    fn dyn_sketch_is_usable() {
        let mut e = Exact::default();
        let dynref: &mut dyn Sketch = &mut e;
        dynref.update(9, 5);
        dynref.update_batch(&[Update::new(9, 5)]);
        assert_eq!(e.point(9), 10.0);
    }

    #[test]
    fn aggregate_net_collapses_duplicates_in_order() {
        let batch = vec![
            Update::new(5, 1),
            Update::new(7, 2),
            Update::new(5, 3),
            Update::new(9, -2),
            Update::new(7, -2),
        ];
        assert_eq!(aggregate_net(&batch), vec![(5, 4), (7, 0), (9, -2)]);
    }

    #[test]
    fn aggregate_signed_mass_preserves_total_mass() {
        let batch = vec![
            Update::new(5, 4),
            Update::new(5, -3),
            Update::new(8, 0),
            Update::new(6, -1),
        ];
        let agg = aggregate_signed_mass(&batch);
        assert_eq!(agg, vec![(5, 4, 3), (6, 0, 1)]);
        let mass: u64 = agg.iter().map(|&(_, p, n)| p + n).sum();
        assert_eq!(mass, batch.iter().map(|u| u.magnitude()).sum::<u64>());
    }

    #[test]
    fn scratch_aggregation_matches_free_functions() {
        let mut rng_state = 0x1234_5678_u64;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            rng_state
        };
        let mut scratch = BatchScratch::default();
        for round in 0..5 {
            let batch: Vec<Update> = (0..(500 + round * 100))
                .map(|_| {
                    let r = next();
                    Update::new(r % 37, ((r >> 8) % 9) as i64 - 4)
                })
                .collect();
            assert_eq!(scratch.aggregate_net(&batch), &aggregate_net(&batch)[..]);
            assert_eq!(
                scratch.aggregate_signed_mass(&batch),
                &aggregate_signed_mass(&batch)[..]
            );
        }
        // Shrinking chunks keep working (table stays at peak capacity).
        let small = vec![Update::new(1, 2), Update::new(1, -2), Update::new(9, 0)];
        assert_eq!(scratch.aggregate_net(&small), &aggregate_net(&small)[..]);
        assert_eq!(
            scratch.aggregate_signed_mass(&small),
            &aggregate_signed_mass(&small)[..]
        );
    }

    #[test]
    fn absorb_feeds_whole_stream() {
        let s = StreamBatch::new(16, vec![Update::insert(3, 2), Update::delete(3, 1)]);
        let mut e = Exact::default();
        e.absorb(&s);
        assert_eq!(e.point(3), 1.0);
    }
}
