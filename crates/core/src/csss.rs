//! CSSS — the Countsketch Sampling Simulator (paper Figure 2, Theorem 1).
//!
//! CSSS simulates running each row of a Countsketch on an independent
//! uniform sample of `poly(α·log(n)/ε)` stream updates. Counters hold
//! *sampled unit counts* split into insertion/deletion halves (`a⁺`, `a⁻`),
//! so their magnitudes are bounded by the sample budget — `O(log(α log n/ε))`
//! bits each — instead of by the stream length. That counter-width saving is
//! exactly where the `log n → log α` improvement of Theorems 3–5 comes from.
//!
//! Guarantee (Theorem 1): with `6k` columns and `O(log n)` rows on an
//! α-property stream, every point estimate satisfies
//! `|y*_i − f_i| ≤ 2(k^{-1/2}·Err₂ᵏ(f) + ε‖f‖₁)` w.h.p.
//!
//! Two fidelity notes (DESIGN.md §6): rows sample *independently* (the
//! text's analysis; Figure 2's pseudocode shares one coin), and the halving
//! thresholds are `t = S·2^r` (the invariant `2^{-p} ≥ S/(2m)` every proof
//! uses; the figure's `t = 2^r log S + 1` appears to be a typo).

use crate::binomial::{bin_half, bin_pow2};
use bd_hash::RowHashes;
use bd_stream::{
    BatchScratch, Mergeable, PointQuery, PointQueryBatch, Scratch, Sketch, SketchState,
    SpaceReport, SpaceUsage, StateError, StateReader, StateWriter, Update,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Reusable batched-ingest scratch: hash plan plus flat row-major bucket /
/// sign buffers (no sketch state).
#[derive(Debug, Default)]
struct IngestScratch {
    agg: BatchScratch,
    plan: RowHashes,
    buckets: Vec<u64>,
    signs: Vec<bool>,
    /// Per-item row estimates for the multi-point query path.
    ests: Vec<f64>,
    /// Whether the plan holds the last [`Csss::update_aggregated`] chunk
    /// (not a point-query batch).
    holds_ingest: bool,
}

/// One row: an independent Countsketch row over an independent sample.
#[derive(Clone, Debug)]
struct CsssRow {
    h: bd_hash::KWiseHash,
    g: bd_hash::SignHash,
    pos: Vec<u64>,
    neg: Vec<u64>,
}

impl CsssRow {
    fn thin<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for c in self.pos.iter_mut().chain(self.neg.iter_mut()) {
            if *c > 0 {
                *c = bin_half(rng, *c);
            }
        }
    }
}

/// The CSSS sketch. Owns its sampling RNG: two sketches built from the same
/// seed share hash functions (the [`Mergeable`] contract) and replay
/// identically on identical streams.
#[derive(Clone, Debug)]
pub struct Csss {
    seed: u64,
    k: usize,
    columns: usize,
    budget: u64,
    level: u32,
    position: u64,
    rows: Vec<CsssRow>,
    max_counter: u64,
    rng: SmallRng,
    scratch: Scratch<IngestScratch>,
}

impl Csss {
    /// Create with sensitivity parameter `k` (→ `6k` columns), `depth` rows,
    /// and sample budget `S` (`Params::csss_sample_budget`), seeded by
    /// `seed`.
    pub fn new(seed: u64, k: usize, depth: usize, budget: u64) -> Self {
        assert!(k >= 1 && depth >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let columns = 6 * k;
        Csss {
            seed,
            k,
            columns,
            budget: budget.max(16),
            level: 0,
            position: 0,
            rows: (0..depth)
                .map(|_| CsssRow {
                    h: bd_hash::KWiseHash::fourwise(&mut rng, columns as u64),
                    g: bd_hash::SignHash::new(&mut rng),
                    pos: vec![0; columns],
                    neg: vec![0; columns],
                })
                .collect(),
            max_counter: 0,
            rng,
            scratch: Scratch::default(),
        }
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The sensitivity parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.rows.len()
    }

    /// The current sampling level `p` (rate `2^{-p}`).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Stream mass processed so far.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// The scale factor `2^p` applied to raw counters.
    pub fn scale(&self) -> f64 {
        (self.level as f64).exp2()
    }

    /// Apply a signed integer update `(item, delta)`.
    pub fn update(&mut self, item: u64, delta: i64) {
        if delta == 0 {
            return;
        }
        self.update_weighted(item, delta.unsigned_abs(), delta > 0);
    }

    /// Apply an update of magnitude `weight` with an explicit sign (the L1
    /// sampler feeds pre-scaled magnitudes through this entry point).
    pub fn update_weighted(&mut self, item: u64, weight: u64, positive: bool) {
        if weight == 0 {
            return;
        }
        self.position += weight;
        while self.position > self.budget << self.level {
            self.level += 1;
            let rng = &mut self.rng;
            for row in &mut self.rows {
                row.thin(rng);
            }
        }
        let level = self.level;
        let rng = &mut self.rng;
        for row in &mut self.rows {
            // Per-row independent sample of Bin(weight, 2^-p) units.
            let kept = bin_pow2(rng, weight, level);
            if kept == 0 {
                continue;
            }
            let b = row.h.hash(item) as usize;
            // The sampled units contribute g(i)·sign(Δ) each.
            let plus = (row.g.sign(item) >= 0) == positive;
            let cell = if plus {
                &mut row.pos[b]
            } else {
                &mut row.neg[b]
            };
            *cell += kept;
            self.max_counter = self.max_counter.max(*cell);
        }
    }

    /// Ingest a pre-aggregated chunk of per-item `(item, inserted mass,
    /// deleted mass)` rows (the `aggregate_signed_mass` shape, first-touch
    /// ordered) through the batched hash engine: the chunk's items are
    /// canonicalized once, every row's bucket and sign polynomials are
    /// evaluated over the whole chunk in an interleaved-Horner pass into
    /// reusable row-major buffers, and then each item's weighted updates
    /// replay in chunk order with the usual thinning schedule. Identical
    /// output distribution to per-item [`Csss::update_weighted`] calls (the
    /// RNG draw order per counter is unchanged); shared with the compounds
    /// that aggregate once and feed several structures.
    pub fn update_aggregated(&mut self, agg: &[(u64, u64, u64)]) {
        if agg.is_empty() {
            return;
        }
        let Self {
            budget,
            level,
            position,
            rows,
            max_counter,
            rng,
            scratch,
            ..
        } = self;
        let IngestScratch {
            plan,
            buckets,
            signs,
            holds_ingest,
            ..
        } = &mut **scratch;
        plan.load(agg.iter().map(|&(item, _, _)| item));
        buckets.clear();
        signs.clear();
        for row in rows.iter() {
            plan.append_buckets(&row.h, buckets);
            plan.append_signs(&row.g, signs);
        }
        *holds_ingest = true;
        let m = plan.len();
        for (idx, &(_, pos, neg)) in agg.iter().enumerate() {
            for (weight, positive) in [(pos, true), (neg, false)] {
                if weight == 0 {
                    continue;
                }
                *position += weight;
                while *position > *budget << *level {
                    *level += 1;
                    for row in rows.iter_mut() {
                        row.thin(rng);
                    }
                }
                for (r, row) in rows.iter_mut().enumerate() {
                    // Per-row independent sample of Bin(weight, 2^-p) units.
                    let kept = bin_pow2(rng, weight, *level);
                    if kept == 0 {
                        continue;
                    }
                    let b = buckets[r * m + idx] as usize;
                    let cell = if signs[r * m + idx] == positive {
                        &mut row.pos[b]
                    } else {
                        &mut row.neg[b]
                    };
                    *cell += kept;
                    *max_counter = (*max_counter).max(*cell);
                }
            }
        }
    }

    /// One row's scaled estimate `2^p·g_i(j)·(a⁺ − a⁻)`.
    #[inline]
    pub fn row_estimate(&self, row: usize, item: u64) -> f64 {
        let r = &self.rows[row];
        let b = r.h.hash(item) as usize;
        let raw = r.pos[b] as f64 - r.neg[b] as f64;
        let signed = if r.g.sign(item) >= 0 { raw } else { -raw };
        signed * self.scale()
    }

    /// The point estimate `y*_j` (median over rows).
    pub fn estimate(&self, item: u64) -> f64 {
        let mut ests: Vec<f64> = (0..self.rows.len())
            .map(|r| self.row_estimate(r, item))
            .collect();
        bd_sketch::median_f64(&mut ests)
    }

    /// Point estimates for a whole set of items in one batched hash pass:
    /// every row's bucket and sign polynomials are evaluated over all of
    /// `items` through the chunk engine, then each item's median-of-rows is
    /// taken from a reused buffer. `out` is cleared and filled positionally.
    /// Bit-identical per item to [`Csss::estimate`] (same float operations
    /// in the same order); `&mut self` only for the reusable scratch.
    pub fn estimate_many(&mut self, items: &[u64], out: &mut Vec<f64>) {
        let IngestScratch {
            plan,
            buckets,
            signs,
            holds_ingest,
            ..
        } = &mut *self.scratch;
        plan.load(items.iter().copied());
        buckets.clear();
        signs.clear();
        for row in self.rows.iter() {
            plan.append_buckets(&row.h, buckets);
            plan.append_signs(&row.g, signs);
        }
        *holds_ingest = false;
        out.clear();
        self.push_estimates(out);
    }

    /// Point estimates, against the current counters, for the distinct
    /// items of the last [`Csss::update_aggregated`] chunk, in chunk order:
    /// read from the bucket and sign buffers that call filled, with no hash
    /// pass. `out` is cleared and filled positionally; each value is
    /// bit-identical to [`Csss::estimate`]. Panics if an
    /// [`Csss::estimate_many`] call has reloaded the plan since.
    pub(crate) fn estimate_aggregated(&mut self, out: &mut Vec<f64>) {
        assert!(
            self.scratch.holds_ingest,
            "estimate_aggregated needs the plan of the last update_aggregated"
        );
        out.clear();
        self.push_estimates(out);
    }

    /// Append the median-of-rows estimate of every item in the scratch plan
    /// to `out`, from the plan's row-major bucket and sign buffers.
    fn push_estimates(&mut self, out: &mut Vec<f64>) {
        let scale = self.scale();
        let IngestScratch {
            plan,
            buckets,
            signs,
            ests,
            ..
        } = &mut *self.scratch;
        let m = plan.len();
        push_row_medians(&self.rows, scale, m, buckets, signs, ests, out);
    }

    /// [`Csss::estimate_many`] without the sketch-resident scratch: the hash
    /// plan and row buffers are call-local, so the receiver is shared
    /// (`&self`) and any number of reader threads can batch-query one
    /// snapshot concurrently. Appends to `out` (does not clear it); each
    /// appended value is bit-identical to the corresponding
    /// [`Csss::estimate`] call.
    pub fn estimate_many_shared(&self, items: &[u64], out: &mut Vec<f64>) {
        let mut plan = RowHashes::default();
        plan.load(items.iter().copied());
        let mut buckets = Vec::new();
        let mut signs = Vec::new();
        for row in self.rows.iter() {
            plan.append_buckets(&row.h, &mut buckets);
            plan.append_signs(&row.g, &mut signs);
        }
        let mut ests = Vec::with_capacity(self.rows.len());
        push_row_medians(
            &self.rows,
            self.scale(),
            items.len(),
            &buckets,
            &signs,
            &mut ests,
            out,
        );
    }

    /// `‖row residual‖₂` after subtracting a sparse vector `yhat` from the
    /// row's scaled sketch — the "feed `−ŷ` into CSSS₂" step of Lemma 5,
    /// computed without mutating the structure.
    pub fn row_residual_l2(&self, row: usize, yhat: &[(u64, f64)]) -> f64 {
        let r = &self.rows[row];
        let scale = self.scale();
        let mut buckets: Vec<f64> = (0..self.columns)
            .map(|b| (r.pos[b] as f64 - r.neg[b] as f64) * scale)
            .collect();
        for &(item, value) in yhat {
            let b = r.h.hash(item) as usize;
            buckets[b] -= r.g.sign(item) as f64 * value;
        }
        buckets.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Median over rows of `‖row residual‖₂` (Lemma 4's norm estimate of
    /// the scaled sample minus `yhat`).
    pub fn residual_l2(&self, yhat: &[(u64, f64)]) -> f64 {
        let mut ests: Vec<f64> = (0..self.rows.len())
            .map(|r| self.row_residual_l2(r, yhat))
            .collect();
        bd_sketch::median_f64(&mut ests)
    }

    /// Largest raw counter value seen (drives the reported counter width).
    pub fn max_counter(&self) -> u64 {
        self.max_counter
    }

    /// Thin every row until the sketch's sampling level reaches `target`.
    fn thin_to_level(&mut self, target: u32) {
        while self.level < target {
            self.level += 1;
            let rng = &mut self.rng;
            for row in &mut self.rows {
                row.thin(rng);
            }
        }
    }
}

/// Append to `out` the point estimate of each of `m` items whose row-major
/// bucket and sign buffers (`[r·m + idx]`) are given: per row the scaled
/// `2^p·g_i(j)·(a⁺ − a⁻)` of [`Csss::row_estimate`], then the median over
/// rows. The one estimate loop of every batched path, so each stays
/// bit-identical to [`Csss::estimate`]. `ests` is reused row scratch.
fn push_row_medians(
    rows: &[CsssRow],
    scale: f64,
    m: usize,
    buckets: &[u64],
    signs: &[bool],
    ests: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    out.reserve(m);
    for idx in 0..m {
        ests.clear();
        for (r, row) in rows.iter().enumerate() {
            let b = buckets[r * m + idx] as usize;
            let raw = row.pos[b] as f64 - row.neg[b] as f64;
            let signed = if signs[r * m + idx] { raw } else { -raw };
            ests.push(signed * scale);
        }
        out.push(bd_sketch::median_f64(ests));
    }
}

impl Sketch for Csss {
    fn update(&mut self, item: u64, delta: i64) {
        Csss::update(self, item, delta);
    }

    /// Batched ingestion: aggregate the chunk into per-item
    /// `(inserted, deleted)` mass first (reusable table, zero steady-state
    /// allocations), then run the chunk through
    /// [`Csss::update_aggregated`]'s batched hash pass. Duplicate items pay
    /// the per-row hash and sign evaluations once, and each `Bin(w, 2^-p)`
    /// draw covers a whole item's chunk mass instead of one update. Total
    /// update mass (and therefore the sampling-rate schedule) is preserved,
    /// so the output distribution is the one the §1.3 weighted-update
    /// semantics already define.
    fn update_batch(&mut self, batch: &[Update]) {
        let mut agg = std::mem::take(&mut self.scratch.agg);
        self.update_aggregated(agg.aggregate_signed_mass(batch));
        self.scratch.agg = agg;
    }
}

impl PointQuery for Csss {
    fn point(&self, item: u64) -> f64 {
        self.estimate(item)
    }
}

impl PointQueryBatch for Csss {
    fn point_many(&self, items: &[u64], out: &mut Vec<f64>) {
        self.estimate_many_shared(items, out);
    }
}

impl Mergeable for Csss {
    /// Merge by aligning both sketches to the deeper sampling level (thinning
    /// the shallower one down) and adding counters; positions add, and the
    /// rate invariant `position ≤ budget·2^level` is restored by further
    /// halving if needed. Each retained unit keeps its `Bin(·, 2^-level)`
    /// marginal, so the merged sketch is distributed as a single-pass sketch
    /// of the concatenated streams.
    fn merge_from(&mut self, other: &Self) {
        assert!(
            self.seed == other.seed
                && self.k == other.k
                && self.budget == other.budget
                && self.rows.len() == other.rows.len(),
            "Csss merge requires identically seeded sketches"
        );
        // Align levels: thin self up, and thin a copy of other's counters up.
        let target = self.level.max(other.level);
        self.thin_to_level(target);
        let mut theirs: Vec<(Vec<u64>, Vec<u64>)> = other
            .rows
            .iter()
            .map(|r| (r.pos.clone(), r.neg.clone()))
            .collect();
        for lvl in other.level..target {
            let _ = lvl;
            for (pos, neg) in &mut theirs {
                for c in pos.iter_mut().chain(neg.iter_mut()) {
                    if *c > 0 {
                        *c = bin_half(&mut self.rng, *c);
                    }
                }
            }
        }
        for (row, (pos, neg)) in self.rows.iter_mut().zip(&theirs) {
            for (a, b) in row.pos.iter_mut().zip(pos) {
                *a += b;
                self.max_counter = self.max_counter.max(*a);
            }
            for (a, b) in row.neg.iter_mut().zip(neg) {
                *a += b;
                self.max_counter = self.max_counter.max(*a);
            }
        }
        self.position += other.position;
        // Restore the rate invariant for the combined position.
        while self.position > self.budget << self.level {
            self.level += 1;
            let rng = &mut self.rng;
            for row in &mut self.rows {
                row.thin(rng);
            }
        }
    }
}

impl SketchState for Csss {
    /// Mutable state: sampling level, position cursor, counter-width
    /// watermark, the sampling RNG (so replay after restore continues the
    /// exact thinning sequence), and every row's pos/neg counter tables.
    /// Hashes and sizing rebuild from the spec seed.
    fn save_state(&self, w: &mut StateWriter) {
        w.u32(self.level);
        w.u64(self.position);
        w.u64(self.max_counter);
        for s in self.rng.state() {
            w.u64(s);
        }
        w.seq(self.rows.len());
        for row in &self.rows {
            w.u64_seq(row.pos.iter().copied());
            w.u64_seq(row.neg.iter().copied());
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.level = r.u32()?;
        self.position = r.u64()?;
        self.max_counter = r.u64()?;
        let mut state = [0u64; 4];
        for s in state.iter_mut() {
            *s = r.u64()?;
        }
        self.rng = SmallRng::from_state(state);
        if r.seq(16)? != self.rows.len() {
            return Err(StateError::Corrupt("csss row count"));
        }
        for row in self.rows.iter_mut() {
            for cells in [&mut row.pos, &mut row.neg] {
                if r.seq(8)? != cells.len() {
                    return Err(StateError::Corrupt("csss table length"));
                }
                for c in cells.iter_mut() {
                    *c = r.u64()?;
                }
            }
        }
        Ok(())
    }
}

impl SpaceUsage for Csss {
    fn space(&self) -> SpaceReport {
        let cells = (2 * self.rows.len() * self.columns) as u64;
        let width = bd_hash::width_unsigned(self.max_counter.max(1)) as u64;
        let seeds: u64 = self
            .rows
            .iter()
            .map(|r| (r.h.seed_bits() + r.g.seed_bits()) as u64)
            .sum();
        SpaceReport {
            counters: cells,
            counter_bits: cells * width,
            // position cursor (log m) + level (log log m)
            seed_bits: seeds,
            overhead_bits: bd_hash::width_unsigned(self.position.max(1)) as u64 + 6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_stream::gen::BoundedDeletionGen;
    use bd_stream::{FrequencyVector, StreamRunner};

    fn state_bytes(s: &impl SketchState) -> Vec<u8> {
        let mut w = StateWriter::new();
        s.save_state(&mut w);
        w.into_bytes()
    }

    /// The clone an epoch cut takes of a warmed sketch carries its counters
    /// and none of its ingest scratch: it encodes to the original's bytes,
    /// and the two still encode alike after the same next batch.
    #[test]
    fn clones_carry_state_not_scratch() {
        let stream = BoundedDeletionGen::new(1 << 12, 20_000, 4.0).generate_seeded(5);
        let (warm, next) = stream.updates.split_at(stream.updates.len() - 1024);
        let mut c = Csss::new(2, 16, 9, 1 << 10);
        for chunk in warm.chunks(1024) {
            c.update_batch(chunk);
        }
        assert!(c.level() > 0 && c.scratch.buckets.capacity() > 0);
        let mut clone = c.clone();
        let s = &*clone.scratch;
        assert!(s.agg.signed_mass().is_empty() && s.plan.is_empty() && !s.holds_ingest);
        assert_eq!(
            (s.buckets.capacity(), s.signs.capacity(), s.ests.capacity()),
            (0, 0, 0)
        );
        assert_eq!(state_bytes(&clone), state_bytes(&c));
        c.update_batch(next);
        clone.update_batch(next);
        assert_eq!(state_bytes(&clone), state_bytes(&c));
    }

    #[test]
    fn exact_below_budget_on_sparse_input() {
        let mut c = Csss::new(1, 16, 9, 1 << 16);
        c.update(3, 40);
        c.update(900, -17);
        assert_eq!(c.level(), 0);
        assert_eq!(c.estimate(3), 40.0);
        assert_eq!(c.estimate(900), -17.0);
        assert_eq!(c.estimate(555), 0.0);
    }

    #[test]
    fn theorem_one_error_bound() {
        let alpha = 4.0f64;
        let eps = 0.1f64;
        let k = 16usize;
        let stream = BoundedDeletionGen::new(1 << 12, 120_000, alpha).generate_seeded(2);
        let truth = FrequencyVector::from_stream(&stream);
        let budget = (24.0 * alpha * alpha / eps.powi(3)) as u64;

        let mut c = Csss::new(3, k, 9, budget);
        for u in &stream {
            c.update(u.item, u.delta);
        }
        let bound = 2.0 * (truth.err_k(k, 2) / (k as f64).sqrt() + eps * truth.l1() as f64);
        let mut violations = 0usize;
        let support = truth.support();
        for &i in &support {
            if (c.estimate(i) - truth.get(i) as f64).abs() > bound {
                violations += 1;
            }
        }
        assert!(
            violations <= support.len() / 50,
            "{violations}/{} Theorem-1 violations (bound {bound})",
            support.len()
        );
    }

    #[test]
    fn counters_stay_sample_bounded() {
        // The whole point: counter magnitude tracks S, not stream length.
        let budget = 1 << 10;
        let mut c = Csss::new(4, 4, 5, budget);
        for i in 0..2_000_000u64 {
            c.update(i % 256, 1);
        }
        assert!(
            c.max_counter() <= 8 * budget,
            "counter {} outgrew the sample budget",
            c.max_counter()
        );
        assert!(c.position() == 2_000_000);
    }

    #[test]
    fn estimates_unbiased_under_thinning() {
        let trials = 1500;
        let mut acc = 0.0;
        for seed in 0..trials {
            let mut c = Csss::new(seed, 8, 1, 64);
            for _ in 0..50 {
                c.update(9, 4); // f_9 = 200 >> budget
            }
            acc += c.row_estimate(0, 9);
        }
        let mean = acc / trials as f64;
        assert!((mean - 200.0).abs() < 12.0, "mean {mean}");
    }

    #[test]
    fn residual_subtracts_sparse_vector() {
        let mut c = Csss::new(6, 8, 7, 1 << 20);
        c.update(1, 100);
        c.update(2, 50);
        // Subtracting the exact content leaves ~nothing.
        let resid = c.residual_l2(&[(1, 100.0), (2, 50.0)]);
        assert!(resid < 1e-9, "residual {resid}");
        // Subtracting nothing leaves the full norm.
        let full = c.residual_l2(&[]);
        let expect = (100.0f64.powi(2) + 50.0f64.powi(2)).sqrt();
        assert!((full - expect).abs() < 1e-6);
    }

    #[test]
    fn weighted_entry_point_matches_signed() {
        let mut a = Csss::new(7, 4, 3, 1 << 20);
        let mut b = a.clone();
        a.update(5, -31);
        b.update_weighted(5, 31, false);
        assert_eq!(a.estimate(5), b.estimate(5));
    }

    #[test]
    fn seeded_replay_is_identical() {
        let stream = BoundedDeletionGen::new(1 << 10, 50_000, 4.0).generate_seeded(11);
        let run = || {
            let mut c = Csss::new(42, 8, 5, 1 << 10);
            for u in &stream {
                c.update(u.item, u.delta);
            }
            (0..64u64)
                .map(|i| c.estimate(i).to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn space_width_is_logarithmic_in_budget() {
        let mut c = Csss::new(9, 4, 3, 1 << 8);
        for i in 0..500_000u64 {
            c.update(i % 128, 1);
        }
        let rep = c.space();
        let per_counter = rep.counter_bits / rep.counters;
        assert!(
            per_counter <= 12,
            "counter width {per_counter} bits should be ~log2(S)"
        );
    }

    #[test]
    fn batched_ingestion_matches_per_update_statistically() {
        // Batched CSSS is a different (equally valid) sampling realization;
        // on a budget large enough to avoid thinning it is exactly equal,
        // and on thinned runs the estimates must agree within Theorem-1 noise.
        let stream = BoundedDeletionGen::new(1 << 10, 30_000, 3.0).generate_seeded(13);
        let truth = FrequencyVector::from_stream(&stream);

        // No-thinning regime: bit-identical results.
        let mut exact_a = Csss::new(5, 8, 5, 1 << 20);
        let mut exact_b = exact_a.clone();
        StreamRunner::unbatched().run(&mut exact_a, &stream);
        StreamRunner::new().run(&mut exact_b, &stream);
        assert_eq!(exact_a.level(), 0);
        for i in truth.support() {
            assert_eq!(exact_a.estimate(i).to_bits(), exact_b.estimate(i).to_bits());
        }

        // Thinning regime: same error envelope.
        let budget = 1 << 12;
        let mut thin_a = Csss::new(6, 16, 9, budget);
        let mut thin_b = thin_a.clone();
        StreamRunner::unbatched().run(&mut thin_a, &stream);
        StreamRunner::new().run(&mut thin_b, &stream);
        let bound = 2.0 * (truth.err_k(16, 2) / 4.0 + 0.1 * truth.l1() as f64);
        let mut bad = 0usize;
        for i in truth.support() {
            if (thin_b.estimate(i) - truth.get(i) as f64).abs() > bound {
                bad += 1;
            }
        }
        assert!(bad <= truth.l0() as usize / 25, "{bad} batched violations");
    }

    #[test]
    fn merge_matches_single_pass_statistically() {
        let stream = BoundedDeletionGen::new(1 << 10, 40_000, 3.0).generate_seeded(17);
        let truth = FrequencyVector::from_stream(&stream);
        let mid = stream.len() / 2;
        let budget = 1 << 12;
        let mut left = Csss::new(21, 16, 9, budget);
        let mut right = left.clone();
        for u in &stream.updates[..mid] {
            left.update(u.item, u.delta);
        }
        for u in &stream.updates[mid..] {
            right.update(u.item, u.delta);
        }
        left.merge_from(&right);
        assert_eq!(left.position(), stream.total_mass());
        // Rate invariant holds after the merge.
        assert!(left.position() <= budget << left.level());
        let bound = 2.0 * (truth.err_k(16, 2) / 4.0 + 0.1 * truth.l1() as f64);
        let mut bad = 0usize;
        for i in truth.support() {
            if (left.estimate(i) - truth.get(i) as f64).abs() > bound {
                bad += 1;
            }
        }
        assert!(bad <= truth.l0() as usize / 25, "{bad} merged violations");
    }

    #[test]
    #[should_panic(expected = "identically seeded")]
    fn merge_rejects_mismatched_seeds() {
        let mut a = Csss::new(1, 4, 3, 64);
        let b = Csss::new(2, 4, 3, 64);
        a.merge_from(&b);
    }
}
