//! Count-Min sketch of Cormode–Muthukrishnan \[22\] (cited in §2.2).
//!
//! `d × w` table of non-negative counters with pairwise row hashes; in the
//! strict turnstile model the point query `min_r A[r][h_r(j)]` overestimates
//! `f_j` by at most `‖f‖₁/w` per row, so the min over `d = O(log 1/δ)` rows
//! is within `ε‖f‖₁` for `w = ⌈e/ε⌉` with probability `1 − δ`. Used as an
//! auxiliary baseline for the heavy-hitter comparisons.

use bd_hash::RowHashes;
use bd_stream::{
    BatchScratch, MaxMag, Mergeable, PointQuery, PointQueryBatch, Scratch, Sketch, SketchState,
    SpaceReport, SpaceUsage, StateError, StateReader, StateWriter, Update,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Reusable batched-ingest scratch (no sketch state).
#[derive(Debug, Default)]
struct IngestScratch {
    agg: BatchScratch,
    plan: RowHashes,
    buckets: Vec<u64>,
}

/// A Count-Min sketch (strict turnstile: net counters stay non-negative).
#[derive(Clone, Debug)]
pub struct CountMin {
    seed: u64,
    depth: usize,
    width: usize,
    table: Vec<i64>,
    hashes: Vec<bd_hash::KWiseHash>,
    max_mag: MaxMag,
    scratch: Scratch<IngestScratch>,
}

impl CountMin {
    /// Create a `depth × width` Count-Min sketch from a seed (identical
    /// seeds and shapes share hash functions — the [`Mergeable`] contract).
    pub fn new(seed: u64, depth: usize, width: usize) -> Self {
        assert!(depth >= 1 && width >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        CountMin {
            seed,
            depth,
            width,
            table: vec![0; depth * width],
            hashes: (0..depth)
                .map(|_| bd_hash::KWiseHash::pairwise(&mut rng, width as u64))
                .collect(),
            max_mag: MaxMag::default(),
            scratch: Scratch::default(),
        }
    }

    /// Sized for error `ε‖f‖₁` with failure probability `δ`.
    pub fn with_error(seed: u64, epsilon: f64, delta: f64) -> Self {
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        Self::new(seed, depth, width)
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Apply an update.
    #[inline]
    pub fn update(&mut self, item: u64, delta: i64) {
        for r in 0..self.depth {
            let b = self.hashes[r].hash(item) as usize;
            let cell = &mut self.table[r * self.width + b];
            *cell += delta;
            self.max_mag.observe(*cell);
        }
    }

    /// Point query: `min_r A[r][h_r(j)]` (an overestimate of `f_j` in the
    /// strict turnstile model).
    pub fn estimate(&self, item: u64) -> i64 {
        (0..self.depth)
            .map(|r| self.table[r * self.width + self.hashes[r].hash(item) as usize])
            .min()
            .expect("depth >= 1")
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Buckets per row.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl Sketch for CountMin {
    fn update(&mut self, item: u64, delta: i64) {
        CountMin::update(self, item, delta);
    }

    /// Batched ingestion: duplicate items collapse to one net delta
    /// (reusable aggregation table), then each row's pairwise polynomial is
    /// evaluated over the whole chunk of distinct items in one
    /// interleaved-Horner pass — zero steady-state allocations. Estimates
    /// are bit-identical to the sequential loop by linearity; the `max_mag`
    /// width tracker may record *smaller* peaks (intra-chunk cancellations
    /// never hit the table), so reported counter widths reflect the
    /// magnitudes actually written, which can depend on the chunking.
    fn update_batch(&mut self, batch: &[Update]) {
        let Self {
            depth,
            width,
            table,
            hashes,
            max_mag,
            scratch,
            ..
        } = self;
        let IngestScratch { agg, plan, buckets } = &mut **scratch;
        let agg = agg.aggregate_net(batch);
        let live = || agg.iter().filter(|&&(_, net)| net != 0);
        plan.load(live().map(|&(item, _)| item));
        if plan.is_empty() {
            return;
        }
        for r in 0..*depth {
            plan.eval_buckets(&hashes[r], buckets);
            let row = &mut table[r * *width..(r + 1) * *width];
            for (idx, &(_, net)) in live().enumerate() {
                let cell = &mut row[buckets[idx] as usize];
                *cell += net;
                max_mag.observe(*cell);
            }
        }
    }
}

impl PointQuery for CountMin {
    fn point(&self, item: u64) -> f64 {
        self.estimate(item) as f64
    }
}

impl PointQueryBatch for CountMin {
    /// Every row's pairwise polynomial is evaluated over the whole query set
    /// in one interleaved-Horner pass (call-local plan, receiver stays
    /// shared), then each item takes its min over rows. Bit-identical per
    /// item to [`CountMin::estimate`] (`min` over `i64` is order-free).
    fn point_many(&self, items: &[u64], out: &mut Vec<f64>) {
        let mut plan = RowHashes::default();
        plan.load(items.iter().copied());
        let mut buckets = Vec::new();
        for r in 0..self.depth {
            plan.append_buckets(&self.hashes[r], &mut buckets);
        }
        let m = items.len();
        out.reserve(m);
        for idx in 0..m {
            let est = (0..self.depth)
                .map(|r| self.table[r * self.width + buckets[r * m + idx] as usize])
                .min()
                .expect("depth >= 1");
            out.push(est as f64);
        }
    }
}

impl Mergeable for CountMin {
    fn merge_from(&mut self, other: &Self) {
        assert!(
            self.seed == other.seed && self.depth == other.depth && self.width == other.width,
            "CountMin merge requires identically seeded sketches"
        );
        for (a, b) in self.table.iter_mut().zip(&other.table) {
            *a += *b;
            self.max_mag.observe(*a);
        }
    }
}

impl SketchState for CountMin {
    /// Mutable state is the counter table plus the width watermark.
    fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.max_mag.max());
        w.i64_slice(&self.table);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let mut mag = MaxMag::default();
        mag.observe_mag(r.u64()?);
        self.max_mag = mag;
        r.i64_slice_into(&mut self.table)
    }
}

impl SpaceUsage for CountMin {
    fn space(&self) -> SpaceReport {
        SpaceReport {
            counters: (self.depth * self.width) as u64,
            counter_bits: (self.depth * self.width) as u64 * self.max_mag.bits_signed(),
            seed_bits: self.hashes.iter().map(|h| h.seed_bits() as u64).sum(),
            overhead_bits: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_stream::gen::BoundedDeletionGen;
    use bd_stream::{FrequencyVector, StreamRunner};

    #[test]
    fn never_underestimates_on_strict_streams() {
        let mut cm = CountMin::new(1, 5, 64);
        let stream = BoundedDeletionGen::new(1 << 10, 10_000, 3.0).generate_seeded(1);
        let truth = FrequencyVector::from_stream(&stream);
        for u in &stream {
            cm.update(u.item, u.delta);
        }
        for i in truth.support() {
            assert!(cm.estimate(i) >= truth.get(i));
        }
    }

    #[test]
    fn error_within_epsilon_l1() {
        let eps = 0.02;
        let mut cm = CountMin::with_error(2, eps, 0.01);
        let stream = BoundedDeletionGen::new(1 << 12, 40_000, 2.0).generate_seeded(2);
        let truth = FrequencyVector::from_stream(&stream);
        for u in &stream {
            cm.update(u.item, u.delta);
        }
        let bound = eps * truth.l1() as f64;
        let mut bad = 0;
        for i in truth.support() {
            if (cm.estimate(i) - truth.get(i)) as f64 > bound {
                bad += 1;
            }
        }
        assert!(bad <= truth.l0() as usize / 50, "{bad} overestimates");
    }

    #[test]
    fn exact_for_singleton() {
        let mut cm = CountMin::new(3, 3, 16);
        cm.update(7, 41);
        assert_eq!(cm.estimate(7), 41);
    }

    #[test]
    fn batched_ingestion_is_bit_identical() {
        let stream = BoundedDeletionGen::new(1 << 10, 20_000, 3.0).generate_seeded(4);
        let mut per_update = CountMin::new(5, 5, 64);
        let mut batched = per_update.clone();
        StreamRunner::unbatched().run(&mut per_update, &stream);
        StreamRunner::new().run(&mut batched, &stream);
        for i in 0..1024u64 {
            assert_eq!(per_update.estimate(i), batched.estimate(i));
        }
    }

    #[test]
    fn merge_equals_single_pass() {
        let stream = BoundedDeletionGen::new(1 << 10, 10_000, 2.0).generate_seeded(6);
        let mid = stream.len() / 2;
        let mut whole = CountMin::new(7, 5, 64);
        let mut left = whole.clone();
        let mut right = whole.clone();
        for u in &stream {
            whole.update(u.item, u.delta);
        }
        for u in &stream.updates[..mid] {
            left.update(u.item, u.delta);
        }
        for u in &stream.updates[mid..] {
            right.update(u.item, u.delta);
        }
        left.merge_from(&right);
        for i in 0..1024u64 {
            assert_eq!(whole.estimate(i), left.estimate(i));
        }
    }
}
