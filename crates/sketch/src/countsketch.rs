//! Countsketch of Charikar–Chen–Farach-Colton \[14\] (paper §2.1, Lemma 2).
//!
//! A `d × w` table; row `i` hashes items with a 4-wise `h_i : [n] → [w]` and
//! signs them with a 4-wise `g_i : [n] → {±1}`. The point estimate is the
//! median over rows of `g_i(j)·A[i][h_i(j)]`, with per-row guarantee
//! `|g_i(j)A[i,h_i(j)] − f_j| < w'^{-1/2}·Err₂^{w'}(f)` (w' = w/6) with
//! probability 2/3. This is the unbounded-deletion baseline that CSSS
//! (bd-core) simulates on samples; it is also reused by the baseline L1
//! sampler and the heavy-hitter comparisons.

use crate::weight::{median_f64, Weight};
use bd_hash::RowHashes;
use bd_stream::{
    BatchScratch, MaxMag, Mergeable, PointQuery, PointQueryBatch, Scratch, Sketch, SketchState,
    SpaceReport, SpaceUsage, StateError, StateReader, StateWriter, Update,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Reusable batched-ingest scratch: aggregation table, hash plan, and
/// per-row output buffers. Pure scratch — carries no sketch state.
#[derive(Debug, Default)]
struct IngestScratch {
    agg: BatchScratch,
    plan: RowHashes,
    buckets: Vec<u64>,
    signs: Vec<bool>,
}

/// A Countsketch with `depth` rows and `width` buckets per row over counters
/// of type `W` (`i64` for plain streams, `f64` for precision-scaled ones).
#[derive(Clone, Debug)]
pub struct CountSketch<W: Weight = i64> {
    seed: u64,
    depth: usize,
    width: usize,
    table: Vec<W>,
    bucket_hashes: Vec<bd_hash::KWiseHash>,
    sign_hashes: Vec<bd_hash::SignHash>,
    max_mag: MaxMag,
    scratch: Scratch<IngestScratch>,
}

impl<W: Weight> CountSketch<W> {
    /// Create a `depth × width` Countsketch from a seed (identical seeds and
    /// shapes give identical hash functions, the [`Mergeable`] contract).
    /// For the paper's parameters use `width = 6k` and `depth = O(log n)`.
    pub fn new(seed: u64, depth: usize, width: usize) -> Self {
        assert!(depth >= 1 && width >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        CountSketch {
            seed,
            depth,
            width,
            table: vec![W::zero(); depth * width],
            bucket_hashes: (0..depth)
                .map(|_| bd_hash::KWiseHash::fourwise(&mut rng, width as u64))
                .collect(),
            sign_hashes: (0..depth)
                .map(|_| bd_hash::SignHash::new(&mut rng))
                .collect(),
            max_mag: MaxMag::default(),
            scratch: Scratch::default(),
        }
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Buckets per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Apply an update `f_item ← f_item + delta`.
    #[inline]
    pub fn update(&mut self, item: u64, delta: W) {
        for r in 0..self.depth {
            let b = self.bucket_hashes[r].hash(item) as usize;
            let signed = if self.sign_hashes[r].sign(item) >= 0 {
                delta
            } else {
                delta.neg()
            };
            let cell = &mut self.table[r * self.width + b];
            cell.add_assign(signed);
            self.max_mag.observe_mag(cell.abs_f64() as u64);
        }
    }

    /// The estimate from a single row (the `g_i(j)·a_{i,h_i(j)}` of Lemma 2).
    #[inline]
    pub fn row_estimate(&self, row: usize, item: u64) -> f64 {
        let b = self.bucket_hashes[row].hash(item) as usize;
        let v = self.table[row * self.width + b].to_f64();
        if self.sign_hashes[row].sign(item) >= 0 {
            v
        } else {
            -v
        }
    }

    /// Median-of-rows point estimate `y*_j`.
    pub fn estimate(&self, item: u64) -> f64 {
        let mut ests: Vec<f64> = (0..self.depth)
            .map(|r| self.row_estimate(r, item))
            .collect();
        median_f64(&mut ests)
    }

    /// The squared L2 norm of one row, `Σ_b A[r][b]²` — a `(1 ± O(w^{-1/2}))`
    /// estimate of `‖f‖₂²` (paper Lemma 4).
    pub fn row_l2_squared(&self, row: usize) -> f64 {
        self.table[row * self.width..(row + 1) * self.width]
            .iter()
            .map(|c| {
                let v = c.to_f64();
                v * v
            })
            .sum()
    }

    /// Median across rows of the row-L2 estimates of `‖f‖₂`.
    pub fn l2_estimate(&self) -> f64 {
        let mut ests: Vec<f64> = (0..self.depth)
            .map(|r| self.row_l2_squared(r).sqrt())
            .collect();
        median_f64(&mut ests)
    }

    /// Raw cell access for composition (row-major).
    pub fn cell(&self, row: usize, bucket: usize) -> W {
        self.table[row * self.width + bucket]
    }
}

impl<W: Weight> Sketch for CountSketch<W> {
    fn update(&mut self, item: u64, delta: i64) {
        CountSketch::update(self, item, W::from_i64(delta));
    }

    /// Batched ingestion: collapse duplicate items to net deltas first
    /// (reusable aggregation table, zero steady-state allocations), then
    /// canonicalize the distinct items once and evaluate each row's bucket
    /// and sign polynomials over the whole chunk in one interleaved-Horner
    /// pass. Estimates are bit-identical to the sequential loop by
    /// linearity; the `max_mag` width tracker may record *smaller* peaks
    /// (intra-chunk cancellations never hit the table), so reported counter
    /// widths reflect the magnitudes actually written, which can depend on
    /// the chunking.
    fn update_batch(&mut self, batch: &[Update]) {
        let Self {
            depth,
            width,
            table,
            bucket_hashes,
            sign_hashes,
            max_mag,
            scratch,
            ..
        } = self;
        let IngestScratch {
            agg,
            plan,
            buckets,
            signs,
        } = &mut **scratch;
        let agg = agg.aggregate_net(batch);
        let live = || agg.iter().filter(|&&(_, net)| net != 0);
        plan.load(live().map(|&(item, _)| item));
        if plan.is_empty() {
            return;
        }
        for r in 0..*depth {
            plan.eval_buckets(&bucket_hashes[r], buckets);
            plan.eval_signs(&sign_hashes[r], signs);
            let row = &mut table[r * *width..(r + 1) * *width];
            for (idx, &(_, net)) in live().enumerate() {
                let delta = W::from_i64(net);
                let signed = if signs[idx] { delta } else { delta.neg() };
                let cell = &mut row[buckets[idx] as usize];
                cell.add_assign(signed);
                max_mag.observe_mag(cell.abs_f64() as u64);
            }
        }
    }
}

impl<W: Weight> PointQuery for CountSketch<W> {
    fn point(&self, item: u64) -> f64 {
        self.estimate(item)
    }
}

impl<W: Weight> PointQueryBatch for CountSketch<W> {
    /// Every row's bucket and sign polynomials are evaluated over the whole
    /// query set in one interleaved-Horner pass (call-local plan, so the
    /// receiver stays shared); each item's median-of-rows is then read out
    /// of the row-major buffers. Bit-identical per item to
    /// [`CountSketch::estimate`].
    fn point_many(&self, items: &[u64], out: &mut Vec<f64>) {
        let mut plan = RowHashes::default();
        plan.load(items.iter().copied());
        let mut buckets = Vec::new();
        let mut signs = Vec::new();
        for r in 0..self.depth {
            plan.append_buckets(&self.bucket_hashes[r], &mut buckets);
            plan.append_signs(&self.sign_hashes[r], &mut signs);
        }
        let m = items.len();
        let mut ests = Vec::with_capacity(self.depth);
        out.reserve(m);
        for idx in 0..m {
            ests.clear();
            for r in 0..self.depth {
                let v = self.table[r * self.width + buckets[r * m + idx] as usize].to_f64();
                ests.push(if signs[r * m + idx] { v } else { -v });
            }
            out.push(median_f64(&mut ests));
        }
    }
}

impl<W: Weight> Mergeable for CountSketch<W> {
    fn merge_from(&mut self, other: &Self) {
        assert!(
            self.seed == other.seed && self.depth == other.depth && self.width == other.width,
            "CountSketch merge requires identically seeded sketches"
        );
        for (a, b) in self.table.iter_mut().zip(&other.table) {
            a.add_assign(*b);
            self.max_mag.observe_mag(a.abs_f64() as u64);
        }
    }
}

impl<W: Weight> SketchState for CountSketch<W> {
    /// Mutable state is the counter table plus the width watermark; hashes
    /// and shapes rebuild from the spec.
    fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.max_mag.max());
        w.u64_seq(self.table.iter().map(|c| c.to_bits64()));
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let mut mag = MaxMag::default();
        mag.observe_mag(r.u64()?);
        self.max_mag = mag;
        let n = r.seq(8)?;
        if n != self.table.len() {
            return Err(StateError::Corrupt("countsketch table length"));
        }
        for cell in self.table.iter_mut() {
            *cell = W::from_bits64(r.u64()?);
        }
        Ok(())
    }
}

impl<W: Weight> SpaceUsage for CountSketch<W> {
    fn space(&self) -> SpaceReport {
        let seed_bits: usize = self
            .bucket_hashes
            .iter()
            .map(|h| h.seed_bits())
            .chain(self.sign_hashes.iter().map(|g| g.seed_bits()))
            .sum();
        SpaceReport {
            counters: (self.depth * self.width) as u64,
            counter_bits: (self.depth * self.width) as u64 * self.max_mag.bits_signed(),
            seed_bits: seed_bits as u64,
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
    fn exact_on_sparse_input() {
        // With few items and a wide table, estimates are exact w.h.p.
        let mut cs = CountSketch::<i64>::new(1, 9, 256);
        cs.update(10, 5);
        cs.update(20, -3);
        cs.update(10, 2);
        assert_eq!(cs.estimate(10), 7.0);
        assert_eq!(cs.estimate(20), -3.0);
        assert_eq!(cs.estimate(99), 0.0);
    }

    #[test]
    fn error_bounded_by_lemma_two() {
        let k = 16usize;
        let mut cs = CountSketch::<i64>::new(2, 15, 6 * k);
        let stream = BoundedDeletionGen::new(1 << 12, 30_000, 4.0).generate_seeded(2);
        let truth = FrequencyVector::from_stream(&stream);
        for u in &stream {
            cs.update(u.item, u.delta);
        }
        let bound = truth.err_k(k, 2) / (k as f64).sqrt();
        let mut violations = 0usize;
        let items: Vec<u64> = truth.support();
        for &i in &items {
            let err = (cs.estimate(i) - truth.get(i) as f64).abs();
            if err > bound.max(1.0) {
                violations += 1;
            }
        }
        // Lemma 2 gives the bound w.h.p. per item; allow a tiny slack count.
        assert!(
            violations <= items.len() / 50,
            "{violations}/{} violations of the Countsketch bound",
            items.len()
        );
    }

    #[test]
    fn l2_estimate_close() {
        let mut cs = CountSketch::<i64>::new(3, 11, 512);
        let stream = BoundedDeletionGen::new(1 << 10, 20_000, 2.0).generate_seeded(3);
        for u in &stream {
            cs.update(u.item, u.delta);
        }
        let truth = FrequencyVector::from_stream(&stream).l2();
        let est = cs.l2_estimate();
        assert!(
            (est - truth).abs() / truth < 0.2,
            "L2 estimate {est} vs {truth}"
        );
    }

    #[test]
    fn float_counters_accept_scaled_updates() {
        let mut cs = CountSketch::<f64>::new(4, 7, 64);
        cs.update(5, 2.5);
        cs.update(5, 0.5);
        assert!((cs.estimate(5) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn space_reports_counter_growth() {
        let mut cs = CountSketch::<i64>::new(5, 2, 4);
        let before = cs.space().counter_bits;
        for _ in 0..1000 {
            cs.update(1, 1000);
        }
        let after = cs.space().counter_bits;
        assert!(after > before, "counter widths must grow with magnitude");
        assert_eq!(cs.space().counters, 8);
        assert!(cs.space().seed_bits > 0);
    }

    #[test]
    fn batched_ingestion_is_bit_identical() {
        let stream = BoundedDeletionGen::new(1 << 10, 20_000, 3.0).generate_seeded(6);
        let mut per_update = CountSketch::<i64>::new(7, 7, 128);
        let mut batched = per_update.clone();
        StreamRunner::unbatched().run(&mut per_update, &stream);
        StreamRunner::new().run(&mut batched, &stream);
        for i in 0..1024u64 {
            assert_eq!(
                per_update.estimate(i).to_bits(),
                batched.estimate(i).to_bits()
            );
        }
    }

    #[test]
    fn merge_equals_single_pass() {
        let stream = BoundedDeletionGen::new(1 << 10, 10_000, 2.0).generate_seeded(8);
        let mid = stream.len() / 2;
        let mut whole = CountSketch::<i64>::new(9, 5, 64);
        let mut left = whole.clone();
        let mut right = whole.clone();
        for u in &stream {
            Sketch::update(&mut whole, u.item, u.delta);
        }
        for u in &stream.updates[..mid] {
            Sketch::update(&mut left, u.item, u.delta);
        }
        for u in &stream.updates[mid..] {
            Sketch::update(&mut right, u.item, u.delta);
        }
        left.merge_from(&right);
        for i in 0..1024u64 {
            assert_eq!(whole.estimate(i).to_bits(), left.estimate(i).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "identically seeded")]
    fn merge_rejects_different_seeds() {
        let mut a = CountSketch::<i64>::new(1, 3, 16);
        let b = CountSketch::<i64>::new(2, 3, 16);
        a.merge_from(&b);
    }
}
