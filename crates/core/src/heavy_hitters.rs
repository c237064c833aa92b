//! L1 ε-heavy hitters for α-property streams (paper §3, Theorems 3 and 4).
//!
//! Run CSSS with sensitivity `Θ(ε)` and return every item whose point
//! estimate crosses `3εR/4`, where `R` approximates `‖f‖₁`:
//!
//! * **strict turnstile** (Theorem 4): `R = ‖f‖₁` exactly, from a single
//!   `O(log n)`-bit counter of `Σ_t Δ_t` (non-negative coordinates make the
//!   net sum the norm) — high-probability guarantee;
//! * **general turnstile** (Theorem 3): `R = (1 ± 1/8)‖f‖₁` from the
//!   median-of-Cauchy estimator (Fact 1) — `1 − δ` guarantee.
//!
//! Space: `O(ε^{-1} log(n) log(α log(n)/ε))` versus the turnstile lower
//! bound `Ω(ε^{-1} log²(n))` — the counter widths are what shrink.

use crate::csss::Csss;
use crate::params::Params;
use bd_sketch::{CandidateSet, MedianL1};
use bd_stream::{
    BatchScratch, Mergeable, NormEstimate, PointQuery, PointQueryBatch, Scratch, Sketch,
    SketchState, SpaceReport, SpaceUsage, StateError, StateReader, StateWriter, Update,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How `‖f‖₁` is tracked.
#[derive(Clone, Debug)]
enum NormTracker {
    /// Strict turnstile: exact net counter.
    Strict { net: i64 },
    /// General turnstile: Fact 1 sketch giving `(1 ± 1/8)‖f‖₁`.
    General(Box<MedianL1>),
}

/// The α-property L1 heavy-hitters sketch.
#[derive(Clone, Debug)]
pub struct AlphaHeavyHitters {
    csss: Csss,
    candidates: CandidateSet,
    norm: NormTracker,
    epsilon: f64,
    universe: u64,
    /// Reusable chunk-aggregation scratch (no sketch state).
    agg: Scratch<BatchScratch>,
    /// Reusable per-chunk candidate scores (no sketch state).
    scores: Scratch<Vec<f64>>,
}

impl AlphaHeavyHitters {
    /// Strict-turnstile variant (Theorem 4).
    pub fn new_strict(seed: u64, params: &Params) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        Self::build(&mut rng, params, NormTracker::Strict { net: 0 })
    }

    /// General-turnstile variant (Theorem 3).
    pub fn new_general(seed: u64, params: &Params) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let norm =
            NormTracker::General(Box::new(MedianL1::new(rng.gen(), 1.0 / 8.0, params.delta)));
        Self::build(&mut rng, params, norm)
    }

    fn build(rng: &mut SmallRng, params: &Params, norm: NormTracker) -> Self {
        let k = ((8.0 / params.epsilon).ceil() as usize).max(2);
        let cap = ((8.0 / params.epsilon).ceil() as usize).max(4);
        AlphaHeavyHitters {
            csss: Csss::new(rng.gen(), k, params.depth, params.csss_sample_budget()),
            candidates: CandidateSet::new(cap),
            norm,
            epsilon: params.epsilon,
            universe: params.n,
            agg: Scratch::default(),
            scores: Scratch::default(),
        }
    }

    /// Apply an update.
    pub fn update(&mut self, item: u64, delta: i64) {
        self.csss.update(item, delta);
        match &mut self.norm {
            NormTracker::Strict { net } => *net += delta,
            NormTracker::General(m) => m.update(item, delta),
        }
        let csss = &self.csss;
        self.candidates.offer(item, |i| csss.estimate(i));
    }

    /// The `R ≈ ‖f‖₁` used for thresholding.
    pub fn norm_estimate(&self) -> f64 {
        match &self.norm {
            NormTracker::Strict { net } => net.unsigned_abs() as f64,
            NormTracker::General(m) => m.estimate(),
        }
    }

    /// Point query `y*_i`.
    pub fn estimate(&self, item: u64) -> f64 {
        self.csss.estimate(item)
    }

    /// The CSSS core's sampling level `p` (rate `2^{-p}`).
    pub fn sampling_level(&self) -> u32 {
        self.csss.level()
    }

    /// The ε-heavy-hitter set: contains every `|f_i| ≥ ε‖f‖₁`, nothing
    /// below `(ε/2)‖f‖₁` (sorted by decreasing estimate). The candidates are
    /// scored in one batched CSSS pass ([`Csss::estimate_many_shared`]),
    /// bit-identical to a [`Csss::estimate`] per candidate.
    pub fn query(&self) -> Vec<(u64, f64)> {
        let r = self.norm_estimate();
        let thresh = 0.75 * self.epsilon * r;
        let items: Vec<u64> = self.candidates.iter().collect();
        let mut ests = Vec::with_capacity(items.len());
        self.csss.estimate_many_shared(&items, &mut ests);
        let mut out: Vec<(u64, f64)> = items
            .into_iter()
            .zip(ests)
            .filter(|&(_, e)| e.abs() >= thresh)
            .collect();
        out.sort_by(|a, b| {
            b.1.abs()
                .partial_cmp(&a.1.abs())
                .unwrap()
                .then(a.0.cmp(&b.0))
        });
        out
    }
}

impl Sketch for AlphaHeavyHitters {
    fn update(&mut self, item: u64, delta: i64) {
        AlphaHeavyHitters::update(self, item, delta);
    }

    /// Batched ingestion: the chunk is aggregated into per-item signed mass
    /// once (reusable table — the same aggregation feeds all three
    /// components), then (1) CSSS absorbs the whole chunk through its
    /// batched hash pass ([`Csss::update_aggregated`]), (2) the norm
    /// tracker absorbs per-item net deltas (it is linear), (3) the
    /// candidate set is offered each distinct item once, after the counters
    /// settle. Every item a prune pass can see is scored exactly once per
    /// chunk: chunk items from the bucket and sign buffers step (1) left
    /// behind (`Csss::estimate_aggregated`, no hash pass), held members
    /// outside the chunk in one [`Csss::estimate_many`] pass, found by
    /// probing the aggregation table. Prune passes fire at the same offers
    /// and keep the same items as per-item offers scored by
    /// [`Csss::estimate`], so the state is bit-identical to that recipe
    /// (pinned by `batched_candidates_match_per_item_offers`).
    fn update_batch(&mut self, batch: &[Update]) {
        if self.agg.aggregate_signed_mass(batch).is_empty() {
            return;
        }
        let table = &self.agg;
        let agg = table.signed_mass();
        self.csss.update_aggregated(agg);
        match &mut self.norm {
            NormTracker::Strict { net } => {
                *net += agg
                    .iter()
                    .map(|&(_, p, n)| p as i64 - n as i64)
                    .sum::<i64>();
            }
            NormTracker::General(m) => {
                for &(item, pos, neg) in agg {
                    let net = pos as i64 - neg as i64;
                    if net != 0 {
                        m.update(item, net);
                    }
                }
            }
        }
        self.csss.estimate_aggregated(&mut self.scores);
        let csss = &mut self.csss;
        self.candidates.offer_chunk(
            agg.iter().map(|&(item, _, _)| item),
            &self.scores,
            |item| table.index_of(item),
            |members, out| csss.estimate_many(members, out),
        );
    }
}

impl PointQuery for AlphaHeavyHitters {
    fn point(&self, item: u64) -> f64 {
        self.estimate(item)
    }
}

impl PointQueryBatch for AlphaHeavyHitters {
    /// Point queries go straight to the CSSS core, so the batch path is its
    /// shared (call-local scratch) batched hash pass.
    fn point_many(&self, items: &[u64], out: &mut Vec<f64>) {
        self.csss.estimate_many_shared(items, out);
    }
}

impl Mergeable for AlphaHeavyHitters {
    /// Fold a shard's sketch in: CSSS counters merge (thinning-aware), the
    /// norm tracker merges (exact net addition for the strict variant,
    /// row-wise Cauchy addition for the general one), and the shard's
    /// candidate set is unioned in — each candidate re-offered against the
    /// *merged* CSSS, so prune decisions use post-merge estimates. Both
    /// sides must be identically seeded and the same variant.
    fn merge_from(&mut self, other: &Self) {
        assert!(
            self.epsilon == other.epsilon && self.universe == other.universe,
            "AlphaHeavyHitters merge requires identical shapes"
        );
        assert!(
            matches!(
                (&self.norm, &other.norm),
                (NormTracker::Strict { .. }, NormTracker::Strict { .. })
                    | (NormTracker::General(_), NormTracker::General(_))
            ),
            "AlphaHeavyHitters merge requires matching turnstile variants"
        );
        self.csss.merge_from(&other.csss);
        match (&mut self.norm, &other.norm) {
            (NormTracker::Strict { net }, NormTracker::Strict { net: o }) => *net += o,
            (NormTracker::General(m), NormTracker::General(o)) => m.merge_from(o),
            _ => unreachable!("variant match asserted above"),
        }
        let csss = &self.csss;
        self.candidates
            .offer_set(&other.candidates, |i| csss.estimate(i));
    }
}

impl NormEstimate for AlphaHeavyHitters {
    /// The `R ≈ ‖f‖₁` used for thresholding.
    fn norm_estimate(&self) -> f64 {
        AlphaHeavyHitters::norm_estimate(self)
    }
}

impl SketchState for AlphaHeavyHitters {
    /// Mutable state: the CSSS core, the norm tracker (tagged by variant —
    /// the tag is validated against the spec-built variant on load), and the
    /// candidate set.
    fn save_state(&self, w: &mut StateWriter) {
        self.csss.save_state(w);
        match &self.norm {
            NormTracker::Strict { net } => {
                w.u8(0);
                w.i64(*net);
            }
            NormTracker::General(m) => {
                w.u8(1);
                m.save_state(w);
            }
        }
        self.candidates.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.csss.load_state(r)?;
        match (r.u8()?, &mut self.norm) {
            (0, NormTracker::Strict { net }) => *net = r.i64()?,
            (1, NormTracker::General(m)) => m.load_state(r)?,
            _ => return Err(StateError::Corrupt("heavy-hitters turnstile variant")),
        }
        self.candidates.load_state(r)
    }
}

impl SpaceUsage for AlphaHeavyHitters {
    fn space(&self) -> SpaceReport {
        let mut rep = self.csss.space();
        rep.overhead_bits += self.candidates.space_bits(self.universe);
        match &self.norm {
            NormTracker::Strict { .. } => rep.overhead_bits += 64,
            NormTracker::General(m) => rep = rep.merge(m.space()),
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_stream::gen::BoundedDeletionGen;
    use bd_stream::{FrequencyVector, StreamRunner};

    /// Every epoch cut clones each worker's sketch into the snapshot it
    /// publishes. The clone of a warmed sketch carries the state and none
    /// of the ingest scratch (CSSS's and the candidate set's are pinned
    /// beside their types): it encodes to the original's bytes, and the
    /// two still encode alike after the same next batch.
    #[test]
    fn clones_carry_state_not_scratch() {
        let stream = BoundedDeletionGen::new(1 << 16, 60_000, 4.0).generate_seeded(9);
        let (warm, next) = stream.updates.split_at(stream.updates.len() - 4096);
        let mut hh = AlphaHeavyHitters::new_strict(4, &Params::practical(1 << 16, 0.1, 4.0));
        for chunk in warm.chunks(4096) {
            hh.update_batch(chunk);
        }
        assert!(hh.scores.capacity() > 0 && !hh.agg.signed_mass().is_empty());
        let mut clone = hh.clone();
        assert!(clone.agg.signed_mass().is_empty());
        assert_eq!(clone.scores.capacity(), 0);
        assert_eq!(state_bytes(&clone), state_bytes(&hh));
        hh.update_batch(next);
        clone.update_batch(next);
        assert_eq!(state_bytes(&clone), state_bytes(&hh));
    }

    fn check_hh(strict: bool, alpha: f64, seed: u64) -> (usize, usize) {
        let eps = 0.05;
        let stream = BoundedDeletionGen::new(1 << 14, 60_000, alpha).generate_seeded(seed);
        let truth = FrequencyVector::from_stream(&stream);
        let params = Params::practical(stream.n, eps, alpha);
        let mut hh = if strict {
            AlphaHeavyHitters::new_strict(seed + 1000, &params)
        } else {
            AlphaHeavyHitters::new_general(seed + 1000, &params)
        };
        for u in &stream {
            hh.update(u.item, u.delta);
        }
        let got: Vec<u64> = hh.query().into_iter().map(|(i, _)| i).collect();
        let must_have = truth.l1_heavy_hitters(eps);
        let missed = must_have.iter().filter(|i| !got.contains(i)).count();
        let l1 = truth.l1() as f64;
        let false_pos = got
            .iter()
            .filter(|&&i| (truth.get(i).unsigned_abs() as f64) < eps / 2.0 * l1)
            .count();
        (missed, false_pos)
    }

    #[test]
    fn strict_finds_all_heavy_hitters() {
        let mut total_missed = 0;
        let mut total_fp = 0;
        for seed in 0..5 {
            let (m, f) = check_hh(true, 4.0, seed);
            total_missed += m;
            total_fp += f;
        }
        assert_eq!(total_missed, 0, "missed heavy hitters");
        assert_eq!(total_fp, 0, "returned sub-ε/2 items");
    }

    #[test]
    fn general_turnstile_variant_works() {
        let mut ok = 0;
        for seed in 10..15 {
            let (m, f) = check_hh(false, 8.0, seed);
            if m == 0 && f == 0 {
                ok += 1;
            }
        }
        assert!(ok >= 4, "general variant failed in {}/5 runs", 5 - ok);
    }

    #[test]
    fn counter_widths_scale_with_alpha_not_n() {
        let eps = 0.1;
        let small_alpha = Params::practical(1 << 30, eps, 2.0);
        let big_alpha = Params::practical(1 << 30, eps, 64.0);
        let a = AlphaHeavyHitters::new_strict(1, &small_alpha);
        let b = AlphaHeavyHitters::new_strict(2, &big_alpha);
        // Identical table shapes; only the sample budget (counter widths)
        // grows with α.
        assert_eq!(a.space().counters, b.space().counters);
    }

    #[test]
    fn empty_stream_returns_nothing() {
        let params = Params::practical(1 << 10, 0.1, 2.0);
        let hh = AlphaHeavyHitters::new_strict(2, &params);
        assert!(hh.query().is_empty());
    }

    #[test]
    fn sharded_merge_finds_the_same_heavy_hitters() {
        let eps = 0.05;
        let stream = BoundedDeletionGen::new(1 << 14, 60_000, 4.0).generate_seeded(70);
        let truth = FrequencyVector::from_stream(&stream);
        let params = Params::practical(stream.n, eps, 4.0);
        for strict in [true, false] {
            let build = |seed| {
                if strict {
                    AlphaHeavyHitters::new_strict(seed, &params)
                } else {
                    AlphaHeavyHitters::new_general(seed, &params)
                }
            };
            let mut merged = build(71);
            let mut shard_b = build(71);
            let half = stream.len() / 2;
            let runner = StreamRunner::new();
            runner.run_updates(&mut merged, &stream.updates[..half]);
            runner.run_updates(&mut shard_b, &stream.updates[half..]);
            merged.merge_from(&shard_b);
            let got: Vec<u64> = merged.query().into_iter().map(|(i, _)| i).collect();
            for i in truth.l1_heavy_hitters(eps) {
                assert!(got.contains(&i), "merged shards missed heavy hitter {i}");
            }
            let l1 = truth.l1() as f64;
            for &i in &got {
                assert!(
                    truth.get(i).unsigned_abs() as f64 >= eps / 2.0 * l1,
                    "merged shards returned sub-ε/2 item {i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "matching turnstile variants")]
    fn merge_rejects_variant_mismatch() {
        let params = Params::practical(1 << 10, 0.1, 2.0);
        let mut strict = AlphaHeavyHitters::new_strict(1, &params);
        let general = AlphaHeavyHitters::new_general(1, &params);
        strict.merge_from(&general);
    }

    /// One chunk through the per-item reference: the same aggregate →
    /// `update_aggregated` → norm steps as `update_batch`, then one
    /// `CandidateSet::offer` per distinct item, scored by scalar
    /// `Csss::estimate`.
    fn per_item_offer_chunk(hh: &mut AlphaHeavyHitters, batch: &[Update]) {
        let mut scratch = BatchScratch::default();
        let agg = scratch.aggregate_signed_mass(batch);
        if agg.is_empty() {
            return;
        }
        hh.csss.update_aggregated(agg);
        match &mut hh.norm {
            NormTracker::Strict { net } => {
                *net += agg
                    .iter()
                    .map(|&(_, p, n)| p as i64 - n as i64)
                    .sum::<i64>();
            }
            NormTracker::General(m) => {
                for &(item, pos, neg) in agg {
                    let net = pos as i64 - neg as i64;
                    if net != 0 {
                        m.update(item, net);
                    }
                }
            }
        }
        let csss = &hh.csss;
        for &(item, _, _) in agg {
            hh.candidates.offer(item, |i| csss.estimate(i));
        }
    }

    fn state_bytes(hh: &AlphaHeavyHitters) -> Vec<u8> {
        let mut w = StateWriter::new();
        hh.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn batched_candidates_match_per_item_offers() {
        // A flat popularity curve puts more than 2·cap distinct items in
        // every chunk at ε = 0.5 (cap 16), so every chunk prunes; a small
        // sample constant makes CSSS thin within the first chunks, which
        // leaves many equal |estimates| for the id tie-break to order.
        let mut gen = BoundedDeletionGen::new(1 << 16, 30_000, 4.0);
        gen.zipf_s = 0.6;
        gen.distinct = 8192;
        let stream = gen.generate_seeded(90);
        for eps in [0.5, 0.1] {
            let mut params = Params::practical(stream.n, eps, 4.0);
            params.sample_const = 0.125;
            for strict in [true, false] {
                for chunk in [4096, 1000, 37] {
                    let mut batched = if strict {
                        AlphaHeavyHitters::new_strict(91, &params)
                    } else {
                        AlphaHeavyHitters::new_general(91, &params)
                    };
                    let mut reference = batched.clone();
                    for (c, updates) in stream.updates.chunks(chunk).enumerate() {
                        batched.update_batch(updates);
                        per_item_offer_chunk(&mut reference, updates);
                        assert!(
                            state_bytes(&batched) == state_bytes(&reference),
                            "ε={eps} strict={strict} chunk={chunk}: state diverged at chunk {c}"
                        );
                    }
                    assert!(batched.csss.level() >= 3, "CSSS never thinned");
                    assert_eq!(batched.query(), reference.query());
                }
            }
        }
    }

    #[test]
    fn query_matches_scalar_estimates_bit_for_bit() {
        // A thinned sketch (CSSS level ≥ 3) whose candidates carry zero
        // estimates of both signs: the batched query must return what one
        // scalar `Csss::estimate` per candidate returns, bits included.
        let stream = BoundedDeletionGen::new(1 << 14, 60_000, 4.0).generate_seeded(31);
        let mut params = Params::practical(stream.n, 0.05, 4.0);
        params.sample_const = 0.125;
        for strict in [true, false] {
            let mut hh = if strict {
                AlphaHeavyHitters::new_strict(32, &params)
            } else {
                AlphaHeavyHitters::new_general(32, &params)
            };
            StreamRunner::new().run(&mut hh, &stream);
            assert!(hh.sampling_level() >= 3, "CSSS never thinned");
            let thresh = 0.75 * hh.epsilon * hh.norm_estimate();
            let mut want: Vec<(u64, f64)> = hh
                .candidates
                .iter()
                .map(|i| (i, hh.csss.estimate(i)))
                .filter(|&(_, e)| e.abs() >= thresh)
                .collect();
            want.sort_by(|a, b| {
                b.1.abs()
                    .partial_cmp(&a.1.abs())
                    .unwrap()
                    .then(a.0.cmp(&b.0))
            });
            let bits = |v: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
                v.into_iter().map(|(i, e)| (i, e.to_bits())).collect()
            };
            let got = hh.query();
            assert!(
                !got.is_empty(),
                "strict={strict}: no heavy hitter to compare"
            );
            assert_eq!(bits(got), bits(want), "strict={strict}");
        }
    }

    #[test]
    fn batched_ingestion_finds_the_same_heavy_hitters() {
        let eps = 0.05;
        let stream = BoundedDeletionGen::new(1 << 14, 60_000, 4.0).generate_seeded(50);
        let truth = FrequencyVector::from_stream(&stream);
        let params = Params::practical(stream.n, eps, 4.0);
        let mut hh = AlphaHeavyHitters::new_strict(51, &params);
        StreamRunner::new().run(&mut hh, &stream);
        let got: Vec<u64> = hh.query().into_iter().map(|(i, _)| i).collect();
        for i in truth.l1_heavy_hitters(eps) {
            assert!(got.contains(&i), "batched path missed heavy hitter {i}");
        }
        let l1 = truth.l1() as f64;
        for &i in &got {
            assert!(
                truth.get(i).unsigned_abs() as f64 >= eps / 2.0 * l1,
                "batched path returned sub-ε/2 item {i}"
            );
        }
    }
}
