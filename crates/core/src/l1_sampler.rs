//! αL1Sampler — ε-relative-error L1 sampling for strict-turnstile strong
//! α-property streams (paper §4, Figure 3, Theorem 5).
//!
//! Precision sampling on top of CSSS: scale each coordinate by `1/t_i`
//! (`O(log 1/ε)`-wise independent uniforms, so the scaled stream `z`
//! inherits the α-property from the *strong* α-property of `f`), run CSSS
//! on `z`, and output the maximal estimate if it crossed `‖f‖₁/ε` — an
//! event of probability exactly `ε|f_i|/‖f‖₁`. The Figure 3 Recovery guards
//! (the tail estimate `v` from Lemma 5, the `(c/2)ε²/log²(n)·‖z‖₁` floor)
//! reject the rare executions where the CSSS error could bias the sample.
//! One instance outputs with probability `Θ(ε)`; [`AlphaL1Sampler`] runs
//! `O(ε^{-1}·log(1/δ))` instances.

use crate::csss::Csss;
use crate::params::Params;
use bd_sketch::{CandidateSet, SampleOutcome};
use bd_stream::{
    Mergeable, SampleQuery, Sketch, SketchState, SpaceReport, SpaceUsage, StateError, StateReader,
    StateWriter, Update,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One αL1Sampler instance (Figure 3).
#[derive(Clone, Debug)]
pub struct AlphaL1SamplerInstance {
    cs1: Csss,
    cs2: Csss,
    ts: bd_hash::KWiseUniform,
    candidates: CandidateSet,
    epsilon: f64,
    /// The sensitivity `ε' = ε³/log²(n)` used in the Recovery thresholds.
    eps_z: f64,
    k: usize,
    universe: u64,
    /// Figure 3's `r = ‖f‖₁` (exact on strict turnstile streams).
    r: i64,
    /// Figure 3's `q = ‖z‖₁` (exact, in quantized z-units).
    q: u64,
}

impl AlphaL1SamplerInstance {
    /// Build one instance from shared parameters and a seed.
    pub fn new(seed: u64, params: &Params) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let k = ((1.0 / params.epsilon).log2().ceil() as usize).max(4);
        let logn = (params.n.max(4) as f64).ln();
        AlphaL1SamplerInstance {
            cs1: Csss::new(rng.gen(), k, params.depth, params.csss_sample_budget()),
            cs2: Csss::new(rng.gen(), k, params.depth, params.csss_sample_budget()),
            ts: bd_hash::KWiseUniform::new(&mut rng, k),
            candidates: CandidateSet::new(4 * k),
            epsilon: params.epsilon,
            eps_z: params.epsilon.powi(3) / (logn * logn),
            k,
            universe: params.n,
            r: 0,
            q: 0,
        }
    }

    /// Apply an update. The scaled weight `|Δ|/t_i` is rounded to the unit
    /// grid (`t_i ≤ 1`, so the relative rounding error is ≤ 1/|z-weight|).
    pub fn update(&mut self, item: u64, delta: i64) {
        if delta == 0 {
            return;
        }
        let w = (delta.unsigned_abs() as f64 * self.ts.inv_t(item)).round() as u64;
        let w = w.max(1);
        self.cs1.update_weighted(item, w, delta > 0);
        self.cs2.update_weighted(item, w, delta > 0);
        self.r += delta;
        self.q += w;
        let cs = &self.cs1;
        self.candidates.offer(item, |i| cs.estimate(i));
    }

    /// Batched ingestion over a chunk grouped by item (first-touch order,
    /// one `(item, deltas…)` entry per distinct item — see
    /// [`group_by_item`]): the `O(log 1/ε)`-wise `1/t_i` evaluation — the
    /// per-update hot cost — is paid once per *distinct* chunk item,
    /// per-update scaled weights keep the sequential quantization
    /// `w_t = max(1, round(|Δ_t|/t_i))` and are summed per item and sign,
    /// so the CSSS substrates absorb one weighted update per item and sign
    /// — with counters bit-identical to the sequential loop below the
    /// sample budget (under thinning, one summed `Bin` draw replaces the
    /// per-update draws: statistically equivalent, as for CSSS's own batch
    /// override). Candidates are offered once per distinct item after the
    /// counters settle — identical candidate-set semantics, a fraction of
    /// the point-query evaluations (the `AlphaHeavyHitters` recipe; the
    /// offer timing is why the override is declared statistical even
    /// without thinning).
    fn apply_grouped(&mut self, grouped: &[(u64, Vec<i64>)]) {
        for (item, deltas) in grouped {
            let inv_t = self.ts.inv_t(*item);
            let (mut wpos, mut wneg) = (0u64, 0u64);
            for &delta in deltas {
                let w = ((delta.unsigned_abs() as f64 * inv_t).round() as u64).max(1);
                if delta > 0 {
                    wpos += w;
                } else {
                    wneg += w;
                }
                self.r += delta;
            }
            if wpos > 0 {
                self.cs1.update_weighted(*item, wpos, true);
                self.cs2.update_weighted(*item, wpos, true);
                self.q += wpos;
            }
            if wneg > 0 {
                self.cs1.update_weighted(*item, wneg, false);
                self.cs2.update_weighted(*item, wneg, false);
                self.q += wneg;
            }
        }
        let cs = &self.cs1;
        for (item, _) in grouped {
            self.candidates.offer(*item, |i| cs.estimate(i));
        }
    }

    /// Figure 3's Recovery step.
    pub fn query(&self) -> SampleOutcome {
        let r = self.r.max(0) as f64;
        if r == 0.0 {
            return SampleOutcome::Fail;
        }
        let q = self.q as f64;
        let cs = &self.cs1;
        let Some(best) = self.candidates.argmax(|i| cs.estimate(i)) else {
            return SampleOutcome::Fail;
        };
        let y_best = self.cs1.estimate(best);

        // Tail estimate v via Lemma 5: subtract the best k-sparse
        // approximation of y* from CSSS₂ and read the residual norm.
        let yhat = self.candidates.top_k(self.k, |i| cs.estimate(i));
        let v = 2.0 * self.cs2.residual_l2(&yhat) + 5.0 * self.eps_z * q;

        let sqrt_k = (self.k as f64).sqrt();
        if v > sqrt_k * r + 45.0 * sqrt_k * self.eps_z * q {
            return SampleOutcome::Fail; // Err₂ᵏ(z) too heavy (Lemma 9 event)
        }
        let floor = (0.125 * self.eps_z / self.epsilon * q).max(r / self.epsilon);
        if y_best.abs() < floor {
            return SampleOutcome::Fail; // no threshold crossing
        }
        SampleOutcome::Sample {
            item: best,
            estimate: self.ts.t(best) * y_best,
        }
    }
}

impl Sketch for AlphaL1SamplerInstance {
    fn update(&mut self, item: u64, delta: i64) {
        AlphaL1SamplerInstance::update(self, item, delta);
    }

    fn update_batch(&mut self, batch: &[Update]) {
        self.apply_grouped(&group_by_item(batch));
    }
}

/// Group a chunk's non-zero updates by item, keeping per-update deltas and
/// first-touch order — the shape [`AlphaL1SamplerInstance::apply_grouped`]
/// consumes. Built once per chunk and shared across the amplified sampler's
/// instances (each instance has its own scaling hashes, so only the
/// grouping — not the scaled weights — can be shared).
fn group_by_item(batch: &[Update]) -> Vec<(u64, Vec<i64>)> {
    let mut order: Vec<(u64, Vec<i64>)> = Vec::new();
    let mut index: std::collections::HashMap<u64, usize> =
        std::collections::HashMap::with_capacity(batch.len().min(1024));
    for u in batch {
        if u.delta == 0 {
            continue;
        }
        match index.entry(u.item) {
            std::collections::hash_map::Entry::Occupied(e) => order[*e.get()].1.push(u.delta),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(order.len());
                order.push((u.item, vec![u.delta]));
            }
        }
    }
    order
}

impl SampleQuery for AlphaL1SamplerInstance {
    fn sample(&self) -> SampleOutcome {
        self.query()
    }
}

impl Mergeable for AlphaL1SamplerInstance {
    /// Fold a shard's instance in: both CSSS substrates merge
    /// (thinning-aware, exact below the sample budget), the exact `r = ‖f‖₁`
    /// and `q = ‖z‖₁` registers add, and the shard's candidates are
    /// re-offered against the *merged* CSSS so prune decisions use
    /// post-merge estimates (the `AlphaHeavyHitters` recipe). Both sides
    /// must be identically seeded — the scaling hashes `t_i` then coincide,
    /// which is what makes `z` well-defined across shards.
    fn merge_from(&mut self, other: &Self) {
        assert!(
            self.epsilon == other.epsilon && self.k == other.k && self.universe == other.universe,
            "AlphaL1SamplerInstance merge requires identical shapes"
        );
        self.cs1.merge_from(&other.cs1);
        self.cs2.merge_from(&other.cs2);
        self.r += other.r;
        self.q += other.q;
        let cs = &self.cs1;
        self.candidates
            .offer_set(&other.candidates, |i| cs.estimate(i));
    }
}

impl SketchState for AlphaL1SamplerInstance {
    /// Mutable state: both CSSS substrates, the candidate set, and the exact
    /// `r = ‖f‖₁` / `q = ‖z‖₁` registers. Scaling hashes rebuild from the
    /// spec seed.
    fn save_state(&self, w: &mut StateWriter) {
        self.cs1.save_state(w);
        self.cs2.save_state(w);
        self.candidates.save_state(w);
        w.i64(self.r);
        w.u64(self.q);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.cs1.load_state(r)?;
        self.cs2.load_state(r)?;
        self.candidates.load_state(r)?;
        self.r = r.i64()?;
        self.q = r.u64()?;
        Ok(())
    }
}

impl SpaceUsage for AlphaL1SamplerInstance {
    fn space(&self) -> SpaceReport {
        let mut rep = self.cs1.space().merge(self.cs2.space());
        rep.seed_bits += self.ts.seed_bits() as u64;
        rep.overhead_bits += self.candidates.space_bits(self.universe)
            + bd_hash::width_unsigned(self.r.unsigned_abs().max(1)) as u64
            + bd_hash::width_unsigned(self.q.max(1)) as u64;
        rep
    }
}

/// The amplified sampler (Theorem 5): `O(ε^{-1} log(1/δ))` instances.
#[derive(Clone, Debug)]
pub struct AlphaL1Sampler {
    instances: Vec<AlphaL1SamplerInstance>,
}

impl AlphaL1Sampler {
    /// Build from shared parameters, instance seeds derived from `seed`.
    pub fn new(seed: u64, params: &Params) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        AlphaL1Sampler {
            instances: (0..params.sampler_copies())
                .map(|_| AlphaL1SamplerInstance::new(rng.gen(), params))
                .collect(),
        }
    }

    /// Apply an update to every instance.
    pub fn update(&mut self, item: u64, delta: i64) {
        for inst in &mut self.instances {
            inst.update(item, delta);
        }
    }

    /// The first successful instance's sample.
    pub fn query(&self) -> SampleOutcome {
        for inst in &self.instances {
            if let s @ SampleOutcome::Sample { .. } = inst.query() {
                return s;
            }
        }
        SampleOutcome::Fail
    }

    /// Number of parallel instances.
    pub fn instances(&self) -> usize {
        self.instances.len()
    }
}

impl Sketch for AlphaL1Sampler {
    fn update(&mut self, item: u64, delta: i64) {
        AlphaL1Sampler::update(self, item, delta);
    }

    /// Batched ingestion: the chunk is grouped by item *once* and replayed
    /// into every instance, so the `O(ε⁻¹ log 1/δ)` copies share the
    /// grouping pass and each pays only its own per-distinct-item `1/t_i`
    /// evaluation and weighted CSSS updates.
    fn update_batch(&mut self, batch: &[Update]) {
        let grouped = group_by_item(batch);
        for inst in &mut self.instances {
            inst.apply_grouped(&grouped);
        }
    }
}

impl SampleQuery for AlphaL1Sampler {
    fn sample(&self) -> SampleOutcome {
        self.query()
    }
}

impl Mergeable for AlphaL1Sampler {
    /// Instance-wise merge: copy `i` of one shard merges with copy `i` of
    /// the other (identical seeds pair the copies up).
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            self.instances.len(),
            other.instances.len(),
            "AlphaL1Sampler merge requires identically seeded sketches"
        );
        for (a, b) in self.instances.iter_mut().zip(&other.instances) {
            a.merge_from(b);
        }
    }
}

impl SketchState for AlphaL1Sampler {
    /// Instance-wise: each copy's state in order (copy count is structural).
    fn save_state(&self, w: &mut StateWriter) {
        w.seq(self.instances.len());
        for inst in &self.instances {
            inst.save_state(w);
        }
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        if r.seq(8)? != self.instances.len() {
            return Err(StateError::Corrupt("l1 sampler instance count"));
        }
        for inst in self.instances.iter_mut() {
            inst.load_state(r)?;
        }
        Ok(())
    }
}

impl SpaceUsage for AlphaL1Sampler {
    fn space(&self) -> SpaceReport {
        self.instances
            .iter()
            .fold(SpaceReport::default(), |acc, i| acc.merge(i.space()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_stream::gen::StrongAlphaGen;
    use bd_stream::FrequencyVector;
    use std::collections::HashMap;

    #[test]
    fn output_distribution_tracks_l1() {
        let stream = StrongAlphaGen::new(64, 40, 3.0).generate_seeded(1);
        let truth = FrequencyVector::from_stream(&stream);
        let l1 = truth.l1() as f64;
        let params = Params::practical(64, 0.25, 3.0).with_delta(0.5);

        let mut counts: HashMap<u64, usize> = HashMap::new();
        let mut draws = 0usize;
        for seed in 0..250u64 {
            let mut s = AlphaL1Sampler::new(100 + seed, &params);
            for u in &stream {
                s.update(u.item, u.delta);
            }
            if let SampleOutcome::Sample { item, .. } = s.query() {
                *counts.entry(item).or_insert(0) += 1;
                draws += 1;
            }
        }
        assert!(draws >= 120, "too many failures: {draws}/250 draws");
        let mut tv = 0.0;
        for i in truth.support() {
            let p = truth.get(i).unsigned_abs() as f64 / l1;
            let q = counts.get(&i).copied().unwrap_or(0) as f64 / draws as f64;
            tv += (p - q).abs();
        }
        tv /= 2.0;
        assert!(tv < 0.35, "TV distance {tv}");
    }

    #[test]
    fn estimates_have_relative_error() {
        let stream = StrongAlphaGen::new(256, 80, 2.0).generate_seeded(2);
        let truth = FrequencyVector::from_stream(&stream);
        let params = Params::practical(256, 0.25, 2.0).with_delta(0.5);
        let mut checked = 0;
        for seed in 0..50u64 {
            let mut s = AlphaL1Sampler::new(500 + seed, &params);
            for u in &stream {
                s.update(u.item, u.delta);
            }
            if let SampleOutcome::Sample { item, estimate } = s.query() {
                let f = truth.get(item) as f64;
                assert!(f != 0.0, "sampled outside the support");
                assert!(
                    (estimate - f).abs() / f.abs() < 0.5,
                    "estimate {estimate} vs {f}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 15, "too few samples: {checked}");
    }

    #[test]
    fn empty_stream_fails() {
        let params = Params::practical(64, 0.5, 2.0).with_delta(0.5);
        let s = AlphaL1Sampler::new(3, &params);
        assert_eq!(s.query(), SampleOutcome::Fail);
    }

    #[test]
    fn batched_ingestion_output_distribution_matches() {
        // The pre-aggregating batch path re-quantizes per collapsed item
        // (statistical, not bitwise): its output distribution must track
        // |f_i|/‖f‖₁ as well as the sequential loop's.
        use bd_stream::StreamRunner;
        let stream = StrongAlphaGen::new(64, 40, 3.0).generate_seeded(4);
        let truth = FrequencyVector::from_stream(&stream);
        let l1 = truth.l1() as f64;
        let params = Params::practical(64, 0.25, 3.0).with_delta(0.5);

        let mut counts: HashMap<u64, usize> = HashMap::new();
        let mut draws = 0usize;
        for seed in 0..250u64 {
            let mut s = AlphaL1Sampler::new(300 + seed, &params);
            StreamRunner::new().run(&mut s, &stream);
            if let SampleOutcome::Sample { item, estimate } = s.query() {
                let f = truth.get(item) as f64;
                assert!(f != 0.0, "batched path sampled outside the support");
                assert!(
                    (estimate - f).abs() / f.abs() < 0.5,
                    "batched estimate {estimate} vs {f}"
                );
                *counts.entry(item).or_insert(0) += 1;
                draws += 1;
            }
        }
        assert!(draws >= 120, "too many failures: {draws}/250 draws");
        let mut tv = 0.0;
        for i in truth.support() {
            let p = truth.get(i).unsigned_abs() as f64 / l1;
            let q = counts.get(&i).copied().unwrap_or(0) as f64 / draws as f64;
            tv += (p - q).abs();
        }
        tv /= 2.0;
        assert!(tv < 0.35, "batched-path TV distance {tv}");
    }

    #[test]
    fn merged_shards_sample_like_a_single_pass() {
        // Distribution-level merge check in the thinning-free regime is in
        // tests/{conformance,sharded,service}.rs; here, exercise the merge
        // across a real split and check the invariants that must be exact:
        // r/q accounting adds and the sample stays inside the support.
        let stream = StrongAlphaGen::new(64, 60, 2.0).generate_seeded(11);
        let truth = FrequencyVector::from_stream(&stream);
        let params = Params::practical(64, 0.25, 2.0).with_delta(0.5);
        let mut sampled = 0;
        for seed in 0..40u64 {
            let mut whole = AlphaL1Sampler::new(700 + seed, &params);
            let mut a = AlphaL1Sampler::new(700 + seed, &params);
            let mut b = AlphaL1Sampler::new(700 + seed, &params);
            let half = stream.len() / 2;
            for (t, u) in stream.iter().enumerate() {
                whole.update(u.item, u.delta);
                if t < half { &mut a } else { &mut b }.update(u.item, u.delta);
            }
            a.merge_from(&b);
            for (inst_m, inst_w) in a.instances.iter().zip(&whole.instances) {
                assert_eq!(inst_m.r, inst_w.r, "merged r diverged");
                assert_eq!(inst_m.q, inst_w.q, "merged q diverged");
            }
            if let SampleOutcome::Sample { item, estimate } = a.query() {
                sampled += 1;
                let f = truth.get(item) as f64;
                assert!(f != 0.0, "merged sampler left the support");
                assert!(
                    (estimate - f).abs() / f.abs() < 0.5,
                    "merged estimate {estimate} vs {f}"
                );
            }
        }
        assert!(
            sampled >= 10,
            "merged sampler almost never outputs: {sampled}/40"
        );
    }

    #[test]
    #[should_panic(expected = "identically seeded")]
    fn merge_rejects_shape_mismatch() {
        let p1 = Params::practical(64, 0.25, 2.0).with_delta(0.5);
        let p2 = Params::practical(64, 0.25, 2.0).with_delta(0.1);
        let mut a = AlphaL1Sampler::new(1, &p1);
        let b = AlphaL1Sampler::new(1, &p2);
        a.merge_from(&b);
    }
}
