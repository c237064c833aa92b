//! Registration of the α-property structures into the workspace sketch
//! registry, and [`registry()`] — the fully-populated workspace catalog.
//!
//! Builders size each structure from [`Params::from_spec`] (the spec's
//! `(n, ε, α, δ)` plus regime/constant overrides), so a spec string like
//! `csss:n=1e6,eps=0.05,alpha=8,seed=42` is the *entire* construction
//! input. Equal specs build bit-identical sketches; that determinism is
//! what makes [`Registry::build_pair`] the sharding/merge hook and what the
//! conformance suite replays.

use bd_stream::registry::{self, Capabilities, FamilyInfo, Registry};
use bd_stream::spec::{SketchFamily, SketchSpec};
use bd_stream::{impl_dyn_sketch, Item, NormEstimate, SupportQuery};

use crate::csss::Csss;
use crate::heavy_hitters::AlphaHeavyHitters;
use crate::inner_product::{AlphaInnerProduct, AlphaIpFamily, AlphaIpSketch};
use crate::l0_const::AlphaConstL0;
use crate::l0_estimator::AlphaL0Estimator;
use crate::l0_rough::AlphaRoughL0;
use crate::l1_general::AlphaL1General;
use crate::l1_sampler::{AlphaL1Sampler, AlphaL1SamplerInstance};
use crate::l1_strict::AlphaL1Estimator;
use crate::l2_heavy_hitters::AlphaL2HeavyHitters;
use crate::params::Params;
use crate::sampling::SampledVector;
use crate::support_sampler::{AlphaSupportSampler, AlphaSupportSamplerSet};

// ---------------------------------------------------------------------------
// Capability impls for the registry's generic query surface.
// ---------------------------------------------------------------------------

/// An α inner-product sketch against itself estimates `‖f‖₂² = ⟨f, f⟩`.
impl NormEstimate for AlphaIpSketch {
    fn norm_estimate(&self) -> f64 {
        self.inner_product(self)
    }
}

impl SupportQuery for AlphaSupportSampler {
    fn support_query(&self) -> Vec<Item> {
        self.query()
    }
}

impl SupportQuery for AlphaSupportSamplerSet {
    fn support_query(&self) -> Vec<Item> {
        self.query()
    }
}

impl_dyn_sketch!(Csss, point, point_batch, merge, persist);
impl_dyn_sketch!(SampledVector, point, norm, merge, persist);
impl_dyn_sketch!(AlphaHeavyHitters, point, point_batch, norm, merge, persist);
impl_dyn_sketch!(AlphaL1Sampler, sample, merge, persist);
impl_dyn_sketch!(AlphaL1SamplerInstance, sample, merge, persist);
impl_dyn_sketch!(AlphaL1Estimator, norm);
impl_dyn_sketch!(AlphaL1General, norm);
impl_dyn_sketch!(AlphaIpSketch, norm, merge, persist);
impl_dyn_sketch!(AlphaL0Estimator, norm, merge, persist);
impl_dyn_sketch!(AlphaConstL0, norm, merge, persist);
impl_dyn_sketch!(AlphaRoughL0, norm, merge, persist);
impl_dyn_sketch!(AlphaSupportSampler, support);
impl_dyn_sketch!(AlphaSupportSamplerSet, support);
impl_dyn_sketch!(AlphaL2HeavyHitters, point, norm);

impl Params {
    /// Derive the shared sizing parameters from a spec: regime picks the
    /// constant set ([`Params::practical`] / [`Params::theory`]), `delta`
    /// carries over, and the optional `c`/`depth` overrides map onto
    /// [`Params::sample_const`] / [`Params::depth`] (the knobs the
    /// experiment binaries sweep).
    pub fn from_spec(spec: &SketchSpec) -> Params {
        let mut p = match spec.regime {
            bd_stream::Regime::Practical => Params::practical(spec.n, spec.epsilon, spec.alpha),
            bd_stream::Regime::Theory => Params::theory(spec.n, spec.epsilon, spec.alpha),
        };
        p = p.with_delta(spec.delta);
        if let Some(c) = spec.c {
            p.sample_const = c;
        }
        if let Some(d) = spec.depth {
            p.depth = d;
        }
        p
    }
}

impl AlphaInnerProduct {
    /// Build the shared-randomness `(f, g)` pair from a spec (family
    /// `alpha_ip`): hash functions derive from `spec.seed`, each side gets
    /// its own sampling coins. The spec-driven twin of
    /// [`AlphaInnerProduct::new`].
    pub fn from_spec(spec: &SketchSpec) -> Self {
        AlphaInnerProduct::new(spec.seed, &Params::from_spec(spec))
    }
}

/// Support/recovery request size: `k`, default `max(4, ⌈1/ε⌉)`.
fn request_k(spec: &SketchSpec) -> usize {
    spec.k
        .unwrap_or(((1.0 / spec.epsilon).ceil() as usize).max(4))
}

/// Register every α-property family of this crate.
pub fn register(reg: &mut Registry) {
    reg.register(
        FamilyInfo {
            family: SketchFamily::Csss,
            summary: "CSSS sampled Countsketch (Figure 2, Theorem 1)",
            caps: Capabilities {
                batch_bitwise: true,
                linear: true,
                ..Default::default()
            },
            space: "depth × 6k cells of log(S) bits, S = c·α²/ε³",
        },
        |spec| {
            let params = Params::from_spec(spec);
            let k = spec
                .k
                .unwrap_or(((2.0 / spec.epsilon).ceil() as usize).max(4));
            let budget = spec.budget.unwrap_or_else(|| params.csss_sample_budget());
            Box::new(Csss::new(spec.seed, k, params.depth, budget))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::SampledVector,
            summary: "sampled frequency vector (Lemma 1 substrate)",
            caps: Capabilities {
                batch_bitwise: true,
                linear: true,
                ..Default::default()
            },
            space: "≤ 2S sampled units, S = c·α²/ε³",
        },
        |spec| {
            let params = Params::from_spec(spec);
            let budget = spec.budget.unwrap_or_else(|| params.csss_sample_budget());
            Box::new(SampledVector::new(spec.seed, budget))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::AlphaHh,
            summary: "α heavy hitters, strict turnstile (Theorem 4)",
            // No contract. CSSS merge + exact net-counter addition + candidate
            // union (statistical in the thinning regime, like CSSS itself).
            caps: Capabilities::default(),
            space: "CSSS over samples: ε⁻¹·log(α/ε)-bit counters (vs log m)",
        },
        |spec| {
            Box::new(AlphaHeavyHitters::new_strict(
                spec.seed,
                &Params::from_spec(spec),
            ))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::AlphaHhGeneral,
            summary: "α heavy hitters, general turnstile (Theorem 3)",
            // No contract. As the strict variant, plus the Cauchy L1 tracker's
            // row-wise (estimate-equal) float merge.
            caps: Capabilities::default(),
            space: "strict variant + an 1/8-accurate Cauchy L1 tracker",
        },
        |spec| {
            Box::new(AlphaHeavyHitters::new_general(
                spec.seed,
                &Params::from_spec(spec),
            ))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::AlphaL1Sampler,
            summary: "α L1 sampler (Figure 3, Theorem 5)",
            // No contract. Instance-wise CSSS merge (statistical in the
            // thinning regime, like CSSS itself). The batch override keeps the
            // per-update weight quantization but offers candidates only after
            // the chunk settles (and sums thinning draws), so it is
            // statistical, not bitwise.
            caps: Capabilities::default(),
            space: "ε⁻¹·ln(1/δ) instances, each a CSSS of ε' = ε³ sensitivity",
        },
        |spec| Box::new(AlphaL1Sampler::new(spec.seed, &Params::from_spec(spec))),
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::AlphaL1SamplerInstance,
            summary: "one α L1 sampler instance (Figure 3 component)",
            // No contract. As the amplified sampler: CSSS-wise merge;
            // statistical batch override (1/t_i memoized per chunk item,
            // candidate offers deferred to the end of the chunk).
            caps: Capabilities::default(),
            space: "one CSSS + scaled-mass accumulators",
        },
        |spec| {
            Box::new(AlphaL1SamplerInstance::new(
                spec.seed,
                &Params::from_spec(spec),
            ))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::AlphaL1,
            summary: "α L1 estimator, strict turnstile (Figure 4, Theorem 6)",
            caps: Capabilities {
                batch_bitwise: true,
                ..Default::default()
            },
            space: "two log(s)-bit windows + a Morris register, s = c·α²/ε²",
        },
        |spec| match spec.budget {
            // Explicit budgets round up to the power of two the interval
            // schedule needs (the E6 ablation knob).
            Some(b) => Box::new(AlphaL1Estimator::with_budget(
                spec.seed,
                bd_hash::next_pow2(b.max(2)),
            )),
            None => Box::new(AlphaL1Estimator::new(spec.seed, &Params::from_spec(spec))),
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::AlphaL1General,
            summary: "α L1 estimator, general turnstile (§5.2, Theorem 8)",
            // No contract. The pre-aggregating batch path re-quantizes per
            // collapsed weight: statistically, not bitwise, equivalent.
            caps: Capabilities::default(),
            space: "ε⁻² rows of log(α·log n/ε)-bit sampled Cauchy counters",
        },
        |spec| Box::new(AlphaL1General::new(spec.seed, &Params::from_spec(spec))),
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::AlphaIp,
            summary: "one side of the α inner-product pair (Theorem 2)",
            caps: Capabilities {
                // Level-wise window merge; exact while shard windows
                // coincide (combined position below the interval budget).
                batch_bitwise: true,
                ..Default::default()
            },
            space: "depth × 2/ε buckets of log(α·log n/ε) bits",
        },
        |spec| {
            let params = Params::from_spec(spec);
            let fam = AlphaIpFamily::new(spec.seed, &params, spec.depth.unwrap_or(5));
            // The instance's sampling coins are a fixed derivation of the
            // spec seed, so equal specs stay bit-identical.
            Box::new(fam.sketch(spec.seed ^ 0x9e37_79b9_7f4a_7c15))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::AlphaL0,
            summary: "α L0 estimator (Figure 7, Theorem 10)",
            caps: Capabilities {
                // Level-wise merge; exact while shard windows coincide, the
                // Theorem 10 O(ε²)-prefix approximation once they slide.
                batch_bitwise: true,
                ..Default::default()
            },
            space: "a log(α/ε)-row live window of K = 1/ε² counters (vs log n rows)",
        },
        |spec| Box::new(AlphaL0Estimator::new(spec.seed, &Params::from_spec(spec))),
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::AlphaConstL0,
            summary: "constant-factor α L0 estimator (Lemma 20)",
            caps: Capabilities {
                // Level-wise detector merge (per-level detector seeds);
                // exact while shard windows coincide.
                batch_bitwise: true,
                ..Default::default()
            },
            space: "a log α-level live window of O(log log n)-bit registers",
        },
        |spec| Box::new(AlphaConstL0::new(spec.seed, &Params::from_spec(spec))),
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::AlphaRoughL0,
            summary: "rough all-times L0 tracker (Corollary 2)",
            caps: Capabilities {
                // Set-union merge of the monotone F0 tracker: a pure
                // function of the observed identities, bitwise in every
                // regime.
                merge_bitwise: true,
                batch_bitwise: true,
                ..Default::default()
            },
            space: "O(log n·log log n) bits (monotone F0 tracker + offset)",
        },
        |spec| Box::new(AlphaRoughL0::new(spec.seed, spec.n)),
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::AlphaSupport,
            summary: "α support sampler, one instance (Figure 8)",
            caps: Capabilities {
                batch_bitwise: true,
                ..Default::default()
            },
            space: "(log α + log log n) live levels × Θ(k)-sparse recovery",
        },
        |spec| {
            Box::new(AlphaSupportSampler::new(
                spec.seed,
                &Params::from_spec(spec),
                request_k(spec),
            ))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::AlphaSupportSet,
            summary: "α support sampler, amplified set (Theorem 11)",
            caps: Capabilities {
                batch_bitwise: true,
                ..Default::default()
            },
            space: "log(1/δ) instances of the Figure 8 sampler",
        },
        |spec| {
            Box::new(AlphaSupportSamplerSet::new(
                spec.seed,
                &Params::from_spec(spec),
                request_k(spec),
            ))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::AlphaL2Hh,
            summary: "α L2 heavy hitters (Appendix A)",
            caps: Capabilities {
                batch_bitwise: true,
                ..Default::default()
            },
            space: "(2α/ε)²-wide finder table + verifier Countsketch",
        },
        |spec| {
            Box::new(AlphaL2HeavyHitters::new(
                spec.seed,
                &Params::from_spec(spec),
            ))
        },
    );
}

/// The fully-populated workspace catalog: the `bd-stream` reference family,
/// every `bd-sketch` turnstile baseline, and every `bd-core` α-property
/// structure. This is the registry benches, examples, `sketchctl`, and the
/// conformance suite drive.
pub fn registry() -> Registry {
    let mut reg = Registry::new();
    registry::register_reference(&mut reg);
    bd_sketch::register_baselines(&mut reg);
    register(&mut reg);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_stream::{Sketch, StreamRunner, Update};

    #[test]
    fn full_catalog_covers_every_family() {
        let reg = registry();
        assert_eq!(reg.len(), SketchFamily::ALL.len());
        for &fam in SketchFamily::ALL {
            assert!(reg.info(fam).is_some(), "family {fam} missing");
        }
    }

    #[test]
    fn every_family_builds_and_ingests() {
        let reg = registry();
        let updates: Vec<Update> = (0..64u64).map(|i| Update::new(i % 13, 2)).collect();
        for info in reg.families() {
            let spec = SketchSpec::new(info.family)
                .with_n(1 << 10)
                .with_epsilon(0.25)
                .with_alpha(3.0)
                .with_seed(7);
            let mut sk = reg
                .build(&spec)
                .unwrap_or_else(|e| panic!("{}: {e}", info.family));
            sk.update_batch(&updates);
            Sketch::update(sk.as_mut(), 5, -1);
        }
    }

    #[test]
    fn build_pair_replays_identically_on_csss() {
        let reg = registry();
        let spec = SketchSpec::new(SketchFamily::Csss)
            .with_n(1 << 12)
            .with_epsilon(0.1)
            .with_alpha(4.0)
            .with_seed(42);
        let (mut a, mut b) = reg.build_pair(&spec).unwrap();
        let stream =
            bd_stream::gen::BoundedDeletionGen::new(1 << 12, 4_000, 4.0).generate_seeded(3);
        let runner = StreamRunner::new();
        runner.run(&mut *a, &stream);
        runner.run(&mut *b, &stream);
        let (pa, pb) = (a.as_point().unwrap(), b.as_point().unwrap());
        for i in 0..512 {
            assert_eq!(pa.point(i).to_bits(), pb.point(i).to_bits());
        }
    }

    #[test]
    fn params_from_spec_honours_regime_and_overrides() {
        let spec = SketchSpec::new(SketchFamily::Csss)
            .with_n(1 << 20)
            .with_epsilon(0.1)
            .with_alpha(8.0)
            .with_delta(0.2)
            .with_c(4.0)
            .with_depth(5);
        let p = Params::from_spec(&spec);
        assert_eq!(p.delta, 0.2);
        assert_eq!(p.sample_const, 4.0);
        assert_eq!(p.depth, 5);
        let t = Params::from_spec(&spec.with_regime(bd_stream::Regime::Theory));
        assert_eq!(t.sample_const, 4.0, "c override wins over regime");
    }
}
