//! Registration of the turnstile baselines into the workspace sketch
//! registry (`bd_stream::registry`).
//!
//! [`register`] installs a builder and a descriptor for every `Sketch`
//! implementation in this crate; each type's capabilities come from its
//! [`bd_stream::impl_dyn_sketch!`] list below. Builders are pure functions
//! of the [`SketchSpec`]: shapes derive from `(n, ε, δ)` by the formulas
//! noted in each family's `space` string, with the spec's optional
//! `k`/`depth`/`width` fields as the experiment-sweep overrides. All
//! randomness derives from `spec.seed`, so equal specs build bit-identical
//! sketches.
//!
//! This module also hosts the baselines' capability lists and the few
//! capability-trait impls that exist for the registry's sake
//! (self-inner-product as an F2 [`NormEstimate`], recovery results as
//! [`SupportQuery`]).

use bd_stream::registry::{Capabilities, FamilyInfo, Registry};
use bd_stream::spec::{Regime, SketchFamily, SketchSpec};
use bd_stream::{impl_dyn_sketch, Item, NormEstimate, SupportQuery};

use crate::ams::{AmsFamily, AmsSketch, IpCountSketch, IpFamily};
use crate::countmin::CountMin;
use crate::countsketch::CountSketch;
use crate::l0_turnstile::L0Estimator;
use crate::l1_sampler_turnstile::{L1SamplerTurnstile, PrecisionSamplerInstance};
use crate::l1_turnstile::{LogCosL1, MedianL1};
use crate::morris::MorrisCounter;
use crate::rough_f0::RoughF0;
use crate::rough_l0::RoughL0;
use crate::small_f0::{SmallF0, SmallF0Result};
use crate::small_l0::SmallL0;
use crate::sparse_recovery::{Recovery, SparseRecovery};
use crate::support_turnstile::SupportSamplerTurnstile;

// ---------------------------------------------------------------------------
// Capability impls that exist for the registry's generic query surface.
// ---------------------------------------------------------------------------

/// AMS rows estimate `‖f‖₂²` (median over 8 row groups).
impl NormEstimate for AmsSketch {
    fn norm_estimate(&self) -> f64 {
        self.f2(8)
    }
}

/// An inner-product table against itself estimates `‖f‖₂² = ⟨f, f⟩`.
impl NormEstimate for IpCountSketch {
    fn norm_estimate(&self) -> f64 {
        self.inner_product(self)
    }
}

/// Exact F0 under the promise; `+∞` signals the absorbing LARGE state.
impl NormEstimate for SmallF0 {
    fn norm_estimate(&self) -> f64 {
        match self.result() {
            SmallF0Result::Exact(v) => v as f64,
            SmallF0Result::Large => f64::INFINITY,
        }
    }
}

impl SupportQuery for SupportSamplerTurnstile {
    fn support_query(&self) -> Vec<Item> {
        self.support()
    }
}

/// Sparse recovery recovers its support exactly (empty when DENSE).
impl SupportQuery for SparseRecovery {
    fn support_query(&self) -> Vec<Item> {
        match self.decode() {
            Recovery::Sparse(m) => {
                let mut items: Vec<Item> = m.into_keys().collect();
                items.sort_unstable();
                items
            }
            Recovery::Dense => Vec::new(),
        }
    }
}

impl_dyn_sketch!(CountSketch<i64>, point, point_batch, merge, persist);
impl_dyn_sketch!(CountMin, point, point_batch, merge, persist);
impl_dyn_sketch!(AmsSketch, norm, merge, persist);
impl_dyn_sketch!(IpCountSketch, norm, merge, persist);
impl_dyn_sketch!(LogCosL1, norm, merge, persist);
impl_dyn_sketch!(MedianL1, norm, merge, persist);
impl_dyn_sketch!(L0Estimator, norm);
impl_dyn_sketch!(RoughL0, norm);
impl_dyn_sketch!(RoughF0, norm, merge, persist);
impl_dyn_sketch!(SmallL0, norm, merge, persist);
impl_dyn_sketch!(SmallF0, norm, merge, persist);
impl_dyn_sketch!(SparseRecovery, support, merge, persist);
impl_dyn_sketch!(L1SamplerTurnstile, sample);
impl_dyn_sketch!(PrecisionSamplerInstance, sample);
impl_dyn_sketch!(SupportSamplerTurnstile, support);
impl_dyn_sketch!(MorrisCounter, norm);

// ---------------------------------------------------------------------------
// Shape formulas shared by the builders.
// ---------------------------------------------------------------------------

/// Median-amplification depth: 9 practical rows, `log n` theory rows
/// (mirrors `Params::{practical, theory}` without depending on `bd-core`).
pub(crate) fn default_depth(spec: &SketchSpec) -> usize {
    spec.depth.unwrap_or(match spec.regime {
        Regime::Practical => 9,
        Regime::Theory => (bd_hash::log2_ceil(spec.n.max(4)) as usize).max(9) | 1,
    })
}

/// The Countsketch baseline width the experiments sweep against:
/// `48/ε` buckets.
fn countsketch_width(spec: &SketchSpec) -> usize {
    spec.width.unwrap_or((6.0 * (8.0 / spec.epsilon)) as usize)
}

/// Support/recovery request size: `k`, default `max(4, ⌈1/ε⌉)`.
fn request_k(spec: &SketchSpec) -> usize {
    spec.k
        .unwrap_or(((1.0 / spec.epsilon).ceil() as usize).max(4))
}

/// Small-L0/F0 promise capacity: `k`, default `max(16, ⌈1/ε⌉)`.
fn promise_cap(spec: &SketchSpec) -> usize {
    spec.k
        .unwrap_or(((1.0 / spec.epsilon).ceil() as usize).max(16))
}

/// Register every turnstile baseline family of this crate.
pub fn register(reg: &mut Registry) {
    reg.register(
        FamilyInfo {
            family: SketchFamily::CountSketch,
            summary: "Countsketch point-query table (§2.1)",
            caps: Capabilities {
                merge_bitwise: true,
                batch_bitwise: true,
                linear: true,
                ..Default::default()
            },
            space: "depth × 48/ε cells of log(m) bits",
        },
        |spec| {
            Box::new(CountSketch::<i64>::new(
                spec.seed,
                default_depth(spec),
                countsketch_width(spec),
            ))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::CountMin,
            summary: "Count-Min point-query table (§2.2)",
            caps: Capabilities {
                merge_bitwise: true,
                batch_bitwise: true,
                linear: true,
                ..Default::default()
            },
            space: "ln(1/δ) × e/ε cells of log(m) bits",
        },
        |spec| {
            // Each override is honoured independently; the missing
            // dimension keeps its `with_error` formula.
            let depth = spec
                .depth
                .unwrap_or_else(|| (1.0 / spec.delta).ln().ceil().max(1.0) as usize);
            let width = spec
                .width
                .unwrap_or_else(|| (std::f64::consts::E / spec.epsilon).ceil() as usize);
            Box::new(CountMin::new(spec.seed, depth, width))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::Ams,
            summary: "AMS tug-of-war F2 rows (§2.2)",
            caps: Capabilities {
                merge_bitwise: true,
                batch_bitwise: true,
                linear: true,
                ..Default::default()
            },
            space: "O(1/ε²) signed-sum rows of log(mM) bits",
        },
        |spec| Box::new(AmsFamily::from_spec(spec).sketch()),
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::IpCountSketch,
            summary: "Countsketch inner-product table (Lemma 8)",
            caps: Capabilities {
                merge_bitwise: true,
                batch_bitwise: true,
                linear: true,
                ..Default::default()
            },
            space: "depth × 2/ε buckets of log(m) bits",
        },
        |spec| Box::new(IpFamily::from_spec(spec).sketch()),
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::LogCosL1,
            summary: "log-cosine Cauchy L1 estimator (Figure 5)",
            caps: Capabilities {
                // Rows add like MedianL1: deterministic but estimate-equal
                // (float re-association across the shard boundary).
                batch_bitwise: true,
                ..Default::default()
            },
            space: "6/ε² Cauchy rows of fixed-point log(m/ε) bits",
        },
        |spec| match spec.depth {
            Some(main) => Box::new(LogCosL1::with_rows(spec.seed, main, 15, 4)),
            None => Box::new(LogCosL1::new(spec.seed, spec.epsilon)),
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::MedianL1,
            summary: "Indyk median-of-Cauchy L1 estimator (Fact 1)",
            caps: Capabilities {
                // Rows add, but float addition re-associates across the
                // shard boundary — merges are estimate-equal, not bitwise.
                batch_bitwise: true,
                ..Default::default()
            },
            space: "8/ε²·ln(1/δ) Cauchy rows",
        },
        |spec| match spec.depth {
            Some(rows) => Box::new(MedianL1::with_rows(spec.seed, rows)),
            None => Box::new(MedianL1::new(spec.seed, spec.epsilon, spec.delta)),
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::L0Turnstile,
            summary: "turnstile L0 estimator (Figure 6, Theorem 9)",
            caps: Capabilities {
                batch_bitwise: true,
                ..Default::default()
            },
            space: "log n levels × O(1/ε²) counters — the log n the α-variant windows away",
        },
        |spec| Box::new(L0Estimator::new(spec.seed, spec.n, spec.epsilon)),
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::RoughL0,
            summary: "constant-factor rough L0 (Lemma 14)",
            caps: Capabilities {
                batch_bitwise: true,
                ..Default::default()
            },
            space: "O(log n · log log n) bits",
        },
        |spec| Box::new(RoughL0::for_universe(spec.seed, spec.n)),
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::RoughF0,
            summary: "monotone rough F0 tracker (Lemma 18)",
            caps: Capabilities {
                // Final state is a pure function of the observed item set,
                // so set-union merging replays a single pass exactly.
                merge_bitwise: true,
                batch_bitwise: true,
                ..Default::default()
            },
            space: "O(log log n) bits of tracker state",
        },
        |spec| Box::new(RoughF0::new(spec.seed)),
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::SmallL0,
            summary: "exact L0 under an L0 ≤ k promise (Lemma 21)",
            caps: Capabilities {
                merge_bitwise: true,
                batch_bitwise: true,
                ..Default::default()
            },
            space: "reps × O(k²) occupancy bits",
        },
        |spec| {
            Box::new(SmallL0::new(
                spec.seed,
                promise_cap(spec),
                spec.depth.unwrap_or(3),
            ))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::SmallF0,
            summary: "exact F0 when F0 ≤ k (Lemma 19)",
            caps: Capabilities {
                merge_bitwise: true,
                batch_bitwise: true,
                ..Default::default()
            },
            space: "O(k²) hashed counters of log P bits",
        },
        |spec| Box::new(SmallF0::new(spec.seed, promise_cap(spec))),
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::SparseRecovery,
            summary: "exact s-sparse recovery (Lemma 22)",
            caps: Capabilities {
                merge_bitwise: true,
                batch_bitwise: true,
                linear: true,
                ..Default::default()
            },
            space: "O(k) buckets × (count, id-check) counters",
        },
        |spec| {
            let s = spec
                .k
                .unwrap_or(((2.0 / spec.epsilon).ceil() as usize).max(8));
            Box::new(SparseRecovery::new(spec.seed, spec.n, s))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::L1SamplerTurnstile,
            summary: "precision-sampling L1 sampler (§4)",
            caps: Capabilities {
                batch_bitwise: true,
                ..Default::default()
            },
            space: "1/ε·ln(1/δ) instances × log n-row Countsketches",
        },
        |spec| {
            Box::new(L1SamplerTurnstile::new(
                spec.seed,
                spec.n,
                spec.epsilon,
                spec.delta,
            ))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::PrecisionSampler,
            summary: "one precision-sampling instance (§4 component)",
            caps: Capabilities {
                batch_bitwise: true,
                ..Default::default()
            },
            space: "depth × 6·log(1/ε) Countsketch cells",
        },
        |spec| {
            let depth = spec
                .depth
                .unwrap_or(bd_hash::log2_ceil(spec.n.max(4)) as usize / 2 + 3);
            Box::new(PrecisionSamplerInstance::new(
                spec.seed,
                spec.n,
                spec.epsilon,
                depth,
            ))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::SupportTurnstile,
            summary: "log n-level support sampler (§7 baseline)",
            caps: Capabilities {
                batch_bitwise: true,
                linear: true,
                ..Default::default()
            },
            space: "log n levels × Θ(k)-sparse recovery — all levels always live",
        },
        |spec| {
            Box::new(SupportSamplerTurnstile::new(
                spec.seed,
                spec.n,
                request_k(spec),
            ))
        },
    );
    reg.register(
        FamilyInfo {
            family: SketchFamily::Morris,
            summary: "Morris approximate counter (Lemma 11)",
            caps: Capabilities {
                batch_bitwise: true,
                ..Default::default()
            },
            space: "one log log m-bit register",
        },
        |spec| Box::new(MorrisCounter::new(spec.seed)),
    );
}

impl AmsFamily {
    /// Shape an AMS family from a spec: `depth` rows, default `8/ε²`
    /// (clamped to `[16, 4096]`).
    pub fn from_spec(spec: &SketchSpec) -> Self {
        let rows = spec.depth.unwrap_or_else(|| {
            ((8.0 / (spec.epsilon * spec.epsilon)).ceil() as usize).clamp(16, 4096)
        });
        AmsFamily::new(spec.seed, rows)
    }
}

impl IpFamily {
    /// Shape an inner-product family from a spec: `depth` rows (default 5)
    /// of `width` buckets (default `⌈2/ε⌉`).
    pub fn from_spec(spec: &SketchSpec) -> Self {
        let depth = spec.depth.unwrap_or(5);
        let width = spec
            .width
            .unwrap_or(((2.0 / spec.epsilon).ceil() as usize).max(4));
        IpFamily::new(spec.seed, depth, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_stream::Update;

    fn reg() -> Registry {
        let mut r = Registry::new();
        register(&mut r);
        r
    }

    #[test]
    fn registers_every_baseline_family() {
        let r = reg();
        assert_eq!(r.len(), 16);
    }

    #[test]
    fn caps_match_dynamic_views() {
        let r = reg();
        let spec = SketchSpec::new(SketchFamily::CountSketch)
            .with_n(1 << 10)
            .with_epsilon(0.25);
        let sk = r.build(&spec).unwrap();
        assert!(sk.as_point().is_some());
        assert!(sk.as_norm().is_none());
    }

    #[test]
    fn dyn_merge_folds_shards() {
        let r = reg();
        let spec = SketchSpec::new(SketchFamily::CountMin)
            .with_n(1 << 10)
            .with_epsilon(0.1)
            .with_seed(5);
        let (mut a, mut b) = r.build_pair(&spec).unwrap();
        let mut whole = r.build(&spec).unwrap();
        let batch: Vec<Update> = (0..200)
            .map(|i| Update::new(i % 17, 1 + (i as i64 % 3)))
            .collect();
        a.update_batch(&batch[..100]);
        b.update_batch(&batch[100..]);
        whole.update_batch(&batch);
        a.merge_dyn(b.as_ref()).unwrap();
        let (pa, pw) = (a.as_point().unwrap(), whole.as_point().unwrap());
        for i in 0..17 {
            assert_eq!(pa.point(i), pw.point(i));
        }
    }

    #[test]
    fn merge_across_families_is_type_checked() {
        let r = reg();
        let cm = SketchSpec::new(SketchFamily::CountMin).with_n(64);
        let cs = SketchSpec::new(SketchFamily::CountSketch).with_n(64);
        let mut a = r.build(&cm).unwrap();
        let b = r.build(&cs).unwrap();
        assert!(a.merge_dyn(b.as_ref()).is_err());
    }

    #[test]
    fn smallf0_norm_is_exact_then_infinite() {
        let r = reg();
        let spec = SketchSpec::new(SketchFamily::SmallF0)
            .with_n(1 << 10)
            .with_k(4);
        let mut sk = r.build(&spec).unwrap();
        for i in 0..3 {
            sk.update(i, 1);
        }
        assert_eq!(sk.as_norm().unwrap().norm_estimate(), 3.0);
        for i in 0..200 {
            sk.update(i, 1);
        }
        assert!(sk.as_norm().unwrap().norm_estimate().is_infinite());
    }
}
