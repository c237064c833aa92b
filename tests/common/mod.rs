//! Helpers shared by the registry-driven integration suites (`conformance`,
//! `sharded`, `service`, `spec`): the per-family conformance spec, the
//! workload stream, and the capability-probe machinery every equality check
//! compares.
//!
//! Probes carry their value kind so comparisons can be *bitwise* (families
//! whose merges/batches replay exactly) or *estimate-equal* (deterministic
//! float merges that re-associate addition, like the Cauchy L1 rows) — the
//! distinction `Capabilities::merge_bitwise` encodes and `DESIGN.md §7`
//! documents.

#![allow(dead_code)]

use bounded_deletions::prelude::*;

/// The shared conformance workload: a mixed insert/delete bounded-deletion
/// stream over a small universe (12 000 unit updates, α = 3).
pub fn stream(seed: u64) -> StreamBatch {
    BoundedDeletionGen::new(1 << 10, 8_000, 3.0).generate_seeded(seed)
}

/// Deterministic per-family seed (stable across registry reordering).
pub fn family_seed(family: SketchFamily) -> u64 {
    family
        .name()
        .bytes()
        .fold(11u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64))
}

/// The spec each family is checked under: small universe, fast shapes, and
/// — for the sampling structures — regimes where the exact contracts hold.
/// The `2^10` universe also keeps the windowed L0 family's level windows
/// covering every level, so their level-wise merges are exact here.
pub fn conformance_spec(family: SketchFamily) -> SketchSpec {
    let spec = SketchSpec::new(family)
        .with_n(1 << 10)
        .with_epsilon(0.2)
        .with_alpha(3.0)
        .with_seed(family_seed(family));
    match family {
        // Budget larger than the stream mass ⇒ no thinning ⇒ sampling is
        // degenerate and the bitwise/linearity contracts are exact.
        SketchFamily::Csss | SketchFamily::SampledVector => spec.with_budget(1 << 22),
        // α L1 samplers: fewer amplification copies for test speed, and a
        // `c` large enough that the inner CSSS budget `c·α²/ε³` towers over
        // the scaled mass `‖z‖₁` (`1/t_i` is heavy-tailed) — no thinning, so
        // the merge/batch contracts are exact (DESIGN.md §7, cause 1).
        SketchFamily::AlphaL1Sampler => spec.with_epsilon(0.25).with_delta(0.5).with_c(1e8),
        SketchFamily::AlphaL1SamplerInstance => spec.with_epsilon(0.25).with_c(1e8),
        SketchFamily::L1SamplerTurnstile => spec.with_epsilon(0.25).with_delta(0.5),
        // α inner product: an interval budget `c·α²/ε²` above the stream
        // mass keeps window 0 the only live window (no interval sampling),
        // so level-wise merges are exact adds (DESIGN.md §7, cause 3).
        SketchFamily::AlphaIp => spec.with_c(256.0),
        SketchFamily::AlphaSupportSet => spec.with_delta(0.5).with_k(8),
        SketchFamily::AlphaSupport | SketchFamily::SupportTurnstile => spec.with_k(8),
        _ => spec,
    }
}

/// One probed value: item identities compare exactly, scalar estimates
/// compare bitwise or within a float-association tolerance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProbeVal {
    /// An item identity or section marker — always compared exactly.
    Item(u64),
    /// A float estimate — comparison mode depends on the family's
    /// `merge_bitwise` capability.
    Scalar(f64),
}

/// Query probe over every capability the sketch exposes: the fingerprint
/// the conformance and sharding checks compare. (Space is deliberately not
/// probed: pre-aggregating batch paths may observe different counter peaks
/// than the sequential replay while answering identically.)
pub fn probe(sk: &dyn DynSketch) -> Vec<ProbeVal> {
    let mut out = Vec::new();
    if let Some(p) = sk.as_point() {
        out.extend((0..1024u64).map(|i| ProbeVal::Scalar(p.point(i))));
    }
    if let Some(nm) = sk.as_norm() {
        out.push(ProbeVal::Scalar(nm.norm_estimate()));
    }
    if let Some(s) = sk.as_sample() {
        match s.sample() {
            SampleOutcome::Sample { item, estimate } => {
                out.push(ProbeVal::Item(item));
                out.push(ProbeVal::Scalar(estimate));
            }
            SampleOutcome::Fail => out.push(ProbeVal::Item(u64::MAX)),
        }
    }
    if let Some(sp) = sk.as_support() {
        out.push(ProbeVal::Item(u64::MAX - 1)); // section marker
        out.extend(sp.support_query().into_iter().map(ProbeVal::Item));
    }
    out
}

/// Relative tolerance for estimate-equal comparisons: generous against
/// float re-association noise (≈ last-ulp per summand), far below any
/// statistical difference a wrong merge would produce.
pub const ESTIMATE_TOLERANCE: f64 = 1e-6;

/// Assert two probes agree: bit-for-bit when `bitwise`, item-exact plus
/// `ESTIMATE_TOLERANCE`-relative on scalars otherwise.
pub fn assert_probes_match(name: &str, want: &[ProbeVal], got: &[ProbeVal], bitwise: bool) {
    assert_eq!(
        want.len(),
        got.len(),
        "{name}: probe shapes differ ({} vs {} values)",
        want.len(),
        got.len()
    );
    for (idx, (w, g)) in want.iter().zip(got).enumerate() {
        match (w, g) {
            (ProbeVal::Item(a), ProbeVal::Item(b)) => {
                assert_eq!(a, b, "{name}: probe[{idx}] item mismatch");
            }
            (ProbeVal::Scalar(a), ProbeVal::Scalar(b)) if bitwise => {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name}: probe[{idx}] scalar not bit-identical ({a} vs {b})"
                );
            }
            (ProbeVal::Scalar(a), ProbeVal::Scalar(b)) => {
                let tol = ESTIMATE_TOLERANCE * a.abs().max(b.abs()).max(1.0);
                assert!(
                    (a - b).abs() <= tol,
                    "{name}: probe[{idx}] estimates differ beyond tolerance ({a} vs {b})"
                );
            }
            (w, g) => panic!("{name}: probe[{idx}] kind mismatch ({w:?} vs {g:?})"),
        }
    }
}
