//! Parameterization of the α-property algorithms.
//!
//! Every algorithm in this crate is sized by the same four quantities: the
//! universe size `n`, the accuracy `ε`, the deletion bound `α`, and a
//! failure budget `δ`. The paper's proofs pick constants that make union
//! bounds airtight (e.g. CSSS's `S = Θ(α²ε⁻²T²log n)` with `T = 4/ε² +
//! log n`), which instantiated literally exceed any real stream. [`Params`]
//! keeps the *functional forms* — what scales with `α`, what with `ε`, what
//! with `log n` — and offers two constant regimes:
//!
//! * [`Params::theory`] — the paper's shapes with small leading constants,
//!   for shape-checking experiments;
//! * [`Params::practical`] — tuned leading constants that make laptop-scale
//!   streams informative (the default).
//!
//! The substitution is documented in `DESIGN.md §3` (repo root), and the
//! experiment binaries in `bd-bench` (`e1`–`e14`, `DESIGN.md §5`) measure
//! the guarantees that hold under it. In the spec layer, the two regimes
//! are `regime=theory` / `regime=practical`, and
//! [`Params::from_spec`](mod@crate::registry) derives a `Params` from any
//! [`bd_stream::SketchSpec`].

/// Shared sizing inputs for the α-property algorithms.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Universe size `n`.
    pub n: u64,
    /// Accuracy parameter `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// The deletion bound `α ≥ 1` the stream is promised to satisfy.
    pub alpha: f64,
    /// Failure budget `δ` for the amplified wrappers.
    pub delta: f64,
    /// Leading constant for sample budgets `S`.
    pub sample_const: f64,
    /// Table depth (rows) for median amplification.
    pub depth: usize,
}

impl Params {
    /// Practical defaults (see module docs).
    pub fn practical(n: u64, epsilon: f64, alpha: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "ε must be in (0,1)");
        assert!(alpha >= 1.0, "α must be ≥ 1");
        Params {
            n,
            epsilon,
            alpha,
            delta: 0.05,
            sample_const: 24.0,
            depth: 9,
        }
    }

    /// The paper's constant regime (larger budgets, deeper tables).
    pub fn theory(n: u64, epsilon: f64, alpha: f64) -> Self {
        let mut p = Self::practical(n, epsilon, alpha);
        p.sample_const = 256.0;
        p.depth = (bd_hash::log2_ceil(n.max(4)) as usize).max(9) | 1;
        p
    }

    /// Override the failure budget.
    pub fn with_delta(mut self, delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0);
        self.delta = delta;
        self
    }

    /// `log2(n)` as used for level counts.
    pub fn log_n(&self) -> u32 {
        bd_hash::log2_ceil(self.n.max(2))
    }

    /// The CSSS sample budget `S = Θ(α²/ε² · T²·log n)`; practically
    /// `sample_const · α²/ε³` (one `T` power retained — see `DESIGN.md §3`
    /// at the repo root for the substitution argument).
    pub fn csss_sample_budget(&self) -> u64 {
        let s = self.sample_const * self.alpha * self.alpha / self.epsilon.powi(3);
        (s.ceil() as u64).max(64)
    }

    /// The interval-sampling budget `s` (Figure 4 / Theorem 2), a power of
    /// two so `s^{-j}` sampling composes from fair coins.
    pub fn interval_budget(&self) -> u64 {
        let s = self.sample_const * self.alpha * self.alpha / (self.epsilon * self.epsilon);
        bd_hash::next_pow2((s.ceil() as u64).max(64))
    }

    /// Parallel instances for `Θ(ε)`-success samplers amplified to `1 − δ`.
    pub fn sampler_copies(&self) -> usize {
        (((1.0 / self.epsilon) * (1.0 / self.delta).ln()).ceil() as usize).clamp(1, 512)
    }

    /// The L0 window margin covering tracker *overshoot*: the monotone
    /// tracker may exceed the level a query needs by up to `α·ρ` (ρ = its
    /// over-approximation ratio), i.e. `log2(αρ) + O(1)` levels. This is one
    /// side of Figure 7's `±2·log(4α/ε)` window.
    pub fn l0_window_overshoot(&self, tracker_ratio: f64) -> usize {
        ((self.alpha * tracker_ratio).log2().ceil() as usize).max(1) + 8
    }

    /// The L0 window margin covering *late starts*: a level must go live
    /// while the live L0 is still an `ε²` fraction of its final value, i.e.
    /// `2·log2(1/ε) + O(1)` levels ahead of the tracker. The other side of
    /// Figure 7's window.
    pub fn l0_window_suffix(&self) -> usize {
        ((2.0 * (1.0 / self.epsilon).log2()).ceil() as usize).max(1) + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_scale_with_alpha_squared() {
        let a = Params::practical(1 << 20, 0.1, 2.0);
        let b = Params::practical(1 << 20, 0.1, 4.0);
        assert!((b.csss_sample_budget() as f64 / a.csss_sample_budget() as f64 - 4.0).abs() < 0.1);
    }

    #[test]
    fn interval_budget_is_power_of_two() {
        for alpha in [1.0, 3.0, 17.0] {
            let p = Params::practical(1 << 16, 0.2, alpha);
            assert!(p.interval_budget().is_power_of_two());
        }
    }

    #[test]
    fn window_grows_with_alpha_and_epsilon() {
        let a = Params::practical(1 << 20, 0.1, 2.0);
        let b = Params::practical(1 << 20, 0.1, 64.0);
        assert!(b.l0_window_overshoot(8.0) > a.l0_window_overshoot(8.0));
        let c = Params::practical(1 << 20, 0.01, 2.0);
        assert!(c.l0_window_suffix() > a.l0_window_suffix());
    }

    #[test]
    #[should_panic(expected = "ε must be in (0,1)")]
    fn rejects_bad_epsilon() {
        Params::practical(16, 1.5, 2.0);
    }
}
