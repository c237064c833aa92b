//! Property-style tests for the α-property algorithms' primitives.
//!
//! The offline build has no `proptest`, so properties are checked over
//! seeded pseudo-random case sweeps — deterministic and replayable.

use bd_core::binomial::{bin_half, bin_pow2};
use bd_core::{Csss, Params, SampledVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

#[test]
fn bin_half_never_exceeds_trials() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..CASES {
        let n = rng.gen_range(0u64..100_000);
        let kept = bin_half(&mut rng, n);
        assert!(kept <= n);
    }
}

#[test]
fn bin_pow2_monotone_in_q() {
    // Thinning harder cannot (stochastically) produce more than the whole
    // population.
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..CASES {
        let n = rng.gen_range(0u64..10_000);
        let q = rng.gen_range(0u32..20);
        let kept = bin_pow2(&mut rng, n, q);
        assert!(kept <= n);
        if q == 0 {
            assert_eq!(kept, n);
        }
    }
}

#[test]
fn sampled_vector_is_exact_below_budget() {
    let mut rng = StdRng::seed_from_u64(4);
    for case in 0..CASES {
        let len = rng.gen_range(0usize..30);
        let items: Vec<(u64, i64)> = (0..len)
            .map(|_| (rng.gen_range(0u64..32), rng.gen_range(-6i64..6)))
            .collect();
        let mass: u64 = items.iter().map(|(_, d)| d.unsigned_abs()).sum();
        let mut s = SampledVector::new(case, mass.max(1) * 2);
        let mut exact = std::collections::HashMap::new();
        for &(i, d) in &items {
            s.update(i, d);
            *exact.entry(i).or_insert(0i64) += d;
        }
        assert_eq!(s.level(), 0, "no thinning below budget");
        for (&i, &f) in &exact {
            assert_eq!(s.estimate(i), f as f64);
        }
    }
}

#[test]
fn csss_exact_on_sparse_input_below_budget() {
    // ≤5 well-separated items in a 96-bucket row: the median over 11 rows is
    // exact w.h.p.; fixed seeds make this deterministic.
    let mut rng = StdRng::seed_from_u64(5);
    for case in 0..CASES {
        let len = rng.gen_range(1usize..6);
        let deltas: Vec<i64> = (0..len).map(|_| rng.gen_range(-100i64..100)).collect();
        let mut c = Csss::new(case, 16, 11, 1 << 30);
        for (idx, &d) in deltas.iter().enumerate() {
            c.update(idx as u64 * 1_000_003, d);
        }
        for (idx, &d) in deltas.iter().enumerate() {
            let est = c.estimate(idx as u64 * 1_000_003);
            assert!((est - d as f64).abs() < 1e-9, "est {est} vs {d}");
        }
    }
}

#[test]
fn params_budgets_are_monotone() {
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..CASES {
        let alpha = rng.gen_range(1.0f64..64.0);
        let eps = rng.gen_range(0.02f64..0.5);
        let p = Params::practical(1 << 20, eps, alpha);
        let p2 = Params::practical(1 << 20, eps, alpha * 2.0);
        assert!(p2.csss_sample_budget() >= p.csss_sample_budget());
        assert!(p2.interval_budget() >= p.interval_budget());
        let tighter = Params::practical(1 << 20, eps / 2.0, alpha);
        assert!(tighter.csss_sample_budget() >= p.csss_sample_budget());
    }
}

#[test]
fn csss_counters_bounded_by_budget_multiple() {
    let mut rng = StdRng::seed_from_u64(7);
    for case in 0..CASES {
        let reps = rng.gen_range(1u64..40);
        let budget = 128u64;
        let mut c = Csss::new(case, 2, 3, budget);
        for i in 0..reps * 500 {
            c.update(i % 8, 1);
        }
        // Counters hold sampled units: whp ≤ a small multiple of budget.
        assert!(
            c.max_counter() <= 16 * budget,
            "counter {}",
            c.max_counter()
        );
    }
}
