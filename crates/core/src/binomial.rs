//! Exact binomial thinning — the sampling primitive behind CSSS and the
//! interval samplers.
//!
//! The paper's algorithms sample stream updates with dyadic probabilities
//! `2^{-q}` and periodically *downsample existing counters*: Figure 2 step
//! 5(a) replaces every counter `a` by `Bin(a, 1/2)`, and §1.3 expands a
//! weighted update `|Δ| > 1` into `sign(Δ)·Bin(|Δ|, p)` sampled units.
//!
//! `Bin(c, 1/2)` is the popcount of `c` fair bits — computed exactly from
//! random 64-bit words. Above [`EXACT_LIMIT`] trials we switch to the normal
//! approximation, whose total-variation error at that size is far below every
//! failure probability in the paper (documented substitution, DESIGN.md §3).
//!
//! `Bin(n, 2^{-q})` has two exact branches, chosen by its mean `n·2^{-q}`:
//!
//! - **Inversion**, while the mean is below ½ (`n < 2^{q−1}`) and `q ≤ 52`.
//!   One 53-bit uniform `u` is compared with `P(X ≥ 1) = 1 − (1 − 2^{-q})^n`,
//!   read from a compile-time table for `n ≤ 64` and computed as
//!   `−expm1(n·ln_1p(−2^{-q}))` above. Only the draws that keep a unit walk
//!   the pmf recursion `P(k+1) = P(k)·(n−k)/(k+1)·2^{-q}/(1−2^{-q})`. A
//!   weighted update deep in a CSSS run is this case: each row's draw costs
//!   one word, not one per halving.
//! - **Halving** otherwise ([`bin_pow2_halving`]): `q` iterated `Bin(·, 1/2)`
//!   draws. The count shrinks geometrically, so expected work is
//!   `O(n/64 + q)`; at a small mean most of those `q` words are spent
//!   keeping nothing, which is what inversion avoids.
//!
//! Precision of the inversion branch: `u` moves in steps of `2^{-53}`, so
//! `u < t` holds with probability `⌈t·2^53⌉·2^{-53}`, within `2^{-53}` of
//! `t`. The keep probability is held as such, not as `1 − P(0)`, so the f64
//! values compared with `u` are small and keep their relative precision (the
//! table agrees with the closed form to `1e-13`, relative; a unit test pins
//! it), and the walk's partial sums are small numbers too. For `q ≤ 52` a
//! unit's probability `2^{-q}` spans at least two of `u`'s steps and the
//! leading term `n·2^{-q}` of `P(X ≥ 1)` is a whole number of them, so the
//! rounding touches only higher-order terms. Past that, rounding up to a
//! whole step inflates the mean (2× at `q = 54`, more beyond), so those
//! draws take halving, whose integer bits are exact at every `q`.

use rand::Rng;

/// Threshold above which `Bin(n, 1/2)` uses the normal approximation.
pub const EXACT_LIMIT: u64 = 1 << 16;

/// [`bin_pow2`] inverts while the mean `n·2^{-q}` is below
/// `2^{-INVERSION_MEAN_SHIFT}` (½): `n < 2^{q − INVERSION_MEAN_SHIFT}`. The
/// `binomial/` rows of the ingest bench time both branches on each side of
/// it. At a mean of 1 inversion would lose at `q ≤ 2`, because its walk
/// then runs on about half the draws while halving costs one or two words.
const INVERSION_MEAN_SHIFT: u32 = 1;

/// The largest `q` the inversion branch serves (see the module docs).
const INVERSION_MAX_Q: u32 = 52;

/// The largest `n` whose keep probability comes from [`KEEP`].
const TABLE_N: usize = 64;

/// `KEEP[q][n] = P(Bin(n, 2^{-q}) ≥ 1) = 1 − (1 − 2^{-q})^n`, for `q ≤ 52`
/// and `n ≤ 64`, built at compile time.
static KEEP: [[f64; TABLE_N + 1]; INVERSION_MAX_Q as usize + 1] = keep_table();

/// Fill [`KEEP`] by `t_n = t_{n−1} + 2^{-q}·(1 − t_{n−1})`: the chance that
/// one more trial keeps a unit when none of the first `n − 1` did. Every
/// term is small where the table is read, so each step adds only ulps of
/// `t_n` itself.
const fn keep_table() -> [[f64; TABLE_N + 1]; INVERSION_MAX_Q as usize + 1] {
    let mut table = [[0.0; TABLE_N + 1]; INVERSION_MAX_Q as usize + 1];
    let mut q = 0;
    while q <= INVERSION_MAX_Q as usize {
        let x = pow2_neg(q as u32);
        let mut n = 1;
        while n <= TABLE_N {
            let prev = table[q][n - 1];
            table[q][n] = prev + x * (1.0 - prev);
            n += 1;
        }
        q += 1;
    }
    table
}

/// Whether [`bin_pow2`] draws `Bin(n, 2^{-q})` by inversion (mean below ½,
/// `q ≤ 52`, `n ≥ 1`) rather than by halving.
pub fn bin_pow2_inverts(n: u64, q: u32) -> bool {
    n > 0 && (1..=INVERSION_MAX_Q).contains(&q) && n < 1 << (q - INVERSION_MEAN_SHIFT)
}

/// Sample `Bin(n, 1/2)` exactly for `n ≤ EXACT_LIMIT` (popcount of `n`
/// random bits), with a continuity-corrected normal approximation above.
pub fn bin_half<R: Rng + ?Sized>(rng: &mut R, n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    if n > EXACT_LIMIT {
        // N(n/2, n/4) with continuity correction, clamped to [0, n].
        let mean = n as f64 / 2.0;
        let sd = (n as f64 / 4.0).sqrt();
        let z = gaussian(rng);
        return (mean + sd * z).round().clamp(0.0, n as f64) as u64;
    }
    let mut remaining = n;
    let mut ones = 0u64;
    while remaining >= 64 {
        ones += rng.gen::<u64>().count_ones() as u64;
        remaining -= 64;
    }
    if remaining > 0 {
        let mask = (1u64 << remaining) - 1;
        ones += (rng.gen::<u64>() & mask).count_ones() as u64;
    }
    ones
}

/// Sample `Bin(n, 2^{-q})`: by inversion while the mean is below ½ and
/// `q ≤ 52` ([`bin_pow2_inverts`]), by [`bin_pow2_halving`] otherwise.
/// `n = 0` and `q = 0` return at once, without drawing from `rng`.
#[inline]
pub fn bin_pow2<R: Rng + ?Sized>(rng: &mut R, n: u64, q: u32) -> u64 {
    if !bin_pow2_inverts(n, q) {
        return bin_pow2_halving(rng, n, q);
    }
    let keep = match KEEP[q as usize].get(n as usize) {
        Some(&keep) => keep,
        // n < 2^51 here, so `n as f64` is exact.
        None => -(n as f64 * (-pow2_neg(q)).ln_1p()).exp_m1(),
    };
    let u: f64 = rng.gen();
    if u < keep {
        walk_pmf(u, n, q, keep)
    } else {
        0
    }
}

/// Sample `Bin(n, 2^{-q})` by `q` iterated halvings — exact while the
/// counts stay within [`EXACT_LIMIT`]. `n = 0` and `q = 0` return at once,
/// without drawing. [`bin_pow2`] takes this branch where the mean is ½ or
/// more, or `q > 52`; the ingest bench times the two branches through it.
#[inline]
pub fn bin_pow2_halving<R: Rng + ?Sized>(rng: &mut R, n: u64, q: u32) -> u64 {
    let mut c = n;
    for _ in 0..q {
        if c == 0 {
            return 0;
        }
        c = bin_half(rng, c);
    }
    c
}

/// `2^{-q}`, exactly (`q ≤ 52`).
const fn pow2_neg(q: u32) -> f64 {
    1.0 / (1u64 << q) as f64
}

/// Given `u < keep = P(X ≥ 1)` for `X ~ Bin(n, 2^{-q})`, the smallest
/// `k ≥ 1` with `u < P(1) + … + P(k)`. Stops at `n`, or where the next term
/// no longer moves the partial sum (the mass left is below f64 resolution).
#[inline(never)]
fn walk_pmf(u: f64, n: u64, q: u32, keep: f64) -> u64 {
    let x = pow2_neg(q);
    let ratio = x / (1.0 - x);
    let mut p = (1.0 - keep) * n as f64 * ratio;
    let mut cdf = p;
    let mut k = 1;
    while u >= cdf && k < n {
        p *= (n - k) as f64 / (k + 1) as f64 * ratio;
        k += 1;
        let next = cdf + p;
        if next == cdf {
            break;
        }
        cdf = next;
    }
    k
}

/// Standard normal via Box–Muller (only used above `EXACT_LIMIT`).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bin_half_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 1000u64;
        let trials = 20_000;
        let samples: Vec<u64> = (0..trials).map(|_| bin_half(&mut rng, n)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / trials as f64;
        let var = samples
            .iter()
            .map(|&s| (s as f64 - mean).powi(2))
            .sum::<f64>()
            / trials as f64;
        assert!((mean - 500.0).abs() < 2.0, "mean {mean}");
        assert!((var - 250.0).abs() < 25.0, "variance {var}");
    }

    #[test]
    fn bin_half_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [0u64, 1, 63, 64, 65, 1000, EXACT_LIMIT + 5] {
            for _ in 0..100 {
                assert!(bin_half(&mut rng, n) <= n);
            }
        }
        assert_eq!(bin_half(&mut rng, 0), 0);
    }

    #[test]
    fn bin_pow2_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let (n, q) = (1 << 14, 4u32); // expect n/16 = 1024
        let trials = 5_000;
        let mean =
            (0..trials).map(|_| bin_pow2(&mut rng, n, q)).sum::<u64>() as f64 / trials as f64;
        assert!((mean - 1024.0).abs() < 15.0, "mean {mean}");
    }

    #[test]
    fn large_q_never_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(bin_pow2(&mut rng, 10, 200), 0); // overwhelming odds
        }
    }

    /// `ln P(Bin(n, 2^{-q}) = k)` for every `k ≤ n`, in log space so that
    /// neither `C(n, k)` nor `2^{-qk}` overflows or underflows.
    fn ln_pmf(n: u64, q: u32) -> Vec<f64> {
        let ln_p = -(q as f64) * std::f64::consts::LN_2;
        let ln_1mp = (-0.5f64.powi(q as i32)).ln_1p();
        let mut ln_choose = 0.0;
        (0..=n)
            .map(|k| {
                if k > 0 {
                    ln_choose += ((n - k + 1) as f64 / k as f64).ln();
                }
                ln_choose + k as f64 * ln_p + (n - k) as f64 * ln_1mp
            })
            .collect()
    }

    /// Wilson–Hilferty approximation of the `10^-6` upper quantile of χ²
    /// with `df` degrees of freedom; it errs high at small `df`.
    fn chi2_bound(df: usize) -> f64 {
        const Z: f64 = 4.753_424; // Φ⁻¹(1 − 10⁻⁶)
        let d = df as f64;
        let h = 2.0 / (9.0 * d);
        d * (1.0 - h + Z * h.sqrt()).powi(3)
    }

    /// Pearson's statistic of `draws` against `Bin(n, 2^{-q})`, with
    /// neighbouring outcomes pooled (both tails included) until every cell
    /// expects at least 5 draws, and its degrees of freedom.
    fn chi2(draws: &[u64], n: u64, q: u32) -> (f64, usize) {
        let total = draws.len() as f64;
        let expected: Vec<f64> = ln_pmf(n, q).iter().map(|l| total * l.exp()).collect();
        let mut observed = vec![0u64; n as usize + 1];
        for &k in draws {
            observed[k as usize] += 1;
        }
        // Cells as (expected, observed), closed once they expect ≥ 5; a
        // short last cell joins the one before it.
        let mut cells: Vec<(f64, u64)> = Vec::new();
        let mut open = (0.0, 0u64);
        for (e, o) in expected.iter().zip(&observed) {
            open = (open.0 + e, open.1 + o);
            if open.0 >= 5.0 {
                cells.push(open);
                open = (0.0, 0);
            }
        }
        match cells.last_mut() {
            Some(last) => *last = (last.0 + open.0, last.1 + open.1),
            None => cells.push(open),
        }
        let stat = cells.iter().map(|&(e, o)| (o as f64 - e).powi(2) / e).sum();
        (stat, cells.len() - 1)
    }

    #[test]
    fn bin_pow2_matches_the_exact_pmf() {
        // Both branches and the boundary between them (mean ½ sits between
        // 2^(q−1) − 1 and 2^(q−1)), the table's edge (64/65), a mean of 1
        // (2^q), and q past the inversion limit.
        let mut cells: Vec<(u64, u32)> = Vec::new();
        for q in 1..=10u32 {
            for n in [(1 << (q - 1)) - 1, 1 << (q - 1), 1 << q] {
                if n > 0 {
                    cells.push((n, q));
                }
            }
        }
        for q in [1u32, 2, 4, 8, 12, 20, 52, 53] {
            for n in [1u64, 3, 64, 65, 255, 1000] {
                cells.push((n, q));
            }
        }
        cells.sort_unstable();
        cells.dedup();
        assert!(cells.iter().any(|&(n, q)| bin_pow2_inverts(n, q)));
        assert!(cells.iter().any(|&(n, q)| !bin_pow2_inverts(n, q)));
        let mut rng = StdRng::seed_from_u64(21);
        for (n, q) in cells {
            let draws: Vec<u64> = (0..200_000).map(|_| bin_pow2(&mut rng, n, q)).collect();
            assert!(draws.iter().all(|&k| k <= n), "n={n} q={q}: draw above n");
            let (stat, df) = chi2(&draws, n, q);
            if df > 0 {
                let bound = chi2_bound(df);
                assert!(
                    stat < bound,
                    "n={n} q={q}: χ² {stat:.1} ≥ {bound:.1} (df {df})"
                );
            }
        }
    }

    #[test]
    fn degenerate_draws_leave_the_rng_untouched() {
        // What keeps level-0 CSSS ingest (q = 0) and empty counters (n = 0)
        // bit-identical to a sampler that never draws for them.
        let mut rng = StdRng::seed_from_u64(22);
        let before = rng.state();
        for n in [1u64, 2, 64, 65, 1 << 40, u64::MAX] {
            assert_eq!(bin_pow2(&mut rng, n, 0), n);
        }
        for q in [0u32, 1, 2, 8, 52, 53, 200] {
            assert_eq!(bin_pow2(&mut rng, 0, q), 0);
        }
        assert_eq!(rng.state(), before);
    }

    #[test]
    fn huge_n_with_a_tiny_mean() {
        // n far past the table and past i32, mean 1/32.
        let (n, q) = (1u64 << 40, 45);
        assert!(bin_pow2_inverts(n, q));
        let mut rng = StdRng::seed_from_u64(23);
        let trials = 100_000;
        let total: u64 = (0..trials).map(|_| bin_pow2(&mut rng, n, q)).sum();
        let (mean, sd) = (1.0 / 32.0, (1.0 / 32.0 / trials as f64).sqrt());
        let got = total as f64 / trials as f64;
        assert!((got - mean).abs() < 6.0 * sd, "mean {got}, expected {mean}");
    }

    #[test]
    fn keep_table_matches_the_closed_form() {
        for (q, row) in KEEP.iter().enumerate().skip(1) {
            for (n, &table) in row.iter().enumerate().skip(1) {
                let closed = -(n as f64 * (-pow2_neg(q as u32)).ln_1p()).exp_m1();
                assert!(
                    (table - closed).abs() <= 1e-13 * closed,
                    "q={q} n={n}: table {table:e} vs closed form {closed:e}"
                );
            }
        }
    }

    #[test]
    fn thinning_composes() {
        // Bin(Bin(n,1/2),1/2) ~ Bin(n,1/4): compare means.
        let mut rng = StdRng::seed_from_u64(6);
        let n = 4096u64;
        let trials = 10_000;
        let mean = (0..trials)
            .map(|_| {
                let h = bin_half(&mut rng, n);
                bin_half(&mut rng, h)
            })
            .sum::<u64>() as f64
            / trials as f64;
        assert!((mean - 1024.0).abs() < 10.0, "mean {mean}");
    }
}
