//! 1-stable (Cauchy) random variables from k-wise independent seeds.
//!
//! The general-turnstile L1 estimators (paper §5.2, Figure 5, Theorem 8)
//! maintain `y = A·f` where the `A_{ij}` are k-wise independent standard
//! Cauchy variables, generated as `tan(θ)` with `θ` uniform on
//! `(-π/2, π/2)` — exactly the construction of \[35, 39\] cited by the paper.
//! Rows are pairwise independent of each other; entries within a row are
//! k-wise independent.

use crate::kwise::KWiseHash;
use rand::Rng;

/// One row of k-wise independent standard Cauchy variables, addressable by
/// column index (so the full matrix never materializes — entries are
/// recomputed from the 61-bit seed polynomial on demand).
#[derive(Clone, Debug)]
pub struct CauchyRow {
    hash: KWiseHash,
    resolution: f64,
}

impl CauchyRow {
    const RES_BITS: u32 = 40;

    /// Draw a row with independence `k`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, k: usize) -> Self {
        CauchyRow {
            hash: KWiseHash::new(rng, k, 1u64 << Self::RES_BITS),
            resolution: 1.0 / (1u64 << Self::RES_BITS) as f64,
        }
    }

    /// The Cauchy variable `A_j = tan(θ_j)`, `θ_j` uniform on `(-π/2, π/2)`.
    #[inline]
    pub fn entry(&self, j: u64) -> f64 {
        // Uniform on (0,1), strictly inside to keep tan finite.
        let u = (self.hash.hash(j) as f64 + 0.5) * self.resolution;
        (std::f64::consts::PI * (u - 0.5)).tan()
    }

    /// The row's entries over a whole pre-loaded chunk, appended to `out`
    /// (positionally aligned with the plan). Bit-identical to
    /// [`CauchyRow::entry`] per item; the polynomial is the plan's power
    /// form over the chunk's shared powers, with only the `tan` map applied
    /// per item.
    pub fn append_entries(&self, plan: &mut crate::batch::RowHashes, out: &mut Vec<f64>) {
        let res = self.resolution;
        plan.append_mapped(&self.hash, out, |b| {
            let u = (b as f64 + 0.5) * res;
            (std::f64::consts::PI * (u - 0.5)).tan()
        });
    }

    /// Bits needed to store the row seed.
    pub fn seed_bits(&self) -> usize {
        self.hash.seed_bits()
    }
}

/// The median of `|X|` for a standard Cauchy `X`: `tan(π/4) = 1`.
/// Indyk's median estimator divides by this; kept symbolic for clarity.
pub const CAUCHY_ABS_MEDIAN: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn entries_are_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let row = CauchyRow::new(&mut rng, 4);
        assert_eq!(row.entry(42).to_bits(), row.entry(42).to_bits());
    }

    #[test]
    fn median_of_abs_is_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let row = CauchyRow::new(&mut rng, 8);
        let mut vals: Vec<f64> = (0..50_000u64).map(|j| row.entry(j).abs()).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = vals[vals.len() / 2];
        assert!((med - 1.0).abs() < 0.05, "median {med}");
    }

    #[test]
    fn symmetric_sign() {
        let mut rng = StdRng::seed_from_u64(3);
        let row = CauchyRow::new(&mut rng, 4);
        let n = 50_000u64;
        let pos = (0..n).filter(|&j| row.entry(j) > 0.0).count();
        let frac = pos as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "positive fraction {frac}");
    }

    #[test]
    fn quartiles_match_cauchy() {
        // For standard Cauchy, Pr[X <= 1] = 3/4.
        let mut rng = StdRng::seed_from_u64(4);
        let row = CauchyRow::new(&mut rng, 4);
        let n = 50_000u64;
        let below = (0..n).filter(|&j| row.entry(j) <= 1.0).count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "Pr[X<=1] = {frac}");
    }
}
