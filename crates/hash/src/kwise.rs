//! k-wise independent hash families `H_k(U, V)` (paper §6.1 notation).
//!
//! A hash drawn from [`KWiseHash`] is a uniformly random degree-`(k-1)`
//! polynomial over `F_{2^61-1}`; evaluations at any `k` distinct points are
//! jointly uniform, which is exactly the k-wise independence the paper's
//! analyses (Lemma 2, Lemma 8, Lemma 15, ...) require. Range reduction to
//! `[b]` is division-free (Lemire multiply-shift, [`reduce_range`]), whose
//! bias `b/2^61` is the same class as the old final-modulus bias — far below
//! every failure probability in the paper.

use crate::batch::RowHashes;
use crate::field::{poly_eval, M61Elem, M61};
use rand::Rng;

/// Division-free range reduction of a field value `v ∈ [0, 2^61 − 1)` into
/// `[0, range)`: Lemire's multiply-shift, `⌊v·range / 2^61⌋`, i.e. the high
/// bits of the product of the 61-bit value (widened to 64) with the range.
///
/// Bucket sizes differ by at most one (each bucket's preimage is an interval
/// of length `⌊2^61/range⌋` or `⌈2^61/range⌉`), so the per-bucket bias is
/// `≤ range/2^61` — the same slack the old `% range` reduction charged.
/// Bucket *assignments* differ from the modulus reduction, so any
/// seed-pinned expectation downstream re-pins when switching.
#[inline]
pub fn reduce_range(v: u64, range: u64) -> u64 {
    ((v as u128 * range as u128) >> 61) as u64
}

/// A hash function drawn from a k-wise independent family mapping
/// `u64 → [0, range)`.
#[derive(Clone, Debug)]
pub struct KWiseHash {
    coeffs: Vec<M61Elem>,
    range: u64,
}

impl KWiseHash {
    /// Draw a fresh function from the k-wise independent family
    /// `H_k(u64, [range])`. `k >= 1`, `1 <= range <= 2^61` (the multiply-
    /// shift reduction needs the range to fit the field; `range = 2^61` is
    /// the identity on field values, the "raw uniform bits" configuration
    /// the L0 level hashes use).
    pub fn new<R: Rng + ?Sized>(rng: &mut R, k: usize, range: u64) -> Self {
        let coeffs = (0..k)
            .map(|_| M61Elem::new(rng.gen_range(0..M61)))
            .collect();
        Self::from_coeffs(coeffs, range)
    }

    /// The function `x ↦ c[0] + c[1]·x + … + c[k−1]·x^{k−1}` reduced into
    /// `[0, range)`: a fixed member of the family, for tests that need
    /// extreme coefficients. Same bounds as [`KWiseHash::new`].
    pub fn from_coeffs(coeffs: Vec<M61Elem>, range: u64) -> Self {
        assert!(
            !coeffs.is_empty(),
            "independence parameter k must be at least 1"
        );
        assert!(range >= 1, "hash range must be non-empty");
        assert!(range <= 1 << 61, "hash range must fit the 61-bit field");
        KWiseHash { coeffs, range }
    }

    /// Convenience constructor for a pairwise (2-wise) independent function.
    pub fn pairwise<R: Rng + ?Sized>(rng: &mut R, range: u64) -> Self {
        Self::new(rng, 2, range)
    }

    /// Convenience constructor for a 4-wise independent function (the
    /// independence Countsketch needs for its variance bound).
    pub fn fourwise<R: Rng + ?Sized>(rng: &mut R, range: u64) -> Self {
        Self::new(rng, 4, range)
    }

    /// Evaluate the hash at `x`.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        reduce_range(self.eval_field(x), self.range)
    }

    /// Evaluate the underlying polynomial, before range reduction.
    #[inline]
    pub fn eval_field(&self, x: u64) -> u64 {
        poly_eval(&self.coeffs, M61Elem::new(x)).value()
    }

    /// Evaluate the hash over a whole chunk of inputs into `out` (cleared
    /// first) through a call-local [`RowHashes`] plan, the batch engine's
    /// power-form evaluator. Bit-identical to mapping [`KWiseHash::hash`]
    /// over `xs`.
    pub fn hash_batch(&self, xs: &[u64], out: &mut Vec<u64>) {
        let mut plan = RowHashes::new();
        plan.load(xs.iter().copied());
        plan.eval_buckets(self, out);
    }

    /// The coefficient vector (the batch evaluation plan reads it directly).
    #[inline]
    pub(crate) fn coeffs(&self) -> &[M61Elem] {
        &self.coeffs
    }

    /// The size of the range `[0, range)`.
    #[inline]
    pub fn range(&self) -> u64 {
        self.range
    }

    /// The independence parameter `k` of the family this was drawn from.
    #[inline]
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// Bits needed to store this function: `k` coefficients of 61 bits.
    pub fn seed_bits(&self) -> usize {
        self.coeffs.len() * 61
    }
}

/// A 4-wise independent sign hash `g : u64 → {-1, +1}` (paper §2.1).
///
/// Implemented as a 4-wise [`KWiseHash`] whose low bit selects the sign; the
/// low bit of a k-wise independent uniform value is itself k-wise
/// independent and unbiased up to the negligible `1/2^61` residue bias.
#[derive(Clone, Debug)]
pub struct SignHash {
    inner: KWiseHash,
}

impl SignHash {
    /// Draw a fresh 4-wise independent sign function.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::with_independence(rng, 4)
    }

    /// Draw a sign function with explicit independence `k`.
    pub fn with_independence<R: Rng + ?Sized>(rng: &mut R, k: usize) -> Self {
        SignHash {
            inner: KWiseHash::new(rng, k, M61),
        }
    }

    /// Evaluate: returns `+1` or `-1`.
    #[inline]
    pub fn sign(&self, x: u64) -> i64 {
        if self.inner.eval_field(x) & 1 == 0 {
            1
        } else {
            -1
        }
    }

    /// Bits needed to store this function.
    pub fn seed_bits(&self) -> usize {
        self.inner.seed_bits()
    }

    /// The underlying field-valued hash (the batch plan evaluates it and
    /// takes the low bit itself).
    #[inline]
    pub(crate) fn inner(&self) -> &KWiseHash {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_always_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for k in [1usize, 2, 4, 7] {
            let h = KWiseHash::new(&mut rng, k, 13);
            for x in 0..1000u64 {
                assert!(h.hash(x) < 13);
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_function() {
        let mut rng = StdRng::seed_from_u64(7);
        let h = KWiseHash::new(&mut rng, 4, 101);
        let first: Vec<u64> = (0..64).map(|x| h.hash(x)).collect();
        let second: Vec<u64> = (0..64).map(|x| h.hash(x)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn marginals_are_near_uniform() {
        // Each fixed input is uniform over the range across random draws.
        let mut rng = StdRng::seed_from_u64(42);
        let range = 8u64;
        let trials = 20_000;
        let mut counts = vec![0usize; range as usize];
        for _ in 0..trials {
            let h = KWiseHash::pairwise(&mut rng, range);
            counts[h.hash(12345) as usize] += 1;
        }
        let expect = trials as f64 / range as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expect).abs() < 5.0 * expect.sqrt(),
                "bucket count {c} too far from {expect}"
            );
        }
    }

    #[test]
    fn pairwise_collision_probability() {
        // Pr[h(x) = h(y)] ≈ 1/range for x != y under 2-wise independence.
        let mut rng = StdRng::seed_from_u64(3);
        let range = 16u64;
        let trials = 40_000;
        let mut collisions = 0usize;
        for _ in 0..trials {
            let h = KWiseHash::pairwise(&mut rng, range);
            if h.hash(17) == h.hash(9_999_991) {
                collisions += 1;
            }
        }
        let p = collisions as f64 / trials as f64;
        assert!((p - 1.0 / range as f64).abs() < 0.01, "collision rate {p}");
    }

    #[test]
    fn sign_hash_is_unbiased_and_pairwise_uncorrelated() {
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 20_000;
        let mut sum_x = 0i64;
        let mut sum_xy = 0i64;
        for _ in 0..trials {
            let g = SignHash::new(&mut rng);
            sum_x += g.sign(1);
            sum_xy += g.sign(1) * g.sign(2);
        }
        assert!((sum_x as f64 / trials as f64).abs() < 0.05);
        assert!((sum_xy as f64 / trials as f64).abs() < 0.05);
    }

    #[test]
    fn fourwise_fourth_moment() {
        // E[(Σ_i g(i))^4] for 4 items = 3*4*(4-1) + 4 = 40 + ... the exact
        // value for 4-wise independent signs over 4 items is 3n^2 - 2n = 40.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 4i64;
        let trials = 60_000;
        let mut acc = 0f64;
        for _ in 0..trials {
            let g = SignHash::new(&mut rng);
            let s: i64 = (0..n as u64).map(|i| g.sign(i)).sum();
            acc += (s as f64).powi(4);
        }
        let measured = acc / trials as f64;
        let expect = (3 * n * n - 2 * n) as f64;
        assert!(
            (measured - expect).abs() < 0.1 * expect,
            "fourth moment {measured} vs {expect}"
        );
    }
}
