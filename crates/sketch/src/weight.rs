//! Counter weight abstraction.
//!
//! Most sketches count integers, but precision sampling (paper §4) scales
//! updates by `1/t_i ∈ [1, ∞)` and therefore needs real-valued cells. The
//! [`Weight`] trait lets table-based sketches share one implementation across
//! `i64` (exact, bit-width-accountable) and `f64` (scaled) counters.

/// A counter cell type: closed under addition/negation, comparable by
/// magnitude, and convertible to `f64` for medians and norms.
pub trait Weight: Copy + Default + PartialEq + std::fmt::Debug + 'static {
    /// The zero counter.
    fn zero() -> Self;
    /// Add another value into this cell.
    fn add_assign(&mut self, rhs: Self);
    /// Negate.
    fn neg(self) -> Self;
    /// Absolute value as `f64` (for medians, norms, space accounting).
    fn abs_f64(self) -> f64;
    /// Signed value as `f64`.
    fn to_f64(self) -> f64;
    /// Build from an `i64` stream delta.
    fn from_i64(v: i64) -> Self;
    /// The cell as a stable 64-bit pattern for persistence
    /// (two's-complement for integers, IEEE-754 bits for floats):
    /// `from_bits64(to_bits64(w)) == w` bit for bit.
    fn to_bits64(self) -> u64;
    /// Rebuild a cell from [`Weight::to_bits64`].
    fn from_bits64(bits: u64) -> Self;
}

impl Weight for i64 {
    #[inline]
    fn zero() -> Self {
        0
    }
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self += rhs;
    }
    #[inline]
    fn neg(self) -> Self {
        -self
    }
    #[inline]
    fn abs_f64(self) -> f64 {
        self.unsigned_abs() as f64
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_i64(v: i64) -> Self {
        v
    }
    #[inline]
    fn to_bits64(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_bits64(bits: u64) -> Self {
        bits as i64
    }
}

impl Weight for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self += rhs;
    }
    #[inline]
    fn neg(self) -> Self {
        -self
    }
    #[inline]
    fn abs_f64(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn from_i64(v: i64) -> Self {
        v as f64
    }
    #[inline]
    fn to_bits64(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits64(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

/// `v` when `plus`, else `−v`, without a branch. Negation flips exactly the
/// sign bit (`±0` and NaN included), so this is bit-identical to
/// `if plus { v } else { -v }`, and a row's 50/50 sign coin costs no
/// mispredicted branch.
#[inline]
pub fn signed_f64(v: f64, plus: bool) -> f64 {
    f64::from_bits(v.to_bits() ^ (u64::from(!plus) << 63))
}

/// Slices up to this length take [`median_f64`]'s rank count.
const RANK_COUNT_MAX: usize = 16;

/// Median of a slice by `f64` ordering; for even lengths returns the lower
/// median (the convention used throughout the sketch literature). Panics
/// on NaN.
///
/// Up to 16 values the result is the middle element of a stable sort:
/// the value whose stable rank (values below it, plus equal values before
/// it; `+0.0` and `−0.0` compare equal) is the middle index, so the sign
/// of a zero median is fixed here, not by the standard library. Counting ranks has no data-dependent swaps, which
/// makes it faster than selection at the depths of the per-row medians
/// that sketch tables take (about 9). Longer slices are reordered by
/// `select_nth_unstable_by`, which returns an equal value but may pick
/// either zero.
pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mid = (values.len() - 1) / 2;
    if values.len() <= RANK_COUNT_MAX {
        assert!(values.iter().all(|v| !v.is_nan()), "NaN in median");
        for (i, &v) in values.iter().enumerate() {
            let below = values.iter().filter(|&&x| x < v).count();
            let tied_before = values[..i].iter().filter(|&&x| x == v).count();
            if below + tied_before == mid {
                return v;
            }
        }
        unreachable!("stable ranks are a permutation of the indices");
    }
    values
        .select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("NaN in median"))
        .1
        .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn weight_ops_i64() {
        let mut w = i64::zero();
        w.add_assign(5);
        w.add_assign((-2).neg());
        assert_eq!(w, 7);
        assert_eq!(w.abs_f64(), 7.0);
        assert_eq!(i64::from_i64(-3), -3);
    }

    #[test]
    fn weight_ops_f64() {
        let mut w = f64::zero();
        w.add_assign(2.5);
        assert_eq!(w.neg(), -2.5);
        assert_eq!((-2.5f64).abs_f64(), 2.5);
    }

    #[test]
    fn median_odd_even() {
        let mut v = [3.0, 1.0, 2.0];
        assert_eq!(median_f64(&mut v), 2.0);
        let mut v = [4.0, 1.0, 2.0, 3.0];
        assert_eq!(median_f64(&mut v), 2.0); // lower median
        let mut v = [9.0];
        assert_eq!(median_f64(&mut v), 9.0);
    }

    #[test]
    fn median_is_the_stable_sort_middle() {
        // Zeros of both signs and repeated values, at every length up to
        // past the rank count: bit for bit the middle of a stable sort
        // while the rank count decides, an equal value beyond it.
        let mut rng = SmallRng::seed_from_u64(8);
        let pool = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 64.0];
        for len in 1..=RANK_COUNT_MAX + 4 {
            for _ in 0..3000 {
                let v: Vec<f64> = (0..len)
                    .map(|_| pool[rng.gen_range(0..pool.len() as u64) as usize])
                    .collect();
                let mut sorted = v.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let want = sorted[(len - 1) / 2];
                let got = median_f64(&mut v.clone());
                if len <= RANK_COUNT_MAX {
                    assert_eq!(got.to_bits(), want.to_bits(), "{v:?}");
                } else {
                    assert_eq!(got, want, "{v:?}");
                }
            }
        }
    }

    #[test]
    fn signed_f64_is_negation_bit_for_bit() {
        for v in [
            0.0,
            -0.0,
            1.5,
            -3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
        ] {
            assert_eq!(signed_f64(v, true).to_bits(), v.to_bits());
            assert_eq!(signed_f64(v, false).to_bits(), (-v).to_bits(), "{v}");
        }
        // The zero of `0.0 - x` would lose the sign: −(+0) is −0.
        assert!(signed_f64(0.0, false).is_sign_negative());
    }

    #[test]
    #[should_panic(expected = "NaN in median")]
    fn median_rejects_nan() {
        median_f64(&mut [1.0, f64::NAN, 0.0]);
    }
}
