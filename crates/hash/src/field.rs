//! Arithmetic over the Mersenne prime field `F_p` with `p = 2^61 - 1`.
//!
//! All k-wise independent hash families in this workspace are Carter–Wegman
//! polynomials over this field. The Mersenne structure makes reduction
//! branch-light (shift + add instead of division), which is what the paper's
//! "fast bit-level hashing" requirement calls for: a field multiply is two
//! 64×64→128 multiplies plus a handful of shifts.

/// The Mersenne prime `2^61 - 1`.
pub const M61: u64 = (1u64 << 61) - 1;

/// An element of `F_{2^61-1}`, kept in canonical form `0 <= value < M61`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct M61Elem(u64);

#[allow(clippy::should_implement_trait)] // field ops named per the math, not std::ops
impl M61Elem {
    /// The additive identity.
    pub const ZERO: M61Elem = M61Elem(0);
    /// The multiplicative identity.
    pub const ONE: M61Elem = M61Elem(1);

    /// Construct from an arbitrary `u64`, reducing modulo `2^61 - 1`.
    #[inline]
    pub fn new(x: u64) -> Self {
        M61Elem(reduce_u64(x))
    }

    /// Construct from a full 128-bit value, reducing modulo `2^61 - 1`.
    #[inline]
    pub fn from_u128(x: u128) -> Self {
        M61Elem(reduce_u128(x))
    }

    /// Wrap a value already known to be canonical (`< 2^61 - 1`) without
    /// re-reducing — the batch plan's stored powers.
    #[inline]
    pub(crate) fn from_canonical(x: u64) -> Self {
        debug_assert!(x < M61, "non-canonical value {x}");
        M61Elem(x)
    }

    /// The canonical representative in `[0, 2^61 - 1)`.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Field addition.
    #[inline]
    pub fn add(self, rhs: Self) -> Self {
        let mut s = self.0 + rhs.0; // < 2^62, no overflow
        if s >= M61 {
            s -= M61;
        }
        M61Elem(s)
    }

    /// Field subtraction.
    #[inline]
    pub fn sub(self, rhs: Self) -> Self {
        let s = if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + M61 - rhs.0
        };
        M61Elem(s)
    }

    /// Field multiplication via one 64×64→128 multiply and Mersenne folding.
    /// Both factors are canonical, so the product is below `2^122`: its two
    /// 61-bit limbs sum below `2^62`, and one conditional subtract
    /// canonicalizes (the general [`reduce_u128`] folds a third limb).
    #[inline]
    pub fn mul(self, rhs: Self) -> Self {
        let p = (self.0 as u128) * (rhs.0 as u128);
        let mut r = (p as u64 & M61) + (p >> 61) as u64;
        if r >= M61 {
            r -= M61;
        }
        M61Elem(r)
    }

    /// Field negation.
    #[inline]
    pub fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            M61Elem(M61 - self.0)
        }
    }

    /// Exponentiation by squaring.
    pub fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = M61Elem::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse (panics on zero). Uses Fermat's little theorem.
    pub fn inv(self) -> Self {
        assert!(self.0 != 0, "inverse of zero in F_{{2^61-1}}");
        self.pow(M61 - 2)
    }
}

/// Reduce a `u64` into `[0, 2^61 - 1)`.
#[inline]
pub fn reduce_u64(x: u64) -> u64 {
    let mut r = (x & M61) + (x >> 61);
    if r >= M61 {
        r -= M61;
    }
    r
}

/// Reduce a `u128` into `[0, 2^61 - 1)` by folding 61-bit limbs. Exact for
/// every `u128`, so the batch plan's power sums reduce here once.
#[inline]
pub fn reduce_u128(x: u128) -> u64 {
    // x = lo + 2^61 * hi with hi < 2^67; fold twice. The three limbs sum
    // below 2^62 + 2^6, so the sum fits a u64.
    let lo = (x & (M61 as u128)) as u64;
    let hi = x >> 61;
    let hi_lo = (hi & M61 as u128) as u64;
    let hi_hi = (hi >> 61) as u64; // < 2^6
    let mut r = lo + hi_lo + hi_hi;
    if r >= M61 {
        r -= M61;
    }
    if r >= M61 {
        r -= M61;
    }
    r
}

/// Evaluate the polynomial `c\[0\] + c\[1\] x + ... + c[d] x^d` over `F_{2^61-1}`
/// by Horner's rule: the scalar [`KWiseHash::hash`](crate::KWiseHash::hash)
/// and the definition the batched power form is pinned to.
#[inline]
pub fn poly_eval(coeffs: &[M61Elem], x: M61Elem) -> M61Elem {
    let mut acc = M61Elem::ZERO;
    for &c in coeffs.iter().rev() {
        acc = acc.mul(x).add(c);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_is_canonical() {
        assert_eq!(M61Elem::new(M61).value(), 0);
        assert_eq!(M61Elem::new(M61 + 5).value(), 5);
        assert_eq!(M61Elem::new(u64::MAX).value(), u64::MAX % M61);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = M61Elem::new(0x0123_4567_89ab_cdef);
        let b = M61Elem::new(0x0fed_cba9_8765_4321);
        assert_eq!(a.add(b).sub(b), a);
        assert_eq!(a.sub(a), M61Elem::ZERO);
        assert_eq!(a.add(a.neg()), M61Elem::ZERO);
    }

    #[test]
    fn mul_matches_u128_reference() {
        let a = M61Elem::new(123_456_789_012_345);
        let b = M61Elem::new(987_654_321_098_765);
        let expect = ((a.value() as u128 * b.value() as u128) % (M61 as u128)) as u64;
        assert_eq!(a.mul(b).value(), expect);
    }

    #[test]
    fn pow_and_inv() {
        let a = M61Elem::new(0xdead_beef_cafe);
        assert_eq!(a.pow(0), M61Elem::ONE);
        assert_eq!(a.pow(1), a);
        assert_eq!(a.pow(3), a.mul(a).mul(a));
        assert_eq!(a.mul(a.inv()), M61Elem::ONE);
    }

    #[test]
    fn fermat_holds_for_small_elements() {
        for v in 1..200u64 {
            assert_eq!(M61Elem::new(v).pow(M61 - 1), M61Elem::ONE);
        }
    }

    #[test]
    fn horner_matches_naive() {
        let coeffs: Vec<M61Elem> = (1..=5u64).map(|c| M61Elem::new(c * 7919)).collect();
        let x = M61Elem::new(1_000_003);
        let mut naive = M61Elem::ZERO;
        let mut xp = M61Elem::ONE;
        for &c in &coeffs {
            naive = naive.add(c.mul(xp));
            xp = xp.mul(x);
        }
        assert_eq!(poly_eval(&coeffs, x), naive);
    }
}
