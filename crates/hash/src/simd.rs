//! Vectorized `F_{2^61-1}` kernels — the SIMD half of the batched hash
//! engine.
//!
//! `poly_eval4` gets its instruction-level parallelism from four
//! *interleaved scalar* Horner chains; this module moves the same chains
//! onto true vector lanes. On `x86_64` with AVX2 the field algebra runs as
//! hand-written intrinsics (`vpmuludq` schoolbook multiply, Mersenne folding
//! in-register), selected at runtime via `is_x86_feature_detected!`. The
//! scalar fallback is the interleaved-Horner kernel
//! ([`poly_eval4`](crate::field::poly_eval4)) — always available, always the
//! reference.
//!
//! **Lane layout.** The batch kernels evaluate **8 points per call**
//! ([`KERNEL_WIDTH`]): two 4-lane groups (`x[0..4]`, `x[4..8]`) with
//! independent accumulators, so the `mul → add` latency of one vector chain
//! overlaps the other — the same trick the scalar kernel plays across four
//! chains, lifted one level up. Items map to lanes positionally; the caller
//! handles the `len % 8` scalar tail.
//!
//! **Bit-equivalence contract.** Every kernel keeps all intermediate values
//! in canonical form `[0, 2^61-1)` after each field op, exactly like
//! [`M61Elem`]. Canonical representatives are unique, so both kernels —
//! scalar and AVX2 — are bit-identical on every input;
//! `crates/hash/tests/batch_equiv.rs` pins SIMD ≡ scalar ≡ definition.
//!
//! **Dispatch.** [`active_kernel`] resolves once per process: AVX2 when the
//! CPU has it, the scalar reference otherwise. The `BD_SIMD` environment
//! variable overrides the choice (`scalar`, `avx2`, `auto`); CI runs the
//! hash/sharded/service suites under `BD_SIMD=scalar` so the fallback stays
//! tested on every push. Requesting `avx2` where the CPU lacks it resolves
//! to `scalar`.

use crate::field::{poly_eval4, M61Elem};
use std::sync::OnceLock;

/// Field lanes per vector group: the four 64-bit lanes of one AVX2
/// register.
pub const LANES: usize = 4;

/// Points evaluated per batch-kernel call: two [`LANES`]-wide groups with
/// independent accumulators.
pub const KERNEL_WIDTH: usize = 8;

/// The batch-kernel shape: evaluate one coefficient vector at
/// [`KERNEL_WIDTH`] points. All kernels are bit-identical; they differ only
/// in how the lanes are scheduled.
pub type Kernel8 = fn(&[M61Elem], &[M61Elem; KERNEL_WIDTH]) -> [M61Elem; KERNEL_WIDTH];

/// The scalar reference kernel: two passes of the interleaved 4-chain
/// Horner ([`poly_eval4`]). This is the guaranteed fallback on every
/// target, and what `BD_SIMD=scalar` forces end to end.
pub fn poly_eval8_scalar(
    coeffs: &[M61Elem],
    x: &[M61Elem; KERNEL_WIDTH],
) -> [M61Elem; KERNEL_WIDTH] {
    let a = poly_eval4(coeffs, [x[0], x[1], x[2], x[3]]);
    let b = poly_eval4(coeffs, [x[4], x[5], x[6], x[7]]);
    [a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]]
}

/// Whether the running CPU has the AVX2 fast path.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The AVX2 kernel: the scalar kernel's two Horner passes as two vector
/// chains of hand-written 256-bit intrinsics (4 field lanes per register,
/// `vpmuludq` schoolbook multiply, Mersenne folds in-register).
///
/// # Panics
/// Panics if the CPU lacks AVX2 — guard with [`avx2_available`] (the
/// dispatcher does; this symbol exists so tests and benches can pin the
/// kernel directly).
#[cfg(target_arch = "x86_64")]
pub fn poly_eval8_avx2(coeffs: &[M61Elem], x: &[M61Elem; KERNEL_WIDTH]) -> [M61Elem; KERNEL_WIDTH] {
    assert!(avx2_available(), "poly_eval8_avx2 requires AVX2");
    // Safety: feature presence checked above; the intrinsics have no other
    // requirements (unaligned loads/stores are used throughout).
    unsafe { avx2::poly_eval8(coeffs, x) }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{M61Elem, KERNEL_WIDTH};
    use crate::field::M61;
    use std::arch::x86_64::*;

    /// Low 29 bits — the split point of the `2^32`-limb Mersenne fold
    /// (`2^29 · 2^32 = 2^61 ≡ 1`).
    const MASK29: u64 = (1u64 << 29) - 1;

    /// Canonicalize `r < 2^62` by one conditional subtract of `M61`.
    /// Values stay below `2^63`, so the signed 64-bit compare is exact.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn canon(r: __m256i, m61: __m256i, m61m1: __m256i) -> __m256i {
        let ge = _mm256_cmpgt_epi64(r, m61m1); // r > M61-1  ⇔  r ≥ M61
        _mm256_sub_epi64(r, _mm256_and_si256(ge, m61))
    }

    /// Lane-wise canonical field multiply, branch-free and `u128`-free:
    /// 32-bit schoolbook partial products folded with `2^61 ≡ 1`, four
    /// lanes per register. Inputs must be canonical (`< 2^61`); the output
    /// is canonical, so it is bit-identical to
    /// [`M61Elem::mul`](crate::field::M61Elem::mul) (canonical
    /// representatives are unique).
    ///
    /// Derivation, with `a = a_hi·2^32 + a_lo` (so `a_hi < 2^29`):
    /// `a·b = hh·2^64 + (lh + hl)·2^32 + ll`, and modulo `2^61 − 1`:
    /// `hh·2^64 ≡ hh·2^3`, `mid·2^32 ≡ (mid mod 2^29)·2^32 + ⌊mid/2^29⌋`,
    /// `ll ≡ (ll mod 2^61) + ⌊ll/2^61⌋`. The five folded terms sum below
    /// `2^63`, so one more `2^61`-fold plus one conditional subtract
    /// canonicalizes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul4(a: __m256i, b: __m256i, m61: __m256i, m61m1: __m256i) -> __m256i {
        let mask29 = _mm256_set1_epi64x(MASK29 as i64);
        let a_hi = _mm256_srli_epi64(a, 32);
        let b_hi = _mm256_srli_epi64(b, 32);
        let ll = _mm256_mul_epu32(a, b); // a_lo · b_lo
        let lh = _mm256_mul_epu32(a, b_hi); // a_lo · b_hi
        let hl = _mm256_mul_epu32(a_hi, b); // a_hi · b_lo
        let hh = _mm256_mul_epu32(a_hi, b_hi); // a_hi · b_hi
        let mid = _mm256_add_epi64(lh, hl); // < 2^62
        let s = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_and_si256(ll, m61), _mm256_srli_epi64(ll, 61)),
            _mm256_add_epi64(
                _mm256_add_epi64(
                    _mm256_slli_epi64(_mm256_and_si256(mid, mask29), 32),
                    _mm256_srli_epi64(mid, 29),
                ),
                _mm256_slli_epi64(hh, 3),
            ),
        ); // < 2^63
        let r = _mm256_add_epi64(_mm256_and_si256(s, m61), _mm256_srli_epi64(s, 61));
        canon(r, m61, m61m1)
    }

    /// Lane-wise canonical field add.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add4(a: __m256i, b: __m256i, m61: __m256i, m61m1: __m256i) -> __m256i {
        canon(_mm256_add_epi64(a, b), m61, m61m1)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn poly_eval8(
        coeffs: &[M61Elem],
        x: &[M61Elem; KERNEL_WIDTH],
    ) -> [M61Elem; KERNEL_WIDTH] {
        let m61 = _mm256_set1_epi64x(M61 as i64);
        let m61m1 = _mm256_set1_epi64x((M61 - 1) as i64);
        let xs: [u64; KERNEL_WIDTH] = std::array::from_fn(|i| x[i].value());
        let x0 = _mm256_loadu_si256(xs.as_ptr().cast());
        let x1 = _mm256_loadu_si256(xs.as_ptr().add(4).cast());
        let mut a0 = _mm256_setzero_si256();
        let mut a1 = _mm256_setzero_si256();
        for &c in coeffs.iter().rev() {
            let cv = _mm256_set1_epi64x(c.value() as i64);
            a0 = add4(mul4(a0, x0, m61, m61m1), cv, m61, m61m1);
            a1 = add4(mul4(a1, x1, m61, m61m1), cv, m61, m61m1);
        }
        let mut out = [0u64; KERNEL_WIDTH];
        _mm256_storeu_si256(out.as_mut_ptr().cast(), a0);
        _mm256_storeu_si256(out.as_mut_ptr().add(4).cast(), a1);
        out.map(M61Elem::from_canonical)
    }
}

/// The dispatch tiers, in the order [`active_level`] resolves them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// The interleaved-scalar reference kernel (`poly_eval4` twice).
    Scalar,
    /// The hand-written AVX2 intrinsics kernel (`x86_64` only).
    Avx2,
}

impl SimdLevel {
    /// The level's name — the `BD_SIMD` value that forces it.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// The kernel this level runs.
    pub fn kernel(self) -> Kernel8 {
        match self {
            SimdLevel::Scalar => poly_eval8_scalar,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => poly_eval8_avx2,
            // Never resolved off `x86_64` (no CPU there reports AVX2).
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 => poly_eval8_scalar,
        }
    }
}

/// Resolve a `BD_SIMD` request string against what the CPU offers:
/// `scalar` (or `off`, `0`) forces the reference kernel; anything else —
/// `avx2`, `auto`, an unknown value — picks AVX2 when detected and the
/// scalar reference otherwise, never a missing intrinsic.
fn resolve_level(request: Option<&str>, avx2: bool) -> SimdLevel {
    match request.map(str::trim) {
        Some("scalar" | "off" | "0") => SimdLevel::Scalar,
        _ if avx2 => SimdLevel::Avx2,
        _ => SimdLevel::Scalar,
    }
}

static ACTIVE: OnceLock<SimdLevel> = OnceLock::new();

/// The dispatch level every batched hash path in the process uses, resolved
/// once from the `BD_SIMD` environment variable and runtime CPU detection.
pub fn active_level() -> SimdLevel {
    *ACTIVE
        .get_or_init(|| resolve_level(std::env::var("BD_SIMD").ok().as_deref(), avx2_available()))
}

/// The active batch kernel ([`active_level`]'s). Callers hoist this fn
/// pointer out of their chunk loops; one indirect call covers
/// [`KERNEL_WIDTH`] evaluations.
#[inline]
pub fn active_kernel() -> Kernel8 {
    active_level().kernel()
}

/// Every kernel available on this machine, named — the sweep surface for
/// the equivalence tests and the per-level bench rows.
pub fn kernels() -> Vec<(&'static str, Kernel8)> {
    #[allow(unused_mut)]
    let mut v: Vec<(&'static str, Kernel8)> = vec![("scalar", poly_eval8_scalar)];
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        v.push(("avx2", poly_eval8_avx2));
    }
    v
}

/// A short human-readable summary of the vector capabilities the dispatcher
/// saw (recorded in bench context lines so cross-machine comparisons of
/// SIMD rows are interpretable).
pub fn detected_features() -> String {
    format!(
        "{}:avx2={}",
        std::env::consts::ARCH,
        if avx2_available() { "yes" } else { "no" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{poly_eval, M61};

    /// Adversarial lane values: canonical extremes and structured bits.
    fn lane_sweep() -> Vec<u64> {
        let mask29 = (1u64 << 29) - 1;
        let mut v: Vec<u64> = vec![0, 1, 2, 3, M61 - 1, M61 - 2, M61 / 2, mask29, mask29 + 1];
        v.extend((0..61).map(|b| (1u64 << b) % M61));
        v.extend((0..32u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % M61));
        v
    }

    /// The AVX2 multiply and add on every pair of adversarial lane values:
    /// the degree-1 polynomials `a·x` and `x + a` evaluated at `x = b`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_lane_ops_match_field_ops() {
        if !avx2_available() {
            return;
        }
        let s = lane_sweep();
        for &a in &s {
            let a = M61Elem::from_canonical(a);
            for at in (0..s.len()).step_by(KERNEL_WIDTH) {
                let x: [M61Elem; KERNEL_WIDTH] =
                    std::array::from_fn(|l| M61Elem::from_canonical(s[(at + l) % s.len()]));
                let prod = poly_eval8_avx2(&[M61Elem::ZERO, a], &x);
                let sum = poly_eval8_avx2(&[a, M61Elem::new(1)], &x);
                for (l, &b) in x.iter().enumerate() {
                    assert_eq!(prod[l], a.mul(b), "a={a:?} b={b:?}");
                    assert_eq!(sum[l], a.add(b), "a={a:?} b={b:?}");
                }
            }
        }
    }

    #[test]
    fn every_kernel_matches_scalar_horner() {
        let coeffs: Vec<M61Elem> = (1..=8u64).map(|c| M61Elem::new(c * 104_729)).collect();
        let s = lane_sweep();
        for (name, kernel) in kernels() {
            for w in s.windows(8) {
                let x: [M61Elem; 8] = std::array::from_fn(|i| M61Elem::from_canonical(w[i]));
                let got = kernel(&coeffs, &x);
                for (i, &xi) in x.iter().enumerate() {
                    assert_eq!(got[i], poly_eval(&coeffs, xi), "kernel={name} lane={i}");
                }
            }
        }
    }

    #[test]
    fn degenerate_polynomials() {
        // k = 1 (constant) and empty coefficient vectors through every kernel.
        let x: [M61Elem; 8] = std::array::from_fn(|i| M61Elem::new(i as u64 * 3 + 1));
        for (name, kernel) in kernels() {
            let c = M61Elem::new(42);
            for out in kernel(&[c], &x) {
                assert_eq!(out, c, "kernel={name}");
            }
            for out in kernel(&[], &x) {
                assert_eq!(out, M61Elem::ZERO, "kernel={name}");
            }
        }
    }

    #[test]
    fn level_resolution_honors_env_and_cpu() {
        use SimdLevel::*;
        assert_eq!(resolve_level(None, true), Avx2);
        assert_eq!(resolve_level(None, false), Scalar);
        assert_eq!(resolve_level(Some("auto"), true), Avx2);
        assert_eq!(resolve_level(Some("scalar"), true), Scalar);
        assert_eq!(resolve_level(Some("off"), true), Scalar);
        assert_eq!(resolve_level(Some("avx2"), true), Avx2);
        // avx2 requested but absent: scalar, never a missing intrinsic.
        assert_eq!(resolve_level(Some("avx2"), false), Scalar);
        assert_eq!(resolve_level(Some("nonsense"), false), Scalar);
    }

    #[test]
    fn active_kernel_is_consistent_with_level() {
        // Whatever the process-level dispatch picked, the kernel it hands
        // out is the level's own and is bit-identical to the reference.
        let level = active_level();
        let kernel = active_kernel();
        let coeffs: Vec<M61Elem> = (1..=4u64).map(|c| M61Elem::new(c * 7919)).collect();
        let x: [M61Elem; 8] = std::array::from_fn(|i| M61Elem::new(i as u64 * 999_983));
        assert_eq!(kernel(&coeffs, &x), poly_eval8_scalar(&coeffs, &x));
        assert!(!level.name().is_empty());
        assert!(detected_features().contains("avx2="));
    }
}
