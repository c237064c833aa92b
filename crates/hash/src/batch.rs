//! Chunk-at-a-time hash evaluation — the batched hash engine.
//!
//! Every table sketch in the workspace pays `rows × (k−1)` field multiplies
//! per update for its k-wise hashes. Per-update evaluation leaves two costs
//! on the table: the input is canonicalized into `F_{2^61-1}` once *per
//! row*, and the Horner chain is a serial `mul → add` dependency so the
//! field multiplier sits idle most of the time. [`RowHashes`] fixes both for
//! the batched ingest paths: a chunk of pre-aggregated distinct items is
//! canonicalized **once**, and each row's polynomial is then evaluated over
//! the whole chunk eight points at a time through the dispatched vector
//! kernel ([`simd::active_kernel`] — AVX2 lanes where the CPU has them, the
//! interleaved-scalar Horner reference otherwise) — a structure-of-arrays
//! pass whose outputs land in caller-owned reusable buffers, so steady-state
//! ingest allocates nothing.
//!
//! Range reduction is division-free ([`reduce_range`]); sign hashes reuse
//! the same pass and take the low bit of the field value, exactly like
//! [`SignHash::sign`].

use crate::field::{poly_eval, M61Elem};
use crate::kwise::{reduce_range, KWiseHash, SignHash};
use crate::simd;

/// A reusable evaluation plan over one chunk of items.
///
/// [`RowHashes::load`] canonicalizes the chunk into the field once; the
/// `eval_*`/`append_*` methods then evaluate any number of rows' hash
/// functions over it. All outputs are positionally aligned with the loaded
/// chunk. The plan owns only its canonicalized-item buffer, which is reused
/// across loads — steady-state use performs zero heap allocations.
#[derive(Clone, Debug, Default)]
pub struct RowHashes {
    canon: Vec<M61Elem>,
}

impl RowHashes {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonicalize a chunk of items into the field, replacing any
    /// previously loaded chunk. One `M61Elem::new` per item, shared by every
    /// subsequent row evaluation.
    pub fn load<I: IntoIterator<Item = u64>>(&mut self, items: I) {
        self.canon.clear();
        self.canon.extend(items.into_iter().map(M61Elem::new));
    }

    /// Number of items loaded.
    #[inline]
    pub fn len(&self) -> usize {
        self.canon.len()
    }

    /// Whether the plan is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.canon.is_empty()
    }

    /// Evaluate `h`'s raw polynomial over the chunk and append `f(value)`
    /// per item to `out` — the shared core of every row evaluation. The
    /// polynomial runs [`simd::KERNEL_WIDTH`] points at a time on the
    /// process's active vector kernel (AVX2 or interleaved scalar —
    /// [`simd::active_kernel`]), with a scalar Horner tail;
    /// bit-identical to per-item evaluation at every dispatch level.
    fn append_map<T>(&self, h: &KWiseHash, out: &mut Vec<T>, f: impl Fn(u64) -> T) {
        let coeffs = h.coeffs();
        out.reserve(self.canon.len());
        let kernel = simd::active_kernel();
        let mut chunks = self.canon.chunks_exact(simd::KERNEL_WIDTH);
        for eight in &mut chunks {
            let x: [M61Elem; simd::KERNEL_WIDTH] = std::array::from_fn(|i| eight[i]);
            let a = kernel(coeffs, &x);
            out.extend(a.iter().map(|e| f(e.value())));
        }
        out.extend(
            chunks
                .remainder()
                .iter()
                .map(|&x| f(poly_eval(coeffs, x).value())),
        );
    }

    /// Bucket indices of `h` over the chunk, appended to `out`.
    /// Bit-identical to [`KWiseHash::hash`] per item.
    pub fn append_buckets(&self, h: &KWiseHash, out: &mut Vec<u64>) {
        let range = h.range();
        self.append_map(h, out, |v| reduce_range(v, range));
    }

    /// Bucket indices of `h` over the chunk (`out` cleared first).
    pub fn eval_buckets(&self, h: &KWiseHash, out: &mut Vec<u64>) {
        out.clear();
        self.append_buckets(h, out);
    }

    /// Signs of `g` over the chunk, appended to `out` as `true` for `+1`.
    /// Bit-identical to `g.sign(item) >= 0` per item.
    pub fn append_signs(&self, g: &SignHash, out: &mut Vec<bool>) {
        self.append_map(g.inner(), out, |v| v & 1 == 0);
    }

    /// Signs of `g` over the chunk (`out` cleared first).
    pub fn eval_signs(&self, g: &SignHash, out: &mut Vec<bool>) {
        out.clear();
        self.append_signs(g, out);
    }

    /// Arbitrary per-item transform of `h`'s *reduced* hash values, appended
    /// to `out` (the Cauchy rows map buckets through `tan` this way).
    pub fn append_mapped<T>(&self, h: &KWiseHash, out: &mut Vec<T>, f: impl Fn(u64) -> T) {
        let range = h.range();
        self.append_map(h, out, |v| f(reduce_range(v, range)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn plan_buckets_match_scalar_hash() {
        let mut rng = StdRng::seed_from_u64(9);
        let items: Vec<u64> = (0..23u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        for k in [1usize, 2, 4, 8] {
            for range in [1u64, 13, 4096, u32::MAX as u64] {
                let h = KWiseHash::new(&mut rng, k, range);
                let mut plan = RowHashes::new();
                plan.load(items.iter().copied());
                let mut out = Vec::new();
                plan.eval_buckets(&h, &mut out);
                let scalar: Vec<u64> = items.iter().map(|&x| h.hash(x)).collect();
                assert_eq!(out, scalar, "k={k} range={range}");
            }
        }
    }

    #[test]
    fn plan_signs_match_scalar_sign() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = SignHash::new(&mut rng);
        let items: Vec<u64> = (0..17u64).map(|i| i * i + 3).collect();
        let mut plan = RowHashes::new();
        plan.load(items.iter().copied());
        let mut out = Vec::new();
        plan.eval_signs(&g, &mut out);
        for (idx, &x) in items.iter().enumerate() {
            assert_eq!(out[idx], g.sign(x) >= 0);
        }
    }

    #[test]
    fn append_stacks_rows_in_order() {
        let mut rng = StdRng::seed_from_u64(11);
        let h0 = KWiseHash::fourwise(&mut rng, 64);
        let h1 = KWiseHash::fourwise(&mut rng, 64);
        let items = [5u64, 6, 7];
        let mut plan = RowHashes::new();
        plan.load(items.iter().copied());
        let mut out = Vec::new();
        plan.append_buckets(&h0, &mut out);
        plan.append_buckets(&h1, &mut out);
        assert_eq!(out.len(), 6);
        assert_eq!(&out[..3], &items.map(|x| h0.hash(x)));
        assert_eq!(&out[3..], &items.map(|x| h1.hash(x)));
    }

    #[test]
    fn reload_reuses_buffers() {
        let mut plan = RowHashes::new();
        plan.load(0..100u64);
        assert_eq!(plan.len(), 100);
        plan.load(0..4u64);
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
    }
}
