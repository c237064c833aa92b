//! Chunk-at-a-time hash evaluation — the batched hash engine.
//!
//! Every table sketch in the workspace evaluates `rows` degree-`(k−1)`
//! polynomials per distinct item. Horner's rule makes each one a serial
//! `mul → add` chain of `k − 1` field multiplies, every one reduced before
//! the next can start. [`RowHashes`] evaluates rows in *power form* instead:
//! a chunk of pre-aggregated distinct items is canonicalized into
//! `F_{2^61-1}` **once**, each item keeps its powers `x, x², …, x^d` up to
//! the highest degree `d` a row asks for (one field multiply per power, paid
//! once per chunk, not once per row), and a row is then
//! `Σ_j c_j·x^j` — `d` independent 64×64→128-bit products summed in a
//! `u128` and reduced once. Outputs land in caller-owned reusable buffers,
//! so steady-state ingest allocates nothing.
//!
//! **Why one reduction is exact.** The coefficients and powers are
//! canonical residues below `2^61`, so every product `c_j·x^j` is an exact
//! integer below `2^122`, and [`FOLD`] of them plus a canonical residue stay
//! below `2^128`. The `u128` sum is therefore the exact integer
//! `Σ c_j·x^j`, and one reduction yields its canonical residue — the same
//! value Horner's rule reaches, and canonical representatives are unique, so
//! the same bits. Rows with more than [`FOLD`] non-constant terms reduce
//! after every [`FOLD`] of them. `crates/hash/tests/batch_equiv.rs` pins
//! power form ≡ Horner.
//!
//! The row loop is monomorphic in `k` for `k = 2, 4, 6` (pairwise buckets,
//! four-wise buckets and signs, six-wise Cauchy rows); other `k` take a
//! loop over a runtime number of terms. Range reduction is division-free
//! ([`reduce_range`]); sign hashes take the low bit of the field value,
//! exactly like [`SignHash::sign`].

use crate::field::{reduce_u128, M61Elem};
use crate::kwise::{reduce_range, KWiseHash, SignHash};

/// Most non-constant terms one `u128` accumulator takes before it must be
/// reduced: a term is below `2^122`, so 63 of them and a residue below
/// `2^61` sum below `2^128`.
pub const FOLD: usize = 63;

/// The power-form evaluator of degree `D` (`k = D + 1` coefficients): maps
/// an item's powers `x, …, x^D` to `Σ_j c_j·x^j mod 2^61 − 1` with one
/// reduction. `c` must hold exactly `D + 1` coefficients.
#[inline(always)]
fn power_form<const D: usize>(c: &[M61Elem]) -> impl Fn(&[u64; D]) -> u64 + Copy {
    const { assert!(D <= FOLD, "one reduction covers at most FOLD terms") };
    assert_eq!(c.len(), D + 1, "power form of the wrong degree");
    let c0 = c[0].value();
    let cs: [u64; D] = std::array::from_fn(|j| c[j + 1].value());
    move |p| {
        let mut s = u128::from(c0);
        for j in 0..D {
            s += u128::from(cs[j]) * u128::from(p[j]);
        }
        reduce_u128(s)
    }
}

/// [`power_form`] for any number of coefficients: `c[0] + Σ c[j]·p[j−1]`,
/// reduced after every [`FOLD`] terms.
fn power_sum_any(c: &[M61Elem], p: &[u64]) -> u64 {
    let mut s = u128::from(c[0].value());
    for (cs, ps) in c[1..].chunks(FOLD).zip(p.chunks(FOLD)) {
        for (cj, &pj) in cs.iter().zip(ps) {
            s += u128::from(cj.value()) * u128::from(pj);
        }
        s = u128::from(reduce_u128(s));
    }
    s as u64
}

/// A reusable evaluation plan over one chunk of items.
///
/// [`RowHashes::load`] canonicalizes the chunk into the field once; the
/// `eval_*`/`append_*` methods then evaluate any number of rows' hash
/// functions over it, extending the items' powers the first time a row of
/// a higher degree arrives. All outputs are positionally aligned with the
/// loaded chunk. The plan owns its power table, which is reused across
/// loads — steady-state use performs zero heap allocations.
#[derive(Clone, Debug)]
pub struct RowHashes {
    /// Item `i`'s powers `x_i, x_i², …, x_i^degree` (canonical residues) at
    /// `[i·degree, (i + 1)·degree)`.
    pows: Vec<u64>,
    /// Powers held per item: 1 after a load, raised by the first row that
    /// needs more.
    degree: usize,
}

impl Default for RowHashes {
    fn default() -> Self {
        RowHashes {
            pows: Vec::new(),
            degree: 1,
        }
    }
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
        self.pows.clear();
        self.pows
            .extend(items.into_iter().map(|x| M61Elem::new(x).value()));
        self.degree = 1;
    }

    /// Number of items loaded.
    #[inline]
    pub fn len(&self) -> usize {
        self.pows.len() / self.degree
    }

    /// Whether the plan is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pows.is_empty()
    }

    /// Extend every item's powers up to `x^degree` (no-op when held): each
    /// item's entry is rebuilt from its `x`, `degree − 1` field multiplies.
    fn raise(&mut self, degree: usize) {
        let held = self.degree;
        if degree <= held {
            return;
        }
        let len = self.len();
        self.pows.resize(len * degree, 0);
        // In place, back to front: item `i` writes from `i·degree` on, past
        // every earlier item's `x` (at `j·held < i·degree`), which is still
        // to be read.
        for i in (0..len).rev() {
            let x = M61Elem::from_canonical(self.pows[i * held]);
            let q = &mut self.pows[i * degree..(i + 1) * degree];
            let mut xj = x;
            q[0] = x.value();
            for qj in &mut q[1..] {
                xj = xj.mul(x);
                *qj = xj.value();
            }
        }
        self.degree = degree;
    }

    /// Append `f(D-degree power form of c)` per item to `out`.
    fn append_power_form<const D: usize, T>(
        &mut self,
        c: &[M61Elem],
        out: &mut Vec<T>,
        f: impl Fn(u64) -> T,
    ) {
        self.raise(D);
        let eval = power_form::<D>(c);
        out.extend(
            self.pows
                .chunks_exact(self.degree)
                .map(|p| f(eval(p.first_chunk().expect("raised to D powers")))),
        );
    }

    /// Evaluate `h`'s raw polynomial over the chunk and append `f(value)`
    /// per item to `out` — the shared core of every row evaluation.
    /// Bit-identical to per-item Horner evaluation.
    fn append_map<T>(&mut self, h: &KWiseHash, out: &mut Vec<T>, f: impl Fn(u64) -> T) {
        let c = h.coeffs();
        match c.len() {
            2 => self.append_power_form::<1, T>(c, out, f),
            4 => self.append_power_form::<3, T>(c, out, f),
            6 => self.append_power_form::<5, T>(c, out, f),
            k => {
                self.raise(k - 1);
                out.extend(
                    self.pows
                        .chunks_exact(self.degree)
                        .map(|p| f(power_sum_any(c, &p[..k - 1]))),
                );
            }
        }
    }

    /// Bucket indices of `h` over the chunk, appended to `out`.
    /// Bit-identical to [`KWiseHash::hash`] per item.
    pub fn append_buckets(&mut self, h: &KWiseHash, out: &mut Vec<u64>) {
        let range = h.range();
        self.append_map(h, out, |v| reduce_range(v, range));
    }

    /// Bucket indices of `h` over the chunk (`out` cleared first).
    pub fn eval_buckets(&mut self, h: &KWiseHash, out: &mut Vec<u64>) {
        out.clear();
        self.append_buckets(h, out);
    }

    /// Signs of `g` over the chunk, appended to `out` as `true` for `+1`.
    /// Bit-identical to `g.sign(item) >= 0` per item.
    pub fn append_signs(&mut self, g: &SignHash, out: &mut Vec<bool>) {
        self.append_map(g.inner(), out, |v| v & 1 == 0);
    }

    /// Signs of `g` over the chunk (`out` cleared first).
    pub fn eval_signs(&mut self, g: &SignHash, out: &mut Vec<bool>) {
        out.clear();
        self.append_signs(g, out);
    }

    /// Arbitrary per-item transform of `h`'s *reduced* hash values, appended
    /// to `out` (the Cauchy rows map buckets through `tan` this way).
    pub fn append_mapped<T>(&mut self, h: &KWiseHash, out: &mut Vec<T>, f: impl Fn(u64) -> T) {
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
        let mut rng = StdRng::seed_from_u64(12);
        let h = KWiseHash::new(&mut rng, 6, 64);
        let mut plan = RowHashes::new();
        assert!(plan.is_empty());
        plan.load(0..100u64);
        assert_eq!(plan.len(), 100);
        let mut out = Vec::new();
        plan.eval_buckets(&h, &mut out);
        // Raised to five powers per item; the count of items is unchanged.
        assert_eq!(plan.len(), 100);
        plan.load(0..4u64);
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
    }
}
