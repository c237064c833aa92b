//! # bd-hash
//!
//! Hashing and number-theory substrate for the `bounded-deletions` workspace,
//! a reproduction of *Data Streams with Bounded Deletions* (Jayaram &
//! Woodruff, PODS 2018).
//!
//! Everything the paper's algorithms assume about randomness lives here:
//!
//! * [`field`] — the Mersenne-61 field the Carter–Wegman polynomials live in;
//! * [`kwise`] — k-wise independent hash families `H_k(U, V)` and ±1 sign
//!   hashes (Countsketch's `h_i`, `g_i`), with division-free (Lemire
//!   multiply-shift) range reduction;
//! * [`batch`] — the chunk-at-a-time evaluation engine: [`RowHashes`] plans
//!   canonicalize a chunk once, keep each item's powers of `x`, and evaluate
//!   every row's polynomial over it in power form, one reduction per row
//!   (the batched-ingest hot path);
//! * [`simd`] — the evaluator tier's name for run stamps (one tier:
//!   portable scalar code);
//! * [`prime`] — exact Miller–Rabin and random primes in `[D, D^3]`
//!   (fingerprints of Figure 6, universe reduction of Theorem 2);
//! * [`bits`] — `lsb`, logarithms, and bit-width accounting used by the L0
//!   subsampling levels and by all space reporting;
//! * [`uniform`] — k-wise independent uniforms `t_i ∈ (0,1]` (precision
//!   sampling, Figure 3);
//! * [`stable`] — k-wise independent Cauchy variables (L1 sketches, §5.2);
//! * [`modred`] — Lemma 7's streaming `x mod p` in `log log n + log p` bits.
//!
//! All generators are seeded through [`rand::Rng`], so every structure in the
//! workspace is reproducible from explicit seeds.

#![forbid(unsafe_code)]

pub mod batch;
pub mod bits;
pub mod field;
pub mod kwise;
pub mod modred;
pub mod prime;
pub mod simd;
pub mod stable;
pub mod uniform;

pub use batch::RowHashes;
pub use bits::{div_ceil, log2_ceil, log2_floor, lsb, next_pow2, width_signed, width_unsigned};
pub use field::{M61Elem, M61};
pub use kwise::{reduce_range, KWiseHash, SignHash};
pub use modred::{mod_streaming, mod_streaming_limbs, StreamingMod};
pub use prime::{is_prime, random_prime_in, random_prime_window};
pub use stable::CauchyRow;
pub use uniform::KWiseUniform;
