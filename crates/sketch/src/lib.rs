//! # bd-sketch
//!
//! The classic unbounded-deletion (turnstile) sketches that *Data Streams
//! with Bounded Deletions* (Jayaram & Woodruff, PODS 2018) compares against
//! and builds upon. Everything here works with no α-property assumption and
//! pays the `log n` space factors of Figure 1's lower-bound column; the
//! α-property algorithms live in `bd-core` and cite these as substrates and
//! baselines.
//!
//! | Module | Algorithm | Paper reference |
//! |---|---|---|
//! | [`countsketch`] | Countsketch | §2.1, Lemma 2, \[14\] |
//! | [`countmin`] | Count-Min | §2.2, \[22\] |
//! | [`ams`] | AMS / Countsketch inner products | §2.2, \[5\] |
//! | [`l1_turnstile`] | Figure 5 log-cosine L1 + Indyk median | §5.2, Fact 1, \[39\] |
//! | [`l0_turnstile`] | Figure 6 L0 estimator | §6.1, Theorem 9, \[40\] |
//! | [`rough_l0`] | RoughL0Estimator | Lemma 14 |
//! | [`rough_f0`] | monotone rough F0 | Lemma 18 |
//! | [`small_l0`] | exact L0 under a promise | Lemma 21 |
//! | [`small_f0`] | exact L0 when F0 is small | Lemma 19 |
//! | [`sparse_recovery`] | exact s-sparse recovery | Lemma 22, \[38\] |
//! | [`l1_sampler_turnstile`] | precision-sampling L1 sampler | §4, \[38\] |
//! | [`support_turnstile`] | log-n-level support sampler | §7, \[41\] |
//! | [`morris`] | Morris counter | Lemma 11, \[49\] |
//!
//! Every structure here implements the unified [`bd_stream::Sketch`] trait:
//! seeded construction (`new(seed, ...)`, identical seeds ⇒ identical hash
//! functions), `update(item, Δ)`, batched `update_batch` (Countsketch and
//! Count-Min override it with duplicate-collapsing implementations), and
//! bit-level space reports. Linear table sketches additionally implement
//! [`bd_stream::Mergeable`] for sharded ingestion.

pub mod ams;
pub mod candidates;
pub mod countmin;
pub mod countsketch;
pub mod l0_turnstile;
pub mod l1_sampler_turnstile;
pub mod l1_turnstile;
pub mod morris;
pub mod registry;
pub mod rough_f0;
pub mod rough_l0;
pub mod small_f0;
pub mod small_l0;
pub mod sparse_recovery;
pub mod support_turnstile;
pub mod weight;

pub use ams::{AmsFamily, AmsSketch, IpCountSketch, IpFamily};
pub use candidates::CandidateSet;
pub use countmin::CountMin;
pub use countsketch::CountSketch;
pub use l0_turnstile::L0Estimator;
pub use l1_sampler_turnstile::{L1SamplerTurnstile, PrecisionSamplerInstance, SampleOutcome};
pub use l1_turnstile::{LogCosL1, MedianL1};
pub use morris::MorrisCounter;
pub use registry::register as register_baselines;
pub use rough_f0::RoughF0;
pub use rough_l0::{RoughL0, RoughL0Config};
pub use small_f0::{SmallF0, SmallF0Result};
pub use small_l0::SmallL0;
pub use sparse_recovery::{Recovery, SparseRecovery};
pub use support_turnstile::SupportSamplerTurnstile;
pub use weight::{median_f64, signed_f64, Weight};
