//! # bounded-deletions
//!
//! A Rust implementation of the streaming algorithms from
//! *Data Streams with Bounded Deletions* (Rajesh Jayaram & David P.
//! Woodruff, PODS 2018, arXiv:1803.08777).
//!
//! A turnstile stream has the **Lp α-property** when `‖I + D‖_p ≤ α·‖f‖_p`:
//! the stream's total update mass is at most an α factor above the final
//! norm. Real deletion-heavy workloads (traffic differencing, database
//! synchronization, sensor churn) satisfy this for small α, and every
//! classic `log n` space factor of turnstile sketching then drops to
//! `log α`.
//!
//! ## The unified sketch layer
//!
//! Every structure in the workspace — α-property algorithm or turnstile
//! baseline — presents one interface, [`bd_stream::Sketch`]:
//!
//! * **seeded construction** — randomized sketches own their RNG and are
//!   built from a `u64` seed; the same seed replays bit-for-bit, and no
//!   update path takes an `&mut impl Rng` parameter;
//! * **`update(item, Δ)` / `update_batch(&[Update])`** — hot structures
//!   (CSSS, the heavy-hitter sketch, Countsketch, Count-Min) override the
//!   batched path with pre-aggregating implementations that collapse
//!   duplicate items and amortize k-wise hash evaluations;
//! * **capability traits** — [`PointQuery`](bd_stream::PointQuery),
//!   [`NormEstimate`](bd_stream::NormEstimate),
//!   [`SampleQuery`](bd_stream::SampleQuery), and
//!   [`Mergeable`](bd_stream::Mergeable) (identically seeded sketches merge,
//!   the hook for parallel ingestion);
//! * **[`StreamRunner`](bd_stream::StreamRunner)** — the single ingestion
//!   engine all benches, examples, and tests drive sketches through, with
//!   wall-clock timing and bit-level space reports;
//! * **[`StreamService`](bd_stream::StreamService)** — the parallel and
//!   serving shape: a long-lived engine over an unbounded update source
//!   that fans batches out to worker threads, one identically-seeded
//!   sketch each (`Registry::build_n`), and cuts an immutable merged
//!   [`Snapshot`](bd_stream::Snapshot) (sketch + `EpochReport` accounting)
//!   every epoch while ingestion continues (`DESIGN.md §8`). A one-shot
//!   parallel run is a single epoch covering the whole stream, valid for
//!   every family whose descriptor reports `mergeable` (`DESIGN.md §7`
//!   defines bit-identical vs estimate-equal merging).
//!
//! ## Crates
//!
//! * [`core`](bd_core) — the paper's α-property algorithms (CSSS, heavy
//!   hitters, L1 sampler/estimators, inner products, L0 estimators, support
//!   sampler);
//! * [`sketch`](bd_sketch) — the unbounded-deletion baselines
//!   (Countsketch, Count-Min, Cauchy L1, KNW L0, sparse recovery, ...);
//! * [`stream`](bd_stream) — the stream model, the `Sketch` trait layer,
//!   `StreamRunner`, exact ground truth, workload generators, and bit-level
//!   space accounting;
//! * [`hash`](bd_hash) — k-wise independent hashing and number theory.
//!
//! ## The spec layer
//!
//! Construction is declarative: a [`bd_stream::SketchSpec`] —
//! `{family, n, ε, α, δ, seed, regime}`, parseable from a compact string —
//! names any structure in the workspace, and the [`registry`] builds it.
//! `registry().families()` enumerates the whole catalog with per-family
//! capability descriptors; `build`/`build_pair` return live `dyn DynSketch`
//! objects (identically-seeded pairs are the shard/merge hook), and
//! [`build_sketch`] downcasts to the concrete type for structure-specific
//! queries.
//!
//! ## Quickstart
//!
//! ```
//! use bounded_deletions::prelude::*;
//!
//! // A strict-turnstile stream with α = 4: deletions cancel 3/5 of mass.
//! let stream = BoundedDeletionGen::new(1 << 12, 20_000, 4.0).generate_seeded(7);
//!
//! // One way to build every sketch: a declarative, seeded spec string
//! // through the workspace registry (same spec ⇒ bit-identical sketch).
//! let spec: SketchSpec = "alpha_hh:n=2^12,eps=0.1,alpha=4,seed=42".parse().unwrap();
//! let mut hh: AlphaHeavyHitters = build_sketch(&spec);
//!
//! // One engine drives any sketch over any stream, in batched chunks.
//! let report = StreamRunner::new().run(&mut hh, &stream);
//!
//! let heavy = hh.query(); // every |f_i| ≥ 0.1·‖f‖₁, nothing < 0.05·‖f‖₁
//! let bits = report.space_bits(); // counter widths scale with log α, not log n
//! assert!(report.updates == stream.len() && bits > 0);
//!
//! // Or stay dynamic: build by family, query through capability views.
//! let (spec2, mut dyn_hh) = registry().build_str("alpha_hh:n=2^12,seed=42").unwrap();
//! StreamRunner::new().run(&mut *dyn_hh, &stream);
//! assert!(dyn_hh.as_point().is_some() && spec2.family == SketchFamily::AlphaHh);
//! # let _ = heavy;
//! ```

pub use bd_core;
pub use bd_hash;
pub use bd_sketch;
pub use bd_stream;

/// The fully-populated workspace sketch catalog (built once, by
/// [`bd_core::registry`](fn@bd_core::registry), then cached): every α-property structure,
/// turnstile baseline, and the exact reference vector, buildable from a
/// [`bd_stream::SketchSpec`].
pub fn registry() -> &'static bd_stream::Registry {
    static REG: std::sync::OnceLock<bd_stream::Registry> = std::sync::OnceLock::new();
    REG.get_or_init(bd_core::registry)
}

/// Build a concrete sketch from a spec through the workspace registry —
/// the typed construction path for callers that use structure-specific
/// queries. Panics on unregistered families or type mismatches.
///
/// ```
/// use bounded_deletions::prelude::*;
/// let spec: SketchSpec = "countmin:n=2^12,eps=0.1,seed=7".parse().unwrap();
/// let mut cm: CountMin = build_sketch(&spec);
/// Sketch::update(&mut cm, 3, 5);
/// assert!(cm.estimate(3) >= 5);
/// ```
pub fn build_sketch<S: std::any::Any>(spec: &bd_stream::SketchSpec) -> S {
    *registry()
        .build_as::<S>(spec)
        .unwrap_or_else(|e| panic!("registry build failed for `{spec}`: {e}"))
}

/// The commonly used types in one import.
pub mod prelude {
    pub use crate::{build_sketch, registry};
    pub use bd_core::{
        AlphaConstL0, AlphaHeavyHitters, AlphaInnerProduct, AlphaL0Estimator, AlphaL1Estimator,
        AlphaL1General, AlphaL1Sampler, AlphaL2HeavyHitters, AlphaRoughL0, AlphaSupportSampler,
        AlphaSupportSamplerSet, Csss, Params, SampleOutcome, SampledVector,
    };
    pub use bd_sketch::{
        CountMin, CountSketch, L0Estimator, L1SamplerTurnstile, LogCosL1, MedianL1, MorrisCounter,
        Recovery, SparseRecovery, SupportSamplerTurnstile,
    };
    pub use bd_stream::gen::{
        AugmentedIndexingHH, BoundedDeletionGen, BurstGen, DeletionStormGen, InnerProductHard,
        L0AlphaGen, NetworkDiffGen, RdcGen, SensorGen, SkewFlipGen, StrongAlphaGen, SupportHard,
        UnboundedDeletionGen, Zipf,
    };
    pub use bd_stream::{
        decode_snapshot, encode_snapshot, sketch_from_bytes, sketch_to_bytes, PersistError,
        SketchState, SnapshotRecord, SnapshotStore, StateError, StateReader, StateWriter,
        PERSIST_VERSION,
    };
    pub use bd_stream::{DynSketch, Regime, Registry, SketchFamily, SketchSpec, SupportQuery};
    pub use bd_stream::{
        EpochReport, FrequencyVector, Item, Mergeable, NormEstimate, PointQuery, PointQueryBatch,
        RunReport, SampleQuery, ServiceConfig, ServiceError, Sketch, Snapshot, SpaceReport,
        SpaceUsage, StreamBatch, StreamRunner, StreamService, Update,
    };
    pub use bd_stream::{
        ErrorCode, QueryClient, QueryEngine, QueryError, QueryServer, QueryView, Request, Response,
        SnapshotHandle, SnapshotHub, WireReport,
    };
    pub use bd_stream::{WalDamage, WalPolicy, WalRecord, WalTruncation, WalWriter};
}
