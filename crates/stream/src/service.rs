//! The `StreamService` epoch-snapshot engine: parallel ingestion and
//! serving.
//!
//! The paper's sketches are one-shot: ingest a bounded-deletion stream,
//! query once. A serving system faces the opposite shape — an *unbounded*
//! update source that never stops, with queries arriving while ingestion
//! continues. [`StreamService`] is that deployment shape, written once over
//! the registry, and the workspace's only parallel ingestion engine: a
//! one-shot parallel run is [`StreamService::start`], one
//! [`StreamService::ingest`] whose single epoch covers the stream, then
//! [`StreamService::finish`].
//!
//! 1. [`Registry::build_n`] builds one identically-seeded sketch per
//!    worker (builders are pure functions of the spec, so every copy
//!    shares hash functions — the [`Mergeable`](crate::Mergeable)
//!    contract);
//! 2. each worker is a thread owning its sketch and a **bounded** command
//!    queue ([`ServiceConfig::depth`] commands); the service dispatches
//!    incoming update batches round-robin in [`ServiceConfig::chunk`]-sized
//!    slices, so every update lands on a deterministic worker regardless of
//!    call-boundary shapes. A producer faster than the slowest worker
//!    blocks (back-pressure) instead of growing an unbounded backlog, so
//!    the service's footprint stays `O(threads × depth × chunk)` updates in
//!    flight and it ingests exactly what was offered (DESIGN.md §12);
//! 3. every [`ServiceConfig::epoch`] updates (or on demand) the service
//!    *cuts an epoch*: it enqueues a snapshot command behind each worker's
//!    pending batches, collects one [`DynSketch::clone_dyn`] per worker, and
//!    folds the clones with the deterministic pairwise tree
//!    ([`merge_tree`](crate::merge::merge_tree), `⌈log₂ W⌉` inline
//!    rounds; shape fixed by worker index) into an immutable [`Snapshot`] —
//!    while the workers' own sketches keep ingesting the next epoch's
//!    batches. Fold depth and per-round timing land in
//!    [`EpochReport::merge`];
//! 4. each resolved scheduled cut is *published*: swapped into the
//!    service's [`SnapshotHub`] cell, so any number of reader threads
//!    holding [`SnapshotHandle`]s ([`StreamService::handle`]) see the
//!    newest **complete** epoch — never a partial merge — through
//!    [`QueryView`](crate::query::QueryView) loads while ingestion
//!    continues. The [`crate::query`] module docs state the publication
//!    contract.
//!
//! **Why snapshot ≡ replay holds.** A worker's clone is a faithful freeze of
//! its sketch after exactly the updates dispatched before the cut (channel
//! ordering), so the merged clones form the sketch of the concatenation of
//! the workers' subsequences — a fixed interleaving of the stream prefix.
//! For every mergeable family that interleaving is equivalent to the
//! sequential prefix under the per-family merge contract
//! (`DESIGN.md §7`–`§8`): bit-identical for `merge_bitwise` families,
//! estimate-equal otherwise. `tests/service.rs` pins snapshot-at-epoch-k ≡
//! a sequential one-shot run over the same prefix for every mergeable
//! family in the registry.
//!
//! Everything is spec-driven: the sketch comes from a
//! [`SketchSpec`](crate::spec::SketchSpec) string, the service shape from a
//! [`ServiceConfig`] string (`service:epoch=1e5,threads=4`), so any
//! mergeable family is servable by name (`sketchctl serve`). Each
//! [`EpochReport`] carries the deletion-fraction / α accounting and the
//! space watermark of the merged snapshot.

use crate::disk::fault::FaultInjector;
use crate::merge::{merge_tree, MergeReport};
use crate::persist::{PersistError, SnapshotStore};
use crate::query::{QueryView, SnapshotHandle, SnapshotHub};
use crate::registry::{DynSketch, Registry, RegistryError};
use crate::runner::StreamRunner;
use crate::space::SpaceReport;
use crate::spec::{parse_u64, SketchSpec, SpecError};
use crate::state::StateError;
use crate::update::Update;
use crate::wal::{self, SealedSegment, WalCell, WalPolicy, WalRecord, WalWriter};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the dispatcher does when a worker's bounded command queue is full:
/// it blocks until the worker drains a slot. Back-pressure is the
/// service's one overload behaviour, so what it ingests is exactly what was
/// offered.
///
/// A one-variant shim for perfbench's
/// `ServiceConfig::with_overflow(OverflowPolicy::Block)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Back-pressure: the producer blocks until the worker drains a slot.
    #[default]
    Block,
}

/// A runtime service failure: the typed form of what used to be a panic.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// A shard worker's thread is gone (its sketch panicked mid-update, or
    /// the thread was killed), so its command queue is disconnected. The
    /// index identifies which worker died; the service cannot make further
    /// progress and should be dropped (its `Drop` joins the surviving
    /// workers cleanly).
    WorkerDied {
        /// Index of the dead worker in `0..threads`.
        worker: usize,
    },
    /// Snapshot persistence or recovery failed — writing an epoch cut to
    /// the attached [`SnapshotStore`], or loading/validating one during
    /// [`StreamService::recover`].
    Persist(PersistError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::WorkerDied { worker } => {
                write!(f, "service worker {worker} died (its thread is gone)")
            }
            ServiceError::Persist(e) => write!(f, "snapshot persistence failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<PersistError> for ServiceError {
    fn from(e: PersistError) -> Self {
        ServiceError::Persist(e)
    }
}

/// Service shape: epoch length, shard workers, dispatch granularity, queue
/// depth, and the durability knobs.
///
/// Parses from (and displays as) a compact string in the spec grammar,
/// `service:epoch=1e5,threads=4,chunk=4096,depth=64,wal=off,retain=0` (the
/// `service:` prefix and any subset of keys are optional).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Updates per epoch: a snapshot is cut every `epoch` dispatched
    /// updates.
    pub epoch: u64,
    /// Shard workers (threads); clamped to ≥ 1. More than one requires a
    /// `mergeable` family.
    pub threads: usize,
    /// Updates per dispatched batch — the round-robin granularity. Smaller
    /// chunks interleave the workers' subsequences more finely; the default
    /// matches [`StreamRunner::DEFAULT_CHUNK`] so each dispatch is one
    /// batched ingestion call.
    pub chunk: usize,
    /// Bound on each worker's command queue (in commands, i.e. dispatch
    /// cells — not updates). The service's memory footprint is then
    /// `O(threads × depth × chunk)` updates in flight, never `O(backlog)`:
    /// a full queue blocks the producer instead of growing without limit.
    /// Depth changes only *when* the dispatcher runs, never what it sends,
    /// so it may change across a restart.
    pub depth: usize,
    /// When the write-ahead log reaches disk: `off` (no log, the
    /// default), `batch` (fsync every appended record), or `epoch`
    /// (fsync at segment roll). Active only while a snapshot store is
    /// attached ([`StreamService::persist_to`] /
    /// [`StreamService::recover`]) — the log lives in the store's
    /// directory.
    pub wal: WalPolicy,
    /// How many snapshot files to keep after each successful save
    /// (`retain=N`); `0` (the default) keeps every epoch. The newest
    /// snapshot is never pruned.
    pub retain: usize,
}

impl Default for ServiceConfig {
    /// `epoch = 100_000`, `threads = 4`, `chunk = 4096`, `depth = 64`,
    /// `wal = off`, `retain = 0`.
    fn default() -> Self {
        ServiceConfig {
            epoch: 100_000,
            threads: 4,
            chunk: StreamRunner::DEFAULT_CHUNK,
            depth: 64,
            wal: WalPolicy::Off,
            retain: 0,
        }
    }
}

impl ServiceConfig {
    /// Set the epoch length.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Set the worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the dispatch chunk size.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// Set the per-worker queue depth.
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// Back-pressure is the only overload behaviour, so this returns
    /// `self`: a shim for perfbench's `.with_overflow(OverflowPolicy::Block)`.
    pub fn with_overflow(self, _overflow: OverflowPolicy) -> Self {
        self
    }

    /// Set the write-ahead-log fsync policy.
    pub fn with_wal(mut self, wal: WalPolicy) -> Self {
        self.wal = wal;
        self
    }

    /// Set the snapshot retention count (`0` keeps every epoch).
    pub fn with_retain(mut self, retain: usize) -> Self {
        self.retain = retain;
        self
    }

    /// The dispatch-geometry stamp written into snapshots and WAL
    /// segment headers: `epoch`/`threads`/`chunk` — exactly the knobs the
    /// update → worker assignment and the cut positions depend on. Queue
    /// depth only delays dispatch, and `wal=`/`retain=` only decide what
    /// reaches disk, so all three may change across restarts.
    pub fn geometry_string(&self) -> String {
        format!(
            "service:epoch={},threads={},chunk={}",
            self.epoch, self.threads, self.chunk
        )
    }

    /// Validate the fields (zero values would deadlock the dispatch loop).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.epoch == 0 {
            return Err(SpecError::BadField("epoch", "must be ≥ 1".into()));
        }
        if usize::try_from(self.epoch).is_err() {
            return Err(SpecError::BadField(
                "epoch",
                format!(
                    "{} is not representable as usize on this target",
                    self.epoch
                ),
            ));
        }
        if self.threads == 0 {
            return Err(SpecError::BadField("threads", "must be ≥ 1".into()));
        }
        if self.chunk == 0 {
            return Err(SpecError::BadField("chunk", "must be ≥ 1".into()));
        }
        if self.depth == 0 {
            return Err(SpecError::BadField("depth", "must be ≥ 1".into()));
        }
        Ok(())
    }
}

impl FromStr for ServiceConfig {
    type Err = SpecError;

    /// Parse `service:key=val,...` (or bare `key=val,...`); omitted keys
    /// take the defaults.
    fn from_str(s: &str) -> Result<Self, SpecError> {
        let s = s.trim();
        let rest = match s.split_once(':') {
            Some(("service", r)) => r,
            Some((other, _)) => {
                return Err(SpecError::BadField(
                    "service",
                    format!("`{other}:` is not the service config prefix"),
                ))
            }
            None if s == "service" || s.is_empty() => "",
            None => s,
        };
        let mut cfg = ServiceConfig::default();
        for pair in rest.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, val) = pair.split_once('=').ok_or_else(|| {
                SpecError::BadField("service", format!("`{pair}` is not key=value"))
            })?;
            match key.trim() {
                "epoch" => cfg.epoch = parse_u64("epoch", val.trim())?,
                "threads" => cfg.threads = parse_u64("threads", val.trim())? as usize,
                "chunk" => cfg.chunk = parse_u64("chunk", val.trim())? as usize,
                "depth" => cfg.depth = parse_u64("depth", val.trim())? as usize,
                "wal" => cfg.wal = val.trim().parse()?,
                "retain" => cfg.retain = parse_u64("retain", val.trim())? as usize,
                other => return Err(SpecError::UnknownKey(other.to_string())),
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

impl fmt::Display for ServiceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{},depth={},wal={},retain={}",
            self.geometry_string(),
            self.depth,
            self.wal,
            self.retain
        )
    }
}

/// Accounting attached to one epoch snapshot: what this epoch ingested,
/// running totals, the deletion-fraction / α regime observed, the merged
/// snapshot's space watermark, and timing.
#[derive(Clone, Copy, Debug)]
pub struct EpochReport {
    /// 1-based index of the cut (on-demand snapshots repeat the upcoming
    /// index without consuming it).
    pub epoch: usize,
    /// Updates ingested since the previous cut.
    pub updates: usize,
    /// Updates ingested since the service started: the prefix length this
    /// snapshot covers, and the stream position a restart resumes from.
    pub total_updates: usize,
    /// Inserted mass `Σ Δ_t` over `Δ_t > 0` since the previous cut.
    pub inserted_mass: u64,
    /// Deleted mass `Σ |Δ_t|` over `Δ_t < 0` since the previous cut.
    pub deleted_mass: u64,
    /// Inserted mass since the service started.
    pub total_inserted: u64,
    /// Deleted mass since the service started.
    pub total_deleted: u64,
    /// The α the spec promised (the bound the observed regime is judged
    /// against).
    pub alpha_configured: f64,
    /// Always 0: back-pressure sheds nothing. A shim for perfbench's
    /// `r.total_dropped_updates == 0` check; neither persisted nor sent
    /// over the wire.
    pub total_dropped_updates: usize,
    /// High-watermark of commands queued across all workers during this
    /// epoch, sampled after every dispatch. Structurally bounded by
    /// `depth × threads`.
    pub queue_peak: usize,
    /// Producer wall clock spent blocked on full worker queues this epoch
    /// (batches and snapshot commands alike).
    pub blocked: Duration,
    /// Space watermark of the merged snapshot sketch.
    pub space: SpaceReport,
    /// Wall clock from the previous cut to this one (dispatch side).
    pub elapsed: Duration,
    /// Wall clock of the clone-collect + merge fold alone.
    pub merge_elapsed: Duration,
    /// The tree fold's accounting: fan-in, depth (`⌈log₂ threads⌉`), and
    /// per-round wall clock.
    pub merge: MergeReport,
    /// Worker count the snapshot was merged from.
    pub threads: usize,
    /// Write-ahead-log records appended during this epoch (0 with
    /// `wal=off` or no store attached). Not persisted — a recovered
    /// report carries zeros.
    pub wal_records: usize,
    /// Write-ahead-log frame bytes appended during this epoch.
    pub wal_bytes: u64,
}

impl EpochReport {
    /// Update mass `Σ|Δ|` of this epoch.
    pub fn mass(&self) -> u64 {
        self.inserted_mass + self.deleted_mass
    }

    /// [`EpochReport::total_updates`]: everything offered is ingested. A
    /// shim for perfbench's `r.total_offered_updates() == r.total_updates`
    /// check.
    pub fn total_offered_updates(&self) -> usize {
        self.total_updates
    }

    /// Update mass `Σ|Δ|` of the whole prefix.
    pub fn total_mass(&self) -> u64 {
        self.total_inserted + self.total_deleted
    }

    /// Observed deletion fraction `D / (I + D)` over the whole prefix
    /// (0 for an empty prefix).
    pub fn deletion_fraction(&self) -> f64 {
        let mass = self.total_mass();
        if mass == 0 {
            0.0
        } else {
            self.total_deleted as f64 / mass as f64
        }
    }

    /// The largest deletion fraction an L1 α-property stream can exhibit:
    /// `I + D ≤ α‖f‖₁ ≤ α(I − D)` forces `D/(I+D) ≤ (α−1)/(2α)`.
    pub fn deletion_cap(alpha: f64) -> f64 {
        (alpha - 1.0) / (2.0 * alpha)
    }

    /// A lower bound on the realized α₁ of the prefix, from mass accounting
    /// alone: `‖f‖₁ ≥ I − D`, so `α₁ = (I+D)/‖f‖₁ ≥ (I+D)/(I−D)`. Infinite
    /// when deletions meet or exceed insertions (no α-property holds).
    pub fn alpha_observed(&self) -> f64 {
        let (i, d) = (self.total_inserted, self.total_deleted);
        if i + d == 0 {
            1.0
        } else if i <= d {
            f64::INFINITY
        } else {
            (i + d) as f64 / (i - d) as f64
        }
    }

    /// Whether the observed regime is still consistent with the configured
    /// α (a necessary condition — the true α₁ needs `‖f‖₁` exactly).
    pub fn within_alpha(&self) -> bool {
        self.alpha_observed() <= self.alpha_configured
    }

    /// Epoch ingestion throughput in updates per second.
    pub fn updates_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            self.updates as f64 / secs
        }
    }

    /// Snapshot space watermark in bits.
    pub fn space_bits(&self) -> u64 {
        self.space.total_bits()
    }
}

/// One immutable epoch snapshot: the merged sketch of the stream prefix the
/// cut covered, plus its accounting. Snapshots travel as `Arc<Snapshot>` —
/// the same allocation the service returns from [`StreamService::ingest`] is
/// the one concurrent readers see through
/// [`StreamService::latest`]/[`SnapshotHandle`], so "served answer ≡ direct
/// answer" is provable by pointer identity.
pub struct Snapshot {
    /// The spec the service's sketches were built from (universe size,
    /// seed, α, ...) — what the
    /// [`QueryEngine`](crate::query::QueryEngine) needs to interpret the
    /// sketch (e.g. the universe bound of a dense heavy-hitters scan).
    pub spec: SketchSpec,
    /// The merged sketch (worker 0's clone after folding every other
    /// worker's clone in). Queries only — the live sketches stay with the
    /// workers.
    pub sketch: Box<dyn DynSketch>,
    /// The epoch's accounting.
    pub report: EpochReport,
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

/// A worker command: a batch to ingest, or a request to reply with a clone
/// of the worker's sketch. Channel ordering is the synchronization: a
/// snapshot command enqueued after an epoch's batches observes exactly
/// those batches.
enum Cmd {
    Batch(Arc<Vec<Update>>),
    Snapshot(Sender<Box<dyn DynSketch>>),
}

/// Accounting counters frozen at an epoch cut, waiting for the workers'
/// clones (which may still be draining their queues while the next epoch's
/// batches are dispatched behind the snapshot command).
struct PendingCut {
    replies: Vec<Receiver<Box<dyn DynSketch>>>,
    report: EpochReport,
}

/// The long-lived epoch-snapshot serving engine.
pub struct StreamService {
    config: ServiceConfig,
    spec: SketchSpec,
    alpha_configured: f64,
    /// Publication point for scheduled (and final) epoch snapshots: every
    /// resolved cut is atomically swapped in here, so reader threads holding
    /// a [`SnapshotHandle`] always see the newest *complete* epoch.
    hub: SnapshotHub,
    senders: Vec<SyncSender<Cmd>>,
    handles: Vec<JoinHandle<()>>,
    /// Per-worker count of commands sent but not yet received, kept by the
    /// dispatcher (increment after a successful send) and the worker
    /// (decrement on recv). `isize` because the decrement can race ahead of
    /// the increment; the watermark sample clamps at 0. Each counter is
    /// bounded by the channel capacity, so the summed watermark is
    /// structurally ≤ `depth × threads`.
    pending_cmds: Vec<Arc<AtomicIsize>>,
    /// Updates accepted but not yet dispatched: the partially-filled cell
    /// of the global chunk grid. Holding them back makes every dispatched
    /// batch a full grid cell (or a schedule-determined epoch split), so
    /// replay is independent of how callers slice the source into `ingest`
    /// calls.
    buf: Vec<Update>,
    /// Updates dispatched since the last cut.
    in_epoch: usize,
    epochs_cut: usize,
    /// Updates dispatched since the service started: the prefix length a
    /// snapshot covers, and the chunk-grid position, so the update →
    /// worker assignment is a pure function of the stream position.
    total_updates: usize,
    inserted: u64,
    deleted: u64,
    total_inserted: u64,
    total_deleted: u64,
    queue_peak: usize,
    blocked: Duration,
    epoch_start: Instant,
    pending: Vec<PendingCut>,
    /// When attached ([`StreamService::persist_to`] /
    /// [`StreamService::recover`]), every resolved scheduled cut is also
    /// written to disk, making the epoch durable.
    store: Option<SnapshotStore>,
    /// The write-ahead log (open iff a store is attached and
    /// [`ServiceConfig::wal`] is not `off`): one record per dispatched
    /// cell, appended *after* dispatch, segments rolled at each cut and
    /// deleted once a persisted snapshot covers them. The dispatch thread
    /// writes it inline under every policy (the policy only picks when
    /// the writer fsyncs), so a failed append fails the
    /// [`StreamService::ingest`] call that dispatched the cell.
    wal: Option<WalWriter>,
    /// WAL records / frame bytes appended since the last cut (the
    /// [`EpochReport::wal_records`] / [`EpochReport::wal_bytes`] feed).
    wal_records_epoch: usize,
    wal_bytes_epoch: u64,
    /// Stream position of the newest snapshot known durable — the WAL
    /// truncation horizon.
    last_persisted: u64,
    /// The stream position this service resumed from (0 for a fresh
    /// start): replay the source from this offset to catch up.
    recovered_from: usize,
}

impl StreamService {
    /// Build the per-worker sketches from `spec` and start the worker
    /// threads. More than one thread requires the family to be `mergeable`
    /// (one thread degrades to a sequential service, valid for every
    /// family).
    pub fn start(
        registry: &Registry,
        spec: &SketchSpec,
        config: ServiceConfig,
    ) -> Result<Self, RegistryError> {
        config.validate()?;
        let info = registry
            .info(spec.family)
            .ok_or(RegistryError::Unregistered(spec.family))?;
        let threads = config.threads.max(1);
        if threads > 1 && !info.caps.mergeable {
            return Err(RegistryError::NotMergeable);
        }
        let sketches = registry.build_n(spec, threads)?;
        Ok(Self::assemble(
            spec,
            ServiceConfig { threads, ..config },
            sketches,
        ))
    }

    /// Spawn one worker thread per pre-built sketch and wire the service
    /// around them. Factored out of [`StreamService::start`] so
    /// [`StreamService::recover`] can seed worker 0 with a
    /// snapshot-restored sketch instead of a fresh one.
    fn assemble(
        spec: &SketchSpec,
        config: ServiceConfig,
        sketches: Vec<Box<dyn DynSketch>>,
    ) -> Self {
        let runner = StreamRunner::new();
        let threads = sketches.len();
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        let mut pending_cmds = Vec::with_capacity(threads);
        for mut sk in sketches {
            // Bounded: a producer faster than the slowest worker blocks
            // instead of growing an unbounded backlog.
            let (tx, rx) = sync_channel::<Cmd>(config.depth);
            let queued = Arc::new(AtomicIsize::new(0));
            senders.push(tx);
            pending_cmds.push(Arc::clone(&queued));
            handles.push(std::thread::spawn(move || {
                while let Ok(cmd) = rx.recv() {
                    queued.fetch_sub(1, Ordering::Relaxed);
                    match cmd {
                        Cmd::Batch(batch) => runner.run_updates(&mut *sk, &batch).updates,
                        Cmd::Snapshot(reply) => {
                            // A dropped reply receiver (service dropped
                            // mid-cut) is not a worker error.
                            let _ = reply.send(sk.clone_dyn());
                            0
                        }
                    };
                }
            }));
        }
        StreamService {
            config,
            spec: *spec,
            alpha_configured: spec.alpha,
            hub: SnapshotHub::new(),
            senders,
            handles,
            pending_cmds,
            buf: Vec::with_capacity(config.chunk),
            in_epoch: 0,
            epochs_cut: 0,
            total_updates: 0,
            inserted: 0,
            deleted: 0,
            total_inserted: 0,
            total_deleted: 0,
            queue_peak: 0,
            blocked: Duration::ZERO,
            epoch_start: Instant::now(),
            pending: Vec::new(),
            store: None,
            wal: None,
            wal_records_epoch: 0,
            wal_bytes_epoch: 0,
            last_persisted: 0,
            recovered_from: 0,
        }
    }

    /// Attach a [`SnapshotStore`]: every scheduled (and final) epoch cut
    /// resolved from now on is also written to disk, atomically, one file
    /// per epoch. On-demand [`StreamService::snapshot`] calls are *not*
    /// persisted — they capture mid-epoch state and reuse the upcoming
    /// epoch index, so only complete scheduled epochs become durable.
    ///
    /// With [`ServiceConfig::wal`] set to `batch` or `epoch`, this also
    /// opens the write-ahead log in the store's directory (continuing
    /// after any segments already present), making the *between-cut*
    /// tail durable too — the only fallible part of attaching.
    pub fn persist_to(&mut self, store: SnapshotStore) -> Result<(), ServiceError> {
        if self.config.wal != WalPolicy::Off {
            let next_seq = wal::wal_segments(store.dir())?
                .last()
                .map_or(0, |(seq, _)| seq + 1);
            self.open_wal(&store, next_seq)?;
        }
        self.store = Some(store);
        Ok(())
    }

    /// Open the write-ahead log in `store`'s directory as segment
    /// `next_seq`, starting at the current stream position and writing
    /// through the store's durability layer.
    fn open_wal(
        &mut self,
        store: &SnapshotStore,
        next_seq: u64,
    ) -> Result<&mut WalWriter, PersistError> {
        let writer = WalWriter::open_on(
            store.disk.clone(),
            store.dir(),
            &self.spec.to_string(),
            &self.config.geometry_string(),
            self.config.wal,
            next_seq,
            self.total_updates as u64,
        )?;
        Ok(self.wal.insert(writer))
    }

    /// Arm a crash [`FaultInjector`] (testing only) on the durability
    /// layer of the attached store, which the log and every clone of the
    /// store share: the injector counts every create, write, sync,
    /// rename, unlink and `set_len` from here on, and once it fires every
    /// further one fails with [`PersistError::FaultInjected`] — dropping
    /// the service then models a process that died at exactly that point.
    /// Without a store there is nothing to crash, and the call does
    /// nothing.
    pub fn arm_fault(&mut self, fault: Arc<FaultInjector>) {
        if let Some(store) = &self.store {
            store.disk.arm(fault);
        }
    }

    /// Cold-start from the newest valid snapshot in `store`, then keep
    /// persisting into it.
    ///
    /// The snapshot's spec and service-config stamps must match the
    /// caller's exactly (`[PersistError::SpecMismatch]` /
    /// [`PersistError::ConfigMismatch`] otherwise — the spec embeds the
    /// seed, and the dispatch geometry must continue identically for
    /// replay to be faithful; the queue depth may differ). Worker 0 is
    /// seeded with the restored merged sketch, workers `1..threads` start
    /// fresh, and the stream cursor and cumulative accounting resume from
    /// the snapshot's stamps; the recovered epoch is republished to the
    /// hub so
    /// [`StreamService::latest`] serves it immediately. The caller then
    /// replays the source from [`StreamService::replay_from`]: because the
    /// update → worker assignment is a pure function of the stream
    /// position, every tail update lands on the worker it would have
    /// reached in the uninterrupted run, so the continuation's snapshots
    /// obey the same law as sharding itself — bit-identical to the
    /// uninterrupted run for `merge_bitwise` families, estimate-equal for
    /// the rest (pinned by `tests/recovery.rs`).
    ///
    /// An empty (or wholly-invalid) store is not an error: the service
    /// starts fresh with the store attached and `replay_from() == 0`. A
    /// snapshot or WAL segment of another format version is an error
    /// ([`PersistError::UnsupportedVersion`]), not skipped: starting fresh
    /// would overwrite that build's epochs. So is an I/O error reading a
    /// snapshot or a segment, and a segment stamped with another geometry
    /// ([`PersistError::ConfigMismatch`]); every file is left in place.
    pub fn recover(
        registry: &Registry,
        spec: &SketchSpec,
        config: ServiceConfig,
        store: SnapshotStore,
    ) -> Result<Self, ServiceError> {
        let rec = store.load_latest(registry).map_err(ServiceError::Persist)?;
        let mut svc = StreamService::start(registry, spec, config)
            .map_err(|e| ServiceError::Persist(PersistError::Registry(e)))?;
        if let Some(rec) = rec {
            svc.check_stamps(&rec.spec.to_string(), &rec.config)?;
            let offered =
                usize::try_from(rec.offered).map_err(|_| PersistError::Oversized(rec.offered))?;
            // Re-assemble with worker 0 seeded by the restored merged sketch
            // (the same identity the merge fold preserves: worker 0's clone is
            // always the fold survivor). The fresh `svc` above already proved
            // the spec is buildable and mergeable at this thread count.
            let mut sketches = registry
                .build_n(spec, svc.config.threads)
                .map_err(|e| ServiceError::Persist(PersistError::Registry(e)))?;
            sketches[0] = rec.sketch.clone_dyn();
            svc = Self::assemble(spec, svc.config, sketches);
            // Resume the stream cursor and the cumulative accounting exactly
            // where the snapshot froze them; per-epoch tallies start at zero
            // (the cut was an epoch boundary).
            svc.total_updates = offered;
            svc.epochs_cut = rec.report.epoch;
            svc.total_inserted = rec.report.total_inserted;
            svc.total_deleted = rec.report.total_deleted;
            svc.last_persisted = rec.offered;
            svc.hub.publish(Arc::new(Snapshot {
                spec: *spec,
                sketch: rec.sketch,
                report: rec.report,
            }));
        }
        svc.store = Some(store.clone());
        // Replay the WAL tail beyond the snapshot cursor through the
        // normal dispatch path — the log replaces the source, so recovery
        // needs no re-offer. Records below the cursor are skipped; a
        // replayed epoch boundary re-cuts (and re-persists) the epoch the
        // crash lost.
        let (sealed, max_seq) = svc.replay_wal_tail(&store)?;
        svc.recovered_from = svc.total_updates;
        if svc.config.wal != WalPolicy::Off {
            // Past the highest sequence number seen, so the number of a
            // deleted torn final segment is never reused.
            let persisted = svc.last_persisted;
            let wal = svc.open_wal(&store, max_seq.map_or(0, |s| s + 1))?;
            // Old segments stay authoritative until a durable snapshot
            // covers them; prime them so the next truncation pass (or the
            // one right here, for segments the replayed cuts already
            // covered) deletes them.
            wal.prime_sealed(sealed);
            wal.truncate_through(persisted)?;
        }
        Ok(svc)
    }

    /// Replay every intact WAL record beyond the current stream cursor,
    /// re-dispatching through the same chunk grid (the log is not open
    /// yet, so nothing is re-logged). Torn tails are repaired in place —
    /// physically truncated to the valid prefix, through the store's
    /// durability layer — and end the replayable chain; so does any gap in
    /// the offered sequence, and so does a shed cell, which this build
    /// never writes. Returns the scanned segments (sealed, for later
    /// truncation) and the highest sequence number seen.
    fn replay_wal_tail(
        &mut self,
        store: &SnapshotStore,
    ) -> Result<(Vec<SealedSegment>, Option<u64>), ServiceError> {
        let segments = wal::wal_segments(store.dir())?;
        // Listed ascending, so the last segment has the highest number.
        let max_seq = segments.last().map(|&(seq, _)| seq);
        let mut sealed = Vec::new();
        let mut intact = true;
        for (seq, path) in segments {
            let scan = match wal::read_segment(&path) {
                Ok(scan) => scan,
                // Another build's log, or one this process cannot read:
                // refuse it rather than replay around it or delete it.
                Err(e @ (PersistError::UnsupportedVersion(_) | PersistError::Io(_))) => {
                    return Err(e.into())
                }
                Err(
                    PersistError::BadMagic
                    | PersistError::ChecksumMismatch
                    | PersistError::State(StateError::Truncated),
                ) if Some(seq) == max_seq => {
                    // A final segment whose header is missing, cut short
                    // or torn is the footprint of a crash during segment
                    // creation: the records it might have held were never
                    // durable.
                    store.disk.unlink(&path)?;
                    store.disk.sync_dir(store.dir())?;
                    break;
                }
                Err(_) => {
                    // A damaged middle segment ends the replayable chain;
                    // keep the file for forensics, replay nothing past it.
                    intact = false;
                    continue;
                }
            };
            self.check_stamps(&scan.header.spec, &scan.header.config)?;
            let mut seg_end = scan.header.start_offered;
            for rec in scan.records {
                let end = rec.end_offered();
                seg_end = seg_end.max(end);
                if !intact || end <= self.total_updates as u64 {
                    continue;
                }
                let updates = match rec.cell {
                    WalCell::Batch(updates) if rec.offered == self.total_updates as u64 => updates,
                    // A gap (records beyond it belong to a cursor we never
                    // reached) or a shed cell, which this build never
                    // writes: neither can be replayed faithfully.
                    _ => {
                        intact = false;
                        continue;
                    }
                };
                debug_assert!(self.buf.is_empty());
                // Freshly decoded, so the `Arc` is unique and this unwraps
                // without copying.
                self.buf = Arc::try_unwrap(updates).unwrap_or_else(|arc| arc.as_ref().clone());
                self.flush()?;
                if self.in_epoch as u64 >= self.config.epoch {
                    self.cut()?;
                }
            }
            if let Some(trunc) = scan.truncation {
                // Make the repair physical so the next recovery (or an
                // operator inspecting the file) sees a clean segment.
                wal::repair_segment(&store.disk, &path, trunc.valid_len)?;
                intact = false;
            }
            sealed.push(SealedSegment {
                seq,
                end_offered: seg_end,
                path,
            });
        }
        // Persist any epoch the replay re-cut (the crash lost its save),
        // republishing it to the hub on the way.
        self.drain_pending(&mut Vec::new())?;
        Ok((sealed, max_seq))
    }

    /// Refuse durable state stamped with another spec or dispatch
    /// geometry: [`PersistError::SpecMismatch`] (the spec string embeds
    /// the seed, and spec strings round-trip exactly) or
    /// [`PersistError::ConfigMismatch`] (replay is faithful only if
    /// dispatch continues identically).
    fn check_stamps(&self, spec: &str, config: &str) -> Result<(), PersistError> {
        let expected = self.spec.to_string();
        if spec != expected {
            return Err(PersistError::SpecMismatch {
                expected,
                found: spec.to_string(),
            });
        }
        let expected = self.config.geometry_string();
        if config != expected {
            return Err(PersistError::ConfigMismatch {
                expected,
                found: config.to_string(),
            });
        }
        Ok(())
    }

    /// The stream position this service resumed from — replay the source
    /// from this offset after [`StreamService::recover`]. Always 0 for a
    /// service that started fresh.
    pub fn replay_from(&self) -> usize {
        self.recovered_from
    }

    /// The service shape in effect.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Updates ingested since the service started (dispatched + buffered).
    pub fn total_updates(&self) -> usize {
        self.total_updates + self.buf.len()
    }

    /// Epochs cut so far (scheduled or [`StreamService::finish`]-final;
    /// on-demand snapshots don't count).
    pub fn epochs_cut(&self) -> usize {
        self.epochs_cut
    }

    /// A cheaply-cloneable reader handle onto this service's publication
    /// hub. Hand one to each reader thread;
    /// [`latest`](SnapshotHandle::latest) always returns
    /// the newest *complete* epoch snapshot (never a partial merge) while
    /// the service keeps ingesting. Handles stay valid after the service is
    /// finished or dropped — they keep serving the last published epoch.
    pub fn handle(&self) -> SnapshotHandle {
        self.hub.handle()
    }

    /// The latest published epoch snapshot as a [`QueryView`], or `None`
    /// before the first scheduled cut resolves. Takes `&self` — this is the
    /// concurrent query path (unlike [`StreamService::snapshot`], which
    /// stalls the ingest thread to force a fresh cut).
    pub fn latest(&self) -> Option<QueryView> {
        self.hub.handle().latest()
    }

    /// Record the current summed queue occupancy into the epoch's
    /// high-watermark. Counters race the workers on both edges — a
    /// decrement can land before our increment (transient −1), and a
    /// worker that has popped a command decrements only after `recv`
    /// returns (transient `depth + 1`) — but physical channel occupancy
    /// is always within `[0, depth]`, so clamp each sample to that range.
    /// The watermark then respects `queue_peak ≤ depth × threads` by
    /// construction.
    fn sample_queue_depth(&mut self) {
        let depth = self.config.depth as isize;
        let queued: isize = self
            .pending_cmds
            .iter()
            .map(|c| c.load(Ordering::Relaxed).clamp(0, depth))
            .sum();
        self.queue_peak = self.queue_peak.max(queued as usize);
    }

    /// Deliver one command to worker `w`: try-send first, and on a full
    /// queue fall back to a timed blocking send (back-pressure). A
    /// disconnected queue means the worker thread is gone.
    fn send_cmd(&mut self, w: usize, cmd: Cmd) -> Result<(), ServiceError> {
        match self.senders[w].try_send(cmd) {
            Ok(()) => {}
            Err(TrySendError::Disconnected(_)) => {
                return Err(ServiceError::WorkerDied { worker: w })
            }
            Err(TrySendError::Full(cmd)) => {
                let stall = Instant::now();
                self.senders[w]
                    .send(cmd)
                    .map_err(|_| ServiceError::WorkerDied { worker: w })?;
                self.blocked += stall.elapsed();
            }
        }
        self.pending_cmds[w].fetch_add(1, Ordering::Relaxed);
        self.sample_queue_depth();
        Ok(())
    }

    /// Dispatch the buffered batch to its worker and tally the accounting.
    /// The target is a pure function of the stream position — update `t`
    /// belongs to worker `(t / chunk) mod threads` — so the update → worker
    /// assignment (and therefore every snapshot) is independent of how the
    /// caller slices the source into `ingest` calls. The buffer never spans
    /// a cell of that grid.
    fn flush(&mut self) -> Result<(), ServiceError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let batch = Arc::new(std::mem::replace(
            &mut self.buf,
            Vec::with_capacity(self.config.chunk),
        ));
        let (mut ins, mut del) = (0u64, 0u64);
        for u in batch.iter() {
            if u.delta > 0 {
                ins += u.delta as u64;
            } else {
                del += u.delta.unsigned_abs();
            }
        }
        let w = (self.total_updates / self.config.chunk) % self.senders.len();
        let offered = self.total_updates as u64;
        // The worker and the log share one `Arc` of the cell — logging
        // copies nothing; during recovery replay the log is the *source*
        // and not yet open, so nothing is re-logged.
        self.send_cmd(w, Cmd::Batch(Arc::clone(&batch)))?;
        self.inserted += ins;
        self.deleted += del;
        self.total_updates += batch.len();
        self.in_epoch += batch.len();
        if let Some(wal) = &mut self.wal {
            // Logged *after* dispatch: a crash between dispatch and append
            // (before the append's write) loses at most this one cell,
            // and recovery treats it as never offered.
            let bytes = wal.append(&WalRecord {
                offered,
                cell: WalCell::Batch(batch),
            })?;
            self.wal_records_epoch += 1;
            self.wal_bytes_epoch += bytes;
        }
        Ok(())
    }

    /// The accounting so far as an [`EpochReport`] shell for cut `epoch`:
    /// this epoch's tallies and the totals through them (space and merge
    /// timing are filled in when the clones arrive).
    fn epoch_report(&self, epoch: usize) -> EpochReport {
        EpochReport {
            epoch,
            updates: self.in_epoch,
            total_updates: self.total_updates,
            inserted_mass: self.inserted,
            deleted_mass: self.deleted,
            total_inserted: self.total_inserted + self.inserted,
            total_deleted: self.total_deleted + self.deleted,
            alpha_configured: self.alpha_configured,
            total_dropped_updates: 0,
            queue_peak: self.queue_peak,
            blocked: self.blocked,
            space: SpaceReport::default(),
            elapsed: self.epoch_start.elapsed(),
            merge_elapsed: Duration::ZERO,
            merge: MergeReport::default(),
            threads: self.config.threads,
            wal_records: self.wal_records_epoch,
            wal_bytes: self.wal_bytes_epoch,
        }
    }

    /// Freeze the current accounting into cut `epoch`'s report: keep its
    /// totals and start the next epoch's tallies at zero.
    fn freeze_report(&mut self, epoch: usize) -> EpochReport {
        let report = self.epoch_report(epoch);
        self.total_inserted = report.total_inserted;
        self.total_deleted = report.total_deleted;
        self.inserted = 0;
        self.deleted = 0;
        self.in_epoch = 0;
        self.queue_peak = 0;
        self.blocked = Duration::ZERO;
        self.wal_records_epoch = 0;
        self.wal_bytes_epoch = 0;
        self.epoch_start = Instant::now();
        report
    }

    /// Cut an epoch: enqueue a snapshot command behind every worker's
    /// pending batches and freeze the accounting. The workers' clones are
    /// collected later ([`StreamService::resolve`]), so ingestion of the
    /// next epoch proceeds while the cut is in flight.
    fn cut(&mut self) -> Result<(), ServiceError> {
        self.epochs_cut += 1;
        let report = self.freeze_report(self.epochs_cut);
        let mut replies = Vec::with_capacity(self.senders.len());
        for w in 0..self.senders.len() {
            let (reply_tx, reply_rx) = channel();
            // Behind every batch dispatched before it, so the cut observes
            // exactly those batches.
            self.send_cmd(w, Cmd::Snapshot(reply_tx))?;
            replies.push(reply_rx);
        }
        self.pending.push(PendingCut { replies, report });
        // Roll the log at the boundary: the sealed segment holds exactly
        // this epoch's records and becomes deletable once the cut's
        // snapshot is durably saved (`drain_pending`).
        if let Some(wal) = &mut self.wal {
            wal.roll(self.total_updates as u64)?;
        }
        Ok(())
    }

    /// Collect one pending cut's clones and fold them into a snapshot with
    /// the deterministic pairwise tree (worker 0's clone is the survivor,
    /// the same identity the serial fold produced).
    fn resolve(&self, cut: PendingCut) -> Result<Arc<Snapshot>, ServiceError> {
        let mut clones: Vec<Box<dyn DynSketch>> = Vec::with_capacity(cut.replies.len());
        for (worker, rx) in cut.replies.into_iter().enumerate() {
            // A worker that panicked between accepting the snapshot command
            // and replying drops its end of the reply channel.
            clones.push(rx.recv().map_err(|_| ServiceError::WorkerDied { worker })?);
        }
        let (merged, merge) =
            merge_tree(clones).expect("identically-built worker sketches must merge");
        let mut report = cut.report;
        report.merge_elapsed = merge.elapsed;
        report.merge = merge;
        report.space = merged.space();
        Ok(Arc::new(Snapshot {
            spec: self.spec,
            sketch: merged,
            report,
        }))
    }

    /// Resolve every in-flight cut, in cut order, publishing each to the
    /// hub as it completes (the last one resolved is the one
    /// [`StreamService::latest`] serves) and — when a store is attached —
    /// writing it durably to disk before it is handed to the caller.
    fn drain_pending(&mut self, out: &mut Vec<Arc<Snapshot>>) -> Result<(), ServiceError> {
        for cut in std::mem::take(&mut self.pending) {
            let snap = self.resolve(cut)?;
            if let Some(store) = &self.store {
                // The offered stamp is the replay cursor: where the stream
                // cursor stood at the cut. The config stamp is the geometry
                // alone, so depth and the durability knobs may change
                // across restarts.
                let offered = snap.report.total_updates as u64;
                store.save(
                    &self.spec,
                    &self.config.geometry_string(),
                    &snap.report,
                    offered,
                    snap.sketch.as_ref(),
                )?;
                self.last_persisted = offered;
                // Only now — with the covering snapshot durable — are the
                // sealed segments up to the cut dead weight.
                if let Some(wal) = &mut self.wal {
                    wal.truncate_through(offered)?;
                }
                store.prune(self.config.retain)?;
            }
            self.hub.publish(Arc::clone(&snap));
            out.push(snap);
        }
        Ok(())
    }

    /// Ingest a slice of the unbounded source. Updates are dispatched
    /// round-robin in [`ServiceConfig::chunk`]-sized batches; every
    /// [`ServiceConfig::epoch`] updates an epoch is cut *exactly at the
    /// boundary* (mid-slice if needed). Returns the snapshots of every
    /// epoch completed by this call, or [`ServiceError::WorkerDied`] once a
    /// worker thread is gone.
    pub fn ingest(&mut self, updates: &[Update]) -> Result<Vec<Arc<Snapshot>>, ServiceError> {
        let mut out = Vec::new();
        let mut rest = updates;
        while !rest.is_empty() {
            // Room is computed in u64: `epoch` may exceed usize::MAX on
            // 32-bit targets (validate() rejects those before start), and
            // the subtraction cannot underflow because `in_epoch + held <
            // epoch` is a loop invariant — boundaries flush-and-cut
            // immediately below.
            let held = self.buf.len() as u64;
            let chunk = self.config.chunk as u64;
            let epoch_room = self.config.epoch - self.in_epoch as u64 - held;
            let cell_room = chunk - (self.total_updates as u64 + held) % chunk;
            let take = epoch_room.min(cell_room).min(rest.len() as u64);
            let (piece, tail) = rest.split_at(take as usize);
            self.buf.extend_from_slice(piece);
            rest = tail;
            // Dispatch only at grid-cell or epoch boundaries; a partial
            // cell stays buffered across calls so batch shapes (and any
            // RNG they drive) replay identically for any call slicing.
            if take == cell_room || take == epoch_room {
                self.flush()?;
            }
            if take == epoch_room {
                self.cut()?;
            }
        }
        self.drain_pending(&mut out)?;
        Ok(out)
    }

    /// Drive the service over an update iterator (the unbounded-source
    /// shape), returning every epoch snapshot the stream produced.
    pub fn run<I: IntoIterator<Item = Update>>(
        &mut self,
        source: I,
    ) -> Result<Vec<Arc<Snapshot>>, ServiceError> {
        let mut out = Vec::new();
        let mut buf: Vec<Update> = Vec::with_capacity(self.config.chunk);
        for u in source {
            buf.push(u);
            if buf.len() == self.config.chunk {
                out.extend(self.ingest(&buf)?);
                buf.clear();
            }
        }
        if !buf.is_empty() {
            out.extend(self.ingest(&buf)?);
        }
        Ok(out)
    }

    /// Drive the service from an mpsc channel of update batches until the
    /// sending side hangs up.
    pub fn run_channel(
        &mut self,
        source: Receiver<Vec<Update>>,
    ) -> Result<Vec<Arc<Snapshot>>, ServiceError> {
        let mut out = Vec::new();
        while let Ok(batch) = source.recv() {
            out.extend(self.ingest(&batch)?);
        }
        Ok(out)
    }

    /// An on-demand snapshot of everything ingested so far, *without*
    /// disturbing the epoch schedule: the workers' sketches and the
    /// scheduled cut positions are untouched. The one observable side
    /// effect is the early flush of the partial dispatch cell, which splits
    /// one batch in two on its worker — scheduled snapshots are unchanged
    /// bit-for-bit wherever batched ingestion is grouping-insensitive
    /// (everywhere outside CSSS-style *thinning* regimes, whose per-batch
    /// binomial draws depend on batch shapes; there the scheduled snapshots
    /// stay correct but can differ in their sampling noise). Pinned for the
    /// grouping-insensitive regimes by `tests/service.rs`. The report
    /// covers the partial epoch since the last cut and reuses the upcoming
    /// epoch index; epoch tallies continue accumulating (totals stay
    /// monotone).
    ///
    /// **Prefer [`StreamService::latest`] / [`StreamService::handle`] for
    /// serving.** This method needs `&mut self`, stalls the ingest thread
    /// until every worker replies with a clone, and — because it captures
    /// mid-epoch state — is deliberately *not* published to the hub:
    /// concurrent readers only ever observe complete scheduled epochs. It
    /// remains the right tool for one-thread-in-total deployments that want
    /// a synchronous point-in-time cut (e.g. `sketchctl serve`'s final
    /// verification), not for concurrent query serving.
    pub fn snapshot(&mut self) -> Result<Arc<Snapshot>, ServiceError> {
        // The clone must cover everything ingested, so the partial cell is
        // dispatched early. This splits one batch in two on the target
        // worker — harmless for the scheduled snapshots (assignment and cut
        // positions are unchanged, and batched ingestion is
        // grouping-insensitive outside thinning regimes) but it is the one
        // observable side effect of an on-demand snapshot.
        self.flush()?;
        // Totals must not double-count when the scheduled cut arrives, so
        // copy the accounting instead of freezing it.
        let report = self.epoch_report(self.epochs_cut + 1);
        let mut replies = Vec::with_capacity(self.senders.len());
        for w in 0..self.senders.len() {
            let (reply_tx, reply_rx) = channel();
            self.send_cmd(w, Cmd::Snapshot(reply_tx))?;
            replies.push(reply_rx);
        }
        self.resolve(PendingCut { replies, report })
    }

    /// Stop the service: cut a final (possibly partial) epoch if any
    /// updates arrived since the last cut, join the workers, and return the
    /// final snapshot (`None` when nothing was pending and no updates
    /// arrived since the last cut). The final snapshot is published to the
    /// hub like any scheduled cut, so surviving [`SnapshotHandle`]s serve
    /// the complete stream after the service is gone.
    ///
    /// Resilient to a dead worker: the surviving workers are always joined
    /// cleanly before the error is returned (no panic, no leaked threads).
    pub fn finish(mut self) -> Result<Option<Arc<Snapshot>>, ServiceError> {
        let mut out = Vec::new();
        let result = self.finish_cut(&mut out);
        // Dropping the senders ends the worker loops; join for a clean stop
        // whether or not the final cut succeeded.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        result.map(|()| out.pop())
    }

    fn finish_cut(&mut self, out: &mut Vec<Arc<Snapshot>>) -> Result<(), ServiceError> {
        self.flush()?;
        if self.in_epoch > 0 {
            self.cut()?;
        }
        self.drain_pending(out)
    }
}

impl Drop for StreamService {
    /// Close the command queues so worker threads exit even when the
    /// service is dropped without [`StreamService::finish`].
    fn drop(&mut self) {
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl fmt::Debug for StreamService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamService")
            .field("config", &self.config)
            .field("total_updates", &self.total_updates)
            .field("epochs_cut", &self.epochs_cut)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::register_reference;
    use crate::spec::SketchFamily;
    use crate::update::StreamBatch;

    fn reg() -> Registry {
        let mut r = Registry::new();
        register_reference(&mut r);
        r
    }

    fn stream() -> StreamBatch {
        StreamBatch::new(
            64,
            (0..1000u64)
                .map(|t| Update::new(t % 13, if t % 3 == 0 { -1 } else { 2 }))
                .collect(),
        )
    }

    fn spec() -> SketchSpec {
        SketchSpec::new(SketchFamily::Exact).with_n(64).with_seed(3)
    }

    #[test]
    fn config_string_roundtrips() {
        let cfg: ServiceConfig = "service:epoch=1e5,threads=4".parse().unwrap();
        assert_eq!(cfg.epoch, 100_000);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.chunk, StreamRunner::DEFAULT_CHUNK);
        assert_eq!(cfg.depth, 64);
        assert_eq!(cfg.wal, WalPolicy::Off);
        assert_eq!(cfg.retain, 0);
        let redisplayed: ServiceConfig = cfg.to_string().parse().unwrap();
        assert_eq!(redisplayed, cfg);
        // Back-pressure is the one overload behaviour: no overflow key.
        for gone in ["service:overflow=drop", "service:overflow=block"] {
            assert_eq!(
                gone.parse::<ServiceConfig>(),
                Err(SpecError::UnknownKey("overflow".into()))
            );
        }
        let deep: ServiceConfig = "service:depth=8".parse().unwrap();
        assert_eq!(deep.depth, 8);
        assert_eq!(deep.to_string().parse::<ServiceConfig>(), Ok(deep));
        // Depth and the durability knobs parse and round-trip; the
        // geometry stamp excludes them, so they may change across restarts.
        let durable: ServiceConfig = "service:epoch=1e4,wal=batch,retain=3".parse().unwrap();
        assert_eq!(durable.wal, WalPolicy::Batch);
        assert_eq!(durable.retain, 3);
        assert_eq!(durable.to_string().parse::<ServiceConfig>(), Ok(durable));
        assert!(durable.to_string().contains("wal=batch"));
        assert!(durable.to_string().contains("retain=3"));
        assert_eq!(
            durable.geometry_string(),
            "service:epoch=10000,threads=4,chunk=4096"
        );
        assert_eq!(deep.geometry_string(), cfg.geometry_string());
        assert!("service:wal=sometimes".parse::<ServiceConfig>().is_err());
        // Bare key=value form and defaults.
        let bare: ServiceConfig = "epoch=2^10".parse().unwrap();
        assert_eq!(bare.epoch, 1024);
        assert_eq!(
            "service".parse::<ServiceConfig>(),
            Ok(ServiceConfig::default())
        );
        assert!("service:epoch=0".parse::<ServiceConfig>().is_err());
        assert!("service:depth=0".parse::<ServiceConfig>().is_err());
        assert!("service:frob=1".parse::<ServiceConfig>().is_err());
        assert!("shard:epoch=1".parse::<ServiceConfig>().is_err());
    }

    #[test]
    fn epochs_cut_at_exact_boundaries() {
        let r = reg();
        let s = stream();
        let cfg = ServiceConfig::default()
            .with_epoch(300)
            .with_threads(3)
            .with_chunk(64);
        let mut svc = StreamService::start(&r, &spec(), cfg).unwrap();
        let mut snaps = Vec::new();
        // Feed in awkward slice sizes; boundaries must land at 300/600/900.
        for piece in s.updates.chunks(171) {
            snaps.extend(svc.ingest(piece).unwrap());
        }
        let last = svc.finish().unwrap().expect("partial final epoch");
        assert_eq!(snaps.len(), 3);
        for (i, snap) in snaps.iter().enumerate() {
            assert_eq!(snap.report.epoch, i + 1);
            assert_eq!(snap.report.updates, 300);
            assert_eq!(snap.report.total_updates, 300 * (i + 1));
            // Queues bounded by depth × threads.
            assert!(snap.report.queue_peak <= cfg.depth * cfg.threads);
        }
        assert_eq!(last.report.epoch, 4);
        assert_eq!(last.report.updates, 100);
        assert_eq!(last.report.total_updates, 1000);
        assert_eq!(last.report.total_mass(), s.total_mass());
    }

    #[test]
    fn snapshots_match_sequential_prefix() {
        let r = reg();
        let s = stream();
        let cfg = ServiceConfig::default()
            .with_epoch(250)
            .with_threads(4)
            .with_chunk(32);
        let mut svc = StreamService::start(&r, &spec(), cfg).unwrap();
        let snaps = svc.ingest(&s.updates).unwrap();
        assert_eq!(snaps.len(), 4);
        for snap in &snaps {
            let mut seq = r.build(&spec()).unwrap();
            seq.update_batch(&s.updates[..snap.report.total_updates]);
            let (p, q) = (snap.sketch.as_point().unwrap(), seq.as_point().unwrap());
            for i in 0..64 {
                assert_eq!(
                    p.point(i).to_bits(),
                    q.point(i).to_bits(),
                    "epoch {} item {i}",
                    snap.report.epoch
                );
            }
        }
    }

    #[test]
    fn on_demand_snapshot_leaves_schedule_untouched() {
        let r = reg();
        let s = stream();
        let cfg = ServiceConfig::default()
            .with_epoch(400)
            .with_threads(2)
            .with_chunk(64);
        let run = |poke: bool| {
            let mut svc = StreamService::start(&r, &spec(), cfg).unwrap();
            let mut snaps = Vec::new();
            for (k, piece) in s.updates.chunks(100).enumerate() {
                snaps.extend(svc.ingest(piece).unwrap());
                if poke && k % 2 == 0 {
                    let mid = svc.snapshot().unwrap();
                    assert_eq!(mid.report.total_updates, (k + 1) * 100);
                }
            }
            let fin = svc.finish().unwrap().unwrap();
            (snaps.len(), fin.report.total_updates, {
                let p = fin.sketch.as_point().unwrap();
                (0..64).map(|i| p.point(i).to_bits()).collect::<Vec<_>>()
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn accounting_tracks_deletion_regime() {
        let r = reg();
        // 20 insertions of 3, then 10 deletions of 2: I = 60, D = 20.
        let ups: Vec<Update> = (0..20)
            .map(|i| Update::new(i % 8, 3))
            .chain((0..10).map(|i| Update::new(i % 8, -2)))
            .collect();
        let mut svc = StreamService::start(
            &r,
            &spec().with_alpha(4.0),
            ServiceConfig::default().with_epoch(1000).with_threads(2),
        )
        .unwrap();
        svc.ingest(&ups).unwrap();
        let snap = svc.finish().unwrap().unwrap();
        let rep = snap.report;
        assert_eq!(rep.total_inserted, 60);
        assert_eq!(rep.total_deleted, 20);
        assert_eq!(rep.total_mass(), 80);
        assert!((rep.deletion_fraction() - 0.25).abs() < 1e-12);
        // α floor: (I+D)/(I−D) = 2 ≤ configured 4.
        assert!((rep.alpha_observed() - 2.0).abs() < 1e-12);
        assert!(rep.within_alpha());
        assert!(rep.deletion_fraction() <= EpochReport::deletion_cap(rep.alpha_configured));
        assert!(rep.space_bits() > 0);
    }

    #[test]
    fn multi_thread_requires_mergeable() {
        // A registry whose only family advertises no merge capability.
        let mut r = Registry::new();
        r.register(
            crate::registry::FamilyInfo {
                family: SketchFamily::Morris,
                summary: "test stub",
                caps: crate::registry::Capabilities {
                    point: true,
                    ..Default::default()
                },
                inputs: Default::default(),
                space: "n/a",
                type_name: "stub",
            },
            |spec| Box::new(crate::vector::FrequencyVector::new(spec.n)),
        );
        let spec = SketchSpec::new(SketchFamily::Morris).with_n(64);
        let cfg = ServiceConfig::default().with_threads(4);
        assert!(matches!(
            StreamService::start(&r, &spec, cfg),
            Err(RegistryError::NotMergeable)
        ));
        // One thread is a sequential service — valid for any family.
        let mut svc = StreamService::start(&r, &spec, cfg.with_threads(1).with_epoch(10)).unwrap();
        let snaps = svc.ingest(&stream().updates[..25]).unwrap();
        assert_eq!(snaps.len(), 2);
        assert!(svc.finish().unwrap().is_some());
    }

    #[test]
    fn run_channel_consumes_batches() {
        let r = reg();
        let s = stream();
        let (tx, rx) = channel();
        for piece in s.updates.chunks(90) {
            tx.send(piece.to_vec()).unwrap();
        }
        drop(tx);
        let mut svc = StreamService::start(
            &r,
            &spec(),
            ServiceConfig::default().with_epoch(500).with_threads(2),
        )
        .unwrap();
        let snaps = svc.run_channel(rx).unwrap();
        assert_eq!(snaps.len(), 2);
        assert_eq!(svc.total_updates(), 1000);
        assert!(svc.finish().unwrap().is_none(), "no partial epoch left");
    }

    #[test]
    fn finish_without_updates_is_none() {
        let r = reg();
        let svc = StreamService::start(&r, &spec(), ServiceConfig::default()).unwrap();
        assert!(svc.finish().unwrap().is_none());
    }

    #[test]
    fn block_policy_back_pressure_is_invisible_to_snapshots() {
        let r = reg();
        let s = stream();
        let run = |depth: usize| {
            let cfg = ServiceConfig::default()
                .with_epoch(250)
                .with_threads(2)
                .with_chunk(16)
                .with_depth(depth);
            let mut svc = StreamService::start(&r, &spec(), cfg).unwrap();
            let snaps = svc.ingest(&s.updates).unwrap();
            svc.finish().unwrap();
            snaps
                .iter()
                .map(|snap| {
                    let p = snap.sketch.as_point().unwrap();
                    (0..64).map(|i| p.point(i).to_bits()).collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        // depth=1 forces constant back-pressure (16-update cells, tiny
        // queues); the snapshots must be bit-identical to a deep queue's.
        assert_eq!(run(1), run(1 << 14));
    }
}
