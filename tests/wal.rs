//! Write-ahead-log conformance: the tentpole law **crash anywhere →
//! recover ≡ uninterrupted**, at the granularity of single durability
//! operations.
//!
//! The dispatch thread writes every dispatched cell to the log before
//! `ingest` returns, under every fsync policy: `wal=batch` also fsyncs it,
//! `wal=epoch` leaves it in the page cache until the cut. Either way a
//! service fed from a non-replayable source (a live channel with no
//! `ingest(&slice)` to re-offer) that dies in-process loses at most the
//! one cell in flight, and a failed append fails the `ingest` call that
//! dispatched the cell.
//!
//! The snapshot store and the log perform every create, write, sync,
//! rename, unlink and `set_len` through one durability layer — including
//! the renames that retire a covered segment into the log's spare and
//! recycle the spare as the next segment, and the `set_len` that trims a
//! recycled segment at its seal — and
//! `bd_stream::fault` crashes it at operation `k` (optionally tearing a
//! write early or late). These suites record a persisted multi-epoch run's
//! operations, crash the same run at each of them under both policies,
//! cold-start a second service (`StreamService::recover`: the newest
//! snapshot plus the WAL tail), feed the remaining source from
//! [`StreamService::replay_from`], and pin the continuation against an
//! uninterrupted run: bit-identical where the family claims
//! `merge_bitwise`, estimate-equal otherwise — the same per-family
//! contract as `tests/recovery.rs` (`DESIGN.md §14`).
//!
//! Torn or bit-flipped WAL tails are always *total*: the damaged frame
//! ends the replayable chain with a physical truncation repair, never a
//! panic. The `BD_FAULT` env knob narrows the sweeps: an operation kind
//! (`create`, `write`, `fdatasync`, `fsync`, `dirsync`, `rename`,
//! `unlink`, `set_len`) keeps the plain crashes at that kind of operation,
//! `torn` keeps the torn writes. CI re-runs the suite under the
//! `BD_SHARD_THREADS` matrix.

mod common;

use bd_stream::fault::{DiskOp, FaultInjector, FaultPlan, Tear};
use bd_stream::{
    wal_segments, FamilyInfo, PersistError, ServiceConfig, ServiceError, SnapshotStore,
    StreamService, WAL_VERSION,
};
use bounded_deletions::prelude::*;
use common::{assert_probes_match, conformance_spec, listing, probe, stream, ProbeVal};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Worker count under test: the CI matrix knob, defaulting to the
/// contended shape (the fixed [1, 3] sweep is covered by the matrix).
fn threads() -> usize {
    std::env::var("BD_SHARD_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(3)
}

/// Every operation kind with its `BD_FAULT` name.
const OP_NAMES: [(DiskOp, &str); 8] = [
    (DiskOp::Create, "create"),
    (DiskOp::Write, "write"),
    (DiskOp::SyncData, "fdatasync"),
    (DiskOp::SyncAll, "fsync"),
    (DiskOp::SyncDir, "dirsync"),
    (DiskOp::Rename, "rename"),
    (DiskOp::Unlink, "unlink"),
    (DiskOp::SetLen, "set_len"),
];

/// Whether a crash case is in the sweep: every case, or only those
/// `BD_FAULT` names — plain crashes at one operation kind, or `torn`
/// writes.
fn selected(plan: FaultPlan, ops: &[DiskOp]) -> bool {
    let Ok(want) = std::env::var("BD_FAULT") else {
        return true;
    };
    if want == "torn" {
        return plan.tear.is_some();
    }
    let (kind, _) = OP_NAMES
        .iter()
        .find(|(_, name)| *name == want)
        .unwrap_or_else(|| panic!("BD_FAULT=`{want}` is neither an operation kind nor `torn`"));
    plan.tear.is_none() && ops[plan.op] == *kind
}

/// Service shape shared with `tests/recovery.rs`, plus the per-batch
/// fsync policy (the crash sweeps also run every case under `epoch`).
fn wal_config(stream_len: usize, threads: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_epoch((stream_len as u64) / 3)
        .with_threads(threads)
        .with_chunk(512)
        .with_wal(WalPolicy::Batch)
}

/// A self-cleaning snapshot+WAL directory under the OS temp dir, unique
/// per call (both crash sweeps run `exact` cases, concurrently).
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("bd-wal-{tag}-{pid}-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn store(&self) -> SnapshotStore {
        SnapshotStore::open(&self.0).unwrap()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One family's crash sweep: the stream, the service shape (`retain=1`,
/// so every cut after the first also prunes), and the end state of the
/// uninterrupted run every crashed run must reach.
struct Sweep {
    family: SketchFamily,
    spec: SketchSpec,
    cfg: ServiceConfig,
    s: StreamBatch,
    bitwise: bool,
    want: EpochReport,
    want_probe: Vec<ProbeVal>,
}

/// How an armed run ended: the error of the call that died (if one did),
/// the updates offered by the calls that returned `Ok`, and the updates
/// offered through the call that died.
struct Outcome {
    error: Option<ServiceError>,
    ok: usize,
    end: usize,
}

impl Sweep {
    /// The sweep for one family over three equal epochs.
    fn new(info: &FamilyInfo) -> Self {
        let s = stream(0xA1);
        let cfg = wal_config(s.len(), threads());
        Self::with_config(info, s, cfg)
    }

    /// The sweep for one family over `s` with service shape `cfg`, with its
    /// uninterrupted reference run (no store: the log only opens when
    /// persistence is attached, and neither `wal=` nor `retain=` is part of
    /// the dispatch geometry, so one reference serves both policies).
    fn with_config(info: &FamilyInfo, s: StreamBatch, cfg: ServiceConfig) -> Self {
        let spec = conformance_spec(info.family);
        let cfg = cfg.with_retain(1);
        let mut un = StreamService::start(registry(), &spec, cfg).unwrap();
        let mut snaps = un.ingest(&s.updates).unwrap();
        snaps.extend(un.finish().unwrap());
        let want = snaps.pop().unwrap();
        Sweep {
            family: info.family,
            spec,
            cfg,
            bitwise: info.caps.merge_bitwise,
            want: want.report,
            want_probe: probe(want.sketch.as_ref()),
            s,
        }
    }

    /// Where the injector is armed: 13 whole cells in, past the first cut
    /// (epoch 1 persisted, its segment truncated) and short of the
    /// second.
    fn armed_at(&self) -> usize {
        let at = 13 * self.cfg.chunk;
        assert!(at > self.cfg.epoch as usize && at < 2 * self.cfg.epoch as usize);
        at
    }

    /// Run the service persisted into `dir` under `policy`: the stream up
    /// to [`Sweep::armed_at`], then `fault` armed, then the rest one grid
    /// cell per `ingest` call (so the calls that returned `Ok` bound the
    /// resume point from below), then `finish`.
    fn run(&self, policy: WalPolicy, dir: &TempDir, fault: Arc<FaultInjector>) -> Outcome {
        let cfg = self.cfg.with_wal(policy);
        let mut svc = StreamService::start(registry(), &self.spec, cfg).unwrap();
        svc.persist_to(dir.store()).unwrap();
        let mut ok = self.armed_at();
        svc.ingest(&self.s.updates[..ok]).unwrap();
        svc.arm_fault(fault);
        for call in self.s.updates[ok..].chunks(cfg.chunk) {
            let end = ok + call.len();
            if let Err(e) = svc.ingest(call) {
                return Outcome {
                    error: Some(e),
                    ok,
                    end,
                };
            }
            ok = end;
        }
        Outcome {
            error: svc.finish().err(),
            ok,
            end: ok,
        }
    }

    /// The operations the run performs under `policy`, from arming to its
    /// end.
    fn ops(&self, policy: WalPolicy) -> Vec<DiskOp> {
        let dir = TempDir::new(&format!("{}-ops", self.family.name()));
        let recorder = FaultInjector::recorder();
        let outcome = self.run(policy, &dir, Arc::clone(&recorder));
        assert!(outcome.error.is_none(), "{:?}", outcome.error);
        recorder.ops()
    }

    /// Crash the run per `plan` at one of its recorded `ops`, recover,
    /// feed the rest of the source from `replay_from()`, and pin the end
    /// state to the uninterrupted run's.
    fn crash(&self, policy: WalPolicy, plan: FaultPlan, ops: &[DiskOp]) {
        let tear = plan.tear.map_or(String::new(), |t| format!(" torn {t:?}"));
        let name = format!(
            "{} (threads = {}, wal = {policy}, crash at op {} {:?}{tear})",
            self.family,
            threads(),
            plan.op,
            ops[plan.op],
        );
        let dir = TempDir::new(self.family.name());
        let fault = FaultInjector::arm(plan);
        let outcome = self.run(policy, &dir, Arc::clone(&fault));
        assert!(
            matches!(
                outcome.error,
                Some(ServiceError::Persist(PersistError::FaultInjected))
            ),
            "{name}: the crash must fail the call it hits: {:?}",
            outcome.error
        );
        assert_eq!(
            fault.ops(),
            ops[..=plan.op],
            "{name}: the run left the recorded operations"
        );

        // Cold-start: newest snapshot + WAL tail replay. `Ok` from a call
        // meant its cells were logged, and nothing beyond the failed call
        // was ever offered.
        let cfg = self.cfg.with_wal(policy);
        let mut rec = StreamService::recover(registry(), &self.spec, cfg, dir.store())
            .unwrap_or_else(|e| panic!("{name}: recovery failed: {e}"));
        let from = rec.replay_from();
        assert!(
            outcome.ok <= from && from <= outcome.end,
            "{name}: resumed at {from}, outside [{}, {}]",
            outcome.ok,
            outcome.end
        );
        assert!(rec.latest().is_some(), "{name}: nothing served on boot");

        // Feed the rest of the source and pin the final state: the last
        // snapshot published, which is the recovered one when the crash
        // outran only the cleanup after the final cut.
        let hub = rec.handle();
        rec.ingest(&self.s.updates[from..]).unwrap();
        rec.finish().unwrap();
        let view = hub.latest().unwrap();
        let g = view.snapshot();
        assert_eq!(g.report.epoch, self.want.epoch, "{name}");
        assert_eq!(g.report.total_updates, self.s.len(), "{name}: lost updates");
        assert_eq!(g.report.total_inserted, self.want.total_inserted, "{name}");
        assert_eq!(g.report.total_deleted, self.want.total_deleted, "{name}");
        assert_probes_match(
            &name,
            &self.want_probe,
            &probe(g.sketch.as_ref()),
            self.bitwise,
        );
    }
}

/// Every plain crash and every torn write at each of `ops`.
fn every_op(ops: &[DiskOp]) -> Vec<FaultPlan> {
    let mut plans = Vec::new();
    for (op, kind) in ops.iter().enumerate() {
        plans.push(FaultPlan { op, tear: None });
        if *kind == DiskOp::Write {
            for tear in [Tear::Early, Tear::Late] {
                plans.push(FaultPlan {
                    op,
                    tear: Some(tear),
                });
            }
        }
    }
    plans
}

/// Whether the write at `k` starts a file: a segment header, or a snapshot
/// body, right after the file was created or renamed into place.
fn starts_a_file(ops: &[DiskOp], k: usize) -> bool {
    ops[k] == DiskOp::Write && k > 0 && matches!(ops[k - 1], DiskOp::Create | DiskOp::Rename)
}

/// Whether `ops` hold a recycled roll: the spare renamed to the new
/// segment's name and its header written over it, with no file created.
fn recycles(ops: &[DiskOp]) -> bool {
    ops.windows(2).any(|w| w == [DiskOp::Rename, DiskOp::Write])
}

/// The points of a recorded run where family state and the log meet:
/// before the fourth append after arming (the first after the second cut),
/// with it torn early and late, right after it (durable, before the
/// covering snapshot's save), inside that save, and inside the roll before
/// it (the new segment's header torn short of its checksum).
fn spot_checks(ops: &[DiskOp]) -> Vec<FaultPlan> {
    use DiskOp::*;
    // Appends are the writes that do not start a file.
    let appends: Vec<usize> = (0..ops.len())
        .filter(|&k| ops[k] == Write && !starts_a_file(ops, k))
        .collect();
    let append = appends[3];
    // Past the append's own fdatasync under `batch`.
    let after = append + 1 + usize::from(ops[append + 1] == SyncData);
    // Located inside the first cut after arming: its roll's new segment,
    // created or recycled, starts with the first header write, and the
    // snapshot save is the next created file.
    let header = (0..ops.len())
        .find(|&k| starts_a_file(ops, k))
        .unwrap_or_else(|| panic!("no segment header: {ops:?}"));
    let save = header + ops[header..].iter().position(|&op| op == Create).unwrap();
    assert_eq!(
        ops[save..save + 4],
        [Create, Write, SyncAll, Rename],
        "{ops:?}"
    );
    [
        (append, None),
        (append, Some(Tear::Early)),
        (append, Some(Tear::Late)),
        (after, None),
        (save + 3, None),
        (header, Some(Tear::Late)),
    ]
    .map(|(op, tear)| FaultPlan { op, tear })
    .to_vec()
}

/// The crash law at every durability operation: for `exact`
/// (`merge_bitwise`) and `alpha_hh` (estimate-equal), under both logging
/// policies, a persisted run crashed at each operation from arming to the
/// end of the run — every append, roll, segment creation and recycling,
/// snapshot save, log truncation and prune — and at each write torn early
/// and late, recovers and ends in the uninterrupted run's state.
#[test]
fn crash_at_every_durability_op_recovers() {
    for family in [SketchFamily::Exact, SketchFamily::AlphaHh] {
        let sweep = Sweep::new(registry().info(family).unwrap());
        for policy in [WalPolicy::Batch, WalPolicy::Epoch] {
            let ops = sweep.ops(policy);
            // The swept stretch holds cuts with every kind of step, and a
            // roll into the spare the first cut retired.
            for kind in [DiskOp::Rename, DiskOp::Unlink, DiskOp::SyncAll] {
                assert!(
                    ops.contains(&kind),
                    "{family} {policy}: no {kind:?}: {ops:?}"
                );
            }
            assert!(
                recycles(&ops),
                "{family} {policy}: no recycled roll: {ops:?}"
            );
            for plan in every_op(&ops) {
                if selected(plan, &ops) {
                    sweep.crash(policy, plan, &ops);
                }
            }
        }
    }
}

/// The crash law for every persistable mergeable family, under both
/// logging policies, at [`spot_checks`]. The operations are recorded once
/// per policy, on `exact`: they depend on the dispatch geometry alone, and
/// every crashed run checks that it performed them.
#[test]
fn crash_at_every_fault_point_recovers_for_every_mergeable_family() {
    let exact = Sweep::new(registry().info(SketchFamily::Exact).unwrap());
    let recorded = [WalPolicy::Batch, WalPolicy::Epoch].map(|policy| (policy, exact.ops(policy)));
    let mut covered = Vec::new();
    for info in registry().families() {
        if !(info.caps.mergeable && info.caps.persist) {
            continue;
        }
        covered.push(info.family.name());
        let sweep = Sweep::new(info);
        for (policy, ops) in &recorded {
            for plan in spot_checks(ops) {
                if selected(plan, ops) {
                    sweep.crash(*policy, plan, ops);
                }
            }
        }
    }
    assert!(
        covered.len() >= 20,
        "persistable mergeable catalog shrank unexpectedly: {covered:?}"
    );
}

/// A recycled segment sealed with fewer bytes than the file it overwrote
/// is trimmed first; a crash at that trim recovers to the uninterrupted
/// state, under both logging policies. Three equal epochs only ever grow
/// a recycled file, so the sweep above never trims: here the final epoch
/// is half as long as the first, whose segment it recycles.
#[test]
fn crash_at_the_seal_trim_recovers() {
    let s = stream(0xA1);
    let cfg = wal_config(s.len(), threads()).with_epoch(2 * s.len() as u64 / 5);
    let sweep = Sweep::with_config(registry().info(SketchFamily::Exact).unwrap(), s, cfg);
    for policy in [WalPolicy::Batch, WalPolicy::Epoch] {
        let ops = sweep.ops(policy);
        let trims: Vec<usize> = (0..ops.len())
            .filter(|&k| ops[k] == DiskOp::SetLen)
            .collect();
        assert_eq!(trims.len(), 1, "wal={policy}: {ops:?}");
        for op in trims {
            sweep.crash(policy, FaultPlan { op, tear: None }, &ops);
        }
    }
}

/// A failed append fails the `ingest` call that dispatched its cell,
/// under every fsync policy: `Ok` from `ingest` means every cell the call
/// dispatched was written to the log.
#[test]
fn wal_errors_fail_the_call_that_logged_the_cell() {
    let s = stream(0x1E5);
    let spec = conformance_spec(SketchFamily::Exact);
    for policy in [WalPolicy::Batch, WalPolicy::Epoch] {
        let cfg = wal_config(s.len(), 2).with_wal(policy);
        let dir = TempDir::new(&format!("call-error-{policy}"));
        let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
        svc.persist_to(dir.store()).unwrap();
        // Op 0 after arming is the append's write.
        svc.arm_fault(FaultInjector::arm(FaultPlan { op: 0, tear: None }));
        // Exactly one grid cell: the call dispatches it and logs it.
        let got = svc.ingest(&s.updates[..cfg.chunk]);
        assert!(
            matches!(got, Err(ServiceError::Persist(PersistError::FaultInjected))),
            "wal={policy}: {got:?}"
        );
    }
}

/// A plain crash (drop without `finish`, no fault injection) under
/// `wal=batch` resumes at the *dispatched* cursor — strictly finer than
/// the epoch boundary PR9's snapshot-only recovery could offer — and the
/// epoch reports account for the log traffic.
#[test]
fn wal_tail_resumes_at_the_dispatched_cursor() {
    let s = stream(0x1A);
    let spec = conformance_spec(SketchFamily::Exact);
    let cfg = wal_config(s.len(), 3);
    // A stop past the first cut, aligned to the dispatch grid, so the
    // dispatched cursor at the crash is exactly `stop`.
    let stop = 11 * cfg.chunk;
    assert!(stop > cfg.epoch as usize && stop < s.len());

    let dir = TempDir::new("cursor");
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    svc.persist_to(dir.store()).unwrap();
    let snaps = svc.ingest(&s.updates[..stop]).unwrap();
    assert!(
        snaps
            .iter()
            .all(|sn| sn.report.wal_records > 0 && sn.report.wal_bytes > 0),
        "epoch reports must account for the WAL appends behind them"
    );
    drop(svc);

    let mut rec = StreamService::recover(registry(), &spec, cfg, dir.store()).unwrap();
    assert_eq!(
        rec.replay_from(),
        stop,
        "every dispatched (= logged) update must survive the crash"
    );
    assert_eq!(rec.epochs_cut(), 1);
    let mut got = rec.ingest(&s.updates[stop..]).unwrap();
    got.extend(rec.finish().unwrap());

    let mut seq = registry().build(&spec).unwrap();
    seq.update_batch(&s.updates);
    assert_probes_match(
        "dispatched-cursor recovery",
        &probe(seq.as_ref()),
        &probe(got.last().unwrap().sketch.as_ref()),
        true,
    );
}

/// A bit-flipped WAL tail is truncated, not fatal: recovery drops the
/// damaged frame (and everything after it), repairs the file in place,
/// and the replayed-then-refed run still reaches the uninterrupted
/// state.
#[test]
fn corrupt_wal_tail_is_truncated_not_fatal() {
    let s = stream(0x1B);
    let spec = conformance_spec(SketchFamily::Exact);
    let cfg = wal_config(s.len(), 3);
    let stop = 11 * cfg.chunk;

    let dir = TempDir::new("corrupt");
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    svc.persist_to(dir.store()).unwrap();
    svc.ingest(&s.updates[..stop]).unwrap();
    drop(svc);

    // Flip a byte inside the live segment's last record.
    let (_, path) = wal_segments(dir.store().dir())
        .unwrap()
        .pop()
        .expect("a live WAL segment must exist");
    let mut raw = std::fs::read(&path).unwrap();
    let at = raw.len() - 6;
    raw[at] ^= 0x20;
    std::fs::write(&path, &raw).unwrap();

    let mut rec = StreamService::recover(registry(), &spec, cfg, dir.store()).unwrap();
    let from = rec.replay_from();
    assert!(
        from >= cfg.epoch as usize && from < stop,
        "the damaged frame (and only its tail) must be dropped: resumed at {from}"
    );
    // The repair is physical: the segment now rescans clean.
    let scan = bd_stream::read_segment(&path).unwrap();
    assert!(scan.truncation.is_none(), "torn tail not repaired in place");

    let mut got = rec.ingest(&s.updates[from..]).unwrap();
    got.extend(rec.finish().unwrap());
    let mut seq = registry().build(&spec).unwrap();
    seq.update_batch(&s.updates);
    assert_probes_match(
        "post-corruption recovery",
        &probe(seq.as_ref()),
        &probe(got.last().unwrap().sketch.as_ref()),
        true,
    );
}

/// Before the first epoch cut there is no snapshot at all — the WAL
/// alone must carry recovery, and its header stamps (spec with seed,
/// dispatch geometry) are enforced exactly like the snapshot's.
#[test]
fn wal_replays_without_any_snapshot_and_enforces_stamps() {
    let s = stream(0x1C);
    let spec = conformance_spec(SketchFamily::CountSketch);
    let cfg = wal_config(s.len(), 3);
    let stop = 4 * cfg.chunk; // well short of the first cut
    assert!(stop < cfg.epoch as usize);

    let dir = TempDir::new("no-snap");
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    svc.persist_to(dir.store()).unwrap();
    svc.ingest(&s.updates[..stop]).unwrap();
    drop(svc);
    assert!(
        dir.store().epochs().unwrap().is_empty(),
        "no epoch completed, so no snapshot may exist"
    );

    // Wrong seed ⇒ the log's updates belong to different hash functions.
    let wrong_seed = spec.with_seed(spec.seed ^ 1);
    assert!(matches!(
        StreamService::recover(registry(), &wrong_seed, cfg, dir.store()),
        Err(ServiceError::Persist(PersistError::SpecMismatch { .. }))
    ));
    // Wrong dispatch geometry ⇒ replay would land cells on other workers.
    let wrong_cfg = cfg.with_chunk(cfg.chunk * 2);
    assert!(matches!(
        StreamService::recover(registry(), &spec, wrong_cfg, dir.store()),
        Err(ServiceError::Persist(PersistError::ConfigMismatch { .. }))
    ));
    // The refusal names the segment whose stamp it read, not a snapshot.
    let refused = StreamService::recover(registry(), &spec, wrong_cfg, dir.store()).unwrap_err();
    assert_eq!(
        refused.to_string(),
        format!(
            "persistence failed: wal-00000000.bdwal: config `{}` does not match `{}`",
            cfg.geometry_string(),
            wrong_cfg.geometry_string()
        )
    );
    // Durability knobs are *not* part of the stamp: the same log may be
    // reopened with a different fsync policy or retention.
    let relaxed = cfg.with_wal(WalPolicy::Epoch).with_retain(2);
    let rec = StreamService::recover(registry(), &spec, relaxed, dir.store()).unwrap();
    assert_eq!(rec.replay_from(), stop);
    drop(rec);

    // The true stamps replay the full dispatched prefix.
    let mut rec = StreamService::recover(registry(), &spec, cfg, dir.store()).unwrap();
    assert_eq!(rec.replay_from(), stop);
    assert_eq!(rec.epochs_cut(), 0);
    let mut got = rec.ingest(&s.updates[stop..]).unwrap();
    got.extend(rec.finish().unwrap());
    let mut seq = registry().build(&spec).unwrap();
    seq.update_batch(&s.updates);
    assert_probes_match(
        "snapshot-free recovery",
        &probe(seq.as_ref()),
        &probe(got.last().unwrap().sketch.as_ref()),
        true,
    );
}

/// The `epoch` fsync policy logs every cell too (it only relaxes *when*
/// the data must hit the platter); an in-process crash — where nothing
/// in the page cache is lost — therefore recovers exactly like `batch`.
#[test]
fn epoch_policy_smoke_recovers_in_process() {
    let s = stream(0x1D);
    let spec = conformance_spec(SketchFamily::Exact);
    let cfg = wal_config(s.len(), 3).with_wal(WalPolicy::Epoch);
    let stop = 11 * cfg.chunk;

    let dir = TempDir::new("epoch-policy");
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    svc.persist_to(dir.store()).unwrap();
    svc.ingest(&s.updates[..stop]).unwrap();
    drop(svc);

    let mut rec = StreamService::recover(registry(), &spec, cfg, dir.store()).unwrap();
    assert_eq!(rec.replay_from(), stop);
    let mut got = rec.ingest(&s.updates[stop..]).unwrap();
    got.extend(rec.finish().unwrap());
    let mut seq = registry().build(&spec).unwrap();
    seq.update_batch(&s.updates);
    assert_probes_match(
        "epoch-policy recovery",
        &probe(seq.as_ref()),
        &probe(got.last().unwrap().sketch.as_ref()),
        true,
    );
}

/// `retain=N` keeps the store bounded: after many cuts only the newest
/// `N` snapshot files remain, the newest is always the valid one
/// recovery resumes from, and `retain=0` (the default) keeps everything.
#[test]
fn retain_prunes_old_snapshots_but_never_the_newest() {
    let s = stream(0x1E);
    let spec = conformance_spec(SketchFamily::Exact);
    let cfg = ServiceConfig::default()
        .with_epoch((s.len() as u64) / 6) // six cuts
        .with_threads(2)
        .with_chunk(512)
        .with_wal(WalPolicy::Batch)
        .with_retain(2);
    let dir = TempDir::new("retain");
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    svc.persist_to(dir.store()).unwrap();
    let mut snaps = svc.ingest(&s.updates).unwrap();
    snaps.extend(svc.finish().unwrap());
    let cuts = snaps.last().unwrap().report.epoch;
    assert!(cuts >= 6);

    let epochs = dir.store().epochs().unwrap();
    assert_eq!(epochs.len(), 2, "retain=2 must leave two files: {epochs:?}");
    assert_eq!(*epochs.last().unwrap(), cuts, "the newest cut must survive");

    // And the survivor is the one recovery resumes from.
    let rec = StreamService::recover(registry(), &spec, cfg, dir.store()).unwrap();
    assert_eq!(rec.epochs_cut(), cuts);
    assert_eq!(rec.replay_from(), s.len());
}

/// The log never grows without bound: every persisted cut retires the
/// sealed segments it covers, so after a clean `finish` only the live
/// (empty) segment remains on disk, beside at most one spare.
#[test]
fn persisted_cuts_truncate_the_log() {
    let s = stream(0x1F);
    let spec = conformance_spec(SketchFamily::Exact);
    let cfg = wal_config(s.len(), 2);
    let dir = TempDir::new("truncate");
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    svc.persist_to(dir.store()).unwrap();
    svc.ingest(&s.updates).unwrap();
    svc.finish().unwrap();

    let segs = wal_segments(dir.store().dir()).unwrap();
    assert!(
        segs.len() <= 1,
        "sealed segments behind durable snapshots must be retired: {segs:?}"
    );
    for (_, path) in &segs {
        let scan = bd_stream::read_segment(path).unwrap();
        assert!(scan.records.is_empty(), "a covered record survived");
    }

    // Nothing left to replay: recovery resumes exactly at the end.
    let rec = StreamService::recover(registry(), &spec, cfg, dir.store()).unwrap();
    assert_eq!(rec.replay_from(), s.len());
}

/// A cleanly finished store whose live segment was recycled holds its
/// header and then the frames of the segment it overwrote. Recovery reads
/// them as leftovers, not damage: it resumes at the end of the stream and
/// cuts no file.
#[test]
fn recovery_reads_past_a_recycled_live_segment_cleanly() {
    let s = stream(0x62);
    let spec = conformance_spec(SketchFamily::Exact);
    let cfg = wal_config(s.len(), 2);
    let dir = TempDir::new("recycled-live");
    let store = dir.store();
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    svc.persist_to(store.clone()).unwrap();
    let log = FaultInjector::recorder();
    svc.arm_fault(Arc::clone(&log));
    // One cell per call, so each cut's save and truncation land before the
    // next cut's roll.
    for call in s.updates.chunks(cfg.chunk) {
        svc.ingest(call).unwrap();
    }
    svc.finish().unwrap();
    assert!(recycles(&log.ops()), "no recycled roll: {:?}", log.ops());

    let (_, live) = wal_segments(&dir.0).unwrap().pop().unwrap();
    let raw = std::fs::read(&live).unwrap();
    let header = 14 + u32::from_le_bytes(raw[6..10].try_into().unwrap()) as usize;
    assert!(raw.len() > header, "the live segment holds no leftover");
    let scan = bd_stream::read_segment(&live).unwrap();
    assert!(scan.records.is_empty() && scan.truncation.is_none());

    let seen = log.ops().len();
    let rec = StreamService::recover(registry(), &spec, cfg, store).unwrap();
    assert_eq!(rec.replay_from(), s.len());
    let ops = log.ops()[seen..].to_vec();
    assert!(
        !ops.contains(&DiskOp::SetLen),
        "recovery cut a file: {ops:?}"
    );
}

/// The durability protocol, operation by operation: one cell, one cut
/// (roll, new segment, snapshot save, log truncation, prune) and two
/// recovery repairs, as a never-firing injector logs them under each
/// logging policy (the table in `DESIGN.md §14`). The first cut creates
/// its new segment and retires the covered one into the spare; the second
/// recycles the spare as its new segment. An in-process crash cannot tell
/// a missing `fsync`, so only this pin stops a change from adding,
/// dropping or weakening a sync unseen.
#[test]
fn durability_ops_keep_their_order() {
    use DiskOp::*;
    let s = stream(0x0B5);
    let spec = conformance_spec(SketchFamily::Exact);
    for policy in [WalPolicy::Batch, WalPolicy::Epoch] {
        let batch = policy == WalPolicy::Batch;
        let chunk = 512;
        let cfg = ServiceConfig::default()
            .with_epoch(2 * chunk as u64)
            .with_threads(2)
            .with_chunk(chunk)
            .with_wal(policy)
            .with_retain(1);
        let dir = TempDir::new(&format!("ops-{policy}"));
        // The store's clones share its durability layer, so the recoveries
        // below write through the armed recorder too.
        let store = dir.store();
        let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
        svc.persist_to(store.clone()).unwrap();
        let log = FaultInjector::recorder();
        svc.arm_fault(Arc::clone(&log));
        let mut seen = 0;
        let mut next = || {
            let ops = log.ops();
            let new = ops[seen..].to_vec();
            seen = ops.len();
            new
        };
        let pick = |on: bool, ops: &[DiskOp]| if on { ops.to_vec() } else { Vec::new() };

        // One cell: written, and under `batch` fdatasynced.
        let cell = [vec![Write], pick(batch, &[SyncData])].concat();
        svc.ingest(&s.updates[..chunk]).unwrap();
        assert_eq!(next(), cell, "wal={policy}: cell");

        // The roll seals the segment with no trim: every segment here is
        // as long as the one it overwrites. The new segment is created, or
        // recycled from the spare (renamed, its header written over the
        // old one). The truncation renames the covered segment to the
        // spare. The first cut has no older snapshot to prune; the second
        // does.
        let roll = [vec![SyncData], pick(!batch, &[SyncDir])].concat();
        let durable = pick(batch, &[SyncAll, SyncDir]);
        let created = [&[Create, Write][..], &durable].concat();
        let recycled = [&[Rename, Write][..], &durable].concat();
        let save = vec![Create, Write, SyncAll, Rename, SyncDir];
        let truncation = vec![Rename, SyncDir];
        let prune = vec![Unlink, SyncDir];
        let cut = |segment: &[DiskOp], prune: &[DiskOp]| {
            [&cell[..], &roll, segment, &save, &truncation, prune].concat()
        };
        svc.ingest(&s.updates[chunk..2 * chunk]).unwrap();
        assert_eq!(next(), cut(&created, &[]), "wal={policy}: first cut");
        svc.ingest(&s.updates[2 * chunk..3 * chunk]).unwrap();
        assert_eq!(next(), cell, "wal={policy}: cell");
        svc.ingest(&s.updates[3 * chunk..4 * chunk]).unwrap();
        assert_eq!(
            next(),
            cut(&recycled, &prune),
            "wal={policy}: second cut with prune"
        );

        // A crash leaves a bit-flipped final record: recovery repairs the
        // segment in place, opens the next one (created: a new writer
        // never recycles a spare it finds), and retires the repaired
        // segment, which the persisted cut now covers, into the spare.
        svc.ingest(&s.updates[4 * chunk..5 * chunk]).unwrap();
        assert_eq!(next(), cell, "wal={policy}: cell");
        drop(svc);
        let (_, live) = wal_segments(&dir.0).unwrap().pop().unwrap();
        let mut raw = std::fs::read(&live).unwrap();
        // The live segment is recycled: its one record follows the header,
        // and the second record of the segment it overwrote, a leftover,
        // follows that.
        let header = 14 + u32::from_le_bytes(raw[6..10].try_into().unwrap()) as usize;
        let record = 8 + u32::from_le_bytes(raw[header..header + 4].try_into().unwrap()) as usize;
        assert_eq!(raw.len(), header + 2 * record, "wal={policy}: no leftover");
        let at = header + record - 6;
        raw[at] ^= 0x20;
        std::fs::write(&live, &raw).unwrap();
        let repair = [SetLen, SyncAll, SyncDir];
        let rec = StreamService::recover(registry(), &spec, cfg, store.clone()).unwrap();
        assert_eq!(rec.replay_from(), 4 * chunk);
        assert_eq!(
            next(),
            [&repair[..], &created, &truncation].concat(),
            "wal={policy}: recovery repair"
        );
        drop(rec);

        // A final segment torn during creation is unlinked, and the
        // unlink made durable.
        std::fs::write(dir.0.join("wal-00000009.bdwal"), b"BDW").unwrap();
        let rec = StreamService::recover(registry(), &spec, cfg, store.clone()).unwrap();
        assert_eq!(rec.replay_from(), 4 * chunk);
        assert_eq!(
            next(),
            [&[Unlink, SyncDir][..], &created, &truncation].concat(),
            "wal={policy}: torn final segment"
        );
    }
}

/// One `ingest` call that spans several cuts resolves each cut before the
/// next cut's roll, so the truncation that retires a segment into the
/// spare comes before the roll that recycles it. After a warm-up that
/// leaves a spare, under each logging policy, a call spanning four cuts
/// recycles the spare at every roll, creates no segment and unlinks
/// nothing (`retain=0`), and returns every cut's snapshot in cut order.
#[test]
fn a_call_spanning_many_cuts_recycles_every_segment() {
    use DiskOp::*;
    let s = stream(0x3C7);
    let spec = conformance_spec(SketchFamily::Exact);
    for policy in [WalPolicy::Batch, WalPolicy::Epoch] {
        let epoch = 1024;
        let cfg = ServiceConfig::default()
            .with_epoch(epoch as u64)
            .with_threads(2)
            .with_chunk(512)
            .with_wal(policy);
        let dir = TempDir::new(&format!("many-cuts-{policy}"));
        let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
        svc.persist_to(dir.store()).unwrap();
        // Two single-cut calls: the second leaves its covered segment as
        // the spare.
        svc.ingest(&s.updates[..epoch]).unwrap();
        svc.ingest(&s.updates[epoch..2 * epoch]).unwrap();

        let log = FaultInjector::recorder();
        svc.arm_fault(Arc::clone(&log));
        let cuts = 4;
        let snaps = svc
            .ingest(&s.updates[2 * epoch..(2 + cuts) * epoch])
            .unwrap();
        let stamps: Vec<(usize, usize)> = snaps
            .iter()
            .map(|sn| (sn.report.epoch, sn.report.total_updates))
            .collect();
        let want: Vec<(usize, usize)> = (3..3 + cuts).map(|e| (e, e * epoch)).collect();
        assert_eq!(stamps, want, "wal={policy}: snapshots out of cut order");

        let ops = log.ops();
        let count = |kind: DiskOp| ops.iter().filter(|&&op| op == kind).count();
        // Each cut's snapshot save creates its temporary file; nothing
        // else is created.
        assert_eq!(count(Create), cuts, "wal={policy}: {ops:?}");
        assert_eq!(count(Unlink), 0, "wal={policy}: {ops:?}");
        let recycled = ops.windows(2).filter(|w| *w == [Rename, Write]).count();
        assert_eq!(recycled, cuts, "wal={policy}: {ops:?}");
        svc.finish().unwrap();
    }
}

/// A WAL segment of another format version was written by another build:
/// recovery stops with `UnsupportedVersion` and touches no file, instead
/// of treating the segment as a torn creation, deleting it and resuming
/// at the older snapshot.
#[test]
fn recovery_refuses_a_foreign_wal_version() {
    let s = stream(0x5F);
    let spec = conformance_spec(SketchFamily::Exact);
    let cfg = wal_config(s.len(), 2);
    let dir = TempDir::new("wal-version");
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    svc.persist_to(dir.store()).unwrap();
    svc.ingest(&s.updates[..11 * cfg.chunk]).unwrap(); // past the first cut
    drop(svc);

    // Re-stamp the live segment's header with the next version and a
    // valid checksum.
    let (_, live) = wal_segments(&dir.0).unwrap().pop().unwrap();
    let mut raw = std::fs::read(&live).unwrap();
    let foreign = WAL_VERSION + 1;
    raw[4..6].copy_from_slice(&foreign.to_le_bytes());
    let sealed = 10 + u32::from_le_bytes(raw[6..10].try_into().unwrap()) as usize;
    let crc = bd_stream::persist::crc32c(&raw[..sealed]);
    raw[sealed..sealed + 4].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&live, &raw).unwrap();
    let before = listing(&dir.0);

    let got = StreamService::recover(registry(), &spec, cfg, dir.store());
    assert!(
        matches!(
            got,
            Err(ServiceError::Persist(PersistError::UnsupportedVersion(v))) if v == foreign
        ),
        "{got:?}"
    );
    assert_eq!(listing(&dir.0), before, "recovery changed the store");
}

/// A WAL segment this process cannot read is refused like one of another
/// format version: recovery stops with `Io` and touches no file, instead
/// of replaying around the segment or deleting it.
#[test]
fn recovery_refuses_an_unreadable_wal_segment() {
    let s = stream(0x60);
    let spec = conformance_spec(SketchFamily::Exact);
    let cfg = wal_config(s.len(), 2);
    let dir = TempDir::new("wal-unreadable");
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    svc.persist_to(dir.store()).unwrap();
    svc.ingest(&s.updates[..11 * cfg.chunk]).unwrap(); // past the first cut
    drop(svc);

    // A directory named like the next segment.
    let (seq, _) = wal_segments(&dir.0).unwrap().pop().unwrap();
    std::fs::create_dir(dir.0.join(format!("wal-{:08}.bdwal", seq + 1))).unwrap();
    let before = listing(&dir.0);

    let got = StreamService::recover(registry(), &spec, cfg, dir.store());
    assert!(
        matches!(got, Err(ServiceError::Persist(PersistError::Io(_)))),
        "{got:?}"
    );
    assert_eq!(listing(&dir.0), before, "recovery changed the store");
}
