//! Write-ahead-log conformance: the tentpole law **crash anywhere →
//! recover ≡ uninterrupted**, now at *dispatch* granularity instead of
//! epoch granularity.
//!
//! The dispatch thread writes every dispatched cell to the log before
//! `ingest` returns, under every fsync policy: `wal=batch` also fsyncs it,
//! `wal=epoch` leaves it in the page cache until the cut. Either way a
//! service fed from a non-replayable source (a live channel with no
//! `ingest(&slice)` to re-offer) that dies in-process loses at most the
//! one cell in flight, and a failed append fails the `ingest` call that
//! dispatched the cell. These suites crash a persisted service, under
//! both policies, at every injectable fault point (`bd_stream::fault`:
//! die before an append, die mid-append, die after the append but before
//! the covering snapshot, and the adversarial torn-final-record),
//! cold-start a second service (`StreamService::recover` = newest
//! snapshot + WAL tail replay), feed the remaining source from
//! [`StreamService::replay_from`], and pin the continuation against an
//! uninterrupted run: bit-identical where the family claims
//! `merge_bitwise`, estimate-equal otherwise — the same per-family
//! contract as `tests/recovery.rs`, tightened from epoch cuts down to
//! single appends (`DESIGN.md §14`).
//!
//! Torn or bit-flipped WAL tails are always *total*: the damaged frame
//! ends the replayable chain with a physical truncation repair, never a
//! panic. The `BD_FAULT` env knob (`before-append` / `mid-append` /
//! `after-append` / `torn-tail`) restricts the sweep to one crash point;
//! CI re-runs the suite under the `BD_SHARD_THREADS` matrix.

mod common;

use bd_stream::fault::{FaultInjector, FaultPlan, FaultPoint, ALL_POINTS};
use bd_stream::{
    wal_segments, Capabilities, FamilyInfo, PersistError, Registry, ServiceConfig, ServiceError,
    SnapshotStore, SpaceInputs, StreamService,
};
use bounded_deletions::prelude::*;
use common::{assert_probes_match, conformance_spec, probe, stream};

/// Worker count under test: the CI matrix knob, defaulting to the
/// contended shape (the fixed [1, 3] sweep is covered by the matrix).
fn threads() -> usize {
    std::env::var("BD_SHARD_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(3)
}

/// The crash points under sweep: all four, or the one `BD_FAULT` names.
fn fault_points() -> Vec<FaultPoint> {
    match std::env::var("BD_FAULT") {
        Ok(v) => vec![v.parse().expect("BD_FAULT must name a fault point")],
        Err(_) => ALL_POINTS.to_vec(),
    }
}

/// Service shape shared with `tests/recovery.rs`, plus the per-batch
/// fsync policy (the crash sweep also runs every case under `epoch`).
fn wal_config(stream_len: usize, threads: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_epoch((stream_len as u64) / 3)
        .with_threads(threads)
        .with_chunk(512)
        .with_wal(WalPolicy::Batch)
}

/// A self-cleaning snapshot+WAL directory under the OS temp dir.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bd-wal-{tag}-{}", std::process::id()));
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

/// The acceptance law: for every persistable mergeable family, every
/// injectable crash point, and both logging policies, a service persisted
/// under `wal=batch` or `wal=epoch` that dies mid-epoch — after a clean
/// first epoch, so the crash exercises the snapshot + WAL-tail interplay
/// — recovers and, fed the remaining source from `replay_from()`, ends in
/// the state the uninterrupted run reached.
#[test]
fn crash_at_every_fault_point_recovers_for_every_mergeable_family() {
    let s = stream(0xA1);
    let threads = threads();
    let points = fault_points();
    let mut covered = Vec::new();
    for info in registry().families() {
        if !(info.caps.mergeable && info.caps.persist) {
            continue;
        }
        covered.push(info.family.name());
        let spec = conformance_spec(info.family);
        let cfg = wal_config(s.len(), threads);

        // The uninterrupted reference run (no store: the WAL only opens
        // when persistence is attached, and `wal=` is not part of the
        // dispatch geometry, so the runs are comparable).
        let mut un = StreamService::start(registry(), &spec, cfg).unwrap();
        let mut want = un.ingest(&s.updates).unwrap();
        want.extend(un.finish().unwrap());
        let want_last = want.last().unwrap();

        for point in &points {
            for policy in [WalPolicy::Batch, WalPolicy::Epoch] {
                let cfg = cfg.with_wal(policy);
                let name = format!(
                    "{} (threads = {threads}, fault = {point}, wal = {policy})",
                    info.family
                );
                let dir = TempDir::new(&format!(
                    "{}-{threads}-{point}-{policy}",
                    info.family.name()
                ));

                // A clean first stretch — epoch 1 persisted, its WAL segment
                // truncated — then the armed crash a few appends later.
                let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
                svc.persist_to(dir.store()).unwrap();
                let stop = s.len() * 5 / 9;
                svc.ingest(&s.updates[..stop]).unwrap();
                svc.arm_fault(FaultInjector::arm(FaultPlan {
                    point: *point,
                    after_appends: 3,
                }));
                let died = svc
                    .ingest(&s.updates[stop..])
                    .expect_err("the armed fault must surface as an ingest error");
                assert!(
                    matches!(died, ServiceError::Persist(PersistError::FaultInjected(_))),
                    "{name}: wrong crash error: {died}"
                );
                drop(svc); // the process is gone; only the durable state survives

                // Cold-start: newest snapshot + WAL tail replay. The resume
                // point must lie beyond the snapshot cut — the WAL carried
                // dispatched cells the epoch-granular store never saw.
                let mut rec = StreamService::recover(registry(), &spec, cfg, dir.store())
                    .unwrap_or_else(|e| panic!("{name}: recovery failed: {e}"));
                let from = rec.replay_from();
                assert!(
                    from > cfg.epoch as usize,
                    "{name}: resume point {from} not beyond the snapshot cut {}",
                    cfg.epoch
                );
                assert!(
                    from <= stop + 4 * cfg.chunk,
                    "{name}: resume point {from} claims updates never offered"
                );
                assert!(rec.latest().is_some(), "{name}: nothing served on boot");

                // Feed the rest of the source and pin the final state.
                let mut got = rec.ingest(&s.updates[from..]).unwrap();
                got.extend(rec.finish().unwrap());
                let g = got.last().unwrap();
                assert_eq!(g.report.epoch, want_last.report.epoch, "{name}");
                assert_eq!(g.report.total_updates, s.len(), "{name}: lost updates");
                assert_eq!(
                    g.report.total_inserted, want_last.report.total_inserted,
                    "{name}"
                );
                assert_eq!(
                    g.report.total_deleted, want_last.report.total_deleted,
                    "{name}"
                );
                assert_probes_match(
                    &name,
                    &probe(want_last.sketch.as_ref()),
                    &probe(g.sketch.as_ref()),
                    info.caps.merge_bitwise,
                );
            }
        }
    }
    assert!(
        covered.len() >= 20,
        "persistable mergeable catalog shrank unexpectedly: {covered:?}"
    );
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
        svc.arm_fault(FaultInjector::arm(FaultPlan {
            point: FaultPoint::BeforeAppend,
            after_appends: 0,
        }));
        // Exactly one grid cell: the call dispatches it and logs it.
        let got = svc.ingest(&s.updates[..cfg.chunk]);
        assert!(
            matches!(
                got,
                Err(ServiceError::Persist(PersistError::FaultInjected(_)))
            ),
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

/// A deliberately slow *persistable* test double, so a tiny
/// `drop`-policy queue overflows while every shed cell still reaches the
/// log (as a count + mass marker, keeping the offered cursor exact).
#[derive(Clone)]
struct SlowDurableSketch(FrequencyVector);

impl SpaceUsage for SlowDurableSketch {
    fn space(&self) -> SpaceReport {
        self.0.space()
    }
}

impl Sketch for SlowDurableSketch {
    fn update(&mut self, item: Item, delta: i64) {
        Sketch::update(&mut self.0, item, delta);
    }
    fn update_batch(&mut self, batch: &[Update]) {
        std::thread::sleep(std::time::Duration::from_micros(1500));
        Sketch::update_batch(&mut self.0, batch);
    }
}

impl PointQuery for SlowDurableSketch {
    fn point(&self, item: Item) -> f64 {
        self.0.point(item)
    }
}

impl Mergeable for SlowDurableSketch {
    fn merge_from(&mut self, other: &Self) {
        self.0.merge_from(&other.0);
    }
}

impl SketchState for SlowDurableSketch {
    fn save_state(&self, w: &mut StateWriter) {
        self.0.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.0.load_state(r)
    }
}

bd_stream::impl_dyn_sketch!(SlowDurableSketch, point, merge, persist);

/// A fresh registry serving [`SlowDurableSketch`] under the `exact`
/// family name.
fn slow_registry() -> Registry {
    let mut reg = Registry::new();
    reg.register(
        FamilyInfo {
            family: SketchFamily::Exact,
            summary: "deliberately slow durable exact vector (overload + WAL double)",
            caps: Capabilities {
                point: true,
                mergeable: true,
                merge_bitwise: true,
                batch_bitwise: true,
                linear: true,
                persist: true,
                ..Default::default()
            },
            inputs: SpaceInputs {
                n: true,
                ..Default::default()
            },
            space: "O(n)",
            type_name: std::any::type_name::<SlowDurableSketch>(),
        },
        |spec| Box::new(SlowDurableSketch(FrequencyVector::new(spec.n))),
    );
    reg
}

/// Drop-policy accounting survives a restart: shed cells are logged as
/// count+mass markers, so after a crash and recovery the reconciliation
/// `offered = ingested + dropped` (in updates and in mass) still closes
/// exactly over the *whole* stream — nothing offered is counted twice,
/// nothing shed is forgotten.
#[test]
fn drop_policy_accounting_reconciles_across_restart() {
    let s = stream(0xD1);
    let reg = slow_registry();
    let spec = SketchSpec::new(SketchFamily::Exact)
        .with_n(1 << 10)
        .with_alpha(3.0);
    // `epoch` fsync policy: a per-cell fsync (`batch`) would throttle the
    // producer into never overflowing the tiny queue — the shed cells this
    // test needs logged. The log contents are identical either way.
    let cfg = ServiceConfig::default()
        .with_epoch(512)
        .with_threads(2)
        .with_chunk(64)
        .with_depth(1)
        .with_overflow(OverflowPolicy::Drop)
        .with_wal(WalPolicy::Epoch);

    let dir = TempDir::new("drop");
    let stop = s.len() * 3 / 5;
    let mut svc = StreamService::start(&reg, &spec, cfg).unwrap();
    svc.persist_to(dir.store()).unwrap();
    let snaps = svc.ingest(&s.updates[..stop]).unwrap();
    let pre = snaps.last().unwrap().report;
    assert!(
        pre.total_dropped_updates > 0,
        "queue never overflowed — the slow sketch is not slow enough"
    );
    drop(svc);

    // Recovery replays ingested cells as ingested and shed cells as
    // shed: the logged outcome is replayed, never re-decided, so the
    // cursor and both sides of the ledger line up exactly.
    let mut rec = StreamService::recover(&reg, &spec, cfg, dir.store()).unwrap();
    let from = rec.replay_from();
    assert!(from >= pre.total_offered_updates() && from <= stop);
    let mut got = rec.ingest(&s.updates[from..]).unwrap();
    got.extend(rec.finish().unwrap());

    let last = got.last().unwrap().report;
    assert_eq!(
        last.total_updates + last.total_dropped_updates,
        s.len(),
        "offered = ingested + dropped must close over the restart"
    );
    assert_eq!(last.total_offered_updates(), s.len());
    assert_eq!(last.total_mass() + last.total_dropped_mass, s.total_mass());
    assert!(
        last.total_dropped_updates >= pre.total_dropped_updates,
        "pre-crash sheds vanished from the ledger"
    );

    // The sketch state agrees with the ledger's ingested side.
    let p = got
        .last()
        .unwrap()
        .sketch
        .as_point()
        .expect("SlowDurableSketch answers point queries");
    let net: f64 = (0..1 << 10).map(|i| p.point(i)).sum();
    assert_eq!(
        net as i64,
        last.total_inserted as i64 - last.total_deleted as i64
    );
}

/// The log never grows without bound: every persisted cut deletes the
/// sealed segments it covers, so after a clean `finish` only the live
/// (empty) segment remains on disk.
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
        "sealed segments behind durable snapshots must be deleted: {segs:?}"
    );
    for (_, path) in &segs {
        let scan = bd_stream::read_segment(path).unwrap();
        assert!(scan.records.is_empty(), "a covered record survived");
    }

    // Nothing left to replay: recovery resumes exactly at the end.
    let rec = StreamService::recover(registry(), &spec, cfg, dir.store()).unwrap();
    assert_eq!(rec.replay_from(), s.len());
}
