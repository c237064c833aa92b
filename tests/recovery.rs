//! Crash-recovery conformance for snapshot persistence: the tentpole law
//! **persist → restart → replay-tail ≡ uninterrupted**.
//!
//! A `StreamService` with a `SnapshotStore` attached writes every scheduled
//! epoch cut durably to disk. These suites kill the service mid-epoch — by
//! dropping it without `finish` and by panicking a worker with a poison
//! test double — then cold-start a second service from the store
//! (`StreamService::recover`), replay only the stream tail after the
//! recovered snapshot's offered-stream stamp, and pin the continuation
//! against an uninterrupted run over the same stream: bit-identical where
//! the family claims `merge_bitwise`, estimate-equal otherwise — the same
//! per-family contract as `tests/service.rs`, extended across a restart
//! (`DESIGN.md §13`). Like the other registry-driven suites, the family
//! loop iterates `registry().families()` with no hand-maintained list, and
//! CI re-runs it under the `BD_SHARD_THREADS` matrix.
//!
//! Dispatch is deterministic: a full worker queue blocks the producer and
//! never sheds a cell, so the queue depth changes only *when* cells are
//! dispatched, and a restart may change it.

mod common;

use bd_stream::{
    Capabilities, FamilyInfo, PersistError, Registry, ServiceConfig, ServiceError, SnapshotStore,
    StreamService, PERSIST_VERSION,
};
use bounded_deletions::prelude::*;
use common::{assert_probes_match, conformance_spec, listing, probe, stream};
use std::time::{Duration, Instant};

/// The worker counts under test: a fixed sweep plus an optional
/// `BD_SHARD_THREADS` entry (the CI thread-matrix knob).
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 3];
    if let Some(extra) = std::env::var("BD_SHARD_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if extra >= 1 && !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

/// Service shape shared with `tests/service.rs`: epoch = a third of the
/// stream, fine dispatch chunks.
fn service_config(stream_len: usize, threads: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_epoch((stream_len as u64) / 3)
        .with_threads(threads)
        .with_chunk(512)
}

/// A self-cleaning snapshot directory under the OS temp dir.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("bd-recovery-{tag}-{}", std::process::id()));
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

/// The acceptance law: for every mergeable family, run-to-epoch-k →
/// crash mid-epoch → recover → replay tail produces, at every subsequent
/// epoch, the same snapshot the uninterrupted run produced.
#[test]
fn recovery_matches_uninterrupted_for_every_mergeable_family() {
    let s = stream(0x7C);
    // Past the first epoch cut (len/3), short of the second (2·len/3):
    // the crash loses a partially-ingested epoch, the recovery replays it.
    let stop = s.len() * 5 / 9;
    let mut covered = Vec::new();
    for info in registry().families() {
        if !info.caps.mergeable {
            continue;
        }
        covered.push(info.family.name());
        let spec = conformance_spec(info.family);
        for threads in thread_counts() {
            let cfg = service_config(s.len(), threads);
            let name = format!("{} (threads = {threads})", info.family);

            // The uninterrupted reference run.
            let mut un = StreamService::start(registry(), &spec, cfg).unwrap();
            let mut want = un.ingest(&s.updates).unwrap();
            want.extend(un.finish().unwrap());

            // The interrupted run: persist scheduled cuts, then crash
            // mid-epoch (dropped without `finish` — the partial epoch and
            // everything in the worker queues is lost).
            let dir = TempDir::new(&format!("{}-{threads}", info.family.name()));
            let mut first = StreamService::start(registry(), &spec, cfg).unwrap();
            first.persist_to(dir.store()).unwrap();
            first.ingest(&s.updates[..stop]).unwrap();
            drop(first);

            // Cold-start from disk and replay only the tail.
            let mut rec = StreamService::recover(registry(), &spec, cfg, dir.store())
                .unwrap_or_else(|e| panic!("{name}: recovery failed: {e}"));
            let from = rec.replay_from();
            assert_eq!(
                from, cfg.epoch as usize,
                "{name}: recovery must resume at the last persisted epoch boundary"
            );
            assert!(
                rec.latest().is_some(),
                "{name}: the recovered snapshot must be served immediately"
            );
            assert_eq!(rec.epochs_cut(), 1, "{name}: epoch counter not restored");
            let mut got = rec.ingest(&s.updates[from..]).unwrap();
            got.extend(rec.finish().unwrap());
            assert!(
                got.len() >= 2,
                "{name}: expected ≥2 post-recovery epochs, got {}",
                got.len()
            );

            // Every post-recovery snapshot ≡ the uninterrupted run's
            // snapshot of the same epoch.
            for g in &got {
                let w = want
                    .iter()
                    .find(|w| w.report.epoch == g.report.epoch)
                    .unwrap_or_else(|| panic!("{name}: unmatched epoch {}", g.report.epoch));
                assert_eq!(g.report.total_updates, w.report.total_updates, "{name}");
                assert_eq!(g.report.total_inserted, w.report.total_inserted, "{name}");
                assert_eq!(g.report.total_deleted, w.report.total_deleted, "{name}");
                assert_probes_match(
                    &format!("{name} (epoch {})", g.report.epoch),
                    &probe(w.sketch.as_ref()),
                    &probe(g.sketch.as_ref()),
                    info.caps.merge_bitwise,
                );
            }
            let last = got.last().unwrap().report;
            assert_eq!(last.total_updates, s.len(), "{name}: lost updates");
            assert_eq!(last.total_mass(), s.total_mass(), "{name}: lost mass");
            assert_eq!(last.epoch, want.last().unwrap().report.epoch, "{name}");
        }
    }
    assert!(
        covered.len() >= 20,
        "mergeable catalog shrank unexpectedly: {covered:?}"
    );
}

/// Recovery falls back across torn/corrupt files: flipping a bit in the
/// newest snapshot makes `recover` resume from the previous epoch, and it
/// still reaches the same final state after replaying the (longer) tail.
#[test]
fn recovery_falls_back_past_a_corrupt_newest_snapshot() {
    let s = stream(0x7C);
    let spec = conformance_spec(SketchFamily::Exact);
    let cfg = service_config(s.len(), 3);
    let dir = TempDir::new("fallback");
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    svc.persist_to(dir.store()).unwrap();
    svc.ingest(&s.updates[..s.len() * 7 / 9]).unwrap(); // epochs 1 and 2 persisted
    drop(svc);

    // A torn final write: corrupt epoch 2's file in place.
    let store = dir.store();
    let newest = store.path_for(2);
    let mut raw = std::fs::read(&newest).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0x40;
    std::fs::write(&newest, &raw).unwrap();

    let mut rec = StreamService::recover(registry(), &spec, cfg, store).unwrap();
    assert_eq!(rec.epochs_cut(), 1, "must fall back to epoch 1");
    assert_eq!(rec.replay_from(), cfg.epoch as usize);
    let mut snaps = rec.ingest(&s.updates[rec.replay_from()..]).unwrap();
    snaps.extend(rec.finish().unwrap());
    let mut seq = registry().build(&spec).unwrap();
    seq.update_batch(&s.updates);
    assert_probes_match(
        "fallback final snapshot",
        &probe(seq.as_ref()),
        &probe(snaps.last().unwrap().sketch.as_ref()),
        true,
    );
}

/// Wrong-seed, wrong-shape, and wrong-geometry recovery attempts are all
/// typed errors — the stamps, not the caller, are the source of truth.
#[test]
fn recovery_rejects_mismatched_stamps_with_typed_errors() {
    let s = stream(0x31);
    let spec = conformance_spec(SketchFamily::CountSketch);
    let cfg = service_config(s.len(), 3);
    let dir = TempDir::new("stamps");
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    svc.persist_to(dir.store()).unwrap();
    svc.ingest(&s.updates).unwrap();
    svc.finish().unwrap();

    // Wrong seed: the spec string embeds the seed, so this is a spec
    // mismatch — the snapshot's hash functions would not be the caller's.
    let wrong_seed = spec.with_seed(spec.seed ^ 1);
    assert!(matches!(
        StreamService::recover(registry(), &wrong_seed, cfg, dir.store()),
        Err(ServiceError::Persist(PersistError::SpecMismatch { .. }))
    ));
    // Wrong shape (different ε ⇒ different table geometry).
    let wrong_shape = spec.with_epsilon(0.11);
    assert!(matches!(
        StreamService::recover(registry(), &wrong_shape, cfg, dir.store()),
        Err(ServiceError::Persist(PersistError::SpecMismatch { .. }))
    ));
    // Wrong dispatch geometry: replay would interleave differently.
    let wrong_cfg = cfg.with_chunk(cfg.chunk * 2);
    assert!(matches!(
        StreamService::recover(registry(), &spec, wrong_cfg, dir.store()),
        Err(ServiceError::Persist(PersistError::ConfigMismatch { .. }))
    ));
    // The true stamps still recover.
    let rec = StreamService::recover(registry(), &spec, cfg, dir.store()).unwrap();
    assert!(rec.replay_from() > 0);
}

/// A snapshot of another format version stops recovery with a typed
/// error instead of being skipped: falling back to an older epoch (or to
/// an empty store) would let this build overwrite the other build's
/// epochs and truncate its log.
#[test]
fn recovery_refuses_a_foreign_format_version() {
    let s = stream(0x5E);
    let spec = conformance_spec(SketchFamily::Exact);
    let cfg = service_config(s.len(), 1);
    let dir = TempDir::new("version");
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    svc.persist_to(dir.store()).unwrap();
    svc.ingest(&s.updates[..s.len() * 7 / 9]).unwrap(); // epochs 1 and 2 persisted
    drop(svc);

    let store = dir.store();
    assert_eq!(store.epochs().unwrap(), vec![1, 2]);
    let newest = store.path_for(2);
    let mut raw = std::fs::read(&newest).unwrap();
    raw[4..6].copy_from_slice(&(PERSIST_VERSION - 1).to_le_bytes());
    std::fs::write(&newest, &raw).unwrap();

    assert!(matches!(
        StreamService::recover(registry(), &spec, cfg, store),
        Err(ServiceError::Persist(PersistError::UnsupportedVersion(v))) if v == PERSIST_VERSION - 1
    ));
}

/// A snapshot this process cannot read stops recovery with `Io` instead
/// of being skipped like a torn file: resuming at the older epoch would
/// start behind the log's truncation horizon, and later cuts would
/// overwrite the unreadable epoch's name. No file is touched.
#[test]
fn recovery_refuses_an_unreadable_snapshot() {
    let s = stream(0x5D);
    let spec = conformance_spec(SketchFamily::Exact);
    let cfg = ServiceConfig::default()
        .with_epoch(1000)
        .with_threads(1)
        .with_chunk(500);
    let dir = TempDir::new("unreadable");
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    svc.persist_to(dir.store()).unwrap();
    svc.ingest(&s.updates[..3000]).unwrap();
    drop(svc);

    let store = dir.store();
    assert_eq!(store.epochs().unwrap(), vec![1, 2, 3]);
    let newest = store.path_for(3);
    std::fs::remove_file(&newest).unwrap();
    std::fs::create_dir(&newest).unwrap();
    let before = listing(&dir.0);

    let got = StreamService::recover(registry(), &spec, cfg, store);
    assert!(
        matches!(got, Err(ServiceError::Persist(PersistError::Io(_)))),
        "{got:?}"
    );
    assert_eq!(listing(&dir.0), before, "recovery changed the store");
}

/// The queue depth is not part of the durable stamps: a persisted run
/// (snapshots and a `batch` log) crashed at depth 64 recovers at depth 2
/// and ends in the uninterrupted depth-64 run's state — bit-identical for
/// `exact`, estimate-equal for `alpha_hh`.
#[test]
fn recovery_may_change_the_queue_depth() {
    let s = stream(0x64);
    let stop = s.len() * 5 / 9;
    for (family, bitwise) in [(SketchFamily::Exact, true), (SketchFamily::AlphaHh, false)] {
        let spec = conformance_spec(family);
        let cfg = service_config(s.len(), 3)
            .with_depth(64)
            .with_wal(WalPolicy::Batch);

        let mut un = StreamService::start(registry(), &spec, cfg).unwrap();
        let mut want = un.ingest(&s.updates).unwrap();
        want.extend(un.finish().unwrap());

        let dir = TempDir::new(&format!("depth-{}", family.name()));
        let mut first = StreamService::start(registry(), &spec, cfg).unwrap();
        first.persist_to(dir.store()).unwrap();
        first.ingest(&s.updates[..stop]).unwrap();
        drop(first);

        let shallow = cfg.with_depth(2);
        let mut rec = StreamService::recover(registry(), &spec, shallow, dir.store())
            .unwrap_or_else(|e| panic!("{family}: recovery at depth 2 failed: {e}"));
        let from = rec.replay_from();
        assert!(
            from > cfg.epoch as usize,
            "{family}: the log tail was not replayed"
        );
        let mut got = rec.ingest(&s.updates[from..]).unwrap();
        got.extend(rec.finish().unwrap());
        assert!(got.len() >= 2, "{family}: expected ≥2 post-recovery epochs");
        for g in &got {
            let w = want
                .iter()
                .find(|w| w.report.epoch == g.report.epoch)
                .unwrap_or_else(|| panic!("{family}: unmatched epoch {}", g.report.epoch));
            assert_eq!(g.report.total_updates, w.report.total_updates, "{family}");
            assert_probes_match(
                &format!("{family} at depth 2 (epoch {})", g.report.epoch),
                &probe(w.sketch.as_ref()),
                &probe(g.sketch.as_ref()),
                bitwise,
            );
        }
        assert_eq!(got.last().unwrap().report.total_updates, s.len());
    }
}

/// An empty store is a fresh start, not an error — and the service then
/// persists into it, so the *next* recovery finds snapshots.
#[test]
fn empty_store_recovers_to_a_fresh_start() {
    let s = stream(0x44);
    let spec = conformance_spec(SketchFamily::Exact);
    let cfg = service_config(s.len(), 1);
    let dir = TempDir::new("empty");
    let mut svc = StreamService::recover(registry(), &spec, cfg, dir.store()).unwrap();
    assert_eq!(svc.replay_from(), 0);
    assert_eq!(svc.epochs_cut(), 0);
    svc.ingest(&s.updates).unwrap();
    svc.finish().unwrap();
    let rec = StreamService::recover(registry(), &spec, cfg, dir.store()).unwrap();
    assert!(rec.replay_from() > 0, "second boot must find the snapshots");
}

/// Item that [`PanickySketch`] refuses to ingest, killing its worker.
const POISON: u64 = 0xDEAD;

/// A persistable test double whose worker dies mid-stream: the crash is a
/// *panic inside a worker thread*, not a clean drop — the closest
/// in-process stand-in for a real kill.
#[derive(Clone)]
struct PanickySketch(FrequencyVector);

impl SpaceUsage for PanickySketch {
    fn space(&self) -> SpaceReport {
        self.0.space()
    }
}

impl Sketch for PanickySketch {
    fn update(&mut self, item: Item, delta: i64) {
        assert_ne!(item, POISON, "poison pill ingested");
        Sketch::update(&mut self.0, item, delta);
    }
}

impl PointQuery for PanickySketch {
    fn point(&self, item: Item) -> f64 {
        self.0.point(item)
    }
}

impl Mergeable for PanickySketch {
    fn merge_from(&mut self, other: &Self) {
        self.0.merge_from(&other.0);
    }
}

impl SketchState for PanickySketch {
    fn save_state(&self, w: &mut StateWriter) {
        self.0.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.0.load_state(r)
    }
}

bd_stream::impl_dyn_sketch!(PanickySketch, point, merge, persist);

fn panicky_registry() -> Registry {
    let mut reg = Registry::new();
    reg.register(
        FamilyInfo {
            family: SketchFamily::Exact,
            summary: "panics on the poison item (crash-recovery test double)",
            caps: Capabilities {
                merge_bitwise: true,
                batch_bitwise: true,
                linear: true,
                ..Default::default()
            },
            space: "O(n)",
        },
        |spec| Box::new(PanickySketch(FrequencyVector::new(spec.n))),
    );
    reg
}

/// Crash injection via a panicking worker: epochs persisted before the
/// panic survive, the poisoned partial epoch does not, and a recovered
/// service replaying the intended tail ends bit-identical to a sequential
/// run of the whole intended stream.
#[test]
fn panicking_worker_crash_recovers_from_disk() {
    let reg = panicky_registry();
    let spec = SketchSpec::new(SketchFamily::Exact)
        .with_n(1 << 10)
        .with_seed(9);
    let cfg = ServiceConfig::default()
        .with_epoch(200)
        .with_threads(3)
        .with_chunk(32)
        .with_depth(4);
    let intended: Vec<Update> = (0..1000u64)
        .map(|t| Update::new(t % 97, if t % 5 == 0 { -1 } else { 2 }))
        .collect();

    let dir = TempDir::new("panic");
    let mut svc = StreamService::recover(&reg, &spec, cfg, dir.store()).unwrap();
    // Three clean epochs persisted (200 each), 100 updates in flight.
    svc.ingest(&intended[..700]).unwrap();

    // The worker owning the next dispatch cell swallows the poison and
    // panics; the dispatcher surfaces it as the typed error on a later
    // send. Nothing poisoned is ever persisted — the snapshot command
    // behind the poison batch is never answered.
    let mut batch = vec![Update::insert(1, 1); cfg.chunk];
    batch[0] = Update::insert(POISON, 1);
    let deadline = Instant::now() + Duration::from_secs(5);
    let died = loop {
        match svc.ingest(&batch) {
            Ok(_) => {
                batch.fill(Update::insert(1, 1)); // only poison once
                assert!(
                    Instant::now() < deadline,
                    "worker death never surfaced as an error"
                );
            }
            Err(e) => break e,
        }
    };
    assert!(matches!(died, ServiceError::WorkerDied { .. }));
    drop(svc);

    // Recovery resumes at the last *clean* epoch boundary…
    let mut rec = StreamService::recover(&reg, &spec, cfg, dir.store()).unwrap();
    assert_eq!(rec.replay_from(), 600);
    assert_eq!(rec.epochs_cut(), 3);
    // …and replaying the intended tail reaches the intended final state.
    let mut snaps = rec.ingest(&intended[600..]).unwrap();
    snaps.extend(rec.finish().unwrap());
    let last = snaps.last().unwrap();
    assert_eq!(last.report.total_updates, intended.len());
    let mut seq = reg.build(&spec).unwrap();
    seq.update_batch(&intended);
    assert_probes_match(
        "post-panic recovery",
        &probe(seq.as_ref()),
        &probe(last.sketch.as_ref()),
        true,
    );
}
