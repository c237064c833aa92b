//! Snapshot ≡ replay conformance for the `StreamService` epoch-snapshot
//! serving engine.
//!
//! For **every** family whose registry descriptor reports `mergeable` (the
//! suite iterates `registry().families()` — no hand-maintained list), a
//! `StreamService` run over the shared workload must emit, at every epoch
//! cut, a snapshot that agrees with a sequential one-shot `StreamRunner`
//! pass over the same stream *prefix*: bit-for-bit where the family claims
//! `merge_bitwise`, estimate-equal (within the float-association tolerance)
//! otherwise — the per-family merge contract of `DESIGN.md §7`, checked on
//! a ladder of epoch prefixes (`DESIGN.md §8`). A one-shot parallel run is
//! the one-epoch case of the same law. CI re-runs this suite with the
//! `BD_SHARD_THREADS` knob set to 2 and 8 so thread-count-dependent bugs
//! surface there too.

mod common;

use bd_stream::{
    merge_tree, Capabilities, FamilyInfo, RegistryError, ServiceConfig, Snapshot, SpaceInputs,
    StreamService,
};
use bounded_deletions::prelude::*;
use common::{assert_probes_match, conformance_spec, probe, stream};
use std::sync::Arc;

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

/// Service shape used across the suite: epoch = a third of the stream (so
/// every run cuts ≥ 3 scheduled epochs), fine dispatch chunks (so batches
/// interleave across workers well below epoch granularity).
fn service_config(stream_len: usize, threads: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_epoch((stream_len as u64) / 3)
        .with_threads(threads)
        .with_chunk(512)
}

/// Drive a full service run over the stream: scheduled snapshots plus the
/// final (partial-epoch) cut from `finish`.
fn serve(spec: &SketchSpec, s: &StreamBatch, cfg: ServiceConfig) -> Vec<Arc<Snapshot>> {
    let mut svc = StreamService::start(registry(), spec, cfg)
        .unwrap_or_else(|e| panic!("{}: service failed to start: {e}", spec.family));
    let mut snaps = svc.ingest(&s.updates).unwrap();
    snaps.extend(svc.finish().unwrap());
    snaps
}

/// A one-worker service whose single epoch covers the stream, at the
/// default chunk, is a plain sequential run: bit-identical to
/// `StreamRunner::run` for every family, mergeable or not.
#[test]
fn one_worker_one_epoch_matches_sequential_for_every_family() {
    let s = stream(0x15);
    let cfg = ServiceConfig::default()
        .with_threads(1)
        .with_epoch(s.len() as u64);
    for info in registry().families() {
        let spec = conformance_spec(info.family);
        let mut seq = registry().build(&spec).unwrap();
        StreamRunner::new().run(&mut *seq, &s);
        let snaps = serve(&spec, &s, cfg);
        assert_eq!(snaps.len(), 1, "{}: one epoch, one snapshot", info.family);
        assert_eq!(snaps[0].report.total_updates, s.len(), "{}", info.family);
        assert_probes_match(
            &format!("{} (one worker, one epoch)", info.family),
            &probe(seq.as_ref()),
            &probe(snaps[0].sketch.as_ref()),
            true,
        );
    }
}

/// The acceptance check: snapshot-at-epoch-k ≡ a sequential one-shot run
/// over the same stream prefix, for every mergeable family.
#[test]
fn snapshots_match_sequential_prefix_for_every_mergeable_family() {
    let s = stream(0x5E);
    let mut covered = Vec::new();
    for info in registry().families() {
        if !info.caps.mergeable {
            continue;
        }
        covered.push(info.family.name());
        let spec = conformance_spec(info.family);
        for threads in thread_counts() {
            let snaps = serve(&spec, &s, service_config(s.len(), threads));
            assert!(
                snaps.len() >= 3,
                "{}: expected ≥3 epochs, got {}",
                info.family,
                snaps.len()
            );
            for snap in &snaps {
                let prefix = &s.updates[..snap.report.total_updates];
                let mut seq = registry().build(&spec).unwrap();
                StreamRunner::new().run_updates(&mut *seq, prefix);
                assert_probes_match(
                    &format!(
                        "{} (epoch {} of {}, threads = {threads})",
                        info.family,
                        snap.report.epoch,
                        snaps.len()
                    ),
                    &probe(seq.as_ref()),
                    &probe(snap.sketch.as_ref()),
                    info.caps.merge_bitwise,
                );
            }
            let last = snaps.last().unwrap().report;
            assert_eq!(last.total_updates, s.len(), "{}: lost updates", info.family);
            assert_eq!(
                last.total_mass(),
                s.total_mass(),
                "{}: lost mass",
                info.family
            );
        }
    }
    assert!(
        covered.len() >= 20,
        "mergeable catalog shrank unexpectedly: {covered:?}"
    );
}

/// Epoch accounting is monotone and partitions the stream: indices are
/// sequential, per-epoch updates/mass sum to the running totals, and the
/// deletion-fraction / α-floor accounting agrees with exact ground truth.
#[test]
fn multi_epoch_accounting_is_monotone_and_exact() {
    let s = stream(0xAC);
    let truth = FrequencyVector::from_stream(&s);
    let spec = conformance_spec(SketchFamily::Exact);
    let snaps = serve(&spec, &s, service_config(s.len(), 3));
    let mut prev_total = 0usize;
    let (mut sum_updates, mut sum_ins, mut sum_del) = (0usize, 0u64, 0u64);
    for (i, snap) in snaps.iter().enumerate() {
        let rep = snap.report;
        assert_eq!(rep.epoch, i + 1, "epoch indices must be sequential");
        assert!(rep.total_updates > prev_total, "totals must grow");
        prev_total = rep.total_updates;
        sum_updates += rep.updates;
        sum_ins += rep.inserted_mass;
        sum_del += rep.deleted_mass;
        assert_eq!(rep.total_updates, sum_updates, "update totals drifted");
        assert_eq!(rep.total_inserted, sum_ins, "insert totals drifted");
        assert_eq!(rep.total_deleted, sum_del, "delete totals drifted");
        assert!(rep.space_bits() > 0, "missing space watermark");
    }
    let last = snaps.last().unwrap().report;
    let (ins, del): (u64, u64) = s.updates.iter().fold((0, 0), |(i, d), u| {
        if u.delta > 0 {
            (i + u.delta as u64, d)
        } else {
            (i, d + u.delta.unsigned_abs())
        }
    });
    assert_eq!((last.total_inserted, last.total_deleted), (ins, del));
    // The mass-accounting α floor can never exceed the realized α₁ (which
    // divides by the true ‖f‖₁ ≤ net mass), and the workload was generated
    // to satisfy its α promise with slack.
    assert!(last.alpha_observed() <= truth.alpha_l1() + 1e-9);
    assert!(last.deletion_fraction() < 1.0);
}

/// On-demand snapshots anywhere in the stream are safe: they answer for
/// exactly the ingested prefix, and they leave the workers' sketches and
/// the scheduled cuts completely untouched.
#[test]
fn snapshot_while_ingesting_is_safe_and_invisible() {
    let s = stream(0x51);
    for family in [SketchFamily::Csss, SketchFamily::AlphaHh] {
        let spec = conformance_spec(family);
        let cfg = service_config(s.len(), 3);
        let caps = registry().info(family).unwrap().caps;

        // Interleave on-demand snapshots between ingest slices; each must
        // match the sequential prefix, like a scheduled cut.
        let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
        let mut snaps = Vec::new();
        for piece in s.updates.chunks(s.len() / 4 + 1) {
            snaps.extend(svc.ingest(piece).unwrap());
            let mid = svc.snapshot().unwrap();
            let mut seq = registry().build(&spec).unwrap();
            StreamRunner::new().run_updates(&mut *seq, &s.updates[..mid.report.total_updates]);
            assert_probes_match(
                &format!("{family} (on-demand @ {})", mid.report.total_updates),
                &probe(seq.as_ref()),
                &probe(mid.sketch.as_ref()),
                caps.merge_bitwise,
            );
        }
        snaps.extend(svc.finish().unwrap());

        // The scheduled snapshots must be bit-identical to a run that never
        // took an on-demand snapshot (cloning never perturbs the workers).
        let undisturbed = serve(&spec, &s, cfg);
        assert_eq!(snaps.len(), undisturbed.len());
        for (a, b) in snaps.iter().zip(&undisturbed) {
            assert_eq!(a.report.total_updates, b.report.total_updates);
            assert_probes_match(
                &format!("{family} (poked vs undisturbed run)"),
                &probe(b.sketch.as_ref()),
                &probe(a.sketch.as_ref()),
                true,
            );
        }
    }
}

/// Two service runs with the same (spec, stream, config) replay
/// identically — including in the thinning regime, where merging consumes
/// RNG draws, and for the candidate-tracking heavy hitters, whose merges
/// must not depend on hash order — regardless of how the source is sliced
/// into ingest calls.
#[test]
fn service_runs_replay_identically() {
    let s = stream(0xDF);
    let specs = [
        conformance_spec(SketchFamily::Csss).with_budget(128),
        conformance_spec(SketchFamily::SampledVector).with_budget(128),
        conformance_spec(SketchFamily::AlphaL0),
        conformance_spec(SketchFamily::AlphaHh),
    ];
    for spec in specs {
        for threads in thread_counts() {
            let cfg = service_config(s.len(), threads);
            let run = |slice: usize| {
                let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
                let mut snaps = Vec::new();
                for piece in s.updates.chunks(slice) {
                    snaps.extend(svc.ingest(piece).unwrap());
                }
                snaps.extend(svc.finish().unwrap());
                snaps
                    .iter()
                    .flat_map(|sn| probe(sn.sketch.as_ref()))
                    .collect::<Vec<_>>()
            };
            // Different ingest-call shapes must not change the dispatch.
            assert_probes_match(
                &format!("{} (replay, threads = {threads})", spec.family),
                &run(997),
                &run(4096),
                true,
            );
        }
    }
}

/// The tree fold the service uses must agree with the serial
/// left-to-right `merge_dyn` fold it replaced, for **every** mergeable
/// family — bit-for-bit where the family claims `merge_bitwise`,
/// estimate-equal otherwise — at fan-ins covering balanced trees, odd
/// survivors, and the single-pair case.
#[test]
fn tree_fold_matches_serial_fold_for_every_mergeable_family() {
    let s = stream(0x7E);
    for info in registry().families() {
        if !info.caps.mergeable {
            continue;
        }
        let spec = conformance_spec(info.family);
        for n in [2usize, 3, 5, 8] {
            let build_parts = || {
                let mut parts = registry().build_n(&spec, n).unwrap();
                let per = s.len().div_ceil(n);
                for (part, chunk) in parts.iter_mut().zip(s.updates.chunks(per)) {
                    StreamRunner::new().run_updates(&mut **part, chunk);
                }
                parts
            };
            let mut serial = build_parts();
            let mut acc = serial.remove(0);
            for part in &serial {
                acc.merge_dyn(part.as_ref())
                    .unwrap_or_else(|e| panic!("{}: serial merge failed: {e}", info.family));
            }
            let (tree, rep) = merge_tree(build_parts())
                .unwrap_or_else(|e| panic!("{}: tree merge failed: {e}", info.family));
            assert_eq!(rep.parts, n, "{}: fan-in", info.family);
            assert_eq!(
                rep.depth,
                (n as f64).log2().ceil() as usize,
                "{}: tree depth at n={n}",
                info.family
            );
            assert_eq!(rep.merges(), n - 1, "{}: merge count", info.family);
            assert_probes_match(
                &format!("{} (tree vs serial fold, n = {n})", info.family),
                &probe(acc.as_ref()),
                &probe(tree.as_ref()),
                info.caps.merge_bitwise,
            );
        }
    }
}

/// The iterator and channel drivers are the same engine as slice ingestion.
#[test]
fn iterator_and_channel_sources_match_slices() {
    let s = stream(0x17);
    let spec = conformance_spec(SketchFamily::CountSketch);
    let cfg = service_config(s.len(), 2);
    let baseline: Vec<_> = serve(&spec, &s, cfg)
        .iter()
        .flat_map(|sn| probe(sn.sketch.as_ref()))
        .collect();

    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    let mut snaps = svc.run(s.updates.iter().copied()).unwrap();
    snaps.extend(svc.finish().unwrap());
    let from_iter: Vec<_> = snaps
        .iter()
        .flat_map(|sn| probe(sn.sketch.as_ref()))
        .collect();
    assert_probes_match("iterator source", &baseline, &from_iter, true);

    let (tx, rx) = std::sync::mpsc::channel();
    for piece in s.updates.chunks(777) {
        tx.send(piece.to_vec()).unwrap();
    }
    drop(tx);
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    let mut snaps = svc.run_channel(rx).unwrap();
    snaps.extend(svc.finish().unwrap());
    let from_chan: Vec<_> = snaps
        .iter()
        .flat_map(|sn| probe(sn.sketch.as_ref()))
        .collect();
    assert_probes_match("channel source", &baseline, &from_chan, true);
}

// ---------------------------------------------------------------------------
// Bounded queues and overload behavior (DESIGN.md §12)
// ---------------------------------------------------------------------------

/// Tiny bounded `block` queues are invisible: for every mergeable family,
/// a depth-2 service over a bursty time-shaped stream emits snapshots
/// bit-identical to an effectively-unbounded (huge-depth) run — the
/// dispatch sequence is depth-independent, back-pressure only delays it.
#[test]
fn block_policy_matches_unbounded_for_every_mergeable_family() {
    let s = BurstGen::new(1 << 10, 3, 1200, 600).generate_seeded(0xB10C);
    let mut covered = 0;
    for info in registry().families() {
        if !info.caps.mergeable {
            continue;
        }
        covered += 1;
        let spec = conformance_spec(info.family);
        let tight = service_config(s.len(), 2).with_depth(2);
        let bounded = serve(&spec, &s, tight);
        let unbounded = serve(&spec, &s, tight.with_depth(1 << 16));
        assert_eq!(
            bounded.len(),
            unbounded.len(),
            "{}: epoch count",
            info.family
        );
        for (b, u) in bounded.iter().zip(&unbounded) {
            assert_eq!(b.report.total_updates, u.report.total_updates);
            assert!(
                b.report.queue_peak <= tight.depth * tight.threads,
                "{}: queue peak {} exceeds depth × threads = {}",
                info.family,
                b.report.queue_peak,
                tight.depth * tight.threads
            );
            assert_probes_match(
                &format!("{} (depth 2 vs unbounded)", info.family),
                &probe(u.sketch.as_ref()),
                &probe(b.sketch.as_ref()),
                true,
            );
        }
    }
    assert!(covered >= 20, "mergeable catalog shrank unexpectedly");
}

/// The acceptance-criteria shape: a burst workload through `depth=64`
/// holds the queue-depth watermark within the structural bound
/// `depth × threads` and loses nothing.
#[test]
fn burst_overload_respects_the_depth_bound() {
    let s = BurstGen::new(1 << 12, 4, 4000, 1000).generate_seeded(0xBE);
    let spec = conformance_spec(SketchFamily::CountSketch);
    let cfg = ServiceConfig::default()
        .with_epoch((s.len() as u64) / 4)
        .with_threads(3)
        .with_chunk(128)
        .with_depth(64);
    let snaps = serve(&spec, &s, cfg);
    assert!(snaps.len() >= 4);
    let last = snaps.last().unwrap().report;
    assert_eq!(last.total_updates, s.len());
    for snap in &snaps {
        assert!(
            snap.report.queue_peak <= cfg.depth * cfg.threads,
            "queue peak {} exceeds cap {}",
            snap.report.queue_peak,
            cfg.depth * cfg.threads
        );
    }
}

/// Item that [`PanickySketch`] refuses to ingest, killing its worker.
const POISON: u64 = 0xDEAD;

/// A test double whose worker dies mid-stream: ingesting the poison item
/// panics the worker thread, which must surface as a typed
/// [`ServiceError::WorkerDied`] — not a dispatcher panic.
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

bd_stream::impl_dyn_sketch!(PanickySketch, point, merge);

fn panicky_registry() -> Registry {
    let mut reg = Registry::new();
    reg.register(
        FamilyInfo {
            family: SketchFamily::Exact,
            summary: "panics on the poison item (worker-death test double)",
            caps: Capabilities {
                point: true,
                mergeable: true,
                merge_bitwise: true,
                batch_bitwise: true,
                linear: true,
                ..Default::default()
            },
            inputs: SpaceInputs {
                n: true,
                ..Default::default()
            },
            space: "O(n)",
            type_name: std::any::type_name::<PanickySketch>(),
        },
        |spec| Box::new(PanickySketch(FrequencyVector::new(spec.n))),
    );
    reg
}

/// A worker death is a typed, attributed error — and the service stays
/// safe to poke and to drop afterwards. Regression for the old
/// `.expect("service worker hung up")` dispatcher panic.
#[test]
fn worker_death_is_a_typed_error_not_a_panic() {
    let reg = panicky_registry();
    let spec = SketchSpec::new(SketchFamily::Exact).with_n(1 << 10);
    let cfg = ServiceConfig::default()
        .with_epoch(1 << 20)
        .with_threads(2)
        .with_chunk(32)
        .with_depth(4);
    let mut svc = StreamService::start(&reg, &spec, cfg).unwrap();

    // The poison lands in the first dispatch cell → worker 0 dies. The
    // dispatcher notices on a later send; keep feeding (bounded by a
    // deadline) until the typed error surfaces.
    let mut batch = vec![Update::insert(1, 1); cfg.chunk];
    batch[0] = Update::insert(POISON, 1);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let died = loop {
        match svc.ingest(&batch) {
            Ok(_) => {
                batch.fill(Update::insert(1, 1)); // only poison once
                assert!(
                    std::time::Instant::now() < deadline,
                    "worker death never surfaced as an error"
                );
            }
            Err(e) => break e,
        }
    };
    assert_eq!(died, ServiceError::WorkerDied { worker: 0 });

    // A poisoned service keeps failing loudly instead of panicking…
    assert!(svc.snapshot().is_err());
    assert!(svc.finish().is_err());

    // …and one dropped without `finish` shuts down cleanly.
    let mut svc2 = StreamService::start(&reg, &spec, cfg).unwrap();
    let mut poison = vec![Update::insert(1, 1); cfg.chunk];
    poison[0] = Update::insert(POISON, 1);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while svc2.ingest(&poison).is_ok() {
        poison.fill(Update::insert(1, 1));
        if std::time::Instant::now() >= deadline {
            break;
        }
    }
    drop(svc2);
}

/// Multi-worker services on non-mergeable families are rejected up front;
/// a single worker serves any family.
#[test]
fn non_mergeable_families_error_beyond_one_worker() {
    let s = stream(0x92);
    let mut rejected = 0;
    for info in registry().families() {
        if info.caps.mergeable {
            continue;
        }
        rejected += 1;
        let spec = conformance_spec(info.family);
        assert!(
            matches!(
                StreamService::start(registry(), &spec, service_config(s.len(), 4)),
                Err(RegistryError::NotMergeable)
            ),
            "{}: expected NotMergeable",
            info.family
        );
        let snaps = serve(&spec, &s, service_config(s.len(), 1));
        assert!(
            snaps.len() >= 3,
            "{}: single-worker service failed",
            info.family
        );
    }
    assert!(rejected > 0, "no non-mergeable families left to reject?");
}
