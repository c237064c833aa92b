//! The three workloads, their output checks and their end-to-end metrics.

use crate::layers::{self, Live};
use crate::ledger::{self, direct, same, CutRef, Ledger, Requests};
use crate::load::{self, produce, query, stamp, Answered, Offer, QueryPlan};
use crate::util::{
    cpu_jiffies, cpu_seconds, fs_type, jstr, median, num, pct, result_line, rss_peak_mib, Metrics,
    Source, Tracer, CHUNK, THREADS, UNIVERSE,
};
use crate::{Args, Params};
use bounded_deletions::bd_stream::wire::Request;
use bounded_deletions::bd_stream::{
    read_segment, wal_segments, DynSketch, EpochReport, Item, OverflowPolicy, QueryClient,
    QueryServer, QueryView, ServiceConfig, SketchSpec, Snapshot, SnapshotStore, StreamService,
    WalCell, WalPolicy,
};
use bounded_deletions::registry;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A run's result: metrics, operation counts, and failed checks.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            metrics: Metrics::default(),
            attempted,
            failed,
            problems: Vec::new(),
        }
    }

    /// Record a check; a failed one counts as a failed operation.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

fn spec() -> SketchSpec {
    crate::util::SPEC
        .parse()
        .expect("the benchmark spec parses")
}

/// The spec the correctness reference is built from: the served one, or a
/// differently seeded one when the self-test plants a wrong reference.
fn reference_spec(a: &Args) -> SketchSpec {
    let s = spec();
    if a.wrong_reference {
        s.with_seed(s.seed + 1)
    } else {
        s
    }
}

fn config(epoch: u64) -> ServiceConfig {
    ServiceConfig::default()
        .with_epoch(epoch)
        .with_threads(THREADS)
        .with_chunk(CHUNK)
        .with_depth(64)
        .with_overflow(OverflowPolicy::Block)
        .with_wal(WalPolicy::Epoch)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Items the pass plants mass on (the hot half of every lookup mix).
fn hot_items(src: &Source) -> Vec<Item> {
    let t = src.truth(src.pass.len());
    (0..UNIVERSE).filter(|&i| t.f[i as usize] != 0).collect()
}

/// Start the service `setups` times — store, `start`, `persist_to`, and
/// `bind` when serving — timing each; keep the last one running.
fn setup(
    a: &Args,
    p: &Params,
    cfg: ServiceConfig,
    bind: bool,
) -> Result<(StreamService, Option<QueryServer>, f64), String> {
    let mut times = Vec::new();
    let mut kept: Option<(StreamService, Option<QueryServer>)> = None;
    for i in 0..p.setups {
        let dir = a.workdir.join(format!("setup-{i}"));
        let t = Instant::now();
        let store = SnapshotStore::open(&dir).map_err(err)?;
        let mut svc = StreamService::start(registry(), &spec(), cfg).map_err(err)?;
        svc.persist_to(store).map_err(err)?;
        let server = if bind {
            Some(QueryServer::bind("127.0.0.1:0", svc.handle()).map_err(err)?)
        } else {
            None
        };
        times.push(t.elapsed().as_secs_f64());
        if let Some((old, server)) = kept.replace((svc, server)) {
            drop(old);
            if let Some(s) = server {
                s.join();
            }
        }
    }
    let (svc, server) = kept.expect("at least one set-up");
    Ok((svc, server, median(&times)))
}

/// Point error over every item of the universe (a superset of the items
/// with `|f_i| ≥ ε‖f‖₁`), in units of `ε‖f‖₁`: the 99.9th percentile
/// (65 items beyond it) and the largest. Values ≤ 1 mean the point-error
/// bound held. The maximum of 65 536 errors swings by half from seed to
/// seed, the 99.9th percentile by a few percent, so the end-to-end metric
/// is the percentile and the traced run reports the maximum beside it.
fn point_err(sk: &dyn DynSketch, src: &Source, offered: usize) -> (f64, f64) {
    let truth = src.truth(offered);
    let scale = spec().epsilon * truth.l1() as f64;
    let items: Vec<Item> = (0..UNIVERSE).collect();
    let mut est = Vec::with_capacity(items.len());
    sk.as_point_batch()
        .expect("alpha_hh answers batched point queries")
        .point_many(&items, &mut est);
    let errs: Vec<f64> = est
        .iter()
        .zip(&truth.f)
        .map(|(e, f)| (e - *f as f64).abs() / scale)
        .collect();
    (pct(&errs, 99.9), pct(&errs, 100.0))
}

/// Accounting of the served snapshots against the generator's ground
/// truth: cut positions, offered = ingested, inserted and deleted mass.
fn check_accounting(o: &mut Outcome, src: &Source, reports: &[EpochReport], epoch: usize) {
    for (k, r) in reports.iter().enumerate() {
        let last = k + 1 == reports.len();
        o.check(last || r.total_updates % epoch == 0, || {
            format!("cut at {} is off the epoch grid", r.total_updates)
        });
        let t = src.truth(r.total_updates);
        o.check(
            r.total_inserted == t.ins
                && r.total_deleted == t.del
                && r.total_dropped_updates == 0
                && r.total_offered_updates() == r.total_updates,
            || {
                format!(
                    "accounting at {}: inserted {} (truth {}), deleted {} (truth {}), dropped {}",
                    r.total_updates,
                    r.total_inserted,
                    t.ins,
                    r.total_deleted,
                    t.del,
                    r.total_dropped_updates
                )
            },
        );
    }
}

/// Every live cut must answer exactly as the reference's cut does, bit
/// for bit. Returns how many cuts also differ in their persisted bytes: the
/// merged candidate set depends on hash-set iteration order, so bytes can
/// differ where every served answer agrees.
fn check_cuts(
    o: &mut Outcome,
    reports: &[EpochReport],
    kept: &[Arc<Snapshot>],
    reference: &[CutRef],
) -> usize {
    let positions: Vec<usize> = reports.iter().map(|r| r.total_updates).collect();
    let expected: Vec<usize> = reference.iter().map(|r| r.at).collect();
    o.check(positions == expected, || {
        format!(
            "{} live cuts against {} reference cuts",
            positions.len(),
            expected.len()
        )
    });
    let mut divergent = 0;
    for (k, s) in kept.iter().enumerate() {
        let full = k + 1 == kept.len();
        let sk = s.sketch.as_ref();
        let r = reference.iter().find(|r| r.at == s.report.total_updates);
        o.check(
            r.is_some_and(|r| ledger::answers(sk, full) == r.answers),
            || {
                format!(
                    "live snapshot at {} answers differently from the ledger's",
                    s.report.total_updates
                )
            },
        );
        divergent += usize::from(r.is_some_and(|r| ledger::bytes(sk) != r.bytes));
    }
    divergent
}

/// A seeded sample of served answers against direct engine answers on the
/// live snapshot with the same stamp (for the snapshots the producer
/// kept); every stamp must be a cut the service made.
fn check_served(o: &mut Outcome, answered: &[Answered], prod: &load::Produced) {
    let by_stamp: BTreeMap<u64, &Arc<Snapshot>> = prod
        .snaps
        .iter()
        .map(|s| (s.report.total_updates as u64, s))
        .collect();
    for a in answered {
        let st = stamp(&a.resp);
        let cut = prod
            .reports
            .iter()
            .any(|r| Some(r.total_updates as u64) == st);
        o.check(cut, || {
            format!(
                "served {} answer #{} carries an unknown stamp",
                a.kind.name(),
                a.k
            )
        });
        let Some(snap) = st.and_then(|st| by_stamp.get(&st)) else {
            continue;
        };
        let engine = QueryView::from_snapshot(Arc::clone(snap)).engine();
        let ok = direct(&engine, &a.req).is_some_and(|d| same(&d, &a.resp));
        o.check(ok, || {
            format!(
                "served {} answer #{} differs from the direct one",
                a.kind.name(),
                a.k
            )
        });
    }
}

fn reference_cuts(
    a: &Args,
    src: &Source,
    epoch: usize,
    offered: usize,
) -> Result<Vec<CutRef>, String> {
    let rspec = reference_spec(a);
    let workers = registry().build_n(&rspec, THREADS).map_err(err)?;
    ledger::reference(src, epoch, workers, 0, offered)
}

/// The serial traced ledger over a live run that started at offered 0:
/// the checks' reference, and the per-layer ledger.
fn traced_ledger<'s>(
    a: &Args,
    src: &'s Source,
    cfg: ServiceConfig,
    prod: &load::Produced,
    kept: &[Answered],
    hot: &[Item],
) -> Result<Ledger<'s>, String> {
    let dir = a.workdir.join("ledger");
    let mut led = Ledger::new(
        src,
        registry(),
        reference_spec(a),
        cfg,
        &dir,
        Tracer::new(Instant::now()),
    )
    .map_err(err)?;
    led.open_wal(0, 0)?;
    let reports: BTreeMap<usize, EpochReport> =
        prod.reports.iter().map(|r| (r.total_updates, *r)).collect();
    led.ingest(
        0,
        prod.offered,
        true,
        &|at| reports.get(&at).copied(),
        Requests {
            answered: kept,
            seed: a.seed,
            hot,
        },
    )?;
    led.read_back(registry(), &dir)?;
    led.close();
    Ok(led)
}

/// Checks shared by `ingest` and `serve`, then the end-to-end metrics.
#[allow(clippy::too_many_arguments)]
fn finish_live(
    a: &Args,
    src: &Source,
    hot: &[Item],
    cfg: ServiceConfig,
    setup_s: f64,
    prod: load::Produced,
    q: load::Queried,
    cpu_s: f64,
    rss_mib: f64,
    live: Option<Tracer>,
) -> Result<Outcome, String> {
    let epoch = cfg.epoch as usize;
    let mut o = Outcome::new(prod.offered as u64 + q.attempted, q.failed);
    let last = prod.snaps.last().ok_or("the run cut no epoch")?;
    o.check(last.report.total_updates == prod.offered, || {
        format!(
            "offered {} updates but the final snapshot covers {}",
            prod.offered, last.report.total_updates
        )
    });
    check_accounting(&mut o, src, &prod.reports, epoch);
    check_served(&mut o, &q.kept, &prod);
    let (err_ratio, err_max) = point_err(last.sketch.as_ref(), src, prod.offered);
    let divergent;
    let ledger = if a.trace {
        let led = traced_ledger(a, src, cfg, &prod, &q.kept, hot)?;
        divergent = check_cuts(&mut o, &prod.reports, &prod.snaps, &led.cuts);
        o.check(led.mismatches == 0, || {
            format!(
                "{} of {} replayed answers differ",
                led.mismatches, led.replayed
            )
        });
        Some(led)
    } else {
        let reference = reference_cuts(a, src, epoch, prod.offered)?;
        divergent = check_cuts(&mut o, &prod.reports, &prod.snaps, &reference);
        None
    };
    match (live, ledger) {
        (Some(live), Some(led)) => {
            let l = Live {
                tr: &live,
                cpu_s,
                queue_peak: prod
                    .reports
                    .iter()
                    .map(|r| r.queue_peak as f64)
                    .fold(0.0, f64::max),
                cuts: prod.fresh_ms.len() as f64,
                recovering: false,
                fresh_ms: &prod.fresh_ms,
                lookup_us: &q.lookup_us,
            };
            o.metrics = layers::metrics(&l, &led, src);
            o.metrics
                .put("merge.byte_divergent_cuts", divergent as f64, "count");
            o.metrics.put("query.point_err_max_ratio", err_max, "ratio");
            live.write(
                &a.workdir
                    .join(format!("spans-{}-{}.tsv", a.workload, a.seed)),
            )
            .map_err(err)?;
        }
        _ => {
            let m = &mut o.metrics;
            m.put("setup_s", setup_s, "s");
            m.put(
                "ingest_updates_per_s",
                prod.offered as f64 / prod.wall_s,
                "updates/s",
            );
            m.put(
                "ingest_cpu_ns_per_update",
                cpu_s * 1e9 / prod.offered as f64,
                "ns",
            );
            m.put("rss_peak_mib", rss_mib, "MiB");
            m.put("point_err_ratio", err_ratio, "ratio");
            eprintln!(
                "samples: lookups={} polls={} cuts={} byte_divergent_cuts={divergent} generator_bytes={}",
                q.lookup_us.len(),
                q.hh_ms.len(),
                prod.fresh_ms.len(),
                src.bytes()
            );
        }
    }
    Ok(o)
}

/// `ingest`: one closed-loop producer at saturation, long epochs; then a
/// short query phase against the final snapshot.
fn ingest(a: &Args, p: &Params, src: &Source, hot: &[Item]) -> Result<Outcome, String> {
    let cfg = config(p.ingest_epoch);
    let (svc, _, setup_s) = setup(a, p, cfg, false)?;
    let mut live = a.trace.then(|| Tracer::new(Instant::now()));
    let handle = svc.handle();
    let cpu0 = cpu_seconds();
    let end = Instant::now() + Duration::from_secs_f64(a.seconds);
    let prod = produce(
        svc,
        src,
        0,
        Offer::Closed,
        CHUNK,
        |_, now, _| now >= end,
        true,
        live.as_mut(),
    )
    .map_err(err)?;
    let ingest_cpu = prod.cpu_s;
    let server = QueryServer::bind("127.0.0.1:0", handle).map_err(err)?;
    let plan = QueryPlan {
        lookups_per_s: p.lookups_per_s,
        polls_per_s: p.probe_polls_per_s,
        duration: p.probe,
        seed: a.seed,
        keep_all: a.trace,
    };
    let q = query(server.local_addr(), &plan, hot, live.as_mut()).map_err(err)?;
    server.join();
    let cpu = if a.trace {
        cpu_seconds() - cpu0
    } else {
        ingest_cpu
    };
    let rss = rss_peak_mib();
    finish_live(a, src, hot, cfg, setup_s, prod, q, cpu, rss, live)
}

/// `serve`: open-loop ingest at a fixed rate with short epochs, while one
/// query thread sends open-loop lookups and heavy-hitter polls.
fn serve(a: &Args, p: &Params, src: &Source, hot: &[Item]) -> Result<Outcome, String> {
    let cfg = config(p.serve_epoch);
    let (svc, server, setup_s) = setup(a, p, cfg, true)?;
    let server = server.expect("serve binds");
    let handle = svc.handle();
    let addr = server.local_addr();
    let origin = Instant::now();
    let mut live = a.trace.then(|| Tracer::new(origin));
    let cpu0 = cpu_seconds();
    let end = origin + Duration::from_secs_f64(a.seconds);
    let (rate, slice) = (p.serve_rate, p.serve_slice);
    let trace = a.trace;
    let (prod, q, prod_tr) = std::thread::scope(|s| {
        let producer = s.spawn(move || {
            let mut tr = trace.then(|| Tracer::new(origin));
            let r = produce(
                svc,
                src,
                0,
                Offer::Open { rate },
                slice,
                |_, sched, _| sched >= end,
                true,
                tr.as_mut(),
            );
            (r, tr)
        });
        while handle.latest().is_none() && Instant::now() < end {
            std::thread::sleep(Duration::from_millis(1));
        }
        let plan = QueryPlan {
            lookups_per_s: p.lookups_per_s,
            polls_per_s: p.polls_per_s,
            duration: end.saturating_duration_since(Instant::now()),
            seed: a.seed,
            keep_all: a.trace,
        };
        let q = query(addr, &plan, hot, live.as_mut());
        let (r, tr) = producer.join().expect("producer thread");
        (r, q, tr)
    });
    server.join();
    let cpu = cpu_seconds() - cpu0;
    let rss = rss_peak_mib();
    let prod = prod.map_err(err)?;
    let q = q.map_err(err)?;
    if let (Some(live), Some(ptr)) = (live.as_mut(), prod_tr) {
        live.absorb(ptr);
    }
    finish_live(a, src, hot, cfg, setup_s, prod, q, cpu, rss, live)
}

/// Offered updates the `recover` preparation ingests: one epoch (cut and
/// saved), then half an epoch that only the write-ahead log holds.
fn recover_sizes(p: &Params) -> (usize, usize) {
    let e = p.recover_epoch as usize;
    (e, e + e / 2)
}

/// Child process: ingest the preparation stream, then drop the service
/// mid-epoch without `finish` and exit.
pub fn prepare_role(a: &Args, p: &Params) -> i32 {
    let run = || -> Result<(), String> {
        let (_, total) = recover_sizes(p);
        let src = Source::new(a.seed);
        let store = SnapshotStore::open(&a.workdir).map_err(err)?;
        let mut svc =
            StreamService::start(registry(), &spec(), config(p.recover_epoch)).map_err(err)?;
        svc.persist_to(store).map_err(err)?;
        let prod = produce(
            svc,
            &src,
            0,
            Offer::Closed,
            CHUNK,
            |offered, _, _| offered >= total,
            false,
            None,
        )
        .map_err(err)?;
        if prod.reports.len() != 1 {
            return Err(format!(
                "preparation cut {} epochs, not 1",
                prod.reports.len()
            ));
        }
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench prepare: {e}");
            1
        }
    }
}

/// Child process: `recover` from a copy of the prepared store, answer one
/// query over TCP (the restart downtime ends there), save the recovered
/// state for the parent's check, run a short query phase, then resume the
/// source until the interrupted epoch is cut.
pub fn recover_role(a: &Args, p: &Params) -> i32 {
    match recover_child(a, p) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench recover: {e}");
            1
        }
    }
}

fn recover_child(a: &Args, p: &Params) -> Result<(), String> {
    let (e, total) = recover_sizes(p);
    let src = Source::new(a.seed);
    let hot = hot_items(&src);
    let origin = Instant::now();
    let mut tr = a.trace.then(|| Tracer::new(origin));
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let store = SnapshotStore::open(&a.workdir).map_err(err)?;
    let svc =
        StreamService::recover(registry(), &spec(), config(p.recover_epoch), store).map_err(err)?;
    let t_rec = Instant::now();
    let cpu_rec = cpu_seconds() - cpu0;
    let server = QueryServer::bind("127.0.0.1:0", svc.handle()).map_err(err)?;
    let mut client = QueryClient::connect(server.local_addr()).map_err(err)?;
    let first = client
        .request(&Request::Point { item: hot[0] })
        .map_err(err)?;
    let t_ready = Instant::now();
    drop(client);
    if let Some(tr) = tr.as_mut() {
        tr.record("recover", t0, t_rec, None, 0);
    }
    let mut svc = svc;
    let from = svc.replay_from();
    let tail = from.saturating_sub(e);
    let mut failed = u64::from(stamp(&first) != Some(e as u64)) + u64::from(from != total);
    let state = svc.snapshot().map_err(err)?;
    std::fs::write(
        a.workdir.join("recovered.bin"),
        ledger::bytes(state.sketch.as_ref()),
    )
    .map_err(err)?;
    let truth = src.truth(from);
    let r = &state.report;
    failed += u64::from(
        r.total_updates != from || r.total_inserted != truth.ins || r.total_deleted != truth.del,
    );
    let plan = QueryPlan {
        lookups_per_s: p.lookups_per_s,
        polls_per_s: p.probe_polls_per_s,
        duration: p.probe / 2,
        seed: a.seed,
        keep_all: a.trace,
    };
    let q = query(server.local_addr(), &plan, &hot, tr.as_mut()).map_err(err)?;
    failed += q.failed;
    let view = svc.latest().ok_or("nothing published after recover")?;
    let engine = view.engine();
    let mismatches = q
        .kept
        .iter()
        .filter(|ans| !direct(&engine, &ans.req).is_some_and(|d| same(&d, &ans.resp)))
        .count();
    let resumed = produce(
        svc,
        &src,
        from,
        Offer::Closed,
        CHUNK,
        |_, _, cut| cut,
        true,
        tr.as_mut(),
    )
    .map_err(err)?;
    server.join();
    let live_cpu = cpu_seconds() - cpu0;
    let join = |v: &[f64]| v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(",");
    let queue_peak = resumed
        .reports
        .iter()
        .map(|r| r.queue_peak as f64)
        .fold(0.0, f64::max);
    let lines = [
        ("setup_s", num((t_ready - t0).as_secs_f64())),
        ("recover_s", num((t_rec - t0).as_secs_f64())),
        ("recover_cpu_s", num(cpu_rec)),
        ("tail", tail.to_string()),
        ("lookup_us", join(&q.lookup_us)),
        ("hh_ms", join(&q.hh_ms)),
        ("fresh_ms", join(&resumed.fresh_ms)),
        ("rss_mib", num(rss_peak_mib())),
        (
            "attempted",
            (1 + tail as u64 + q.attempted + resumed.offered as u64).to_string(),
        ),
        ("failed", failed.to_string()),
        ("mismatches", mismatches.to_string()),
        ("live_cpu_s", num(live_cpu)),
        ("queue_peak", num(queue_peak)),
        ("resumed", resumed.offered.to_string()),
        ("cuts", resumed.reports.len().to_string()),
    ];
    let body: String = lines.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect();
    std::fs::write(a.workdir.join("child.tsv"), body).map_err(err)?;
    if let Some(tr) = tr {
        tr.write(&a.workdir.join("spans.tsv")).map_err(err)?;
        load::write_answers(&a.workdir.join("answers.bin"), &q.kept).map_err(err)?;
    }
    Ok(())
}

/// Run this binary as a child process for `role` in `dir` and wait for it.
fn run_child(a: &Args, role: &str, dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(err)?;
    let mut cmd = Command::new(exe);
    cmd.arg("--role")
        .arg(role)
        .arg("--workload")
        .arg("recover")
        .arg("--seed")
        .arg(a.seed.to_string())
        .arg("--seconds")
        .arg(a.seconds.to_string())
        .arg("--trace")
        .arg(if a.trace { "1" } else { "0" })
        .arg("--workdir")
        .arg(dir);
    if a.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(err)?;
    if !out.status.success() {
        return Err(format!(
            "{role} child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(err)?;
    for entry in std::fs::read_dir(from).map_err(err)? {
        let entry = entry.map_err(err)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(err)?;
    }
    Ok(())
}

/// A recovery child's figures by name (`child.tsv`).
type Child = BTreeMap<String, Vec<f64>>;

fn read_child(dir: &Path) -> Result<Child, String> {
    let body = std::fs::read_to_string(dir.join("child.tsv")).map_err(err)?;
    Ok(body
        .lines()
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, v)| {
            let vals = v
                .split(',')
                .filter(|s| !s.is_empty())
                .filter_map(|s| s.parse().ok())
                .collect();
            (k.to_string(), vals)
        })
        .collect())
}

/// `recover`: prepare one snapshot plus a write-ahead-log tail of half an
/// epoch, then restart from copies of it in fresh processes, one after
/// another, for the run's duration.
fn recover(a: &Args, p: &Params, src: &Source, hot: &[Item]) -> Result<Outcome, String> {
    let (e, total) = recover_sizes(p);
    let prep = a.workdir.join("prepared");
    run_child(a, "prepare", &prep)?;
    let mut o = Outcome::new(0, 0);
    let rspec = reference_spec(a);
    let reg = registry();
    let cfg = config(p.recover_epoch);

    // The reference, untimed: the prepared snapshot must be the ledger's
    // cut, the log tail must be the offered stream beyond it, and the
    // recovered state must be the ledger's replay of that snapshot and
    // tail.
    let cuts = ledger::reference(src, e, reg.build_n(&rspec, THREADS).map_err(err)?, 0, total)?;
    let store = SnapshotStore::open(&prep).map_err(err)?;
    let rec = store
        .load_latest(reg)
        .map_err(err)?
        .ok_or("the preparation left no snapshot")?;
    o.check(rec.offered as usize == e, || {
        format!("prepared snapshot at {} not {e}", rec.offered)
    });
    o.check(
        cuts.first()
            .is_some_and(|c| c.at == e && c.answers == ledger::answers(rec.sketch.as_ref(), false)),
        || "prepared snapshot answers differently from the ledger's cut".into(),
    );
    let mut tail_ok = true;
    let mut tail_len = 0;
    let mut buf = Vec::new();
    for (_, path) in wal_segments(&prep).map_err(err)? {
        for r in read_segment(&path).map_err(err)?.records {
            if (r.offered as usize) < e {
                continue;
            }
            match &r.cell {
                WalCell::Batch(updates) => {
                    src.fill(r.offered as usize, updates.len(), &mut buf);
                    tail_ok &= **updates == buf;
                    tail_len += updates.len();
                }
                WalCell::Shed { .. } => tail_ok = false,
            }
        }
    }
    o.check(tail_ok && tail_len == total - e, || {
        format!("log tail of {tail_len} updates differs from the offered stream")
    });
    // The ledger takes the snapshot over with fresh workers of its own
    // spec, which must be the snapshot's.
    o.check(rec.spec == rspec, || {
        format!(
            "the ledger's spec {rspec} is not the snapshot's {}",
            rec.spec
        )
    });
    let expected = if rec.spec == rspec {
        let mut workers = reg.build_n(&rspec, THREADS).map_err(err)?;
        workers[0] = rec.sketch.clone_dyn();
        ledger::reference(src, e, workers, e, total)?.pop()
    } else {
        None
    };

    let mut divergent = 0;
    let mut recovered: Option<Box<dyn DynSketch>> = None;
    let started = Instant::now();
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    // The first restart's spans, answered requests and figures (traced).
    let mut first_child: Option<(Tracer, Vec<Answered>, Child)> = None;
    for i in 0u64.. {
        let enough = i as usize >= p.min_recoveries;
        if (enough && started.elapsed().as_secs_f64() >= a.seconds) || i >= 64 {
            break;
        }
        let dir = a.workdir.join(format!("restart-{i}"));
        copy_dir(&prep, &dir)?;
        run_child(a, "recover", &dir)?;
        let child = read_child(&dir)?;
        let bytes = std::fs::read(dir.join("recovered.bin")).map_err(err)?;
        let (_, state) =
            bounded_deletions::bd_stream::sketch_from_bytes(reg, &bytes).map_err(err)?;
        let answers = ledger::answers(state.as_ref(), true);
        o.check(
            expected.as_ref().is_some_and(|x| x.answers == answers),
            || format!("restart {i}: recovered state answers differently from the ledger's replay"),
        );
        divergent += usize::from(expected.as_ref().is_some_and(|x| x.bytes != bytes));
        recovered = Some(state);
        let get = |k: &str| child.get(k).and_then(|v| v.first()).copied().unwrap_or(0.0);
        o.attempted += get("attempted") as u64;
        o.failed += get("failed") as u64;
        o.check(get("mismatches") == 0.0, || {
            format!("restart {i}: served answers differ from direct ones")
        });
        o.check(get("failed") == 0.0, || {
            format!("restart {i}: failed operations")
        });
        for (k, v) in &child {
            samples.entry(k.clone()).or_default().extend(v);
        }
        if a.trace && first_child.is_none() {
            let spans = Tracer::read(&dir.join("spans.tsv")).map_err(err)?;
            let answers = load::read_answers(&dir.join("answers.bin"), a.seed, hot).map_err(err)?;
            first_child = Some((spans, answers, child));
        }
        std::fs::remove_dir_all(&dir).map_err(err)?;
    }
    let s = |k: &str| samples.get(k).cloned().unwrap_or_default();
    let per_update: Vec<f64> = s("recover_s")
        .iter()
        .zip(s("tail"))
        .map(|(t, n)| n / t)
        .collect();
    let cpu_per: Vec<f64> = s("recover_cpu_s")
        .iter()
        .zip(s("tail"))
        .map(|(c, n)| c * 1e9 / n)
        .collect();
    let recovered = recovered.ok_or("no restart ran")?;
    let (err_ratio, err_max) = point_err(recovered.as_ref(), src, total);
    if let Some((spans, answers, child)) = first_child {
        let (led, state) = recover_ledger(a, src, cfg, &prep, &answers, hot, total)?;
        o.check(
            expected
                .as_ref()
                .is_some_and(|x| x.answers == state.answers),
            || "the traced ledger's recovery replay differs".into(),
        );
        o.check(led.mismatches == 0, || {
            format!("{} replayed answers differ", led.mismatches)
        });
        let get = |k: &str| child.get(k).and_then(|v| v.first()).copied().unwrap_or(0.0);
        let l = Live {
            tr: &spans,
            cpu_s: get("live_cpu_s"),
            queue_peak: get("queue_peak"),
            cuts: get("cuts"),
            recovering: true,
            fresh_ms: child.get("fresh_ms").map_or(&[][..], |v| v.as_slice()),
            lookup_us: child.get("lookup_us").map_or(&[][..], |v| v.as_slice()),
        };
        o.metrics = layers::metrics(&l, &led, src);
        o.metrics
            .put("merge.byte_divergent_cuts", divergent as f64, "count");
        o.metrics.put("query.point_err_max_ratio", err_max, "ratio");
        spans
            .write(
                &a.workdir
                    .join(format!("spans-{}-{}.tsv", a.workload, a.seed)),
            )
            .map_err(err)?;
    } else {
        let m = &mut o.metrics;
        m.put("setup_s", median(&s("setup_s")), "s");
        m.put("ingest_updates_per_s", median(&per_update), "updates/s");
        m.put("ingest_cpu_ns_per_update", median(&cpu_per), "ns");
        m.put("rss_peak_mib", median(&s("rss_mib")), "MiB");
        m.put("point_err_ratio", err_ratio, "ratio");
        eprintln!(
            "samples: restarts={} lookups={} polls={} tail_updates={} byte_divergent_restarts={divergent}",
            s("setup_s").len(),
            s("lookup_us").len(),
            s("hh_ms").len(),
            total - e
        );
    }
    Ok(o)
}

/// The traced ledger of one restart: recovery's reads, the tail replay,
/// the first child's requests on the recovered epoch, then the resumed
/// ingest up to the interrupted epoch's cut. Returns the ledger and its
/// state right after the tail replay.
fn recover_ledger<'s>(
    a: &Args,
    src: &'s Source,
    cfg: ServiceConfig,
    prep: &Path,
    answers: &[Answered],
    hot: &[Item],
    total: usize,
) -> Result<(Ledger<'s>, CutRef), String> {
    let reg = registry();
    let read_dir = a.workdir.join("ledger-read");
    copy_dir(prep, &read_dir)?;
    let mut led = Ledger::new(
        src,
        reg,
        reference_spec(a),
        cfg,
        &a.workdir.join("ledger"),
        Tracer::new(Instant::now()),
    )
    .map_err(err)?;
    let (rec, tail, max_seq) = led.read_back(reg, &read_dir)?;
    let rec = rec.ok_or("no snapshot to recover")?;
    if rec.spec != reference_spec(a) {
        return Err("the ledger's spec is not the snapshot's".into());
    }
    led.workers[0] = rec.sketch.clone_dyn();
    led.replay_tail(tail)?;
    let state = led.state(total)?;
    let loaded = rec.report;
    led.publish(Arc::new(Snapshot {
        spec: spec(),
        sketch: rec.sketch,
        report: rec.report,
    }));
    led.replay(Requests {
        answered: answers,
        seed: a.seed,
        hot,
    })?;
    led.open_wal(max_seq.map_or(0, |s| s + 1), total)?;
    // The resumed cut's report: the loaded one, advanced to the cut.
    let next = 2 * cfg.epoch as usize;
    let truth = src.truth(next);
    let mut report = loaded;
    report.epoch += 1;
    report.updates = next - loaded.total_updates;
    report.total_updates = next;
    report.inserted_mass = truth.ins - loaded.total_inserted;
    report.deleted_mass = truth.del - loaded.total_deleted;
    report.total_inserted = truth.ins;
    report.total_deleted = truth.del;
    let none = Requests {
        answered: &[],
        seed: a.seed,
        hot,
    };
    led.ingest(total, next, false, &|_| Some(report), none)?;
    led.close();
    Ok((led, state))
}

/// The run stamp: host, filesystem, SIMD tier, seed and the workload
/// properties the kernels depend on.
fn stamp_line(a: &Args, src: &Source, steal_pct: f64) -> String {
    let (per_cell, alpha, del) = src.properties();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fields = [
        ("workload", jstr(&a.workload)),
        ("seed", a.seed.to_string()),
        ("trace", a.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("steal_pct", num(steal_pct)),
        ("store_fs", jstr(&fs_type(&a.workdir))),
        (
            "simd",
            jstr(&format!(
                "{:?}",
                bounded_deletions::bd_hash::simd::active_level()
            )),
        ),
        ("spec", jstr(crate::util::SPEC)),
        ("distinct_per_cell", num(per_cell)),
        ("alpha_realized", num(alpha)),
        ("deletion_fraction", num(del)),
        (
            "deletion_cap",
            num(EpochReport::deletion_cap(crate::util::ALPHA)),
        ),
        ("generator_bytes", src.bytes().to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", jstr(k)))
        .collect();
    format!("stamp {{{}}}", body.join(", "))
}

/// The main process: run the workload, print the stamp, the metrics and
/// the result line. Returns the exit code (non-zero when a check failed).
pub fn main_role(a: &Args, p: &Params) -> i32 {
    let _ = std::fs::remove_dir_all(&a.workdir);
    if let Err(e) = std::fs::create_dir_all(&a.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", a.workdir.display());
        return 1;
    }
    let src = Source::new(a.seed);
    let hot = hot_items(&src);
    let (steal0, total0) = cpu_jiffies();
    let outcome = match a.workload.as_str() {
        "ingest" => ingest(a, p, &src, &hot),
        "serve" => serve(a, p, &src, &hot),
        _ => recover(a, p, &src, &hot),
    };
    let (steal1, total1) = cpu_jiffies();
    let steal_pct = 100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    println!("{}", stamp_line(a, &src, steal_pct));
    // Keep only the span files; the stores can be large.
    if let Ok(entries) = std::fs::read_dir(&a.workdir) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    match outcome {
        Ok(o) => {
            for (name, value, unit) in &o.metrics.0 {
                println!("{name} {} {unit}", num(*value));
            }
            for problem in &o.problems {
                eprintln!("CHECK FAILED: {problem}");
            }
            let correct = o.problems.is_empty() && o.failed == 0;
            println!(
                "{}",
                result_line(correct, o.attempted.max(1), o.failed, &o.metrics)
            );
            i32::from(!correct)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}
