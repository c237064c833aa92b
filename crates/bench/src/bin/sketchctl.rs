//! `sketchctl` — drive any sketch in the workspace catalog by spec string.
//!
//! ```text
//! sketchctl families                      list every family + capabilities
//! sketchctl workloads                     list the workload grammar
//! sketchctl parse  <spec>                 normalize/validate a spec string
//! sketchctl run    <spec> [workload]      build, ingest, query, score
//! sketchctl serve  --spec <spec>
//!                  [--service service:epoch=..,threads=..,chunk=..,depth=..,wal=..,retain=..]
//!                  [--persist DIR] [--recover] [--listen ADDR] [workload]
//!                                         long-lived StreamService: epoch
//!                                         snapshots while ingestion runs,
//!                                         each verified against a
//!                                         sequential run of its prefix;
//!                                         with --persist, every epoch cut
//!                                         is also written durably to DIR,
//!                                         and --recover cold-starts from
//!                                         the newest valid snapshot there
//!                                         and replays only the workload
//!                                         tail; with --listen, a TCP query
//!                                         front-end serves the published
//!                                         snapshots while the workload
//!                                         replays until a client sends
//!                                         Shutdown
//! sketchctl loadgen --addr ADDR [--readers N] [--requests N] [--batch K]
//!                  [--universe N] [--shutdown]
//!                                         concurrent wire-protocol readers
//!                                         against a serve --listen server:
//!                                         QPS, p50/p95/p99 latency, and
//!                                         batch ≡ scalar verification
//! ```
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p bd-bench --bin sketchctl -- families
//! cargo run --release -p bd-bench --bin sketchctl -- \
//!     run csss:n=2^16,eps=0.05,alpha=8,seed=42 bounded:n=2^16,mass=400000,alpha=8
//! cargo run --release -p bd-bench --bin sketchctl -- \
//!     serve --spec csss:n=1e6,eps=0.05,alpha=8,seed=42 --service service:epoch=1e5,threads=4
//! ```
//!
//! `run` ingests the workload through the `StreamRunner`, then exercises
//! every capability the family's registry descriptor advertises, scoring
//! each answer against the exact `FrequencyVector` ground truth.
//!
//! `serve` drives the parallel serving engine (`bd_stream::StreamService`):
//! one identically-seeded sketch per worker thread, fed round-robin from
//! the generated workload, an immutable merged snapshot + `EpochReport`
//! every epoch — and verifies each snapshot's
//! point/norm answers against a sequential one-shot run over the same
//! stream prefix (bit-identical for `merge_bitwise` families, within the
//! float-association tolerance otherwise; `DESIGN.md §8`).
//!
//! `serve --listen ADDR` swaps prefix verification for a live TCP query
//! front-end (`bd_stream::QueryServer`, `DESIGN.md §11`): every epoch cut
//! is published through the `SnapshotHub` and the workload
//! replays continuously (replaying a bounded-deletion stream preserves its
//! realized α) so readers always race live ingestion. The process prints
//! `listening on <addr>` (ephemeral ports resolve here) and runs until a
//! client sends `Shutdown` — `loadgen --shutdown` does.
//!
//! `loadgen` is the matching client: N reader threads, each with its own
//! connection, cycling point / batched-point / heavy-hitters / report
//! requests, measuring per-request latency and verifying that batched
//! answers match scalar answers bit-for-bit whenever both responses carry
//! the same epoch stamp.

use bd_bench::workload;
use bd_bench::{fmt_bits, registry, Table};
use bd_stream::{
    DynSketch, EpochReport, ErrorCode, FrequencyVector, QueryClient, QueryServer, Request,
    Response, SampleOutcome, ServiceConfig, SketchSpec, SnapshotStore, StreamBatch, StreamRunner,
    StreamService, WalPolicy,
};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage: sketchctl <families|workloads|parse <spec>|run <spec> [workload]|\
         serve --spec <spec> [--service <cfg>] [--persist DIR] [--recover] \
         [--listen ADDR] [workload]|\
         loadgen --addr ADDR [--readers N] [--requests N] [--batch K] \
         [--universe N] [--shutdown]>"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("families") => families(),
        Some("workloads") => workloads(),
        Some("parse") => match args.get(1) {
            Some(s) => parse(s),
            None => usage(),
        },
        Some("run") => match args.get(1) {
            Some(s) => run(s, args.get(2).map(String::as_str)),
            None => usage(),
        },
        Some("serve") => {
            // `--service` carries the whole service shape as a
            // spec-grammar config string. Remaining positionals are
            // `[workload]` (plus `--spec <spec>` / a bare spec).
            let mut cfg = ServiceConfig::default();
            let mut spec_str: Option<&str> = None;
            let mut listen: Option<&str> = None;
            let mut persist: Option<&str> = None;
            let mut recover = false;
            let mut positional: Vec<&str> = Vec::new();
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--service" => match rest.next().map(|s| s.parse::<ServiceConfig>()) {
                        Some(Ok(parsed)) => cfg = parsed,
                        _ => {
                            eprintln!(
                                "--service expects \
                                 service:epoch=..,threads=..,chunk=..,depth=..,wal=..,retain=.."
                            );
                            return usage();
                        }
                    },
                    "--spec" => match rest.next() {
                        Some(s) => spec_str = Some(s),
                        None => return usage(),
                    },
                    "--listen" => match rest.next() {
                        Some(s) => listen = Some(s),
                        None => return usage(),
                    },
                    "--persist" => match rest.next() {
                        Some(s) => persist = Some(s),
                        None => return usage(),
                    },
                    "--recover" => recover = true,
                    _ => positional.push(arg),
                }
            }
            if cfg.wal != WalPolicy::Off && persist.is_none() {
                eprintln!(
                    "wal={} requires --persist DIR (the log lives there)",
                    cfg.wal
                );
                return usage();
            }
            // A bare positional spec is accepted when --spec is absent.
            let (spec, wl) = match (spec_str, positional.as_slice()) {
                (Some(s), rest) => (s, rest.first().copied()),
                (None, [s, rest @ ..]) => (*s, rest.first().copied()),
                (None, []) => return usage(),
            };
            if recover && persist.is_none() {
                eprintln!("--recover requires --persist DIR (the snapshot directory)");
                return usage();
            }
            match listen {
                Some(addr) => serve_listen(spec, wl, cfg, addr, persist, recover),
                None => serve(spec, wl, cfg, persist, recover),
            }
        }
        Some("loadgen") => {
            let mut addr: Option<&str> = None;
            let (mut readers, mut requests, mut batch) = (4usize, 400usize, 16usize);
            let mut universe = 1u64 << 16;
            let mut shutdown = false;
            let mut rest = args[1..].iter();
            let parse_flag = |flag: &str, v: Option<&String>| -> Option<u64> {
                match v.and_then(|v| v.parse::<u64>().ok()) {
                    Some(x) if x >= 1 => Some(x),
                    _ => {
                        eprintln!("{flag} expects a positive integer");
                        None
                    }
                }
            };
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--addr" | "-a" => match rest.next() {
                        Some(s) => addr = Some(s),
                        None => return usage(),
                    },
                    "--readers" | "-r" => match parse_flag("--readers", rest.next()) {
                        Some(x) => readers = x as usize,
                        None => return usage(),
                    },
                    "--requests" | "-n" => match parse_flag("--requests", rest.next()) {
                        Some(x) => requests = x as usize,
                        None => return usage(),
                    },
                    "--batch" | "-b" => match parse_flag("--batch", rest.next()) {
                        Some(x) => batch = x as usize,
                        None => return usage(),
                    },
                    "--universe" | "-u" => match parse_flag("--universe", rest.next()) {
                        Some(x) => universe = x,
                        None => return usage(),
                    },
                    "--shutdown" => shutdown = true,
                    _ => return usage(),
                }
            }
            match addr {
                Some(a) => loadgen(
                    a,
                    readers.clamp(1, 256),
                    requests,
                    batch,
                    universe,
                    shutdown,
                ),
                None => {
                    eprintln!("loadgen requires --addr HOST:PORT");
                    usage()
                }
            }
        }
        _ => usage(),
    }
}

fn families() -> ExitCode {
    let mut table = Table::new(
        "sketch families (build any of these with `run <family>:key=val,...`)",
        &["family", "capabilities", "space formula", "summary"],
    );
    for info in registry().families() {
        table.row(vec![
            info.family.to_string(),
            info.caps.to_string(),
            info.space.to_string(),
            info.summary.to_string(),
        ]);
    }
    table.print();
    println!(
        "\nspec keys: n, eps, alpha, delta, seed, regime=practical|theory, \
         k, budget, c, depth, width"
    );
    ExitCode::SUCCESS
}

fn workloads() -> ExitCode {
    let mut table = Table::new("workload grammar", &["name", "description"]);
    for (name, desc) in workload::WORKLOADS {
        table.row(vec![name.to_string(), desc.to_string()]);
    }
    table.print();
    ExitCode::SUCCESS
}

fn parse(s: &str) -> ExitCode {
    match s.parse::<SketchSpec>() {
        Ok(spec) => {
            println!("{spec}");
            match registry().info(spec.family) {
                Some(info) => println!("caps: {} | space: {}", info.caps, info.space),
                None => println!("(family not registered)"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn load(spec_str: &str, wl: Option<&str>) -> Result<(SketchSpec, StreamBatch), String> {
    let spec: SketchSpec = spec_str.parse().map_err(|e| format!("{e}"))?;
    // Default workload: a bounded-deletion stream matching the spec's own
    // (n, α) promise.
    let wl = wl.map(str::to_string).unwrap_or_else(|| {
        format!(
            "bounded:n={},mass=200000,alpha={},seed=1",
            spec.n, spec.alpha
        )
    });
    let stream = workload::generate(&wl).map_err(|e| format!("{e}"))?;
    Ok((spec, stream))
}

/// Exercise every advertised capability against exact ground truth.
fn score(sk: &dyn DynSketch, truth: &FrequencyVector, epsilon: f64) {
    if let Some(p) = sk.as_point() {
        let mut worst = 0.0f64;
        let mut shown = 0;
        println!("\npoint queries (top of true support):");
        let mut support: Vec<u64> = truth.support();
        support.sort_by_key(|&i| std::cmp::Reverse(truth.get(i).unsigned_abs()));
        for &i in &support {
            let (est, exact) = (p.point(i), truth.get(i) as f64);
            worst = worst.max((est - exact).abs());
            if shown < 5 {
                println!("  item {i:>12}: estimate {est:>12.1}, true {exact:>10}");
                shown += 1;
            }
        }
        println!(
            "  worst |est − true| over the support: {worst:.1} (ε·‖f‖₁ = {:.1})",
            truth.l1() as f64 * epsilon
        );
    }
    if let Some(nrm) = sk.as_norm() {
        println!("\nnorm estimate: {:.1}", nrm.norm_estimate());
        println!(
            "  (exact ‖f‖₁ = {}, ‖f‖₀ = {}, ‖f‖₂ = {:.1}, F₀ = {} — which norm is \
             the family's contract)",
            truth.l1(),
            truth.l0(),
            truth.l2(),
            truth.f0()
        );
    }
    if let Some(s) = sk.as_sample() {
        match s.sample() {
            SampleOutcome::Sample { item, estimate } => println!(
                "\nsample: item {item} (estimate {estimate:.1}, true {})",
                truth.get(item)
            ),
            SampleOutcome::Fail => println!("\nsample: FAIL (allowed with probability δ)"),
        }
    }
    if let Some(sp) = sk.as_support() {
        let got = sp.support_query();
        let valid = got.iter().filter(|&&i| truth.get(i) != 0).count();
        println!(
            "\nsupport recovery: {} items, {valid} valid (true ‖f‖₀ = {})",
            got.len(),
            truth.l0()
        );
    }
}

fn run(spec_str: &str, wl: Option<&str>) -> ExitCode {
    let (spec, stream) = match load(spec_str, wl) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sk = match registry().build(&spec) {
        Ok(sk) => sk,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let truth = FrequencyVector::from_stream(&stream);
    println!(
        "spec     {spec}\nworkload {} updates over n = {}, realized α₁ = {:.2}",
        stream.len(),
        stream.n,
        truth.alpha_l1()
    );
    let report = StreamRunner::new().run(&mut *sk, &stream);
    println!(
        "ingest   {:.2} M updates/s, space {}",
        report.updates_per_sec() / 1e6,
        fmt_bits(report.space_bits())
    );
    score(sk.as_ref(), &truth, spec.epsilon);
    ExitCode::SUCCESS
}

/// One answer probed for prefix verification: item identities compare
/// exactly, estimates bitwise or within the float-association tolerance.
enum Answer {
    Item(u64),
    Estimate(f64),
}

/// Every query answer a snapshot exposes — point, norm, sample, support —
/// so prefix verification is never vacuous (every registered family has at
/// least one query capability).
fn answer_probe(sk: &dyn DynSketch, n: u64) -> Vec<Answer> {
    let mut out = Vec::new();
    if let Some(p) = sk.as_point() {
        out.extend((0..1024u64.min(n)).map(|i| Answer::Estimate(p.point(i))));
    }
    if let Some(nm) = sk.as_norm() {
        out.push(Answer::Estimate(nm.norm_estimate()));
    }
    if let Some(s) = sk.as_sample() {
        match s.sample() {
            SampleOutcome::Sample { item, estimate } => {
                out.push(Answer::Item(item));
                out.push(Answer::Estimate(estimate));
            }
            SampleOutcome::Fail => out.push(Answer::Item(u64::MAX)),
        }
    }
    if let Some(sp) = sk.as_support() {
        out.extend(sp.support_query().into_iter().map(Answer::Item));
    }
    out
}

/// Whether two probes agree: bitwise on estimates when `bitwise`, within
/// the 1e-6-relative tolerance otherwise; item identities always exact.
fn answers_agree(got: &[Answer], want: &[Answer], bitwise: bool) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| match (g, w) {
            (Answer::Item(a), Answer::Item(b)) => a == b,
            (Answer::Estimate(a), Answer::Estimate(b)) => {
                if bitwise {
                    a.to_bits() == b.to_bits()
                } else {
                    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
                }
            }
            _ => false,
        })
}

/// Start a `StreamService`, optionally durable (`--persist DIR` attaches a
/// `SnapshotStore`) and optionally cold-started from the newest valid
/// snapshot in that directory (`--recover`).
fn start_service(
    spec: &SketchSpec,
    cfg: ServiceConfig,
    persist: Option<&str>,
    recover: bool,
) -> Result<StreamService, String> {
    let reg = registry();
    match persist {
        Some(dir) => {
            let store = SnapshotStore::open(dir)
                .map_err(|e| format!("failed to open snapshot dir `{dir}`: {e}"))?;
            if recover {
                StreamService::recover(reg, spec, cfg, store)
                    .map_err(|e| format!("recovery failed: {e}"))
            } else {
                let mut svc = StreamService::start(reg, spec, cfg)
                    .map_err(|e| format!("service failed to start: {e}"))?;
                svc.persist_to(store)
                    .map_err(|e| format!("attaching persistence failed: {e}"))?;
                Ok(svc)
            }
        }
        None => StreamService::start(reg, spec, cfg)
            .map_err(|e| format!("service failed to start: {e}")),
    }
}

/// Drive the long-lived `StreamService` over a generated workload, print
/// each epoch snapshot's report, and verify every snapshot's point/norm
/// answers against a sequential one-shot run over the same stream prefix.
/// With `--recover` the service resumes from the newest snapshot and only
/// the workload tail after its offered-stream stamp is replayed.
fn serve(
    spec_str: &str,
    wl: Option<&str>,
    cfg: ServiceConfig,
    persist: Option<&str>,
    recover: bool,
) -> ExitCode {
    let spec: SketchSpec = match spec_str.parse() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Default workload: a bounded-deletion stream matching the spec's own
    // (n, α) promise, sized to cover several epochs.
    let wl = wl.map(str::to_string).unwrap_or_else(|| {
        format!(
            "bounded:n={},mass={},alpha={},seed=1",
            spec.n,
            200_000u64.max(3 * cfg.epoch),
            spec.alpha
        )
    });
    let stream = match workload::generate(&wl) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let reg = registry();
    let merge_bitwise = match reg.info(spec.family) {
        Some(info) => info.caps.merge_bitwise,
        None => {
            eprintln!("family `{}` is not registered", spec.family);
            return ExitCode::FAILURE;
        }
    };
    let mut svc = match start_service(&spec, cfg, persist, recover) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "spec     {spec}\nservice  {cfg}\nworkload {} updates over n = {} \
         (epoch boundary every {} updates)\n",
        stream.len(),
        stream.n,
        cfg.epoch
    );
    let skip = svc.replay_from();
    if skip > 0 {
        println!(
            "recovered epoch {} from `{}` — replaying the workload tail from update {skip}\n",
            svc.epochs_cut(),
            persist.unwrap_or_default()
        );
    }
    // The unbounded-source shape: feed the stream (or, after recovery,
    // only its unseen tail) through the iterator driver, then cut the
    // final partial epoch.
    let mut snaps = match svc.run(stream.updates.iter().skip(skip).copied()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("service failed mid-stream: {e}");
            return ExitCode::FAILURE;
        }
    };
    match svc.finish() {
        Ok(last) => snaps.extend(last),
        Err(e) => {
            eprintln!("service failed during the final cut: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut ok = true;
    for snap in &snaps {
        let rep = &snap.report;
        println!(
            "epoch {:>3}  {:>9} updates ({:>9} total)  {:>7.2} M up/s  \
             merge {:>6.2} ms  space {}",
            rep.epoch,
            rep.updates,
            rep.total_updates,
            rep.updates_per_sec() / 1e6,
            rep.merge_elapsed.as_secs_f64() * 1e3,
            fmt_bits(rep.space_bits())
        );
        println!(
            "           queue peak {:>4} (cap {} = depth x threads)  blocked {:>7.2} ms",
            rep.queue_peak,
            cfg.depth * cfg.threads,
            rep.blocked.as_secs_f64() * 1e3
        );
        if cfg.wal != WalPolicy::Off {
            println!(
                "           wal {} records / {} bytes appended this epoch",
                rep.wal_records, rep.wal_bytes
            );
        }
        println!(
            "           deletion fraction {:.3} (α-cap {:.3})  α floor {:.2} vs \
             configured {:.0} — {}",
            rep.deletion_fraction(),
            EpochReport::deletion_cap(rep.alpha_configured),
            rep.alpha_observed(),
            rep.alpha_configured,
            if rep.within_alpha() {
                "within α promise"
            } else {
                "prefix exceeds α promise"
            }
        );
        // Snapshot ≡ replay: a fresh sequential run over the same prefix.
        let mut seq = reg.build(&spec).expect("spec built once already");
        StreamRunner::new().run_updates(&mut *seq, &stream.updates[..rep.total_updates]);
        let (got, want) = (
            answer_probe(snap.sketch.as_ref(), stream.n),
            answer_probe(seq.as_ref(), stream.n),
        );
        let agree = answers_agree(&got, &want, merge_bitwise);
        println!(
            "           snapshot ≡ sequential prefix: {}",
            if agree {
                if merge_bitwise {
                    "bit-identical ✓"
                } else {
                    "estimate-equal ✓"
                }
            } else {
                ok = false;
                "MISMATCH ✗"
            }
        );
    }
    println!("\n{} epoch snapshot(s) emitted", snaps.len());
    if snaps.len() < 2 && skip == 0 {
        eprintln!("workload too small for the epoch length — fewer than 2 snapshots");
        return ExitCode::FAILURE;
    }
    if !ok {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `serve --listen`: the same `StreamService` ingestion loop with a TCP
/// query front-end attached. Every epoch cut is published through the
/// service's `SnapshotHub`; the generated workload replays continuously
/// (replaying a bounded-deletion stream scales `f`, `I`, and `D` by the
/// same factor, so the realized α is preserved) until a client sends
/// `Shutdown`. Prints `listening on <addr>` so scripts binding port 0 can
/// learn the resolved address.
fn serve_listen(
    spec_str: &str,
    wl: Option<&str>,
    cfg: ServiceConfig,
    addr: &str,
    persist: Option<&str>,
    recover: bool,
) -> ExitCode {
    let spec: SketchSpec = match spec_str.parse() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let wl = wl.map(str::to_string).unwrap_or_else(|| {
        format!(
            "bounded:n={},mass={},alpha={},seed=1",
            spec.n,
            200_000u64.max(3 * cfg.epoch),
            spec.alpha
        )
    });
    let stream = match workload::generate(&wl) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if stream.updates.is_empty() {
        eprintln!("workload generated no updates — nothing to serve");
        return ExitCode::FAILURE;
    }
    let mut svc = match start_service(&spec, cfg, persist, recover) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match QueryServer::bind(addr, svc.handle()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "spec     {spec}\nservice  {cfg}\nworkload {} updates over n = {} per pass \
         (epoch boundary every {} updates)",
        stream.len(),
        stream.n,
        cfg.epoch
    );
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    let chunk = cfg.chunk.max(1);
    let (mut passes, mut epochs, mut total) = (0u64, 0usize, 0u64);
    // A recovered service resumes mid-pass: the workload replays
    // cyclically, so the tail begins at the replay cursor modulo one pass.
    let mut start = svc.replay_from() % stream.updates.len();
    if svc.replay_from() > 0 {
        println!(
            "recovered epoch {} — resuming at update {start} of the workload pass",
            svc.epochs_cut()
        );
    }
    'ingest: loop {
        for batch in stream.updates[start..].chunks(chunk) {
            if server.stop_requested() {
                break 'ingest;
            }
            match svc.ingest(batch) {
                Ok(snaps) => epochs += snaps.len(),
                Err(e) => {
                    eprintln!("service failed mid-stream: {e}");
                    break 'ingest;
                }
            }
            total += batch.len() as u64;
        }
        start = 0;
        passes += 1;
    }
    match svc.finish() {
        Ok(Some(_)) => epochs += 1,
        Ok(None) => {}
        Err(e) => eprintln!("service failed during the final cut: {e}"),
    }
    server.join();
    println!(
        "shutdown after {passes} full workload pass(es): {total} updates ingested, \
         {epochs} epoch snapshot(s) published"
    );
    ExitCode::SUCCESS
}

/// Xorshift-style step for loadgen's query-item choice — cheap, seeded per
/// reader, and deliberately not a crate dependency.
fn lcg_next(state: &mut u64, m: u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) % m.max(1)
}

/// Per-reader loadgen outcome: request latencies plus how many batched
/// answers were verified bit-for-bit against a same-stamp scalar answer.
struct ReaderStats {
    latencies: Vec<Duration>,
    verified: usize,
}

/// One loadgen reader: its own connection, cycling point / batched-point /
/// heavy-hitters / report requests. Every response must be well-formed;
/// `Unsupported` errors are legitimate (family capabilities differ), a
/// `NoSnapshot` after the warm-up barrier is not (publication is monotone).
fn loadgen_reader(
    addr: &str,
    id: usize,
    requests: usize,
    batch: usize,
    universe: u64,
) -> Result<ReaderStats, String> {
    let err = |stage: &str, e: std::io::Error| format!("reader {id}: {stage}: {e}");
    let mut client = QueryClient::connect(addr).map_err(|e| err("connect", e))?;
    // Warm-up barrier: wait until the service has published its first
    // epoch so every timed request below races live ingestion, not the
    // empty hub.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client
            .request(&Request::Report)
            .map_err(|e| err("warm-up report", e))?
        {
            Response::Report(_) => break,
            Response::Error {
                code: ErrorCode::NoSnapshot,
                ..
            } => {
                if Instant::now() > deadline {
                    return Err(format!("reader {id}: no snapshot published within 10s"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            other => return Err(format!("reader {id}: unexpected warm-up answer {other:?}")),
        }
    }
    let mut state = 0x9E3779B97F4A7C15u64 ^ (id as u64).wrapping_mul(0xA24BAED4963EE407);
    let mut latencies = Vec::with_capacity(requests);
    let mut verified = 0usize;
    for r in 0..requests {
        let req = match r % 8 {
            7 => Request::Report,
            6 => Request::HeavyHitters { threshold: 1.0 },
            k if k % 2 == 0 => Request::PointBatch {
                items: (0..batch.max(1))
                    .map(|_| lcg_next(&mut state, universe))
                    .collect(),
            },
            _ => Request::Point {
                item: lcg_next(&mut state, universe),
            },
        };
        let t0 = Instant::now();
        let resp = client.request(&req).map_err(|e| err("request", e))?;
        latencies.push(t0.elapsed());
        if let Response::Error { code, message } = &resp {
            if *code == ErrorCode::NoSnapshot {
                return Err(format!(
                    "reader {id}: NoSnapshot after warm-up — publication went backwards \
                     ({message})"
                ));
            }
            continue; // Unsupported et al.: legitimate per-family answers.
        }
        // Batched ≡ scalar spot check: re-ask for the batch's first item
        // through the scalar path (untimed) and compare bit-for-bit when
        // both answers come from the same epoch.
        if let (Request::PointBatch { items }, Response::Points { stamp, estimates }) =
            (&req, &resp)
        {
            let follow = client
                .request(&Request::Point { item: items[0] })
                .map_err(|e| err("verify point", e))?;
            if let Response::Point {
                stamp: s2,
                estimate,
            } = follow
            {
                if *stamp == s2 {
                    if estimates[0].to_bits() != estimate.to_bits() {
                        return Err(format!(
                            "reader {id}: batch/scalar mismatch on item {} at stamp {stamp}: \
                             {} vs {estimate}",
                            items[0], estimates[0]
                        ));
                    }
                    verified += 1;
                }
            }
        }
    }
    Ok(ReaderStats {
        latencies,
        verified,
    })
}

/// Sorted-latency percentile (nearest-rank on the rounded index), or
/// `None` on an empty sample — a loadgen run whose every request failed
/// (or that sent zero) has no latency distribution to index into.
fn percentile(sorted: &[Duration], q: f64) -> Option<Duration> {
    let last = sorted.len().checked_sub(1)?;
    let idx = (last as f64 * q).round() as usize;
    Some(sorted[idx])
}

/// Drive `--readers` concurrent wire-protocol readers against a
/// `serve --listen` server and report QPS + latency percentiles; with
/// `--shutdown`, finish by asking the server to stop.
fn loadgen(
    addr: &str,
    readers: usize,
    requests: usize,
    batch: usize,
    universe: u64,
    shutdown: bool,
) -> ExitCode {
    println!(
        "loadgen  {readers} reader(s) x {requests} requests against {addr} \
         (batch {batch}, universe {universe})"
    );
    let t0 = Instant::now();
    let outcomes: Vec<Result<ReaderStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|id| scope.spawn(move || loadgen_reader(addr, id, requests, batch, universe)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen reader panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let mut latencies = Vec::new();
    let mut verified = 0usize;
    let mut failed = false;
    for outcome in outcomes {
        match outcome {
            Ok(stats) => {
                latencies.extend(stats.latencies);
                verified += stats.verified;
            }
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if shutdown {
        match QueryClient::connect(addr).and_then(|mut c| c.request(&Request::Shutdown)) {
            Ok(Response::ShutdownAck) => println!("server acknowledged shutdown"),
            Ok(other) => {
                eprintln!("unexpected shutdown answer {other:?}");
                failed = true;
            }
            Err(e) => {
                eprintln!("shutdown request failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    latencies.sort_unstable();
    let total = latencies.len();
    println!(
        "served   {total} timed requests in {:.2} s  ->  {:.0} req/s aggregate",
        wall.as_secs_f64(),
        total as f64 / wall.as_secs_f64()
    );
    match (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
        latencies.last(),
    ) {
        (Some(p50), Some(p95), Some(p99), Some(max)) => println!(
            "latency  p50 {:>7.1} us  p95 {:>7.1} us  p99 {:>7.1} us  max {:>7.1} us",
            p50.as_secs_f64() * 1e6,
            p95.as_secs_f64() * 1e6,
            p99.as_secs_f64() * 1e6,
            max.as_secs_f64() * 1e6
        ),
        _ => println!("latency  n=0 — no requests completed, no percentiles to report"),
    }
    println!("verified {verified} batched answer(s) bit-identical to same-stamp scalar answers");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_slice_is_none() {
        // Regression: this used to compute `0 - 1` on usize and panic,
        // taking down a loadgen run whose requests all failed.
        assert_eq!(percentile(&[], 0.50), None);
        assert_eq!(percentile(&[], 0.99), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ms: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 0.0), Some(Duration::from_millis(1)));
        assert_eq!(percentile(&ms, 0.50), Some(Duration::from_millis(6)));
        assert_eq!(percentile(&ms, 1.0), Some(Duration::from_millis(10)));
        let one = [Duration::from_millis(7)];
        assert_eq!(percentile(&one, 0.99), Some(Duration::from_millis(7)));
    }
}
