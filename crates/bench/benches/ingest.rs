//! Ingestion throughput: per-update `Sketch::update` versus batched
//! `Sketch::update_batch` through the `StreamRunner`, on the structures with
//! pre-aggregating batch overrides (Countsketch, Count-Min, CSSS, the
//! α heavy hitters, the general α L1 estimator, the turnstile support
//! sampler) plus one default-impl control (the exact frequency vector) —
//! and the `ingest_sharded` section: the batched sequential pass versus a
//! one-shot parallel run — a 4-worker `StreamService` whose single epoch
//! covers the stream — on the mergeable hot families —
//! and the `ingest_service` section: the same stream through the
//! `StreamService` with 4 epoch snapshots, compared against the one-epoch
//! row to isolate the cost of epoch cuts (clone + merge + report) —
//! and the `hash` section: the batched hash engine in isolation (per-item
//! Horner vs chunk-at-a-time power-form evaluation at k = 2, 4 and 6,
//! Lemire vs modulus range reduction) —
//! and the `persist` section: versioned snapshot encode/decode latency per
//! family plus the `StreamService::recover` cold-start path from an on-disk
//! `SnapshotStore` —
//! and the `wal` section: persisted service ingestion under each
//! write-ahead-log fsync policy (`off` / `epoch` / `batch`) plus the
//! WAL-tail replay path of recovery, with an in-bench gate holding the
//! `epoch`-policy append overhead under 20% of the no-WAL persisted rate
//! (`batch` pays an fsync per dispatch cell by design, so its row is
//! reported ungated) —
//! and the `binomial` section: CSSS's `Bin(n, 2^-q)` draw by halving versus
//! the shipped `bin_pow2`, on cells either side of its inversion crossover —
//! all gated by `scripts/bench_compare.sh` so no section can silently
//! disappear.
//!
//! Sketches are named by `SketchSpec` and built through the workspace
//! registry, so adding a structure to the sweep is one spec line.
//!
//! Emits `BENCH_ingest.json` (median updates/sec per configuration) so later
//! PRs have a throughput trajectory to compare against;
//! `scripts/bench_compare.sh` gates CI on >20% regressions against the
//! committed baseline. Sharded speedups are machine-dependent (they track
//! available cores — `std::thread::available_parallelism` is recorded in the
//! JSON context), so new measurements land ungated until a baseline exists.
//!
//! Run: `cargo bench -p bd-bench --bench ingest`

use bd_bench::micro::{self, Measurement};
use bd_bench::registry;
use bd_core::binomial::{bin_pow2, bin_pow2_halving, bin_pow2_inverts};
use bd_core::AlphaHeavyHitters;
use bd_stream::gen::BoundedDeletionGen;
use bd_stream::{
    merge_tree, sketch_from_bytes, sketch_to_bytes, DynSketch, QueryClient, QueryServer, QueryView,
    Request, ServiceConfig, SketchFamily, SketchSpec, SnapshotStore, StreamBatch, StreamRunner,
    StreamService, WalPolicy,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const N: u64 = 1 << 16;
const MASS: u64 = 400_000;
const SAMPLES: usize = 7;
const WARMUP: usize = 2;

fn workload() -> StreamBatch {
    // Zipfian head over 1024 distinct items: the duplicate-heavy regime the
    // batched paths exist for (each 4096-update chunk holds ~few hundred
    // distinct items).
    let mut gen = BoundedDeletionGen::new(N, MASS, 4.0);
    gen.distinct = 1024;
    gen.generate_seeded(7)
}

/// Resident-set size in bytes from `/proc/self/statm` (Linux; `None`
/// elsewhere) — the overload section's bounded-memory assertion reads it
/// before and after saturating the service queues.
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

/// Time a full pass over `stream` on a fresh registry-built sketch per
/// sample.
fn ingest(name: &str, stream: &StreamBatch, runner: StreamRunner, spec: SketchSpec) -> Measurement {
    micro::sample(name, stream.len() as u64, SAMPLES, WARMUP, |s| {
        let mut sk = registry()
            .build(&spec.with_seed(s as u64))
            .expect("bench spec must be registered");
        runner.run(&mut *sk, stream);
        std::hint::black_box(sk.space_bits());
    })
}

/// Time a full `StreamService` pass (round-robin dispatch, epoch cuts with
/// clone + merge snapshots, final cut) per sample, asserting it cut
/// `epochs` snapshots.
fn ingest_service(
    name: &str,
    stream: &StreamBatch,
    cfg: ServiceConfig,
    spec: SketchSpec,
    epochs: usize,
) -> Measurement {
    micro::sample(name, stream.len() as u64, SAMPLES, WARMUP, |s| {
        let mut svc = StreamService::start(registry(), &spec.with_seed(s as u64), cfg)
            .expect("bench spec must be servable");
        let mut snaps = svc.ingest(&stream.updates).expect("service ingest");
        snaps.extend(svc.finish().expect("final cut"));
        assert_eq!(snaps.len(), epochs, "epoch snapshots");
        std::hint::black_box(snaps.iter().map(|sn| sn.report.space_bits()).sum::<u64>());
    })
}

/// Draws timed per sample by the `binomial` section.
const DRAWS: u64 = 1 << 18;

/// Time `DRAWS` draws of `draw(rng, n, q)` per sample.
fn time_draws(
    name: &str,
    n: u64,
    q: u32,
    draw: impl Fn(&mut SmallRng, u64, u32) -> u64,
) -> Measurement {
    let mut rng = SmallRng::seed_from_u64(u64::from(q) << 32 | n);
    micro::sample(name, DRAWS, SAMPLES, WARMUP, |_| {
        let mut kept = 0u64;
        for _ in 0..DRAWS {
            kept += draw(&mut rng, std::hint::black_box(n), std::hint::black_box(q));
        }
        std::hint::black_box(kept);
    })
}

fn main() {
    let stream = workload();
    let per = StreamRunner::unbatched();
    let bat = StreamRunner::new();
    let mut results: Vec<Measurement> = Vec::new();
    let mut pairs: Vec<(String, f64)> = Vec::new();

    println!(
        "ingest throughput — {} updates, {} distinct-ish items, chunk = {}\n",
        stream.len(),
        1024,
        StreamRunner::DEFAULT_CHUNK
    );

    let mut compare = |label: &str, spec: SketchSpec| {
        let a = ingest(&format!("{label}/per_update"), &stream, per, spec);
        let b = ingest(&format!("{label}/update_batch"), &stream, bat, spec);
        micro::report(&a);
        micro::report(&b);
        let speedup = b.ops_per_sec / a.ops_per_sec;
        println!("  {label:<44} {speedup:>10.2}x batched speedup\n");
        pairs.push((label.to_string(), speedup));
        results.push(a);
        results.push(b);
    };

    // All specs share (n, ε = 0.1, α = 4); the shapes these derive match the
    // hand-built sketches of earlier trajectory entries (480-wide
    // Countsketch, 5×512 Count-Min, budget = Params::csss_sample_budget()).
    let base = SketchSpec::new(SketchFamily::CountSketch)
        .with_n(N)
        .with_epsilon(0.1)
        .with_alpha(4.0);
    compare("countsketch", base);
    compare(
        "countmin",
        base.with_family(SketchFamily::CountMin)
            .with_depth(5)
            .with_width(512),
    );
    compare("csss", base.with_family(SketchFamily::Csss).with_k(16));
    compare(
        "alpha_heavy_hitters",
        base.with_family(SketchFamily::AlphaHh),
    );
    compare(
        "support_turnstile",
        base.with_family(SketchFamily::SupportTurnstile).with_k(8),
    );
    compare(
        "alpha_l1_general",
        base.with_family(SketchFamily::AlphaL1General),
    );
    compare(
        "frequency_vector(control)",
        base.with_family(SketchFamily::Exact),
    );

    // Steady-state α heavy hitters. The `update_batch` row above times
    // fresh sketches, whose CSSS keeps every unit; a long-running worker
    // samples at a deep level, where every chunk thins, draws per-row
    // binomials and prunes its candidate set several times. Warm one
    // sketch with whole passes until CSSS reaches level 5, then time
    // further passes into it.
    let mut hh = bd_bench::build::<AlphaHeavyHitters>(&base.with_family(SketchFamily::AlphaHh));
    while hh.sampling_level() < 5 {
        bat.run(&mut hh, &stream);
    }
    let steady = micro::sample(
        "alpha_heavy_hitters/update_batch_steady",
        stream.len() as u64,
        SAMPLES,
        WARMUP,
        |_| {
            bat.run(&mut hh, &stream);
        },
    );
    micro::report(&steady);
    results.push(steady);

    // Deep α heavy hitters: a long-running service worker sits at CSSS
    // level 8 or deeper (perfbench's `ingest` workers reach 6–9), where a
    // row's `Bin(w, 2^-p)` draw keeps no unit for almost every weighted
    // update. Keep warming the steady sketch to level 8, then time passes.
    while hh.sampling_level() < 8 {
        bat.run(&mut hh, &stream);
    }
    let deep = micro::sample(
        "alpha_heavy_hitters/update_batch_deep",
        stream.len() as u64,
        SAMPLES,
        WARMUP,
        |_| {
            bat.run(&mut hh, &stream);
        },
    );
    micro::report(&deep);
    println!();
    results.push(deep);

    // Sampler microsection: `Bin(n, 2^-q)` by q halvings against the
    // shipped `bin_pow2`, which inverts below a mean of ½ and halves
    // above it. The crossover constant (`binomial::INVERSION_MEAN_SHIFT`)
    // rests on these rows: on the cells that invert, inversion should
    // beat halving, and the cells that fall back should pay only the
    // crossover test. Reported, not gated. `scripts/bench_compare.sh`
    // asserts the section exists.
    println!("binomial — Bin(n, 2^-q) by halving vs the shipped bin_pow2\n");
    let mut binomial_pairs: Vec<String> = Vec::new();
    for q in [1u32, 4, 8] {
        for n in [1u64, 8, 64] {
            let halving = time_draws(
                &format!("binomial/halving_q{q}_n{n}"),
                n,
                q,
                bin_pow2_halving,
            );
            let shipped = time_draws(&format!("binomial/bin_pow2_q{q}_n{n}"), n, q, bin_pow2);
            micro::report(&halving);
            micro::report(&shipped);
            let branch = if bin_pow2_inverts(n, q) {
                "inversion"
            } else {
                "halving"
            };
            let speedup = halving.ns_per_op / shipped.ns_per_op;
            println!("  q={q} n={n:<41} {speedup:>10.2}x ({branch})\n");
            binomial_pairs.push(format!("q{q}_n{n}={speedup:.2}x({branch})"));
            results.push(halving);
            results.push(shipped);
        }
    }

    // The amplified L1 sampler (30 instances at ε = 0.1) groups each chunk
    // once, item index included, and replays it into every instance; each
    // instance scores its grouped items in one batched pass. The
    // per-update path pays 30 instances of scalar estimates per update, so
    // only the batched row is timed.
    let l1 = ingest(
        "alpha_l1_sampler/update_batch",
        &stream,
        bat,
        base.with_family(SketchFamily::AlphaL1Sampler),
    );
    micro::report(&l1);
    println!();
    results.push(l1);

    // Sharded ingestion: batched sequential pass vs a one-shot parallel
    // run at `SHARD_THREADS` workers — a service whose one epoch covers the
    // stream — on mergeable families spanning the cost spectrum (cheap
    // control, linear table, sampling compound).
    const SHARD_THREADS: usize = 4;
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "\nsharded ingestion — one-epoch StreamService at {SHARD_THREADS} workers \
         ({cores} core(s) available)\n"
    );
    let one_epoch_cfg = ServiceConfig::default()
        .with_threads(SHARD_THREADS)
        .with_epoch(stream.len() as u64);
    let mut shard_pairs: Vec<(String, f64)> = Vec::new();
    let mut one_epoch_rates: Vec<(String, f64)> = Vec::new();
    let mut compare_sharded = |label: &str, spec: SketchSpec| {
        let seq = ingest(&format!("ingest_sharded/{label}/seq"), &stream, bat, spec);
        let shr = ingest_service(
            &format!("ingest_sharded/{label}/t{SHARD_THREADS}"),
            &stream,
            one_epoch_cfg,
            spec,
            1,
        );
        micro::report(&seq);
        micro::report(&shr);
        let speedup = shr.ops_per_sec / seq.ops_per_sec;
        println!("  {label:<44} {speedup:>10.2}x sharded speedup\n");
        shard_pairs.push((label.to_string(), speedup));
        one_epoch_rates.push((label.to_string(), shr.ops_per_sec));
        results.push(seq);
        results.push(shr);
    };
    compare_sharded("exact", base.with_family(SketchFamily::Exact));
    compare_sharded("countsketch", base);
    compare_sharded("csss", base.with_family(SketchFamily::Csss).with_k(16));
    compare_sharded(
        "alpha_heavy_hitters",
        base.with_family(SketchFamily::AlphaHh),
    );

    // Service ingestion: the StreamService (4 workers, epoch snapshots with
    // clone + merge every quarter of the stream) vs the one-epoch `t4` row
    // above — the ratio is the cost of the three extra epoch cuts.
    let service_cfg = one_epoch_cfg.with_epoch(stream.len() as u64 / 4);
    println!(
        "\nservice ingestion — StreamService at {SHARD_THREADS} workers, \
         epoch = {} updates (4 scheduled snapshots)\n",
        service_cfg.epoch
    );
    let mut service_pairs: Vec<(String, f64)> = Vec::new();
    let mut compare_service = |label: &str, spec: SketchSpec| {
        let svc = ingest_service(
            &format!("ingest_service/{label}/service_t{SHARD_THREADS}"),
            &stream,
            service_cfg,
            spec,
            4,
        );
        micro::report(&svc);
        let one_epoch = one_epoch_rates
            .iter()
            .find(|(l, _)| l == label)
            .expect("every service family has a one-epoch row")
            .1;
        let overhead = one_epoch / svc.ops_per_sec;
        println!("  {label:<44} {overhead:>10.2}x epoch-cut overhead\n");
        service_pairs.push((label.to_string(), overhead));
        results.push(svc);
    };
    compare_service("exact", base.with_family(SketchFamily::Exact));
    compare_service("csss", base.with_family(SketchFamily::Csss).with_k(16));
    compare_service(
        "alpha_heavy_hitters",
        base.with_family(SketchFamily::AlphaHh),
    );

    // Hash engine microsection: per-item Horner vs chunk-at-a-time
    // power-form evaluation (`hash_batch` and row plans) and the two range
    // reduction variants (Lemire multiply-shift vs integer modulus) on one
    // chunk of distinct items. `scripts/bench_compare.sh` asserts this
    // section exists — hot-path coverage must not silently vanish.
    println!("\nhash engine — scalar vs batched k-wise evaluation, reduction variants\n");
    let mut hrng = SmallRng::seed_from_u64(99);
    let hash_items: Vec<u64> = (0..4096u64).map(|_| hrng.gen()).collect();
    let h4 = bd_hash::KWiseHash::new(&mut hrng, 4, 480);
    let evals: Vec<u64> = hash_items.iter().map(|&x| h4.eval_field(x)).collect();
    let n_items = hash_items.len() as u64;
    let mut hash_bench = |m: Measurement| {
        micro::report(&m);
        results.push(m);
    };
    hash_bench(micro::sample(
        "hash/scalar_eval_k4",
        n_items,
        SAMPLES,
        WARMUP,
        |_| {
            let mut acc = 0u64;
            for &x in &hash_items {
                acc = acc.wrapping_add(h4.hash(x));
            }
            std::hint::black_box(acc);
        },
    ));
    let mut batch_out: Vec<u64> = Vec::new();
    hash_bench(micro::sample(
        "hash/batch_eval_k4",
        n_items,
        SAMPLES,
        WARMUP,
        |_| {
            h4.hash_batch(&hash_items, &mut batch_out);
            std::hint::black_box(batch_out.last().copied());
        },
    ));
    // Row plans at each independence the workspace builds (k = 2 for
    // Count-Min and the turnstile support sampler, 4 for Countsketch and
    // CSSS, 6 for the Cauchy rows): load a chunk, then evaluate 9 bucket
    // and 9 sign rows over it in power form. One op is one item across the
    // 9 (bucket, sign) row pairs.
    let mut plan = bd_hash::RowHashes::new();
    let (mut pb, mut ps): (Vec<u64>, Vec<bool>) = (Vec::new(), Vec::new());
    for k in [2usize, 4, 6] {
        let rows: Vec<(bd_hash::KWiseHash, bd_hash::SignHash)> = (0..9)
            .map(|_| {
                (
                    bd_hash::KWiseHash::new(&mut hrng, k, 480),
                    bd_hash::SignHash::with_independence(&mut hrng, k),
                )
            })
            .collect();
        hash_bench(micro::sample(
            &format!("hash/row_plan_d9_k{k}"),
            n_items * rows.len() as u64,
            SAMPLES,
            WARMUP,
            |_| {
                plan.load(hash_items.iter().copied());
                pb.clear();
                ps.clear();
                for (h, g) in &rows {
                    plan.append_buckets(h, &mut pb);
                    plan.append_signs(g, &mut ps);
                }
                std::hint::black_box((pb.last().copied(), ps.last().copied()));
            },
        ));
    }
    hash_bench(micro::sample(
        "hash/reduce_lemire",
        n_items,
        SAMPLES,
        WARMUP,
        |_| {
            let range = std::hint::black_box(480u64);
            let mut acc = 0u64;
            for &v in &evals {
                acc = acc.wrapping_add(bd_hash::reduce_range(v, range));
            }
            std::hint::black_box(acc);
        },
    ));
    hash_bench(micro::sample(
        "hash/reduce_modulus",
        n_items,
        SAMPLES,
        WARMUP,
        |_| {
            let range = std::hint::black_box(480u64);
            let mut acc = 0u64;
            for &v in &evals {
                acc = acc.wrapping_add(v % range);
            }
            std::hint::black_box(acc);
        },
    ));

    // Merge fold microsection: the serial left-to-right `merge_dyn` fold vs
    // the inline pairwise tree fold the service runs at every epoch cut,
    // over identically-built ingested parts (cloned per sample, so each row
    // is clone + fold — the clone cost is common to both). Both folds do
    // the same `W − 1` merges; the rows keep fold cost a measured quantity.
    const MERGE_PARTS: usize = 8;
    println!(
        "\nmerge — serial fold vs pairwise tree fold, {MERGE_PARTS} countsketch parts \
         (clone + fold per sample)\n"
    );
    let merge_parts: Vec<Box<dyn DynSketch>> = {
        let mut parts = registry()
            .build_n(&base.with_seed(11), MERGE_PARTS)
            .unwrap();
        let per = stream.len().div_ceil(MERGE_PARTS);
        for (part, chunk) in parts.iter_mut().zip(stream.updates.chunks(per)) {
            StreamRunner::new().run_updates(&mut **part, chunk);
        }
        parts
    };
    let n_merges = (MERGE_PARTS - 1) as u64;
    let m_serial = micro::sample(
        &format!("merge/countsketch_w{MERGE_PARTS}/serial"),
        n_merges,
        SAMPLES,
        WARMUP,
        |_| {
            let mut clones: Vec<Box<dyn DynSketch>> =
                merge_parts.iter().map(|p| p.clone_dyn()).collect();
            let mut acc = clones.remove(0);
            for p in &clones {
                acc.merge_dyn(p.as_ref()).unwrap();
            }
            std::hint::black_box(acc.space_bits());
        },
    );
    let m_tree = micro::sample(
        &format!("merge/countsketch_w{MERGE_PARTS}/tree"),
        n_merges,
        SAMPLES,
        WARMUP,
        |_| {
            let clones: Vec<Box<dyn DynSketch>> =
                merge_parts.iter().map(|p| p.clone_dyn()).collect();
            let (merged, rep) = merge_tree(clones).unwrap();
            std::hint::black_box((merged.space_bits(), rep.depth));
        },
    );
    micro::report(&m_serial);
    micro::report(&m_tree);
    let merge_speedup = m_tree.ops_per_sec / m_serial.ops_per_sec;
    println!("  tree fold vs serial fold: {merge_speedup:.2}x\n");
    results.push(m_serial);
    results.push(m_tree);

    // Query engine microsection: scalar vs batched point queries through a
    // `QueryEngine` over a published epoch snapshot (the read side of
    // `DESIGN.md §11`), plus the `SnapshotHandle::latest` clone
    // itself. `scripts/bench_compare.sh` asserts the section exists.
    const QUERY_K: usize = 1024;
    println!("\nquery — scalar vs batched point queries on a published snapshot, k = {QUERY_K}\n");
    let query_items: Vec<u64> = (0..QUERY_K as u64).map(|i| (i * 2654435761) % N).collect();
    let mut query_pairs: Vec<(String, f64)> = Vec::new();
    let mut final_handle = None;
    let mut compare_query = |label: &str, spec: SketchSpec| {
        let mut svc =
            StreamService::start(registry(), &spec.with_seed(5), service_cfg).expect("servable");
        let handle = svc.handle();
        let mut snaps = svc.ingest(&stream.updates).expect("service ingest");
        snaps.extend(svc.finish().expect("final cut"));
        let engine = QueryView::from_snapshot(Arc::clone(snaps.last().expect("epochs"))).engine();
        let scalar = micro::sample(
            &format!("query/{label}/point_scalar_k{QUERY_K}"),
            QUERY_K as u64,
            SAMPLES,
            WARMUP,
            |_| {
                let mut acc = 0u64;
                for &i in &query_items {
                    acc = acc.wrapping_add(engine.point(i).expect("point cap").to_bits());
                }
                std::hint::black_box(acc);
            },
        );
        let mut out: Vec<f64> = Vec::new();
        let batched = micro::sample(
            &format!("query/{label}/point_batched_k{QUERY_K}"),
            QUERY_K as u64,
            SAMPLES,
            WARMUP,
            |_| {
                engine
                    .point_many(&query_items, &mut out)
                    .expect("point cap");
                std::hint::black_box(out.last().copied());
            },
        );
        micro::report(&scalar);
        micro::report(&batched);
        let speedup = batched.ops_per_sec / scalar.ops_per_sec;
        println!("  {label:<44} {speedup:>10.2}x batched query speedup\n");
        query_pairs.push((label.to_string(), speedup));
        results.push(scalar);
        results.push(batched);
        final_handle = Some(handle);
        engine
    };
    compare_query("countsketch", base);
    compare_query("csss", base.with_family(SketchFamily::Csss).with_k(16));
    let hh_engine = compare_query(
        "alpha_heavy_hitters",
        base.with_family(SketchFamily::AlphaHh),
    );
    // The dense heavy-hitter scan that perfbench `serve`'s polls run: every
    // item of the 2^16 universe through the batched point path, at a
    // threshold of 0.1% of the stream's mass. One op is one scanned item.
    let m_scan = micro::sample(
        "query/alpha_heavy_hitters/heavy_hitters_scan",
        N,
        SAMPLES,
        WARMUP,
        |_| {
            let hits = hh_engine
                .heavy_hitters(0.001 * MASS as f64)
                .expect("dense scan");
            std::hint::black_box(hits.len());
        },
    );
    micro::report(&m_scan);
    println!();
    results.push(m_scan);
    // The publication read path in isolation: one `latest()` — lock the
    // hub's mutex, bump the Arc strong count, unlock — per op.
    let handle = final_handle.expect("at least one query family ran");
    let m_latest = micro::sample("query/latest_clone", 1 << 16, SAMPLES, WARMUP, |_| {
        for _ in 0..(1 << 16) {
            std::hint::black_box(handle.latest().expect("published").stamp());
        }
    });
    micro::report(&m_latest);
    println!();
    results.push(m_latest);

    // Serve microsection: the TCP front-end under load while ingestion
    // runs. A background service replays the workload continuously (epoch
    // cuts keep publishing); one reader measures request latency, then
    // `SERVE_READERS` concurrent readers measure aggregate QPS, with
    // per-request latency percentiles recorded from the timed samples.
    const SERVE_READERS: usize = 4;
    const SERVE_REQS: usize = 100;
    const SERVE_BATCH: usize = 16;
    println!(
        "\nserve — TCP point queries during live ingestion \
         ({SERVE_READERS} readers x {SERVE_REQS} requests, batch {SERVE_BATCH})\n"
    );
    let serve_stop = Arc::new(AtomicBool::new(false));
    let (serve_addr, ingest_thread) = {
        let mut svc = StreamService::start(registry(), &base.with_seed(9), service_cfg)
            .expect("servable spec");
        let server_handle = svc.handle();
        let server = QueryServer::bind("127.0.0.1:0", server_handle.clone()).expect("bind");
        let addr = server.local_addr();
        let stop = Arc::clone(&serve_stop);
        let updates = stream.updates.clone();
        let t = std::thread::spawn(move || {
            'replay: loop {
                for chunk in updates.chunks(service_cfg.chunk.max(1)) {
                    if stop.load(SeqCst) {
                        break 'replay;
                    }
                    std::hint::black_box(svc.ingest(chunk).expect("serve ingest").len());
                }
            }
            svc.finish().expect("final cut");
            server.join();
        });
        // Wait for the first published epoch so every timed request below
        // races live ingestion rather than the empty hub.
        while server_handle.latest().is_none() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        (addr, t)
    };
    let mut client = QueryClient::connect(serve_addr).expect("connect");
    let m_serve_1 = micro::sample(
        "serve/point_roundtrip_r1",
        SERVE_REQS as u64,
        SAMPLES,
        WARMUP,
        |_| {
            for &i in query_items.iter().take(SERVE_REQS) {
                std::hint::black_box(client.request(&Request::Point { item: i }).expect("answer"));
            }
        },
    );
    micro::report(&m_serve_1);
    results.push(m_serve_1);
    let serve_lat_ns: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let m_serve_n = micro::sample(
        &format!("serve/point_batch_roundtrip_r{SERVE_READERS}"),
        (SERVE_READERS * SERVE_REQS) as u64,
        SAMPLES,
        WARMUP,
        |s| {
            std::thread::scope(|scope| {
                for r in 0..SERVE_READERS {
                    let (items, lat_sink) = (&query_items, &serve_lat_ns);
                    scope.spawn(move || {
                        let mut c = QueryClient::connect(serve_addr).expect("connect");
                        let mut lats = Vec::with_capacity(SERVE_REQS);
                        for j in 0..SERVE_REQS {
                            let at = (r * SERVE_REQS + j * 7) % (items.len() - SERVE_BATCH);
                            let req = Request::PointBatch {
                                items: items[at..at + SERVE_BATCH].to_vec(),
                            };
                            let t0 = Instant::now();
                            std::hint::black_box(c.request(&req).expect("answer"));
                            lats.push(t0.elapsed().as_nanos() as u64);
                        }
                        // Percentiles come from timed samples only.
                        if s >= WARMUP {
                            lat_sink.lock().unwrap().extend(lats);
                        }
                    });
                }
            });
        },
    );
    micro::report(&m_serve_n);
    results.push(m_serve_n);
    drop(client);
    serve_stop.store(true, SeqCst);
    ingest_thread.join().expect("serve ingest thread");
    let serve_latency_us = {
        let mut lat = serve_lat_ns.into_inner().unwrap();
        lat.sort_unstable();
        let pct = |q: f64| lat[((lat.len() - 1) as f64 * q).round() as usize] as f64 / 1e3;
        format!(
            "p50={:.1},p95={:.1},p99={:.1}",
            pct(0.50),
            pct(0.95),
            pct(0.99)
        )
    };
    println!(
        "  concurrent batched-read latency (us): {serve_latency_us} \
         at {:.0} req/s aggregate\n",
        results.last().unwrap().ops_per_sec
    );

    // Overload microsection: a bursty time-shaped stream through bounded
    // worker queues (`DESIGN.md §12`). The assertions are the point as much
    // as the timing: the queue-depth watermark stays within the structural
    // `depth × threads` cap, back-pressure loses nothing, and RSS stays
    // bounded across the whole section (the regression this section pins
    // down is the old unbounded channel absorbing the backlog into memory).
    // `scripts/bench_compare.sh` asserts the section exists.
    const OVERLOAD_DEPTH: usize = 64;
    println!(
        "\nservice_overload — burst workload through bounded queues \
         (depth = {OVERLOAD_DEPTH}, {SHARD_THREADS} workers)\n"
    );
    let burst = bd_stream::gen::BurstGen::new(N, 6, 40_000, 10_000).generate_seeded(0xB5);
    let overload_cfg = ServiceConfig::default()
        .with_epoch((burst.len() as u64) / 4)
        .with_threads(SHARD_THREADS)
        .with_chunk(512)
        .with_depth(OVERLOAD_DEPTH);
    let rss_before = rss_bytes();
    let cap = overload_cfg.depth * overload_cfg.threads;
    let last_report = Mutex::new(None);
    let m = micro::sample(
        &format!("service_overload/burst_block_d{OVERLOAD_DEPTH}"),
        burst.len() as u64,
        SAMPLES,
        WARMUP,
        |s| {
            let mut svc = StreamService::start(registry(), &base.with_seed(s as u64), overload_cfg)
                .expect("servable spec");
            let mut snaps = svc.ingest(&burst.updates).expect("overload ingest");
            snaps.extend(svc.finish().expect("final cut"));
            let last = snaps.last().expect("epochs").report;
            for sn in &snaps {
                assert!(
                    sn.report.queue_peak <= cap,
                    "queue peak {} exceeds depth × threads = {cap}",
                    sn.report.queue_peak
                );
            }
            assert_eq!(
                last.total_updates,
                burst.len(),
                "back-pressure lost updates"
            );
            *last_report.lock().unwrap() = Some(last);
            std::hint::black_box(last.queue_peak);
        },
    );
    micro::report(&m);
    let last = last_report.into_inner().unwrap().expect("one pass ran");
    println!(
        "  block: queue peak {} / cap {cap}, blocked {:.2} ms\n",
        last.queue_peak,
        last.blocked.as_secs_f64() * 1e3
    );
    let mut overload_stats = vec![format!("block:peak={}/{cap}", last.queue_peak)];
    results.push(m);
    // Bounded-RSS acceptance: back-pressure (not memory) absorbs overload.
    // The bound is generous — the old unbounded channels buffered the whole
    // backlog (tens of MiB of `Cmd`s and their batch copies per pass and
    // growing with stream length); bounded queues hold it near-flat.
    if let (Some(before), Some(after)) = (rss_before, rss_bytes()) {
        let growth = after.saturating_sub(before);
        assert!(
            growth < 256 << 20,
            "overload section grew RSS by {growth} bytes — queues are not bounding memory"
        );
        let growth_mib = growth as f64 / (1u64 << 20) as f64;
        println!("  RSS growth across overload section: {growth_mib:.1} MiB (bound 256 MiB)\n");
        overload_stats.push(format!("rss_growth_mib={growth_mib:.1}"));
    } else {
        println!("  RSS not measurable on this platform (/proc/self/statm missing)\n");
    }

    // Persist microsection: the versioned snapshot encoding (`DESIGN.md
    // §13`) on warm, full-stream sketches — encode and decode latency per
    // family plus the blob size — and the cold-start path: one full-epoch
    // snapshot saved through a `SnapshotStore`, then `StreamService::recover`
    // timed end to end (scan + decode + stamp checks + registry rebuild +
    // worker respawn + snapshot republication). `scripts/bench_compare.sh`
    // asserts the section exists.
    const PERSIST_REPS: u64 = 8;
    println!("\npersist — snapshot encode/decode per family, cold-start recovery\n");
    let mut persist_stats: Vec<String> = Vec::new();
    for (label, spec) in [
        ("exact", base.with_family(SketchFamily::Exact)),
        ("countsketch", base),
        ("csss", base.with_family(SketchFamily::Csss).with_k(16)),
        (
            "alpha_heavy_hitters",
            base.with_family(SketchFamily::AlphaHh),
        ),
    ] {
        let spec = spec.with_seed(42);
        let mut sk = registry()
            .build(&spec)
            .expect("bench spec must be registered");
        bat.run(&mut *sk, &stream);
        let blob = sketch_to_bytes(&spec, sk.as_ref()).expect("bench family must persist");
        let enc = micro::sample(
            &format!("persist/{label}/encode"),
            PERSIST_REPS,
            SAMPLES,
            WARMUP,
            |_| {
                for _ in 0..PERSIST_REPS {
                    let bytes = sketch_to_bytes(&spec, sk.as_ref()).expect("encode");
                    std::hint::black_box(bytes.len());
                }
            },
        );
        let dec = micro::sample(
            &format!("persist/{label}/decode"),
            PERSIST_REPS,
            SAMPLES,
            WARMUP,
            |_| {
                for _ in 0..PERSIST_REPS {
                    let (dspec, dsk) = sketch_from_bytes(registry(), &blob).expect("decode");
                    assert_eq!(dspec.seed, spec.seed, "stamp must survive the round trip");
                    std::hint::black_box(dsk.space_bits());
                }
            },
        );
        micro::report(&enc);
        micro::report(&dec);
        println!("  {label:<44} {:>10} snapshot bytes\n", blob.len());
        persist_stats.push(format!("{label}:bytes={}", blob.len()));
        results.push(enc);
        results.push(dec);
    }

    // Cold start: persist one full-epoch service snapshot to a scratch
    // store, then time recovery from disk per sample.
    let cold_dir = std::env::temp_dir().join(format!("bd-bench-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cold_dir);
    let cold_spec = base
        .with_family(SketchFamily::Csss)
        .with_k(16)
        .with_seed(42);
    let cold_cfg = ServiceConfig::default()
        .with_epoch(stream.len() as u64)
        .with_threads(SHARD_THREADS);
    {
        let store = SnapshotStore::open(&cold_dir).expect("scratch store dir");
        let mut svc =
            StreamService::start(registry(), &cold_spec, cold_cfg).expect("servable spec");
        svc.persist_to(store).expect("attach persistence");
        let mut snaps = svc.ingest(&stream.updates).expect("persist ingest");
        snaps.extend(svc.finish().expect("final cut"));
        assert!(!snaps.is_empty(), "expected a persisted epoch");
    }
    let cold = micro::sample(
        "persist/cold_start/recover_csss",
        1,
        SAMPLES,
        WARMUP,
        |_| {
            let store = SnapshotStore::open(&cold_dir).expect("scratch store dir");
            let svc = StreamService::recover(registry(), &cold_spec, cold_cfg, store)
                .expect("recover from the persisted epoch");
            assert_eq!(
                svc.replay_from(),
                stream.len(),
                "must resume past the epoch"
            );
            std::hint::black_box(svc.replay_from());
        },
    );
    micro::report(&cold);
    let cold_ms = cold.ns_per_op / 1e6;
    println!("  cold start (scan + decode + rebuild + respawn): {cold_ms:.2} ms\n");
    persist_stats.push(format!("cold_start_ms={cold_ms:.2}"));
    results.push(cold);
    let _ = std::fs::remove_dir_all(&cold_dir);

    // WAL microsection: the same persisted service pass with the
    // write-ahead log off, fsync-per-epoch, and fsync-per-batch
    // (`DESIGN.md §14`) — the measured price of durable between-cut
    // ingest — plus the other half of the contract, replaying a full WAL
    // tail on recovery. Two geometry choices keep this a measurement of
    // the WAL and not of the scratch disk. The producer is the paper's
    // flagship compound (`alpha_hh`), the workload the serving layer
    // exists for: its ~180 ns/update dispatch writes the 16 B/update log
    // at well under typical disk bandwidth, whereas the `Exact` hash-map
    // control ingests so fast (~30 ns/update) that its >500 MB/s log
    // demand turns the row into a pure disk-bandwidth test no
    // implementation could pass. And each sample ingests the stream
    // `WAL_PASSES` times with the epoch scaled to keep four cuts per
    // sample: a cut's fsync is a fixed latency (~1 ms here), so each
    // epoch needs enough dispatch work to amortize it — the deployment
    // regime `epoch` targets, where an epoch is seconds of ingest, not
    // milliseconds. The `epoch` policy then adds only buffered appends,
    // written inline by the dispatch thread, plus one fsync per cut, so
    // its overhead is gated in-bench at 20% of the no-WAL rate; `batch`
    // promises an fsync before every dispatch cell is acknowledged, a
    // latency floor no throughput gate can waive, so its row lands
    // ungated. Each sample persists into a store of its own, and the
    // stores are removed only after the row is timed, so a sample times
    // the service's work alone and not the unlinks of the previous
    // sample's segments.
    println!("\nwal — write-ahead-log append overhead per fsync policy, tail replay\n");
    const WAL_PASSES: usize = 16;
    let wal_spec = base.with_family(SketchFamily::AlphaHh).with_seed(42);
    let wal_cfg = ServiceConfig::default()
        .with_epoch((stream.len() * WAL_PASSES) as u64 / 4)
        .with_threads(SHARD_THREADS);
    let mut wal_stats: Vec<String> = Vec::new();
    let mut wal_rates: Vec<(WalPolicy, f64)> = Vec::new();
    for policy in [WalPolicy::Off, WalPolicy::Epoch, WalPolicy::Batch] {
        let cfg = wal_cfg.with_wal(policy);
        let dir =
            std::env::temp_dir().join(format!("bd-bench-wal-{policy}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let logged = Mutex::new(0u64);
        let m = micro::sample(
            &format!("wal/ingest_{policy}"),
            (stream.len() * WAL_PASSES) as u64,
            SAMPLES,
            WARMUP,
            |s| {
                let store = SnapshotStore::open(dir.join(s.to_string())).expect("scratch wal dir");
                let mut svc =
                    StreamService::start(registry(), &wal_spec, cfg).expect("servable spec");
                svc.persist_to(store).expect("attach persistence");
                let mut snaps = Vec::new();
                for _ in 0..WAL_PASSES {
                    snaps.extend(svc.ingest(&stream.updates).expect("wal ingest"));
                }
                snaps.extend(svc.finish().expect("final cut"));
                let bytes: u64 = snaps.iter().map(|sn| sn.report.wal_bytes).sum();
                *logged.lock().unwrap() = bytes;
                std::hint::black_box(bytes);
            },
        );
        micro::report(&m);
        wal_stats.push(format!("{policy}:bytes={}", logged.into_inner().unwrap()));
        wal_rates.push((policy, m.ops_per_sec));
        results.push(m);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let nowal_rate = wal_rates[0].1;
    for &(policy, rate) in &wal_rates[1..] {
        let overhead = 100.0 * (nowal_rate / rate - 1.0);
        println!("  wal={policy:<5} append overhead vs no-WAL: {overhead:>6.1}%");
        wal_stats.push(format!("{policy}_overhead_pct={overhead:.1}"));
        if policy == WalPolicy::Epoch {
            assert!(
                rate >= 0.8 * nowal_rate,
                "epoch-policy WAL ingest fell more than 20% below the \
                 no-WAL rate ({rate:.0} vs {nowal_rate:.0} up/s)"
            );
        }
    }
    println!();
    // Tail replay: a crashed service whose whole stream lives only in the
    // log (epoch longer than the stream, so no snapshot ever covered it);
    // each sample is one cold `recover` re-dispatching every logged cell.
    let replay_dir =
        std::env::temp_dir().join(format!("bd-bench-wal-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&replay_dir);
    let replay_cfg = ServiceConfig::default()
        .with_epoch(stream.len() as u64 * 2)
        .with_threads(SHARD_THREADS)
        .with_wal(WalPolicy::Batch);
    let dispatched = stream.len() - stream.len() % replay_cfg.chunk;
    {
        let store = SnapshotStore::open(&replay_dir).expect("scratch replay dir");
        let mut svc =
            StreamService::start(registry(), &wal_spec, replay_cfg).expect("servable spec");
        svc.persist_to(store).expect("attach persistence");
        svc.ingest(&stream.updates).expect("replay setup ingest");
        // Dropped without `finish`: the log alone carries the stream.
    }
    let replay = micro::sample(
        "wal/recover_replay",
        dispatched as u64,
        SAMPLES,
        WARMUP,
        |_| {
            let store = SnapshotStore::open(&replay_dir).expect("scratch replay dir");
            let svc = StreamService::recover(registry(), &wal_spec, replay_cfg, store)
                .expect("recover from the WAL tail");
            assert_eq!(
                svc.replay_from(),
                dispatched,
                "every logged cell must be replayed"
            );
            std::hint::black_box(svc.replay_from());
        },
    );
    micro::report(&replay);
    let replay_ms = replay.ns_per_op * dispatched as f64 / 1e6;
    println!("  WAL tail replay ({dispatched} updates): {replay_ms:.2} ms\n");
    wal_stats.push(format!("replay_ms={replay_ms:.2}"));
    results.push(replay);
    let _ = std::fs::remove_dir_all(&replay_dir);

    let json = micro::to_json(
        &[
            ("bench", "ingest".to_string()),
            ("updates", stream.len().to_string()),
            ("chunk", StreamRunner::DEFAULT_CHUNK.to_string()),
            ("shard_threads", SHARD_THREADS.to_string()),
            ("cores", cores.to_string()),
            ("merge_tree_speedup", format!("{merge_speedup:.2}x")),
            ("binomial_speedups", binomial_pairs.join(",")),
            (
                "speedups",
                pairs
                    .iter()
                    .map(|(n, s)| format!("{n}={s:.2}x"))
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            (
                "sharded_speedups",
                shard_pairs
                    .iter()
                    .map(|(n, s)| format!("{n}={s:.2}x"))
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            (
                "service_overheads",
                service_pairs
                    .iter()
                    .map(|(n, s)| format!("{n}={s:.2}x"))
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            (
                "query_batch_speedups",
                query_pairs
                    .iter()
                    .map(|(n, s)| format!("{n}={s:.2}x"))
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            ("serve_readers", SERVE_READERS.to_string()),
            ("serve_latency_us", serve_latency_us),
            ("service_overload", overload_stats.join(",")),
            ("persist", persist_stats.join(",")),
            ("wal", wal_stats.join(",")),
        ],
        &results,
    );
    // cargo bench runs with the package directory as CWD; emit at the
    // workspace root so the trajectory file has a stable path.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    std::fs::write(path, &json).expect("write BENCH_ingest.json");
    println!("wrote {path}");
}
