//! Per-layer metrics of a traced run: live spans for what the run saw,
//! ledger spans for what each layer call cost.

use crate::ledger::{Ledger, ATTRIBUTED, DEC_REQ, DEC_RESP, ENC_REQ, ENC_RESP};
use crate::load::Kind;
use crate::util::{median, pct, Metrics, Source, Span, Tracer};
use std::collections::HashSet;
use std::time::Instant;

/// What the live (untimed-by-the-ledger) part of a traced run recorded.
pub struct Live<'a> {
    pub tr: &'a Tracer,
    /// Process CPU of the live run, seconds.
    pub cpu_s: f64,
    /// Largest `EpochReport::queue_peak` over the run's cuts.
    pub queue_peak: f64,
    /// Scheduled cuts the run made.
    pub cuts: f64,
    /// Recovery's reads count as live work (the `recover` workload).
    pub recovering: bool,
    /// Freshness of every cut, ms.
    pub fresh_ms: &'a [f64],
    /// Every lookup's latency from its due time, µs.
    pub lookup_us: &'a [f64],
}

fn dur(s: &Span) -> f64 {
    (s.end_ns - s.start_ns) as f64
}

fn overlaps(s: &Span, spans: &[&Span]) -> bool {
    spans
        .iter()
        .any(|o| o.start_ns < s.end_ns && s.start_ns < o.end_ns)
}

/// Cost of recording one span (two clock reads and a push), ns.
fn span_cost_ns() -> f64 {
    let mut t = Tracer::new(Instant::now());
    let n = 100_000u64;
    let start = Instant::now();
    for i in 0..n {
        let s = Instant::now();
        t.record("calibrate", s, Instant::now(), None, i);
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

pub fn metrics(l: &Live, led: &Ledger, src: &Source) -> Metrics {
    let mut m = Metrics::default();
    let live = l.tr;
    let lt = &led.tr;
    let p50 = |name: &str| pct(&lt.durations(name), 50.0);

    // gen: validity checks and workload properties.
    let (per_cell, alpha, del) = src.properties();
    m.put(
        "gen.send_lag_p99_us",
        pct(&live.durations("lag.req"), 99.0) / 1e3,
        "us",
    );
    m.put(
        "gen.ingest_lag_p99_us",
        pct(&live.durations("lag.ingest"), 99.0) / 1e3,
        "us",
    );
    m.put("gen.distinct_per_cell", per_cell, "count");
    m.put("gen.alpha_realized", alpha, "ratio");
    m.put("gen.deletion_fraction", del, "fraction");

    // service: the live ingest calls.
    let cut_calls: HashSet<usize> = live
        .spans
        .iter()
        .filter(|s| s.name == "ingest.cut")
        .filter_map(|s| s.parent)
        .collect();
    let plain: Vec<f64> = live
        .spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == "ingest" && !cut_calls.contains(i))
        .map(|(_, s)| dur(s))
        .collect();
    let cut_ms: Vec<f64> = live
        .durations("ingest.cut")
        .iter()
        .map(|d| d / 1e6)
        .collect();
    m.put("service.ingest_call_us_p50", median(&plain) / 1e3, "us");
    m.put("service.cut_call_ms_p50", median(&cut_ms), "ms");
    m.put("service.cut_call_ms_p99", pct(&cut_ms, 99.0), "ms");
    m.put("service.freshness_ms_p50", pct(l.fresh_ms, 50.0), "ms");
    m.put("service.freshness_ms_p90", pct(l.fresh_ms, 90.0), "ms");
    m.put("service.queue_peak", l.queue_peak, "count");
    m.put("service.cuts", l.cuts, "count");
    m.put("service.recover_ms", live.total_ns("recover") / 1e6, "ms");

    // runner, wal, merge, persist, space: the ledger's calls.
    let updates = led.updates.max(1) as f64;
    let logged = led.logged.max(1) as f64;
    m.put(
        "runner.ns_per_update",
        lt.total_ns("runner") / updates,
        "ns",
    );
    m.put("runner.cells", led.cells as f64, "count");
    m.put(
        "wal.append_ns_per_update",
        lt.total_ns("wal.append") / logged,
        "ns",
    );
    m.put("wal.bytes_per_update", led.wal_bytes() as f64 / logged, "B");
    m.put("wal.roll_ms", p50("wal.roll") / 1e6, "ms");
    m.put("wal.truncate_ms", p50("wal.truncate") / 1e6, "ms");
    m.put("wal.read_ms", lt.total_ns("wal.read") / 1e6, "ms");
    m.put("wal.tail_updates", led.tail_updates as f64, "count");
    m.put("merge.clone_ms", p50("merge.clone") / 1e6, "ms");
    m.put("merge.fold_ms", p50("merge.fold") / 1e6, "ms");
    let encode = p50("persist.encode");
    m.put("persist.encode_ms", encode / 1e6, "ms");
    // `SnapshotStore::save` encodes again before it writes; its own share
    // is the write, fsync, rename and directory sync.
    m.put(
        "persist.save_ms",
        (p50("persist.save") - encode).max(0.0) / 1e6,
        "ms",
    );
    m.put("persist.snapshot_bytes", led.snapshot_bytes as f64, "B");
    m.put("persist.load_ms", lt.total_ns("persist.load") / 1e6, "ms");
    m.put("space.snapshot_bits", led.snapshot_bits as f64, "bits");

    // query: the engine and the hub.
    m.put("query.publish_us", p50("query.publish") / 1e3, "us");
    m.put("query.latest_ns", p50("query.latest"), "ns");
    m.put("query.point_us", p50("query.point") / 1e3, "us");
    m.put("query.point_many_us", p50("query.point_many") / 1e3, "us");
    m.put(
        "query.heavy_hitters_ms",
        p50("query.heavy_hitters") / 1e6,
        "ms",
    );
    m.put(
        "query.hh_scan_yield",
        led.hh_hits / led.hh_scanned.max(1.0),
        "ratio",
    );

    // wire and net, per request kind.
    let engine = ["query.point", "query.point_many", "query.heavy_hitters"];
    for (i, kind) in Kind::ALL.iter().enumerate() {
        let name = kind.name();
        let enc = p50(ENC_REQ[i]) + p50(ENC_RESP[i]);
        let dec = p50(DEC_REQ[i]) + p50(DEC_RESP[i]);
        m.put(format!("wire.encode_ns.{name}"), enc, "ns");
        m.put(format!("wire.decode_ns.{name}"), dec, "ns");
        m.put(
            format!("wire.response_bytes.{name}"),
            median(&led.response_bytes[i]),
            "B",
        );
        let rtt: Vec<f64> = live.durations(kind.span());
        let rtt_p50 = pct(&rtt, 50.0) / 1e3;
        m.put(format!("net.rtt_us_p50.{name}"), rtt_p50, "us");
        m.put(
            format!("net.rtt_us_p99.{name}"),
            pct(&rtt, 99.0) / 1e3,
            "us",
        );
        m.put(
            format!("net.self_us.{name}"),
            rtt_p50 - (p50(engine[i]) + enc + dec) / 1e3,
            "us",
        );
    }

    m.put("net.lookup_us_p50", pct(l.lookup_us, 50.0), "us");
    m.put("net.lookup_us_p99", pct(l.lookup_us, 99.0), "us");

    // Attribution of the lookup tail: round trips that overlapped a
    // heavy-hitter scan in flight, a cut on the producer, or followed an
    // idle gap on the connection, against the rest.
    let mut lookups: Vec<&Span> = live
        .spans
        .iter()
        .filter(|s| s.name == "req.point" || s.name == "req.point_batch")
        .collect();
    lookups.sort_by_key(|s| s.start_ns);
    let hh: Vec<&Span> = live.spans.iter().filter(|s| s.name == "req.hh").collect();
    let cuts: Vec<&Span> = live
        .spans
        .iter()
        .filter(|s| s.name == "ingest.cut")
        .collect();
    let mut buckets: [Vec<f64>; 4] = Default::default();
    let mut prev_end: Option<u64> = None;
    for s in &lookups {
        let idle = prev_end.is_some_and(|e| s.start_ns.saturating_sub(e) > 1_000_000);
        let b = if overlaps(s, &hh) {
            1
        } else if overlaps(s, &cuts) {
            2
        } else if idle {
            3
        } else {
            0
        };
        buckets[b].push(dur(s) / 1e3);
        prev_end = Some(s.end_ns);
    }
    for (b, name) in ["quiet", "during_hh", "during_cut", "after_idle"]
        .iter()
        .enumerate()
    {
        m.put(
            format!("net.lookup_rtt_us_p99.{name}"),
            pct(&buckets[b], 99.0),
            "us",
        );
        m.put(
            format!("net.lookups.{name}"),
            buckets[b].len() as f64,
            "count",
        );
    }

    // ledger: reconciliation against the live run.
    let mut attributed: f64 = ATTRIBUTED.iter().map(|n| lt.total_ns(n)).sum();
    if l.recovering {
        attributed += ["persist.load", "wal.segments", "wal.read"]
            .iter()
            .map(|n| lt.total_ns(n))
            .sum::<f64>();
    }
    let attributed_s = attributed / 1e9;
    m.put("ledger.attributed_cpu_s", attributed_s, "s");
    m.put("ledger.live_cpu_s", l.cpu_s, "s");
    m.put(
        "ledger.unattributed_pct",
        100.0 * (l.cpu_s - attributed_s) / l.cpu_s,
        "%",
    );
    m.put(
        "ledger.trace_overhead_pct",
        100.0 * live.spans.len() as f64 * span_cost_ns() / (l.cpu_s * 1e9),
        "%",
    );
    m
}
