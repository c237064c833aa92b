//! A small criterion-style micro-benchmark harness.
//!
//! The workspace builds offline, so criterion is unavailable; this module
//! provides the slice of it the benches need: warmup, repeated timed
//! samples, median-of-samples reporting with the samples' min, quartiles
//! and max beside it, and a JSON emitter so later PRs can track a
//! throughput trajectory (`BENCH_ingest.json`).

use std::fmt::Write as _;
use std::time::Instant;

/// One measured benchmark: a name, the median throughput/latency sample,
/// and the spread of the samples around it.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark id, e.g. `"csss/update_batch"`.
    pub name: String,
    /// Median nanoseconds per operation (one "operation" is caller-defined;
    /// the ingest benches use one stream update).
    pub ns_per_op: f64,
    /// Fastest sample, nanoseconds per operation.
    pub min_ns: f64,
    /// First quartile of the samples, nanoseconds per operation.
    pub p25_ns: f64,
    /// Third quartile of the samples, nanoseconds per operation.
    pub p75_ns: f64,
    /// Slowest sample, nanoseconds per operation.
    pub max_ns: f64,
    /// Operations per second implied by the median sample.
    pub ops_per_sec: f64,
    /// Number of operations timed per sample.
    pub ops: u64,
    /// Samples taken.
    pub samples: usize,
}

/// Time `ops_per_sample` operations `samples` times (after `warmup` untimed
/// runs) and report the median with the min, quartiles and max. `run`
/// receives the sample index and must perform exactly `ops_per_sample`
/// operations.
pub fn sample<F: FnMut(usize)>(
    name: &str,
    ops_per_sample: u64,
    samples: usize,
    warmup: usize,
    mut run: F,
) -> Measurement {
    assert!(samples >= 1 && ops_per_sample >= 1);
    for w in 0..warmup {
        run(w);
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|s| {
            let start = Instant::now();
            run(warmup + s);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let last = times.len() - 1;
    let per_op = |t: f64| t / ops_per_sample as f64;
    let ns_per_op = per_op(times[times.len() / 2]);
    Measurement {
        name: name.to_string(),
        ns_per_op,
        min_ns: per_op(times[0]),
        p25_ns: per_op(times[last / 4]),
        p75_ns: per_op(times[(3 * last).div_ceil(4)]),
        max_ns: per_op(times[last]),
        ops_per_sec: 1e9 / ns_per_op.max(1e-9),
        ops: ops_per_sample,
        samples,
    }
}

/// Print a measurement in the familiar `name ... ns/op (M ops/s)` shape.
pub fn report(m: &Measurement) {
    println!(
        "  {:<44} {:>10.1} ns/op   {:>9.2} M ops/s",
        m.name,
        m.ns_per_op,
        m.ops_per_sec / 1e6
    );
}

/// Serialize measurements as a JSON document (hand-rolled — no serde in the
/// offline build). Names and numbers only, so escaping is trivial.
pub fn to_json(context: &[(&str, String)], measurements: &[Measurement]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::from("{\n");
    for (k, v) in context {
        let _ = writeln!(out, "  \"{}\": \"{}\",", esc(k), esc(v));
    }
    out.push_str("  \"benchmarks\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"ns_per_op\": {:.3}, \"updates_per_sec\": {:.1}, \
             \"ops\": {}, \"samples\": {}, \"min_ns\": {:.3}, \"p25_ns\": {:.3}, \
             \"p75_ns\": {:.3}, \"max_ns\": {:.3}}}",
            esc(&m.name),
            m.ns_per_op,
            m.ops_per_sec,
            m.ops,
            m.samples,
            m.min_ns,
            m.p25_ns,
            m.p75_ns,
            m.max_ns
        );
        out.push_str(if i + 1 == measurements.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_measures_work() {
        let mut acc = 0u64;
        let m = sample("noop", 1000, 5, 1, |s| {
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i ^ s as u64);
            }
        });
        std::hint::black_box(acc); // keep the work observable
        assert_eq!(m.ops, 1000);
        assert_eq!(m.samples, 5);
        assert!(m.ns_per_op >= 0.0);
        assert!(m.ops_per_sec > 0.0);
        assert!(m.min_ns <= m.p25_ns && m.p25_ns <= m.ns_per_op);
        assert!(m.ns_per_op <= m.p75_ns && m.p75_ns <= m.max_ns);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let m = Measurement {
            name: "a/b".into(),
            ns_per_op: 1.5,
            min_ns: 1.25,
            p25_ns: 1.25,
            p75_ns: 2.0,
            max_ns: 2.5,
            ops_per_sec: 6.66e8,
            ops: 10,
            samples: 3,
        };
        let j = to_json(&[("machine", "test\"box".into())], &[m]);
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        assert!(j.contains("\"updates_per_sec\""));
        assert!(j.contains("\"p25_ns\": 1.250, \"p75_ns\": 2.000"));
        assert!(j.contains("test\\\"box"));
        assert_eq!(j.matches("\"name\"").count(), 1);
    }
}
