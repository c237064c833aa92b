//! `bench_compare` — CI regression gate over `BENCH_ingest.json`.
//!
//! Compares a freshly-measured ingest trajectory against the committed
//! baseline and fails (exit 1) when any benchmark's `updates_per_sec`
//! regressed by more than the tolerance (default 20%, the ROADMAP "perf
//! trajectory" threshold). Measurements are normalized by each run's
//! `frequency_vector(control)` throughput before comparison, so the gate
//! tracks code regressions rather than the hardware gap between the
//! machine that committed the baseline and the CI runner. Benchmarks
//! present on only one side are reported but never fail the gate, so
//! adding a new structure to the bench doesn't break CI.
//!
//! ```text
//! cargo run --release -p bd-bench --bin bench_compare -- \
//!     BENCH_ingest.json target/BENCH_ingest.new.json [tolerance]
//! ```
//!
//! The parser covers exactly the JSON `bd_bench::micro::to_json` emits (the
//! offline build has no serde): one `benchmarks` array of flat objects with
//! string `name` and numeric `updates_per_sec` fields, plus the optional
//! `p25_ns`/`p75_ns` sample quartiles, which are printed beside each
//! compared row (baselines recorded before they existed parse without
//! them). The spread is reported only: the gate reads the medians.

use std::process::ExitCode;

/// Sections reported but never throughput-gated: TCP round-trip rows
/// measure wall-clock socket latency while ingestion and epoch merges run
/// concurrently, so run-to-run medians swing far beyond the code-change
/// tolerance on the same binary. `scripts/bench_compare.sh` still asserts
/// the section exists, so serve coverage cannot silently vanish.
const UNGATED_PREFIXES: &[&str] = &["serve/"];

/// One parsed benchmark row.
struct Row {
    name: String,
    updates_per_sec: f64,
    /// `(p25_ns, p75_ns)`, when the run recorded its spread.
    quartiles: Option<(f64, f64)>,
}

/// Extract the benchmark rows from a `micro::to_json` document.
fn parse_measurements(json: &str) -> Vec<Row> {
    let mut out = Vec::new();
    // Objects never nest in this format: scan `{...}` spans after the
    // `benchmarks` key and pull the two fields per span.
    let Some(start) = json.find("\"benchmarks\"") else {
        return out;
    };
    let mut rest = &json[start..];
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            break;
        };
        let obj = &rest[open..open + close];
        if let (Some(name), Some(ups)) = (field_str(obj, "name"), field_num(obj, "updates_per_sec"))
        {
            out.push(Row {
                name,
                updates_per_sec: ups,
                quartiles: field_num(obj, "p25_ns").zip(field_num(obj, "p75_ns")),
            });
        }
        rest = &rest[open + close + 1..];
    }
    out
}

fn field_str(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn field_num(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(base_path), Some(new_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: bench_compare <baseline.json> <candidate.json> [tolerance=0.20]");
        return ExitCode::FAILURE;
    };
    let tolerance: f64 = args.get(2).and_then(|t| t.parse().ok()).unwrap_or(0.20);
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("bench_compare: cannot read {p}: {e}");
            std::process::exit(1);
        })
    };
    let baseline = parse_measurements(&read(base_path));
    let candidate = parse_measurements(&read(new_path));
    if baseline.is_empty() || candidate.is_empty() {
        eprintln!(
            "bench_compare: no measurements parsed (baseline {}, candidate {})",
            baseline.len(),
            candidate.len()
        );
        return ExitCode::FAILURE;
    }

    // The baseline may come from a different machine class than the
    // candidate run (committed from a dev box, compared on a CI runner),
    // so absolute updates/sec would gate on hardware, not code. The
    // exact-frequency-vector control is a sketch-free pass through the
    // same runner loop — dividing every measurement by its own run's
    // control cancels the machine factor, and the gate compares the
    // normalized ratios. (Uniform slowdowns that also hit the control —
    // e.g. a StreamRunner regression — are deliberately not gated here;
    // they show up in the printed control line.)
    let control_of = |set: &[Row]| {
        set.iter()
            .find(|r| r.name == "frequency_vector(control)/per_update")
            .map(|r| r.updates_per_sec)
    };
    let norms = match (control_of(&baseline), control_of(&candidate)) {
        (Some(b), Some(c)) if b > 0.0 && c > 0.0 => Some((b, c)),
        _ => {
            println!("bench_compare: control measurement missing — comparing absolute up/s\n");
            None
        }
    };

    println!(
        "bench_compare: {} baseline vs {} candidate measurements, tolerance {:.0}%{}\n",
        baseline.len(),
        candidate.len(),
        tolerance * 100.0,
        if norms.is_some() {
            " (normalized by the in-run control)"
        } else {
            ""
        }
    );
    println!(
        "{:<46} {:>14} {:>14} {:>9}  {:>21}",
        "benchmark", "baseline up/s", "candidate up/s", "ratio", "p25–p75 ns/op (b | c)"
    );
    let spread = |q: Option<(f64, f64)>| match q {
        Some((p25, p75)) => format!("{p25:.1}–{p75:.1}"),
        None => "-".to_string(),
    };
    let mut regressions = 0usize;
    for base in &baseline {
        let (name, base_ups) = (&base.name, base.updates_per_sec);
        match candidate.iter().find(|r| &r.name == name) {
            Some(cand) => {
                let new_ups = cand.updates_per_sec;
                let ratio = match norms {
                    Some((bc, cc)) => (new_ups / cc) / (base_ups / bc),
                    None => new_ups / base_ups,
                };
                let ungated = UNGATED_PREFIXES.iter().any(|p| name.starts_with(p));
                let flag = if ungated {
                    "  (latency row — not gated)"
                } else if ratio < 1.0 - tolerance {
                    regressions += 1;
                    "  << REGRESSION"
                } else {
                    ""
                };
                let quartiles = format!("{} | {}", spread(base.quartiles), spread(cand.quartiles));
                println!(
                    "{name:<46} {base_ups:>14.0} {new_ups:>14.0} {ratio:>8.2}x  {quartiles:>21}{flag}"
                );
            }
            None => println!(
                "{name:<46} {base_ups:>14.0} {:>14} (dropped — not gated)",
                "-"
            ),
        }
    }
    for cand in &candidate {
        if !baseline.iter().any(|r| r.name == cand.name) {
            println!(
                "{:<46} {:>14} (new — no baseline, not gated)",
                cand.name, "-"
            );
        }
    }

    if regressions > 0 {
        eprintln!(
            "\nbench_compare: {regressions} benchmark(s) regressed by more than {:.0}%",
            tolerance * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "\nbench_compare: no regression beyond {:.0}%",
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rows_with_and_without_spread() {
        let json = r#"{
  "machine": "x",
  "benchmarks": [
    {"name": "a/old", "ns_per_op": 2.000, "updates_per_sec": 500000000.0, "ops": 10, "samples": 7},
    {"name": "a/new", "ns_per_op": 2.000, "updates_per_sec": 500000000.0, "ops": 10, "samples": 7, "min_ns": 1.500, "p25_ns": 1.750, "p75_ns": 2.250, "max_ns": 3.000}
  ]
}"#;
        let rows = parse_measurements(json);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "a/old");
        assert_eq!(rows[0].quartiles, None);
        assert_eq!(rows[1].quartiles, Some((1.75, 2.25)));
        assert_eq!(rows[1].updates_per_sec, 5e8);
    }
}
