//! End-to-end benchmark of the bounded-deletions serving pipeline.
//!
//! ```text
//! perfbench --workload <ingest|serve|recover> --seed <n> --seconds <s>
//!           --trace <0|1> --workdir <dir> [--tiny] [--wrong-reference]
//! ```
//!
//! Prints a run stamp, one `name value unit` line per metric, and as the
//! last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics untraced, the per-layer metrics
//! traced. Exits non-zero when an output check fails. `perfbench/README.md`
//! describes the workloads and metrics.

mod layers;
mod ledger;
mod load;
mod util;
mod workloads;

use std::path::PathBuf;
use std::time::Duration;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workdir: PathBuf,
    /// `main`, or a child process of the `recover` workload (`prepare`,
    /// `recover`).
    pub role: String,
    /// Self-test size.
    pub tiny: bool,
    /// Build the correctness reference from a differently seeded sketch:
    /// every output check must then fail (the self-test's planted fault).
    pub wrong_reference: bool,
}

/// Workload sizes: the benchmark's, or the self-test's tiny ones.
pub struct Params {
    /// Set-ups timed per run (`setup_s` is their median).
    pub setups: usize,
    pub ingest_epoch: u64,
    pub serve_epoch: u64,
    /// Open-loop ingest rate of `serve`, updates/s.
    pub serve_rate: f64,
    /// Updates per scheduled `ingest` call in `serve`.
    pub serve_slice: usize,
    pub recover_epoch: u64,
    pub lookups_per_s: f64,
    pub polls_per_s: f64,
    /// Poll rate of the query phases of `ingest` and `recover`.
    pub probe_polls_per_s: f64,
    /// Query phase after the measured phase of `ingest` and of each
    /// recovery.
    pub probe: Duration,
    pub min_recoveries: usize,
}

impl Params {
    fn new(tiny: bool) -> Self {
        if tiny {
            Params {
                setups: 3,
                ingest_epoch: 1 << 16,
                serve_epoch: 20_000,
                serve_rate: 200_000.0,
                serve_slice: 1000,
                recover_epoch: 1 << 16,
                lookups_per_s: 1000.0,
                polls_per_s: 10.0,
                probe_polls_per_s: 10.0,
                probe: Duration::from_millis(300),
                min_recoveries: 2,
            }
        } else {
            Params {
                setups: 101,
                ingest_epoch: 1 << 22,
                serve_epoch: 50_000,
                serve_rate: 500_000.0,
                serve_slice: 1000,
                recover_epoch: 1 << 22,
                lookups_per_s: 2000.0,
                polls_per_s: 5.0,
                probe_polls_per_s: 10.0,
                probe: Duration::from_millis(2000),
                min_recoveries: 3,
            }
        }
    }
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        workdir: PathBuf::from(".bench_run"),
        role: "main".into(),
        tiny: false,
        wrong_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--workdir" => a.workdir = PathBuf::from(val()?),
            "--role" => a.role = val()?,
            "--tiny" => a.tiny = true,
            "--wrong-reference" => a.wrong_reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !["ingest", "serve", "recover"].contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be ingest, serve or recover, not `{}`",
            a.workload
        ));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let params = Params::new(args.tiny);
    let code = match args.role.as_str() {
        "main" => workloads::main_role(&args, &params),
        "prepare" => workloads::prepare_role(&args, &params),
        "recover" => workloads::recover_role(&args, &params),
        other => {
            eprintln!("perfbench: unknown role `{other}`");
            2
        }
    };
    std::process::exit(code);
}
