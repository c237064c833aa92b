//! Shared pieces: the seeded source, ground truth, process measurements,
//! percentiles, the span tracer and the JSON result line.

use bounded_deletions::bd_stream::gen::BoundedDeletionGen;
use bounded_deletions::bd_stream::{Item, Update};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The sketch every workload serves: the paper's flagship α-heavy-hitters
/// structure at the size the ingest bench uses.
pub const SPEC: &str = "alpha_hh:n=2^16,eps=0.1,alpha=4";
/// Universe size of [`SPEC`].
pub const UNIVERSE: u64 = 1 << 16;
/// Distinct items the generator plants mass on.
pub const DISTINCT: usize = 1024;
/// The α the generator targets (and [`SPEC`] promises).
pub const ALPHA: f64 = 4.0;
/// Inserted mass of one generator pass; a pass is `1.6 ×` this many
/// unit updates at α = 4.
pub const PASS_INSERTS: u64 = 400_000;
/// The service's dispatch cell (and the grid the ledger replays).
pub const CHUNK: usize = 4096;
/// Service workers (`threads=`), one per core of the reference host.
pub const THREADS: usize = 2;

/// The offered stream: one seeded bounded-deletion pass, replayed
/// cyclically so the generator's memory stays fixed however long a run is.
pub struct Source {
    pub pass: Vec<Update>,
}

impl Source {
    pub fn new(seed: u64) -> Self {
        let gen = BoundedDeletionGen {
            n: UNIVERSE,
            insert_mass: PASS_INSERTS,
            alpha: ALPHA,
            zipf_s: 1.05,
            distinct: DISTINCT,
        };
        Source {
            pass: gen.generate_seeded(seed).updates,
        }
    }

    /// Bytes the generator holds for the whole run.
    pub fn bytes(&self) -> usize {
        self.pass.len() * std::mem::size_of::<Update>()
    }

    /// Copy the offered updates at positions `[pos, pos + len)` into `out`.
    pub fn fill(&self, pos: usize, len: usize, out: &mut Vec<Update>) {
        out.clear();
        let l = self.pass.len();
        let mut p = pos % l;
        let mut left = len;
        while left > 0 {
            let take = left.min(l - p);
            out.extend_from_slice(&self.pass[p..p + take]);
            left -= take;
            p = 0;
        }
    }

    /// Exact `f` (dense over the universe), inserted and deleted mass of
    /// the first `t` offered updates.
    pub fn truth(&self, t: usize) -> Truth {
        let mut f = vec![0i64; UNIVERSE as usize];
        let (mut ins, mut del) = (0u64, 0u64);
        let add = |f: &mut Vec<i64>, ins: &mut u64, del: &mut u64, us: &[Update], k: i64| {
            for u in us {
                f[u.item as usize] += k * u.delta;
                if u.delta > 0 {
                    *ins += k as u64 * u.delta as u64;
                } else {
                    *del += k as u64 * u.delta.unsigned_abs();
                }
            }
        };
        let l = self.pass.len();
        add(&mut f, &mut ins, &mut del, &self.pass, (t / l) as i64);
        add(&mut f, &mut ins, &mut del, &self.pass[..t % l], 1);
        Truth { f, ins, del }
    }

    /// Workload properties the kernels depend on: mean distinct items per
    /// dispatch cell, realized α₁ and deletion fraction of one pass.
    pub fn properties(&self) -> (f64, f64, f64) {
        let cells: Vec<usize> = self
            .pass
            .chunks(CHUNK)
            .map(|c| {
                let mut items: Vec<Item> = c.iter().map(|u| u.item).collect();
                items.sort_unstable();
                items.dedup();
                items.len()
            })
            .collect();
        let per_cell = cells.iter().sum::<usize>() as f64 / cells.len() as f64;
        let t = self.truth(self.pass.len());
        let l1: u64 = t.f.iter().map(|v| v.unsigned_abs()).sum();
        let alpha = (t.ins + t.del) as f64 / l1 as f64;
        let del_frac = t.del as f64 / (t.ins + t.del) as f64;
        (per_cell, alpha, del_frac)
    }
}

/// Ground truth of an offered prefix.
pub struct Truth {
    pub f: Vec<i64>,
    pub ins: u64,
    pub del: u64,
}

impl Truth {
    pub fn l1(&self) -> u64 {
        self.f.iter().map(|v| v.unsigned_abs()).sum()
    }
}

/// A tiny seeded generator for request mixes and check sampling (kept
/// separate from the stream's generator so the stream never depends on the
/// request schedule).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU seconds of the whole process, all threads included
/// (finished ones too).
pub fn cpu_seconds() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit Linux
    // (two `timeval`s of two `i64` each, then fourteen `long` fields), the
    // pointer is to a live, writable value, and `RUSAGE_SELF` (0) is a
    // valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(&ru.utime) + t(&ru.stime)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The filesystem type that holds `path` (longest mount-point prefix in
/// `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best = (0usize, "unknown".to_string());
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fs.to_string());
        }
    }
    best.1
}

/// Linear-interpolated percentile `q ∈ [0, 100]` of unsorted samples
/// (0 for none).
pub fn pct(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = q / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 50.0)
}

/// One traced call: a name, its interval relative to the tracer's origin,
/// the span that caused it, and the request or cell it served.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

/// Spans recorded in memory and written out when the run ends. `None`
/// wherever a run is untraced, so untraced runs pay one branch per call.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index (a parent for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, start, Instant::now(), None, id);
        r
    }

    /// Durations in ns of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Read spans written by [`Tracer::write`] (another process's run).
    pub fn read(path: &Path) -> std::io::Result<Tracer> {
        let body = std::fs::read_to_string(path)?;
        let mut tr = Tracer::new(Instant::now());
        for line in body.lines().skip(1) {
            let f: Vec<&str> = line.split('\t').collect();
            let (Some(name), Some(start), Some(end), Some(parent), Some(id)) =
                (f.first(), f.get(1), f.get(2), f.get(3), f.get(4))
            else {
                continue;
            };
            let parse = |v: &str| v.parse::<i64>().unwrap_or(-1);
            tr.spans.push(Span {
                name: intern(name),
                start_ns: parse(start) as u64,
                end_ns: parse(end) as u64,
                parent: usize::try_from(parse(parent)).ok(),
                id: parse(id) as u64,
            });
        }
        Ok(tr)
    }

    /// Write the spans as tab-separated lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\tid\n");
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.id
            );
        }
        std::fs::write(path, out)
    }
}

/// The span names this benchmark records, so spans read back from a file
/// keep `&'static str` names.
fn intern(name: &str) -> &'static str {
    const NAMES: [&str; 8] = [
        "ingest",
        "ingest.cut",
        "lag.ingest",
        "lag.req",
        "req.point",
        "req.point_batch",
        "req.hh",
        "recover",
    ];
    NAMES
        .iter()
        .find(|n| **n == name)
        .copied()
        .unwrap_or("other")
}

/// Metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// A JSON number: non-finite values (which JSON cannot carry) become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns an empty sum's -0 into 0.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

/// Escape a string for a JSON literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(n),
                num(*v),
                jstr(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
