//! The load side: the producer that offers the stream to the service, and
//! the open-loop query client that talks to the TCP server.

use crate::util::{Source, SplitMix, Tracer, UNIVERSE};
use bounded_deletions::bd_stream::wire::{write_frame, Request, Response};
use bounded_deletions::bd_stream::{
    EpochReport, Item, QueryClient, ServiceError, Snapshot, StreamService,
};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Items per `PointBatch` request.
pub const BATCH: usize = 16;
/// Heavy-hitter polls ask for every item whose estimate is at least this
/// share of `‖f‖₁` (a few hundred items; the scan reads all 65 536).
pub const HH_PHI: f64 = 0.001;

/// The poll threshold for a served prefix of `stamp` unit updates: a
/// fixed share of its `‖f‖₁`, taken as `stamp / α` (exact for a stream
/// whose realized α is the generator's).
pub fn hh_threshold(stamp: u64) -> f64 {
    (HH_PHI * stamp as f64 / crate::util::ALPHA).max(1.0)
}

/// How the producer offers updates.
#[derive(Clone, Copy)]
pub enum Offer {
    /// Next slice as soon as the previous `ingest` call returns.
    Closed,
    /// Slices on a fixed schedule of `rate` updates per second.
    Open { rate: f64 },
}

/// What the producer saw.
pub struct Produced {
    /// Updates offered (all accepted under `overflow=block`).
    pub offered: usize,
    /// The accounting of every cut, in order (`finish`'s last).
    pub reports: Vec<EpochReport>,
    /// The snapshots kept for the checks: every [`KEEP_EVERY`]-th cut and
    /// the last. The rest are dropped at once, so the run's memory is the
    /// service's, not a history of snapshots.
    pub snaps: Vec<Arc<Snapshot>>,
    /// Per cut: time from when the epoch's last update was due to be
    /// offered until the `ingest` call that cut it returned, in ms.
    pub fresh_ms: Vec<f64>,
    /// First `ingest` call to `finish` returning.
    pub wall_s: f64,
    /// Process CPU over the same interval.
    pub cpu_s: f64,
    last: Option<Arc<Snapshot>>,
}

/// Every how many cuts the producer keeps a snapshot for the checks.
pub const KEEP_EVERY: usize = 10;

impl Produced {
    fn keep(&mut self, s: Arc<Snapshot>) {
        if self.reports.len().is_multiple_of(KEEP_EVERY) {
            self.snaps.push(Arc::clone(&s));
        }
        self.reports.push(s.report);
        self.last = Some(s);
    }
}

/// Offer `src` from position `from` in `slice`-sized `ingest` calls until
/// `stop` says so, then `finish` the service (when `finish` is set).
/// Traced runs record an `ingest` span per call, an `ingest.cut` child for
/// any call that returned a snapshot, and a `lag.ingest` span from each
/// slice's scheduled time to its call.
#[allow(clippy::too_many_arguments)]
pub fn produce(
    mut svc: StreamService,
    src: &Source,
    from: usize,
    offer: Offer,
    slice: usize,
    mut stop: impl FnMut(usize, Instant, bool) -> bool,
    finish: bool,
    mut tr: Option<&mut Tracer>,
) -> Result<Produced, ServiceError> {
    let mut buf = Vec::with_capacity(slice);
    let mut out = Produced {
        offered: 0,
        reports: Vec::new(),
        snaps: Vec::new(),
        fresh_ms: Vec::new(),
        wall_s: 0.0,
        cpu_s: 0.0,
        last: None,
    };
    let cpu0 = crate::util::cpu_seconds();
    let t0 = Instant::now();
    let mut cut_seen = false;
    for k in 0u64.. {
        let sched = match offer {
            Offer::Closed => Instant::now(),
            Offer::Open { rate } => t0 + Duration::from_secs_f64(k as f64 * slice as f64 / rate),
        };
        if stop(out.offered, sched, cut_seen) {
            break;
        }
        // As for queries: a slice the producer overslept is due when the
        // producer woke, not when it was scheduled.
        let now = Instant::now();
        let due = if sched > now {
            std::thread::sleep(sched - now);
            Instant::now()
        } else {
            sched
        };
        src.fill(from + out.offered, slice, &mut buf);
        let start = Instant::now();
        let snaps = svc.ingest(&buf)?;
        let end = Instant::now();
        out.offered += slice;
        if let Some(tr) = tr.as_deref_mut() {
            tr.record("lag.ingest", sched, start, None, k);
            let call = tr.record("ingest", start, end, None, k);
            if !snaps.is_empty() {
                tr.record("ingest.cut", start, end, Some(call), k);
            }
        }
        for s in snaps {
            out.fresh_ms.push((end - due).as_secs_f64() * 1e3);
            out.keep(s);
            cut_seen = true;
        }
    }
    if finish {
        if let Some(s) = svc.finish()? {
            out.keep(s);
        }
    } else {
        drop(svc);
    }
    // The last cut is always kept.
    if let (Some(last), Some(kept)) = (out.last.take(), out.snaps.last()) {
        if kept.report.total_updates != last.report.total_updates {
            out.snaps.push(last);
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = crate::util::cpu_seconds() - cpu0;
    Ok(out)
}

/// Which request a lookup or poll was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Point,
    PointBatch,
    Hh,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Point, Kind::PointBatch, Kind::Hh];

    /// Position in [`Kind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Point => "point",
            Kind::PointBatch => "point_batch",
            Kind::Hh => "hh",
        }
    }

    /// The live span name of a request of this kind.
    pub fn span(self) -> &'static str {
        match self {
            Kind::Point => "req.point",
            Kind::PointBatch => "req.point_batch",
            Kind::Hh => "req.hh",
        }
    }
}

/// The `k`-th lookup of a run: even `k` is a `Point`, odd `k` a
/// `PointBatch`; items are half hot (planted support) and half uniform
/// over the universe. A pure function of `(seed, k)`, so the ledger can
/// replay the request stream without storing it.
pub fn lookup(seed: u64, k: u64, hot: &[Item]) -> Request {
    let mut rng = SplitMix(seed.rotate_left(17) ^ k.wrapping_mul(0xa076_1d64_78bd_642f));
    let mut item = || {
        let r = rng.next();
        if r & 1 == 0 && !hot.is_empty() {
            hot[(r >> 1) as usize % hot.len()]
        } else {
            (r >> 1) % UNIVERSE
        }
    };
    if k.is_multiple_of(2) {
        Request::Point { item: item() }
    } else {
        Request::PointBatch {
            items: (0..BATCH).map(|_| item()).collect(),
        }
    }
}

/// One answered request kept for checking (and, traced, for the ledger).
pub struct Answered {
    pub kind: Kind,
    /// Lookup index (`lookup(seed, k)`), or the poll index for `Hh`.
    pub k: u64,
    pub req: Request,
    pub resp: Response,
}

/// The query schedule of one run.
pub struct QueryPlan {
    pub lookups_per_s: f64,
    pub polls_per_s: f64,
    pub duration: Duration,
    pub seed: u64,
    /// Keep every answered request (traced runs) instead of a seeded
    /// one-in-eight sample.
    pub keep_all: bool,
}

/// What the query client saw.
#[derive(Default)]
pub struct Queried {
    /// Lookup latency from when the lookup was due to the decoded
    /// response, µs.
    pub lookup_us: Vec<f64>,
    /// Poll latency, same definition, ms.
    pub hh_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub kept: Vec<Answered>,
}

/// The stamp a data-bearing response carries.
pub fn stamp(resp: &Response) -> Option<u64> {
    match resp {
        Response::Point { stamp, .. }
        | Response::Points { stamp, .. }
        | Response::Norm { stamp, .. }
        | Response::HeavyHitters { stamp, .. } => Some(*stamp),
        _ => None,
    }
}

/// Whether `resp` is the answer a request of `kind` expects.
fn answers_kind(kind: Kind, resp: &Response) -> bool {
    match (kind, resp) {
        (Kind::Point, Response::Point { .. }) => true,
        (Kind::PointBatch, Response::Points { estimates, .. }) => estimates.len() == BATCH,
        (Kind::Hh, Response::HeavyHitters { .. }) => true,
        _ => false,
    }
}

/// Run the open-loop query schedule against `addr` on one thread, with
/// Poisson arrivals at the plan's rates: lookups on one connection through
/// [`QueryClient`], heavy-hitter polls on a second socket written with the
/// wire codec directly and read without blocking, so a slow poll never
/// holds up the lookup schedule. Traced runs record a `req.<kind>` span
/// (send → response) and a `lag.req` span (schedule → send) per request.
pub fn query(
    addr: SocketAddr,
    plan: &QueryPlan,
    hot: &[Item],
    mut tr: Option<&mut Tracer>,
) -> std::io::Result<Queried> {
    let mut client = QueryClient::connect(addr)?;
    let mut hh = TcpStream::connect(addr)?;
    hh.set_nodelay(true)?;
    hh.set_nonblocking(true)?;
    let mut out = Queried::default();
    let mut keep = SplitMix(plan.seed ^ 0x5eed);
    let t0 = Instant::now();
    let end = t0 + plan.duration;
    // Poisson arrivals: independent users, and no fixed phase against the
    // producer's schedule or the epoch cuts that a whole run could lock
    // into.
    let mut arrivals = SplitMix(plan.seed ^ 0xa881_5a1e);
    let mut gap = |rate: f64| {
        let u = ((arrivals.next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        Duration::from_secs_f64(-u.ln() / rate)
    };
    let mut next_lookup = t0 + gap(plan.lookups_per_s);
    let mut next_poll = t0 + gap(plan.polls_per_s);
    let (mut k, mut p) = (0u64, 0u64);
    // (poll index, scheduled, due, sent, request) of polls in flight.
    let mut pending: VecDeque<(u64, Instant, Instant, Instant, Request)> = VecDeque::new();
    // When the thread last woke from a sleep, until it sends: a request
    // is due at its scheduled time, or at this wake-up when the thread
    // overslept it. The generator's own lateness is reported as send lag
    // (`lag.req`), not charged to the service; a request that is late
    // because the thread waited on an earlier response still counts from
    // its schedule.
    let mut woke: Option<Instant> = None;
    let mut inbound: Vec<u8> = Vec::new();
    let mut frame = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut latest_stamp = 0u64;
    loop {
        // Drain whatever poll responses have arrived.
        loop {
            match hh.read(&mut chunk) {
                Ok(0) => {
                    out.failed += pending.len() as u64;
                    pending.clear();
                    break;
                }
                Ok(n) => inbound.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        while inbound.len() >= 4 {
            let len = u32::from_le_bytes(inbound[..4].try_into().expect("4 bytes")) as usize;
            if inbound.len() < 4 + len {
                break;
            }
            let done = Instant::now();
            let resp = Response::decode(&inbound[4..4 + len]);
            inbound.drain(..4 + len);
            let Some((pk, sched, due, sent, req)) = pending.pop_front() else {
                out.failed += 1;
                continue;
            };
            if let Some(tr) = tr.as_deref_mut() {
                tr.record("lag.req", sched, sent, None, pk);
                tr.record(Kind::Hh.span(), sent, done, None, pk);
            }
            match resp {
                Ok(resp) if answers_kind(Kind::Hh, &resp) => {
                    out.hh_ms.push((done - due).as_secs_f64() * 1e3);
                    out.kept.push(Answered {
                        kind: Kind::Hh,
                        k: pk,
                        req,
                        resp,
                    });
                }
                _ => out.failed += 1,
            }
        }
        let now = Instant::now();
        let lookups_left = next_lookup < end;
        let polls_left = next_poll < end;
        if !lookups_left && !polls_left {
            if pending.is_empty() {
                break;
            }
            if now > end + Duration::from_secs(5) {
                out.failed += pending.len() as u64;
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
            woke = Some(Instant::now());
            continue;
        }
        let next = match (lookups_left, polls_left) {
            (true, true) => next_lookup.min(next_poll),
            (true, false) => next_lookup,
            _ => next_poll,
        };
        if next > now {
            let mut wait = next - now;
            if !pending.is_empty() {
                wait = wait.min(Duration::from_micros(200));
            }
            std::thread::sleep(wait);
            woke = Some(Instant::now());
            continue;
        }
        if polls_left && next_poll <= next_lookup.min(end) {
            let req = Request::HeavyHitters {
                threshold: hh_threshold(latest_stamp),
            };
            req.encode(&mut frame);
            let due = woke.take().map_or(next_poll, |w| w.max(next_poll));
            let sent = Instant::now();
            out.attempted += 1;
            match write_frame(&mut hh, &frame) {
                Ok(()) => pending.push_back((p, next_poll, due, sent, req)),
                Err(_) => out.failed += 1,
            }
            p += 1;
            next_poll += gap(plan.polls_per_s);
            continue;
        }
        let req = lookup(plan.seed, k, hot);
        let kind = if k % 2 == 0 {
            Kind::Point
        } else {
            Kind::PointBatch
        };
        let due = woke.take().map_or(next_lookup, |w| w.max(next_lookup));
        let sent = Instant::now();
        out.attempted += 1;
        let resp = client.request(&req);
        let done = Instant::now();
        if let Some(tr) = tr.as_deref_mut() {
            tr.record("lag.req", next_lookup, sent, None, k);
            tr.record(kind.span(), sent, done, None, k);
        }
        match resp {
            Ok(resp) if answers_kind(kind, &resp) => {
                latest_stamp = stamp(&resp).unwrap_or(latest_stamp);
                out.lookup_us.push((done - due).as_secs_f64() * 1e6);
                if plan.keep_all || keep.next().is_multiple_of(8) {
                    out.kept.push(Answered { kind, k, req, resp });
                }
            }
            _ => out.failed += 1,
        }
        k += 1;
        next_lookup += gap(plan.lookups_per_s);
    }
    Ok(out)
}

/// Save answered requests (`kind`, `k`, poll threshold, encoded response)
/// so a parent process can replay a child's requests on the ledger.
pub fn write_answers(path: &std::path::Path, answered: &[Answered]) -> std::io::Result<()> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    for a in answered {
        a.resp.encode(&mut buf);
        out.push(a.kind.index() as u8);
        out.extend_from_slice(&a.k.to_le_bytes());
        let threshold = match a.req {
            Request::HeavyHitters { threshold } => threshold,
            _ => 0.0,
        };
        out.extend_from_slice(&threshold.to_bits().to_le_bytes());
        out.extend_from_slice(&(buf.len() as u32).to_le_bytes());
        out.extend_from_slice(&buf);
    }
    std::fs::write(path, out)
}

/// Read what [`write_answers`] saved; lookups are regenerated from
/// `(seed, k)`.
pub fn read_answers(
    path: &std::path::Path,
    seed: u64,
    hot: &[Item],
) -> std::io::Result<Vec<Answered>> {
    let data = std::fs::read(path)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "truncated answers file");
    let mut out = Vec::new();
    let mut p = 0;
    while p < data.len() {
        let head = data.get(p..p + 21).ok_or_else(bad)?;
        let kind = *Kind::ALL.get(head[0] as usize).ok_or_else(bad)?;
        let k = u64::from_le_bytes(head[1..9].try_into().expect("8 bytes"));
        let threshold =
            f64::from_bits(u64::from_le_bytes(head[9..17].try_into().expect("8 bytes")));
        let len = u32::from_le_bytes(head[17..21].try_into().expect("4 bytes")) as usize;
        let body = data.get(p + 21..p + 21 + len).ok_or_else(bad)?;
        let resp = Response::decode(body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let req = match kind {
            Kind::Hh => Request::HeavyHitters { threshold },
            _ => lookup(seed, k, hot),
        };
        out.push(Answered { kind, k, req, resp });
        p += 21 + len;
    }
    Ok(out)
}
