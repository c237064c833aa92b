//! The ledger: a replay of a run's offered stream through the public layer
//! calls, in the order the service makes them.
//!
//! The service dispatches the offered stream over a fixed grid: a cell ends
//! at the next multiple of the chunk or the next epoch boundary, whichever
//! comes first, and goes to worker `(cell start / chunk) mod threads`. An
//! epoch cut clones every worker's sketch and folds the clones with
//! `merge_tree`. Replaying the same grid on sketches from `build_n` gives
//! bit-identical snapshots, so the ledger is both the correctness reference
//! and, timed one call at a time, the per-layer cost ledger.

use crate::load::{lookup, stamp, Answered, Kind};
use crate::util::{Source, Tracer, CHUNK, UNIVERSE};
use bounded_deletions::bd_stream::wire::{Request, Response};
use bounded_deletions::bd_stream::{
    encode_snapshot, merge_tree, read_segment, sketch_to_bytes, wal_segments, DynSketch,
    EpochReport, Item, QueryClient, QueryEngine, QueryServer, QueryView, Registry, ServiceConfig,
    SketchSpec, Snapshot, SnapshotHandle, SnapshotHub, SnapshotStore, StreamRunner, Update,
    WalCell, WalPolicy, WalRecord, WalWriter,
};
use std::path::Path;
use std::sync::Arc;

/// One dispatch cell: offered position, length, worker, and whether an
/// epoch cut follows it.
#[derive(Clone, Copy)]
pub struct Cell {
    pub pos: usize,
    pub len: usize,
    pub worker: usize,
    pub cut: bool,
}

/// The cells of the offered range `[from, to)` under the service's grid.
/// `from` must be an epoch boundary (0, or a recovered cut).
pub fn cells(from: usize, to: usize, epoch: usize, threads: usize) -> Vec<Cell> {
    let mut out = Vec::new();
    let mut p = from;
    while p < to {
        let grid_end = (p / CHUNK + 1) * CHUNK;
        let epoch_end = (p / epoch + 1) * epoch;
        let end = grid_end.min(epoch_end).min(to);
        out.push(Cell {
            pos: p,
            len: end - p,
            worker: (p / CHUNK) % threads,
            cut: end == epoch_end,
        });
        p = end;
    }
    out
}

/// Clone every worker's sketch and fold the clones, as a cut does.
fn fold(workers: &[Box<dyn DynSketch>]) -> Result<Box<dyn DynSketch>, String> {
    let clones = workers.iter().map(|w| w.clone_dyn()).collect();
    merge_tree(clones)
        .map(|(merged, _)| merged)
        .map_err(|e| format!("workers do not merge: {e}"))
}

/// A sketch's persisted state, stamped with the served spec whatever spec
/// built it, so a comparison sees only the state.
pub fn bytes(sk: &dyn DynSketch) -> Vec<u8> {
    let served: SketchSpec = crate::util::SPEC
        .parse()
        .expect("the benchmark spec parses");
    sketch_to_bytes(&served, sk).expect("alpha_hh persists")
}

/// What a snapshot serves: the bits of its point estimates for every item
/// of the universe (`full`), or for every 16th item. Heavy-hitter polls
/// scan the same estimates, so equal answers here mean equal answers to
/// every request kind the benchmark sends.
pub fn answers(sk: &dyn DynSketch, full: bool) -> Vec<u64> {
    let step = if full { 1 } else { 16 };
    let items: Vec<Item> = (0..UNIVERSE).step_by(step).collect();
    let mut out = Vec::with_capacity(items.len());
    sk.as_point_batch()
        .expect("alpha_hh answers batched point queries")
        .point_many(&items, &mut out);
    out.iter().map(|v| v.to_bits()).collect()
}

/// A cut as the checks compare it: where it was taken, its persisted
/// state and its answers (full for the last cut of a run).
pub struct CutRef {
    pub at: usize,
    pub bytes: Vec<u8>,
    pub answers: Vec<u64>,
}

impl CutRef {
    pub fn of(at: usize, sk: &dyn DynSketch, full: bool) -> Self {
        CutRef {
            at,
            bytes: bytes(sk),
            answers: answers(sk, full),
        }
    }
}

/// The reference for an untraced run: the cut at every epoch boundary in
/// `(from, to]` and the merged state at `to` itself. Workers replay their
/// cells on parallel threads between cuts (their cells are independent),
/// so the check costs about as much wall time as the run it checks.
/// Untimed.
pub fn reference(
    src: &Source,
    epoch: usize,
    mut workers: Vec<Box<dyn DynSketch>>,
    from: usize,
    to: usize,
) -> Result<Vec<CutRef>, String> {
    let threads = workers.len();
    let all = cells(from, to, epoch, threads);
    let groups: Vec<&[Cell]> = all.split_inclusive(|c| c.cut).collect();
    let mut out = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        std::thread::scope(|s| {
            for (w, sk) in workers.iter_mut().enumerate() {
                s.spawn(move || {
                    let runner = StreamRunner::new();
                    let mut buf = Vec::with_capacity(CHUNK);
                    for c in group.iter().filter(|c| c.worker == w) {
                        src.fill(c.pos, c.len, &mut buf);
                        runner.run_updates(&mut **sk, &buf);
                    }
                });
            }
        });
        let last = group.last().expect("split groups are non-empty");
        let merged = fold(&workers)?;
        out.push(CutRef::of(
            last.pos + last.len,
            merged.as_ref(),
            g + 1 == groups.len(),
        ));
    }
    Ok(out)
}

/// Span names by layer call and request kind (`Kind::ALL` order).
const ENGINE: [&str; 3] = ["query.point", "query.point_many", "query.heavy_hitters"];
pub const ENC_REQ: [&str; 3] = [
    "wire.encode_req.point",
    "wire.encode_req.point_batch",
    "wire.encode_req.hh",
];
pub const DEC_REQ: [&str; 3] = [
    "wire.decode_req.point",
    "wire.decode_req.point_batch",
    "wire.decode_req.hh",
];
pub const ENC_RESP: [&str; 3] = [
    "wire.encode_resp.point",
    "wire.encode_resp.point_batch",
    "wire.encode_resp.hh",
];
pub const DEC_RESP: [&str; 3] = [
    "wire.decode_resp.point",
    "wire.decode_resp.point_batch",
    "wire.decode_resp.hh",
];
pub const NET: [&str; 3] = [
    "net.request.point",
    "net.request.point_batch",
    "net.request.hh",
];

/// Ledger spans whose self times add up to the work the live run did;
/// the engine and wire spans are the breakdown of `net.request.*`, and
/// `persist.encode` of `persist.save`.
pub const ATTRIBUTED: [&str; 12] = [
    "runner",
    "wal.append",
    "wal.roll",
    "wal.truncate",
    "merge.clone",
    "merge.fold",
    "persist.save",
    "query.publish",
    "query.latest",
    "net.request.point",
    "net.request.point_batch",
    "net.request.hh",
];

/// The answer the server gives to `req` from `engine`'s epoch (`None` for
/// a kind the benchmark does not send, or a refused query).
pub fn direct(engine: &QueryEngine, req: &Request) -> Option<Response> {
    let stamp = engine.stamp();
    match req {
        Request::Point { item } => engine
            .point(*item)
            .ok()
            .map(|estimate| Response::Point { stamp, estimate }),
        Request::PointBatch { items } => {
            let mut estimates = Vec::new();
            engine.point_many(items, &mut estimates).ok()?;
            Some(Response::Points { stamp, estimates })
        }
        Request::HeavyHitters { threshold } => engine
            .heavy_hitters(*threshold)
            .ok()
            .map(|hitters| Response::HeavyHitters { stamp, hitters }),
        _ => None,
    }
}

/// Bit-exact comparison of two responses through their wire encoding.
pub fn same(a: &Response, b: &Response) -> bool {
    let (mut x, mut y) = (Vec::new(), Vec::new());
    a.encode(&mut x);
    b.encode(&mut y);
    x == y
}

/// The live run's answered requests, to replay: lookups are regenerated
/// from `(seed, k)`, polls carry their request.
#[derive(Clone, Copy)]
pub struct Requests<'r> {
    pub answered: &'r [Answered],
    pub seed: u64,
    pub hot: &'r [Item],
}

/// The serial, traced replay. Every call into a layer is one span.
pub struct Ledger<'a> {
    src: &'a Source,
    spec: SketchSpec,
    config: ServiceConfig,
    pub tr: Tracer,
    pub workers: Vec<Box<dyn DynSketch>>,
    runner: StreamRunner,
    store: SnapshotStore,
    wal: Option<WalWriter>,
    hub: SnapshotHub,
    handle: SnapshotHandle,
    server: Option<QueryServer>,
    client: QueryClient,
    buf: Vec<Update>,
    /// Every cut the ledger made, in order.
    pub cuts: Vec<CutRef>,
    /// Replayed requests whose direct or served answer differed from the
    /// live run's.
    pub mismatches: u64,
    pub replayed: u64,
    /// Response payload bytes per request kind.
    pub response_bytes: [Vec<f64>; 3],
    pub hh_hits: f64,
    pub hh_scanned: f64,
    pub updates: usize,
    /// Updates appended to the ledger's write-ahead log.
    pub logged: usize,
    pub cells: usize,
    pub snapshot_bytes: usize,
    pub snapshot_bits: u64,
    pub tail_updates: usize,
}

impl<'a> Ledger<'a> {
    pub fn new(
        src: &'a Source,
        registry: &Registry,
        spec: SketchSpec,
        config: ServiceConfig,
        dir: &Path,
        tr: Tracer,
    ) -> std::io::Result<Self> {
        let store = SnapshotStore::open(dir).map_err(std::io::Error::other)?;
        let hub = SnapshotHub::new();
        let handle = hub.handle();
        let server = QueryServer::bind("127.0.0.1:0", handle.clone())?;
        let client = QueryClient::connect(server.local_addr())?;
        Ok(Ledger {
            src,
            spec,
            config,
            tr,
            workers: registry
                .build_n(&spec, config.threads)
                .map_err(std::io::Error::other)?,
            runner: StreamRunner::new(),
            store,
            wal: None,
            hub,
            handle,
            server: Some(server),
            client,
            buf: Vec::with_capacity(CHUNK),
            cuts: Vec::new(),
            mismatches: 0,
            replayed: 0,
            response_bytes: Default::default(),
            hh_hits: 0.0,
            hh_scanned: 0.0,
            updates: 0,
            logged: 0,
            cells: 0,
            snapshot_bytes: 0,
            snapshot_bits: 0,
            tail_updates: 0,
        })
    }

    /// Open the write-ahead log the way `persist_to`/`recover` do.
    pub fn open_wal(&mut self, seq: u64, start: usize) -> Result<(), String> {
        let w = WalWriter::open(
            self.store.dir(),
            &self.spec.to_string(),
            &self.config.geometry_string(),
            WalPolicy::Epoch,
            seq,
            start as u64,
        )
        .map_err(|e| e.to_string())?;
        self.wal = Some(w);
        Ok(())
    }

    /// Replay one cell: the worker's batched ingest, then the log append.
    fn cell(
        &mut self,
        c: Cell,
        log: bool,
        updates: Option<Arc<Vec<Update>>>,
    ) -> Result<(), String> {
        let id = self.cells as u64;
        let batch = match updates {
            Some(u) => u,
            None => {
                self.src.fill(c.pos, c.len, &mut self.buf);
                Arc::new(self.buf.clone())
            }
        };
        let (runner, sk) = (&self.runner, &mut self.workers[c.worker]);
        self.tr
            .time("runner", id, || runner.run_updates(&mut **sk, &batch));
        if log {
            let rec = WalRecord {
                offered: c.pos as u64,
                cell: WalCell::Batch(batch),
            };
            let wal = self.wal.as_mut().ok_or("no wal open")?;
            self.tr
                .time("wal.append", id, || wal.append(&rec))
                .map_err(|e| e.to_string())?;
            self.logged += c.len;
        }
        self.updates += c.len;
        self.cells += 1;
        Ok(())
    }

    /// Replay the offered range `[from, to)`, cutting at each epoch
    /// boundary (and at `to` when `finish`). `report_for` gives the live
    /// run's report of the cut at an offered position, for the snapshot
    /// file; `requests` are the live run's answered requests, replayed on
    /// the view they were answered from.
    pub fn ingest(
        &mut self,
        from: usize,
        to: usize,
        finish: bool,
        report_for: &dyn Fn(usize) -> Option<EpochReport>,
        requests: Requests,
    ) -> Result<(), String> {
        let all = cells(from, to, self.config.epoch as usize, self.config.threads);
        let n = all.len();
        for (i, c) in all.into_iter().enumerate() {
            self.cell(c, true, None)?;
            let end = c.pos + c.len;
            let last = finish && i + 1 == n;
            if c.cut || last {
                let report = report_for(end).ok_or(format!("no live cut at {end}"))?;
                self.cut(end, report, last, requests)?;
            }
        }
        Ok(())
    }

    /// An epoch cut, call for call: roll the log, clone and fold, encode
    /// and save, truncate the log, publish, then replay the requests the
    /// live run answered from this epoch.
    fn cut(
        &mut self,
        at: usize,
        report: EpochReport,
        full: bool,
        requests: Requests,
    ) -> Result<(), String> {
        let id = at as u64;
        if let Some(wal) = self.wal.as_mut() {
            self.tr
                .time("wal.roll", id, || wal.roll(at as u64))
                .map_err(|e| e.to_string())?;
        }
        let workers = &self.workers;
        let clones: Vec<Box<dyn DynSketch>> = self.tr.time("merge.clone", id, || {
            workers.iter().map(|w| w.clone_dyn()).collect()
        });
        let (merged, _) = self
            .tr
            .time("merge.fold", id, || merge_tree(clones))
            .map_err(|e| e.to_string())?;
        let spec = self.spec;
        let geometry = self.config.geometry_string();
        let encoded = self
            .tr
            .time("persist.encode", id, || {
                encode_snapshot(&spec, &geometry, &report, at as u64, merged.as_ref())
            })
            .map_err(|e| e.to_string())?;
        self.snapshot_bytes = encoded.len();
        let store = &self.store;
        self.tr
            .time("persist.save", id, || {
                store.save(&spec, &geometry, &report, at as u64, merged.as_ref())
            })
            .map_err(|e| e.to_string())?;
        if let Some(wal) = self.wal.as_mut() {
            self.tr
                .time("wal.truncate", id, || wal.truncate_through(at as u64))
                .map_err(|e| e.to_string())?;
        }
        self.snapshot_bits = merged.space().total_bits();
        self.cuts.push(CutRef::of(at, merged.as_ref(), full));
        self.publish(Arc::new(Snapshot {
            spec,
            sketch: merged,
            report,
        }));
        self.replay(requests)
    }

    /// Publish a snapshot to the ledger's hub.
    pub fn publish(&mut self, snap: Arc<Snapshot>) {
        let hub = &self.hub;
        let id = snap.report.total_updates as u64;
        self.tr.time("query.publish", id, || hub.publish(snap));
    }

    /// Replay the live requests answered from the currently published
    /// epoch: engine call, the wire codec both ways, and the request over
    /// TCP to the ledger's own server; each answer must match the live one
    /// bit for bit.
    pub fn replay(&mut self, requests: Requests) -> Result<(), String> {
        let handle = &self.handle;
        let view: QueryView = self
            .tr
            .time("query.latest", 0, || handle.latest())
            .ok_or("nothing published")?;
        let engine = view.engine();
        let now = engine.stamp();
        let (mut req_buf, mut resp_buf) = (Vec::new(), Vec::new());
        for a in requests
            .answered
            .iter()
            .filter(|a| stamp(&a.resp) == Some(now))
        {
            let i = a.kind.index();
            let id = a.k;
            // Lookups are regenerated from the seed: the live and ledger
            // request streams are the same function of (seed, k).
            let req = if a.kind == Kind::Hh {
                a.req.clone()
            } else {
                lookup(requests.seed, a.k, requests.hot)
            };
            self.tr.time(ENC_REQ[i], id, || req.encode(&mut req_buf));
            let decoded = self
                .tr
                .time(DEC_REQ[i], id, || Request::decode(&req_buf))
                .map_err(|e| e.to_string())?;
            let resp = self
                .tr
                .time(ENGINE[i], id, || direct(&engine, &decoded))
                .ok_or("the engine refused a replayed request")?;
            if let Response::HeavyHitters { hitters, .. } = &resp {
                self.hh_hits += hitters.len() as f64;
                self.hh_scanned += engine.view().snapshot().spec.n as f64;
            }
            self.tr.time(ENC_RESP[i], id, || resp.encode(&mut resp_buf));
            self.response_bytes[i].push(resp_buf.len() as f64);
            let back = self
                .tr
                .time(DEC_RESP[i], id, || Response::decode(&resp_buf))
                .map_err(|e| e.to_string())?;
            let client = &mut self.client;
            let served = self
                .tr
                .time(NET[i], id, || client.request(&req))
                .map_err(|e| e.to_string())?;
            self.replayed += 1;
            if !same(&back, &a.resp) || !same(&served, &a.resp) {
                self.mismatches += 1;
            }
        }
        Ok(())
    }

    /// Recovery's reads: the newest snapshot, the segment list, and every
    /// segment's records. Returns the snapshot record and the log tail
    /// beyond it (the cells recovery re-dispatches), and the highest
    /// segment sequence number.
    #[allow(clippy::type_complexity)]
    pub fn read_back(
        &mut self,
        registry: &Registry,
        dir: &Path,
    ) -> Result<
        (
            Option<bounded_deletions::bd_stream::SnapshotRecord>,
            Vec<WalRecord>,
            Option<u64>,
        ),
        String,
    > {
        let store = SnapshotStore::open(dir).map_err(|e| e.to_string())?;
        let rec = self
            .tr
            .time("persist.load", 0, || store.load_latest(registry))
            .map_err(|e| e.to_string())?;
        let cursor = rec.as_ref().map_or(0, |r| r.offered);
        let segs = self
            .tr
            .time("wal.segments", 0, || wal_segments(dir))
            .map_err(|e| e.to_string())?;
        let mut tail = Vec::new();
        let mut max_seq = None;
        for (seq, path) in segs {
            max_seq = Some(seq);
            let scan = self
                .tr
                .time("wal.read", seq, || read_segment(&path))
                .map_err(|e| e.to_string())?;
            tail.extend(scan.records.into_iter().filter(|r| r.offered >= cursor));
        }
        self.tail_updates = tail.iter().map(|r| r.len()).sum();
        Ok((rec, tail, max_seq))
    }

    /// Re-dispatch a log tail (never re-logged), as recovery does.
    pub fn replay_tail(&mut self, tail: Vec<WalRecord>) -> Result<(), String> {
        for rec in tail {
            let WalCell::Batch(batch) = rec.cell else {
                return Err("shed cell under overflow=block".into());
            };
            let pos = rec.offered as usize;
            let c = Cell {
                pos,
                len: batch.len(),
                worker: (pos / CHUNK) % self.config.threads,
                cut: false,
            };
            self.cell(c, false, Some(batch))?;
        }
        Ok(())
    }

    /// The current worker state merged (an on-demand cut), untimed.
    pub fn state(&self, at: usize) -> Result<CutRef, String> {
        Ok(CutRef::of(at, fold(&self.workers)?.as_ref(), true))
    }

    /// Write-ahead-log frame bytes the ledger appended.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.bytes())
    }

    /// Stop the ledger's server.
    pub fn close(&mut self) {
        if let Some(s) = self.server.take() {
            s.join();
        }
    }
}
