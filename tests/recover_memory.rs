//! Recovery's heap law: a restart holds one write-ahead-log frame plus the
//! worker queues, however long the log tail it replays.
//!
//! `StreamService::recover` streams each segment through a
//! `SegmentReader` and dispatches every cell as soon as it is decoded, so
//! what it holds at once is bounded by the dispatch window — `depth`
//! queued cells per worker, one cell in each worker's hands and one in the
//! dispatcher's — and not by the log. This binary counts every heap byte
//! through its own global allocator and pins that bound: the peak during
//! `recover` of a WAL-only store grows by less than that window, plus one
//! frame, from a 64-cell tail to a 512-cell one. It is a test binary of
//! its own because the allocator counts the whole process. CI re-runs it
//! under the `BD_SHARD_THREADS` matrix.

use bd_stream::{ServiceConfig, SnapshotStore, StreamService, WalPolicy};
use bounded_deletions::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the caller's; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(p, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        q
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Worker count under test: the CI matrix knob, defaulting to the
/// contended shape, as in `tests/wal.rs`.
fn threads() -> usize {
    std::env::var("BD_SHARD_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(3)
}

const CHUNK: usize = 4096;
const DEPTH: usize = 4;

/// One logged cell's frame: length, offered position, kind, count, the
/// updates, checksum.
const FRAME: usize = 4 + 8 + 1 + 4 + 16 * CHUNK + 4;

fn spec() -> SketchSpec {
    "exact:n=1024".parse().unwrap()
}

/// Every log is one epoch's head: the epoch is longer than any tail, so no
/// cut (and no snapshot) ever happens.
fn config() -> ServiceConfig {
    ServiceConfig::default()
        .with_epoch(1 << 30)
        .with_threads(threads())
        .with_chunk(CHUNK)
        .with_depth(DEPTH)
        .with_wal(WalPolicy::Epoch)
}

/// A self-cleaning store directory under the OS temp dir.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("bd-recover-memory-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn store(&self) -> SnapshotStore {
        SnapshotStore::open(&self.0).unwrap()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A WAL-only store holding `cells` logged cells: a service that ingests
/// them one cell per call and is dropped without `finish`, like a crash.
fn logged_store(cells: usize) -> TempDir {
    let dir = TempDir::new(&format!("{cells}-cells"));
    let mut svc = StreamService::start(registry(), &spec(), config()).unwrap();
    svc.persist_to(dir.store()).unwrap();
    let mut cell = Vec::with_capacity(CHUNK);
    for c in 0..cells {
        cell.clear();
        cell.extend((c * CHUNK..(c + 1) * CHUNK).map(|t| {
            let t = t as u64;
            Update::new(
                t.wrapping_mul(0x9E37_79B9) % 1024,
                if t.is_multiple_of(3) { -1 } else { 2 },
            )
        }));
        svc.ingest(&cell).unwrap();
    }
    drop(svc);
    assert!(dir.store().epochs().unwrap().is_empty(), "a cut happened");
    dir
}

/// Recover from `dir`: the heap's high-water mark above its level at the
/// call, and the resume position.
fn recover_peak(dir: &TempDir) -> (usize, usize) {
    let store = dir.store();
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let svc = StreamService::recover(registry(), &spec(), config(), store).unwrap();
    let peak = PEAK.load(Ordering::SeqCst) - base;
    let from = svc.replay_from();
    drop(svc);
    (peak, from)
}

/// The heap law: from a 64-cell tail to a 512-cell one, `recover`'s peak
/// grows by less than the queues' capacity, `(depth + 2)·threads` cells of
/// `16·chunk` bytes, plus one frame; and every logged cell is replayed.
#[test]
fn recovery_heap_does_not_grow_with_the_log_tail() {
    let window = (DEPTH + 2) * threads() * 16 * CHUNK + FRAME;
    let mut peaks = Vec::new();
    for cells in [64, 512] {
        let dir = logged_store(cells);
        let (peak, from) = recover_peak(&dir);
        assert_eq!(from, cells * CHUNK, "{cells}-cell tail not replayed");
        peaks.push(peak);
    }
    let growth = peaks[1].saturating_sub(peaks[0]);
    assert!(
        growth < window,
        "recover peaked at {} bytes on a 64-cell tail and {} on a 512-cell \
         one: {growth} more, over the {window}-byte dispatch window (threads = {})",
        peaks[0],
        peaks[1],
        threads()
    );
}
