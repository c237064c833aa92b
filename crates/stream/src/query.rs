//! The concurrent read side: snapshot publication and the batched query
//! engine.
//!
//! The [`StreamService`](crate::service::StreamService) produces immutable
//! epoch [`Snapshot`]s while its workers keep ingesting; this module is how
//! any number of reader threads *consume* them, holding the one lock they
//! share with the write path for a single `Arc` clone or swap:
//!
//! * [`SnapshotHub`] — the writer side. The service publishes each epoch's
//!   merged snapshot into a shared `Mutex<Option<Arc<Snapshot>>>` cell.
//! * [`SnapshotHandle`] — the reader side, cheaply cloneable and shareable
//!   across threads. [`SnapshotHandle::latest`] locks the cell just long
//!   enough to clone the `Arc`.
//! * [`QueryView`] — one pinned epoch: an `Arc<Snapshot>` a reader holds for
//!   as long as it wants. Every answer derived from one view is
//!   epoch-consistent (the snapshot is immutable and was merged *before*
//!   publication, so a view never observes a partial merge or a mid-epoch
//!   state).
//! * [`QueryEngine`] — the query surface over a view: point queries (batched
//!   through the [`PointQueryBatch`](crate::sketch::PointQueryBatch) capability where the family supports
//!   it, scalar fallback elsewhere), norms, support, and a threshold
//!   heavy-hitters scan, all driven by the registry's capability views.
//!
//! The retired `Arc` is dropped after the guard is released, so no reader
//! ever waits on a snapshot's destructor. A poisoned lock is recovered,
//! never propagated: the cell holds no invariant a panic could break.
//! DESIGN.md §11 gives the measured cost of the lock.

use crate::service::{EpochReport, Snapshot};
use crate::update::Item;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The publication cell shared by one hub and its handles: the newest
/// published snapshot, `None` before the first publish.
type Cell = Mutex<Option<Arc<Snapshot>>>;

/// Lock the cell, recovering from poison (a panic while holding the guard
/// cannot leave a half-written `Option`).
fn lock(cell: &Cell) -> MutexGuard<'_, Option<Arc<Snapshot>>> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The writer side of the publication cell, owned by the
/// [`StreamService`](crate::service::StreamService): each scheduled epoch
/// cut [`publish`](SnapshotHub::publish)es its merged snapshot, making it
/// the one every [`SnapshotHandle::latest`] call returns until the next cut.
pub struct SnapshotHub {
    cell: Arc<Cell>,
}

impl SnapshotHub {
    /// An empty hub (no snapshot published yet).
    pub fn new() -> Self {
        SnapshotHub {
            cell: Arc::new(Mutex::new(None)),
        }
    }

    /// Replace the published snapshot. The previous one is released after
    /// the lock is, so its destructor never runs inside the critical
    /// section.
    pub fn publish(&self, snapshot: Arc<Snapshot>) {
        let retired = lock(&self.cell).replace(snapshot);
        drop(retired);
    }

    /// A reader handle onto this hub's cell. Handles are cheap to clone and
    /// stay valid after the hub (and its service) are gone — they keep
    /// serving the last published snapshot.
    pub fn handle(&self) -> SnapshotHandle {
        SnapshotHandle {
            cell: Arc::clone(&self.cell),
        }
    }
}

impl Default for SnapshotHub {
    fn default() -> Self {
        SnapshotHub::new()
    }
}

impl fmt::Debug for SnapshotHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotHub").finish_non_exhaustive()
    }
}

/// The reader side: clone one per reader thread and call
/// [`latest`](SnapshotHandle::latest) per query (or per batch of queries
/// that must be epoch-consistent with each other).
#[derive(Clone)]
pub struct SnapshotHandle {
    cell: Arc<Cell>,
}

impl SnapshotHandle {
    /// The most recently published epoch snapshot, pinned as a
    /// [`QueryView`]; `None` before the first epoch cut.
    pub fn latest(&self) -> Option<QueryView> {
        lock(&self.cell).clone().map(QueryView::from_snapshot)
    }
}

impl fmt::Debug for SnapshotHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotHandle").finish_non_exhaustive()
    }
}

/// One pinned epoch: an immutable snapshot a reader holds while it queries.
/// All answers derived from one view describe the same stream prefix
/// (stamped by [`QueryView::stamp`]); grab a fresh view from the handle to
/// move to a newer epoch.
#[derive(Clone)]
pub struct QueryView {
    snap: Arc<Snapshot>,
}

impl QueryView {
    /// Pin an epoch snapshot directly (the loopback tests use this to
    /// compare served answers against the same `Arc` the service returned).
    pub fn from_snapshot(snap: Arc<Snapshot>) -> Self {
        QueryView { snap }
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }

    /// The pinned epoch's accounting.
    pub fn report(&self) -> &EpochReport {
        &self.snap.report
    }

    /// The epoch stamp: the stream-prefix length (`total_updates`) this
    /// snapshot covers. Two answers with equal stamps describe the same
    /// prefix.
    pub fn stamp(&self) -> u64 {
        self.snap.report.total_updates as u64
    }

    /// A query engine over this view (shares the pinned `Arc`).
    pub fn engine(&self) -> QueryEngine {
        QueryEngine { view: self.clone() }
    }
}

impl fmt::Debug for QueryView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryView")
            .field("stamp", &self.stamp())
            .finish_non_exhaustive()
    }
}

/// Why a query could not be answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The snapshot's family does not answer this query kind.
    Unsupported(&'static str),
    /// A heavy-hitters scan over a universe too large to enumerate, on a
    /// family with no support view to narrow the candidates.
    UniverseTooLarge(u64),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Unsupported(kind) => {
                write!(f, "snapshot family does not answer {kind} queries")
            }
            QueryError::UniverseTooLarge(n) => write!(
                f,
                "universe n={n} too large for a dense heavy-hitters scan \
                 (≤ {} without a support view)",
                QueryEngine::DENSE_SCAN_CAP
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// The query surface over one pinned epoch. All methods take `&self`; any
/// number of engines (across threads) can query the same snapshot
/// concurrently.
pub struct QueryEngine {
    view: QueryView,
}

impl QueryEngine {
    /// Largest universe the heavy-hitters fallback will enumerate densely
    /// when the family has no support view to produce candidates.
    pub const DENSE_SCAN_CAP: u64 = 1 << 20;

    /// Batch size for the dense heavy-hitters scan (bounds the bucket/sign
    /// buffer footprint per chunk).
    const SCAN_CHUNK: usize = 4096;

    /// An engine over a pinned view.
    pub fn new(view: QueryView) -> Self {
        QueryEngine { view }
    }

    /// The pinned view.
    pub fn view(&self) -> &QueryView {
        &self.view
    }

    /// The pinned epoch's stamp ([`QueryView::stamp`]).
    pub fn stamp(&self) -> u64 {
        self.view.stamp()
    }

    /// The pinned epoch's accounting.
    pub fn report(&self) -> &EpochReport {
        self.view.report()
    }

    /// Point estimate of `f_item`.
    pub fn point(&self, item: Item) -> Result<f64, QueryError> {
        self.view
            .snapshot()
            .sketch
            .as_point()
            .map(|p| p.point(item))
            .ok_or(QueryError::Unsupported("point"))
    }

    /// Point estimates for a whole query set, answered through one batched
    /// hash pass where the family advertises [`PointQueryBatch`]
    /// (bit-identical per item to the scalar path), and through a scalar
    /// loop elsewhere. `out` is cleared and filled positionally.
    ///
    /// [`PointQueryBatch`]: crate::sketch::PointQueryBatch
    pub fn point_many(&self, items: &[Item], out: &mut Vec<f64>) -> Result<(), QueryError> {
        out.clear();
        let sketch = &self.view.snapshot().sketch;
        if let Some(batch) = sketch.as_point_batch() {
            batch.point_many(items, out);
            return Ok(());
        }
        let point = sketch.as_point().ok_or(QueryError::Unsupported("point"))?;
        out.reserve(items.len());
        for &item in items {
            out.push(point.point(item));
        }
        Ok(())
    }

    /// The family's scalar statistic (`‖f‖₁`, `‖f‖₀`, ... — which one is
    /// the family's contract).
    pub fn norm(&self) -> Result<f64, QueryError> {
        self.view
            .snapshot()
            .sketch
            .as_norm()
            .map(|n| n.norm_estimate())
            .ok_or(QueryError::Unsupported("norm"))
    }

    /// The recovered support coordinates (sorted, deduplicated; empty when
    /// recovery declines).
    pub fn support(&self) -> Result<Vec<Item>, QueryError> {
        self.view
            .snapshot()
            .sketch
            .as_support()
            .map(|s| s.support_query())
            .ok_or(QueryError::Unsupported("support"))
    }

    /// Every item whose point estimate has magnitude ≥ `threshold`, sorted
    /// by decreasing magnitude (ties by item). Candidates come from the
    /// family's support view when it has one; otherwise the engine scans
    /// the spec's universe densely through the batched point path — allowed
    /// only up to [`QueryEngine::DENSE_SCAN_CAP`] items.
    pub fn heavy_hitters(&self, threshold: f64) -> Result<Vec<(Item, f64)>, QueryError> {
        let snapshot = self.view.snapshot();
        let mut out: Vec<(Item, f64)> = Vec::new();
        let mut ests = Vec::new();
        if let Some(s) = snapshot.sketch.as_support() {
            let candidates = s.support_query();
            self.point_many(&candidates, &mut ests)?;
            out.extend(
                candidates
                    .iter()
                    .zip(&ests)
                    .filter(|&(_, &e)| e.abs() >= threshold)
                    .map(|(&i, &e)| (i, e)),
            );
        } else {
            let n = snapshot.spec.n;
            if n > Self::DENSE_SCAN_CAP {
                return Err(QueryError::UniverseTooLarge(n));
            }
            let mut chunk: Vec<Item> = Vec::with_capacity(Self::SCAN_CHUNK);
            let mut start = 0u64;
            while start < n {
                let end = (start + Self::SCAN_CHUNK as u64).min(n);
                chunk.clear();
                chunk.extend(start..end);
                self.point_many(&chunk, &mut ests)?;
                out.extend(
                    chunk
                        .iter()
                        .zip(&ests)
                        .filter(|&(_, &e)| e.abs() >= threshold)
                        .map(|(&i, &e)| (i, e)),
                );
                start = end;
            }
        }
        out.sort_by(|a, b| {
            b.1.abs()
                .partial_cmp(&a.1.abs())
                .expect("estimates are finite")
                .then(a.0.cmp(&b.0))
        });
        Ok(out)
    }
}

impl fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryEngine")
            .field("stamp", &self.stamp())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::MergeReport;
    use crate::space::SpaceReport;
    use crate::spec::{SketchFamily, SketchSpec};
    use crate::vector::FrequencyVector;
    use std::sync::atomic::Ordering::SeqCst;
    use std::time::Duration;

    fn snap_with(stamp: usize, values: &[(Item, i64)]) -> Arc<Snapshot> {
        let mut fv = FrequencyVector::new(64);
        for &(i, d) in values {
            crate::sketch::Sketch::update(&mut fv, i, d);
        }
        Arc::new(Snapshot {
            spec: SketchSpec::new(SketchFamily::Exact).with_n(64),
            sketch: Box::new(fv),
            report: EpochReport {
                epoch: stamp,
                updates: 0,
                total_updates: stamp,
                inserted_mass: 0,
                deleted_mass: 0,
                total_inserted: 0,
                total_deleted: 0,
                alpha_configured: 2.0,
                total_dropped_updates: 0,
                queue_peak: 0,
                blocked: Duration::ZERO,
                space: SpaceReport::default(),
                elapsed: Duration::ZERO,
                merge_elapsed: Duration::ZERO,
                merge: MergeReport::default(),
                threads: 1,
                wal_records: 0,
                wal_bytes: 0,
            },
        })
    }

    fn snap(stamp: usize) -> Arc<Snapshot> {
        snap_with(stamp, &[])
    }

    #[test]
    fn empty_hub_serves_none_then_latest() {
        let hub = SnapshotHub::new();
        let handle = hub.handle();
        assert!(handle.latest().is_none());
        hub.publish(snap(100));
        assert_eq!(handle.latest().unwrap().stamp(), 100);
        hub.publish(snap(200));
        assert_eq!(handle.latest().unwrap().stamp(), 200);
        // A view pinned before the swap keeps serving its epoch.
        let pinned = handle.latest().unwrap();
        hub.publish(snap(300));
        assert_eq!(pinned.stamp(), 200);
        assert_eq!(handle.latest().unwrap().stamp(), 300);
    }

    #[test]
    fn retired_snapshots_are_reclaimed() {
        let hub = SnapshotHub::new();
        let first = snap(1);
        let weak = Arc::downgrade(&first);
        hub.publish(first);
        // Still alive: the cell owns it.
        assert!(weak.upgrade().is_some());
        // Retire it with no readers in flight: the publish reclaims it.
        hub.publish(snap(2));
        assert!(weak.upgrade().is_none(), "retired snapshot leaked");
    }

    #[test]
    fn handles_outlive_the_hub() {
        let hub = SnapshotHub::new();
        let handle = hub.handle();
        hub.publish(snap(7));
        drop(hub);
        assert_eq!(handle.latest().unwrap().stamp(), 7);
    }

    #[test]
    fn concurrent_readers_see_complete_monotone_snapshots() {
        let hub = SnapshotHub::new();
        hub.publish(snap(0));
        let publishes = 2000usize;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let handle = hub.handle();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut seen = 0usize;
                    // Keep loading until the writer is done AND this reader
                    // has overlapped a healthy number of swaps.
                    while seen < 500 || !stop.load(SeqCst) {
                        let view = handle.latest().expect("published before spawn");
                        let stamp = view.stamp();
                        // Complete snapshot: stamp and report agree.
                        assert_eq!(stamp as usize, view.report().epoch);
                        // Monotone: published pointers only move forward.
                        assert!(stamp >= last, "stamp went backwards: {last} → {stamp}");
                        last = stamp;
                        seen += 1;
                    }
                    seen
                })
            })
            .collect();
        for k in 1..=publishes {
            hub.publish(snap(k));
        }
        stop.store(true, SeqCst);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader made no progress");
        }
        assert_eq!(hub.handle().latest().unwrap().stamp(), publishes as u64);
    }

    #[test]
    fn engine_point_paths_agree_and_report_unsupported() {
        let view = QueryView::from_snapshot(snap_with(5, &[(3, 40), (9, -17)]));
        let engine = view.engine();
        assert_eq!(engine.stamp(), 5);
        assert_eq!(engine.point(3).unwrap(), 40.0);
        // FrequencyVector has no batch capability: the scalar fallback must
        // match the scalar path bit for bit.
        let items: Vec<Item> = (0..16).collect();
        let mut out = Vec::new();
        engine.point_many(&items, &mut out).unwrap();
        for (&i, &e) in items.iter().zip(&out) {
            assert_eq!(e.to_bits(), engine.point(i).unwrap().to_bits());
        }
        assert_eq!(engine.norm(), Err(QueryError::Unsupported("norm")));
        assert_eq!(engine.support(), Err(QueryError::Unsupported("support")));
    }

    #[test]
    fn dense_heavy_hitter_scan_finds_and_sorts() {
        let view = QueryView::from_snapshot(snap_with(1, &[(3, 40), (9, -50), (11, 2)]));
        let engine = view.engine();
        assert_eq!(
            engine.heavy_hitters(10.0).unwrap(),
            vec![(9, -50.0), (3, 40.0)]
        );
        assert!(engine.heavy_hitters(100.0).unwrap().is_empty());
    }

    #[test]
    fn dense_scan_rejects_huge_universes() {
        let mut snap = snap_with(1, &[]);
        Arc::get_mut(&mut snap).unwrap().spec =
            SketchSpec::new(SketchFamily::Exact).with_n(1 << 30);
        let engine = QueryView::from_snapshot(snap).engine();
        assert_eq!(
            engine.heavy_hitters(1.0),
            Err(QueryError::UniverseTooLarge(1 << 30))
        );
    }
}
