//! The `StreamRunner` ingestion engine.
//!
//! Every bench binary, example, and integration test in the workspace used
//! to hand-roll the same loop: feed a [`StreamBatch`] into a sketch, time
//! it, read the space report. [`StreamRunner`] is that loop, written once:
//! it drives any [`Sketch`] (including `dyn Sketch`) over a stream in
//! configurable chunks through [`Sketch::update_batch`], and returns a
//! [`RunReport`] with wall-clock timing, update mass, throughput, and the
//! sketch's bit-level space report.
//!
//! Chunked driving is what makes batched ingestion real: a chunk of a few
//! thousand updates is enough for the pre-aggregating `update_batch`
//! overrides (CSSS, heavy hitters, Countsketch, Count-Min) to collapse
//! duplicate items, while keeping peak scratch memory bounded and the sketch
//! state never more than one chunk behind the stream.

use crate::sketch::Sketch;
use crate::space::SpaceReport;
use crate::update::StreamBatch;
use std::time::{Duration, Instant};

/// Outcome of one [`StreamRunner::run`]: what was ingested, how fast, and
/// how much space the sketch reports afterwards.
#[derive(Clone, Copy, Debug)]
pub struct RunReport {
    /// Number of stream updates applied.
    pub updates: usize,
    /// Total update mass `Σ_t |Δ_t|` applied.
    pub mass: u64,
    /// Wall-clock ingestion time.
    pub elapsed: Duration,
    /// The sketch's space report after ingestion.
    pub space: SpaceReport,
}

impl RunReport {
    /// Ingestion throughput in updates per second.
    pub fn updates_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            self.updates as f64 / secs
        }
    }

    /// Total space in bits (convenience over [`RunReport::space`]).
    pub fn space_bits(&self) -> u64 {
        self.space.total_bits()
    }
}

/// The ingestion engine: drives sketches over streams.
#[derive(Clone, Copy, Debug)]
pub struct StreamRunner {
    /// Updates per [`Sketch::update_batch`] call; `0` means per-update
    /// ingestion through [`Sketch::update`] (the unbatched baseline).
    chunk: usize,
}

impl StreamRunner {
    /// Default chunk size: large enough that Zipfian chunks contain many
    /// duplicate items for the batched paths to collapse, small enough that
    /// per-chunk scratch maps stay cache-resident.
    pub const DEFAULT_CHUNK: usize = 4096;

    /// A runner with the default chunk size.
    pub fn new() -> Self {
        StreamRunner {
            chunk: Self::DEFAULT_CHUNK,
        }
    }

    /// A runner that feeds updates one at a time through [`Sketch::update`]
    /// (the baseline the batched path is benchmarked against).
    pub fn unbatched() -> Self {
        StreamRunner { chunk: 0 }
    }

    /// A runner with an explicit chunk size (`0` = unbatched).
    pub fn with_chunk(chunk: usize) -> Self {
        StreamRunner { chunk }
    }

    /// The configured chunk size (`0` = unbatched).
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Drive `sketch` over `stream`, returning timing and space.
    pub fn run<S: Sketch + ?Sized>(&self, sketch: &mut S, stream: &StreamBatch) -> RunReport {
        self.run_updates(sketch, &stream.updates)
    }

    /// Drive `sketch` over a slice of updates (a stream shard or a probed
    /// prefix window), returning timing and space.
    pub fn run_updates<S: Sketch + ?Sized>(
        &self,
        sketch: &mut S,
        updates: &[crate::update::Update],
    ) -> RunReport {
        let start = Instant::now();
        if self.chunk == 0 {
            for u in updates {
                sketch.update(u.item, u.delta);
            }
        } else {
            for chunk in updates.chunks(self.chunk) {
                sketch.update_batch(chunk);
            }
        }
        let elapsed = start.elapsed();
        RunReport {
            updates: updates.len(),
            mass: updates.iter().map(|u| u.magnitude()).sum(),
            elapsed,
            space: sketch.space(),
        }
    }

    /// Drive several sketches over the same stream (one pass per sketch —
    /// the common bench shape "same workload, every contender").
    /// Returns one report per sketch, in order.
    pub fn run_each(
        &self,
        sketches: &mut [&mut dyn Sketch],
        stream: &StreamBatch,
    ) -> Vec<RunReport> {
        sketches
            .iter_mut()
            .map(|s| self.run(&mut **s, stream))
            .collect()
    }
}

impl Default for StreamRunner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::PointQuery;
    use crate::space::SpaceUsage;
    use crate::update::{Item, Update};

    #[derive(Default)]
    struct Exact {
        f: std::collections::HashMap<Item, i64>,
        batch_calls: usize,
    }

    impl SpaceUsage for Exact {
        fn space(&self) -> SpaceReport {
            SpaceReport {
                counters: self.f.len() as u64,
                counter_bits: 128 * self.f.len() as u64,
                ..Default::default()
            }
        }
    }

    impl Sketch for Exact {
        fn update(&mut self, item: Item, delta: i64) {
            *self.f.entry(item).or_insert(0) += delta;
        }
        fn update_batch(&mut self, batch: &[Update]) {
            self.batch_calls += 1;
            for u in batch {
                self.update(u.item, u.delta);
            }
        }
    }

    impl PointQuery for Exact {
        fn point(&self, item: Item) -> f64 {
            self.f.get(&item).copied().unwrap_or(0) as f64
        }
    }

    fn stream() -> StreamBatch {
        StreamBatch::new(
            64,
            (0..1000u64)
                .map(|t| Update::new(t % 7, if t % 3 == 0 { -1 } else { 2 }))
                .collect(),
        )
    }

    #[test]
    fn chunked_and_unbatched_agree() {
        let s = stream();
        let mut a = Exact::default();
        let mut b = Exact::default();
        let ra = StreamRunner::new().run(&mut a, &s);
        let rb = StreamRunner::unbatched().run(&mut b, &s);
        for i in 0..7u64 {
            assert_eq!(a.point(i), b.point(i));
        }
        assert_eq!(ra.updates, 1000);
        assert_eq!(rb.updates, 1000);
        assert_eq!(ra.mass, s.total_mass());
        assert_eq!(ra.space, rb.space);
    }

    #[test]
    fn chunk_size_controls_batch_calls() {
        let s = stream();
        let mut e = Exact::default();
        StreamRunner::with_chunk(100).run(&mut e, &s);
        assert_eq!(e.batch_calls, 10);
        let mut u = Exact::default();
        StreamRunner::unbatched().run(&mut u, &s);
        assert_eq!(u.batch_calls, 0);
    }

    #[test]
    fn runs_dyn_sketches() {
        let s = stream();
        let mut a = Exact::default();
        let mut b = Exact::default();
        let reports = StreamRunner::new().run_each(&mut [&mut a as &mut dyn Sketch, &mut b], &s);
        assert_eq!(reports.len(), 2);
        assert_eq!(a.point(0), b.point(0));
    }
}
