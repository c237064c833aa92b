//! Tree-structured merge folds: how the
//! [`StreamService`](crate::service::StreamService) combines its worker
//! sketches into one snapshot at every epoch cut.
//!
//! [`merge_tree`] folds `W` parts in pairwise rounds: round `r` merges
//! survivor `2i+1` into survivor `2i` (an odd last survivor passes
//! through), so a `W`-way fold takes `⌈log₂ W⌉` rounds and `W − 1` merges.
//! Every round runs inline on the caller's thread: on a 2-core host,
//! threaded rounds of the same shape lost to inline rounds in 97 of 98
//! paired runs (DESIGN.md §10).
//!
//! **Why the result is fixed.** The tree *shape* is a pure function of
//! the part indices, so a fold over the same parts is deterministic. For
//! `merge_bitwise` families the merge is an associative counter/row add
//! (integer-valued, so even `f64`-backed tables re-associate exactly),
//! which makes the tree fold bit-identical to the left-to-right fold;
//! sampling mergers (CSSS-style thinning) consume RNG draws per merge, so
//! the tree reaches a different — but deterministic and distributionally
//! equivalent — state, exactly the per-family contract `DESIGN.md §7`/`§10`
//! documents and `tests/service.rs` pins (tree ≡ serial: bitwise under
//! `merge_bitwise`, estimate-equal otherwise).
//!
//! Each fold reports its depth and per-round wall clock in a [`MergeReport`]
//! (carried on [`EpochReport`](crate::service::EpochReport)).

use crate::registry::{DynSketch, RegistryError};
use std::time::{Duration, Instant};

/// Per-round timing slots: 32 rounds cover a 2³²-way fold, far beyond any
/// real worker count, while keeping the report `Copy`.
const MAX_ROUNDS: usize = 32;

/// Accounting for one tree fold: fan-in, depth, total and per-round wall
/// clock. `Copy`, so the epoch reports that embed it stay `Copy`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MergeReport {
    /// Number of parts folded (1 ⇒ nothing to merge, depth 0).
    pub parts: usize,
    /// Pairwise rounds run: `⌈log₂ parts⌉`.
    pub depth: usize,
    /// Wall clock of the whole fold.
    pub elapsed: Duration,
    rounds: [Duration; MAX_ROUNDS],
}

impl MergeReport {
    /// Per-round wall clock, in round order (first round = widest).
    pub fn rounds(&self) -> &[Duration] {
        &self.rounds[..self.depth.min(MAX_ROUNDS)]
    }

    /// Total merge operations performed (`parts − 1` for a non-empty fold).
    pub fn merges(&self) -> usize {
        self.parts.saturating_sub(1)
    }
}

/// Fold `parts` into one sketch with a deterministic pairwise tree.
///
/// Round structure: parts `(0,1), (2,3), …` merge (right into left); an
/// unpaired last part survives to the next round unchanged; repeat until
/// one sketch remains. Part 0's sketch is always the final survivor — the
/// same identity the serial fold produced.
///
/// # Panics
/// Panics if `parts` is empty.
pub fn merge_tree(
    mut parts: Vec<Box<dyn DynSketch>>,
) -> Result<(Box<dyn DynSketch>, MergeReport), RegistryError> {
    assert!(!parts.is_empty(), "merge_tree needs at least one part");
    let mut report = MergeReport {
        parts: parts.len(),
        ..Default::default()
    };
    let start = Instant::now();
    while parts.len() > 1 {
        let round_start = Instant::now();
        let mut survivors = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(mut left) = it.next() {
            if let Some(right) = it.next() {
                left.merge_dyn(right.as_ref())?;
            }
            survivors.push(left);
        }
        parts = survivors;
        if report.depth < MAX_ROUNDS {
            report.rounds[report.depth] = round_start.elapsed();
        }
        report.depth += 1;
    }
    report.elapsed = start.elapsed();
    Ok((parts.pop().expect("one survivor"), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{register_reference, Registry};
    use crate::runner::StreamRunner;
    use crate::spec::{SketchFamily, SketchSpec};
    use crate::update::Update;

    fn parts(n: usize) -> Vec<Box<dyn DynSketch>> {
        let mut r = Registry::new();
        register_reference(&mut r);
        let spec = SketchSpec::new(SketchFamily::Exact).with_n(64).with_seed(9);
        let mut sketches = r.build_n(&spec, n).unwrap();
        for (i, sk) in sketches.iter_mut().enumerate() {
            let ups: Vec<Update> = (0..10u64).map(|t| Update::new(t, 1 + i as i64)).collect();
            StreamRunner::new().run_updates(&mut **sk, &ups);
        }
        sketches
    }

    fn serial_fold(mut ps: Vec<Box<dyn DynSketch>>) -> Box<dyn DynSketch> {
        let mut acc = ps.remove(0);
        for p in &ps {
            acc.merge_dyn(p.as_ref()).unwrap();
        }
        acc
    }

    #[test]
    fn tree_matches_serial_at_every_fanin() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 13, 16] {
            let want = serial_fold(parts(n));
            let (got, rep) = merge_tree(parts(n)).unwrap();
            assert_eq!(rep.parts, n);
            assert_eq!(rep.depth, (n.max(1) as f64).log2().ceil() as usize);
            assert_eq!(rep.merges(), n - 1);
            assert_eq!(rep.rounds().len(), rep.depth);
            let (p, q) = (got.as_point().unwrap(), want.as_point().unwrap());
            for i in 0..64 {
                assert_eq!(p.point(i).to_bits(), q.point(i).to_bits(), "n={n} item {i}");
            }
        }
    }

    #[test]
    fn depth_zero_for_single_part() {
        let (got, rep) = merge_tree(parts(1)).unwrap();
        assert_eq!(rep.depth, 0);
        assert_eq!(rep.merges(), 0);
        assert!(rep.rounds().is_empty());
        assert_eq!(got.as_point().unwrap().point(3), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn empty_fold_panics() {
        let _ = merge_tree(Vec::new());
    }
}
