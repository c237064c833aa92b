//! Bounded candidate tracking for point-query sketches.
//!
//! Countsketch-style structures answer point queries but cannot *enumerate*
//! heavy items. The standard fix (used since \[14\]) is to maintain, online, a
//! small set of the items whose current estimates are largest: every update
//! re-estimates the touched item and the set evicts its weakest member when
//! over capacity. The set's size is charged to the reported space.

use bd_stream::{SketchState, StateError, StateReader, StateWriter};
use std::collections::HashSet;

/// A capped set of candidate items, evicted by a caller-supplied score.
#[derive(Clone, Debug, Default)]
pub struct CandidateSet {
    cap: usize,
    items: HashSet<u64>,
    /// Reusable prune-pass buffers (no semantic state).
    keys: Vec<u64>,
    scored: Vec<(u64, f64)>,
    scores: Vec<f64>,
}

impl CandidateSet {
    /// Create with capacity `cap ≥ 1`.
    pub fn new(cap: usize) -> Self {
        CandidateSet {
            cap: cap.max(1),
            items: HashSet::new(),
            keys: Vec::new(),
            scored: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// Offer an item. The set is allowed to grow to `2·cap` before a prune
    /// pass re-scores everything and keeps the top `cap` by `|score|` —
    /// amortizing eviction to O(1) score evaluations per offer while never
    /// dropping an item that was in the true top `cap` at prune time.
    pub fn offer<F: Fn(u64) -> f64>(&mut self, item: u64, score: F) {
        self.items.insert(item);
        if self.items.len() > 2 * self.cap {
            self.prune(|items, out| out.extend(items.iter().map(|&i| score(i))));
        }
    }

    /// Offer a whole chunk of items with a *batched* scorer: prune passes
    /// trigger exactly as under per-item [`CandidateSet::offer`] (the set
    /// never exceeds `2·cap`), but each pass scores the entire set through
    /// one `score_many(items, out)` call — the hook the batched ingest
    /// paths use to evaluate all candidates in one multi-row hash pass
    /// instead of `2·cap` scalar point queries.
    pub fn offer_chunk<I, F>(&mut self, items: I, mut score_many: F)
    where
        I: IntoIterator<Item = u64>,
        F: FnMut(&[u64], &mut Vec<f64>),
    {
        for item in items {
            self.items.insert(item);
            if self.items.len() > 2 * self.cap {
                self.prune(&mut score_many);
            }
        }
    }

    /// One prune pass: re-score everything, keep the top `cap` by `|score|`.
    /// All buffers are reused across passes — zero steady-state allocations.
    fn prune<F: FnMut(&[u64], &mut Vec<f64>)>(&mut self, mut score_many: F) {
        self.keys.clear();
        self.keys.extend(self.items.iter().copied());
        // Deterministic scoring order regardless of HashSet iteration.
        self.keys.sort_unstable();
        self.scores.clear();
        score_many(&self.keys, &mut self.scores);
        self.scored.clear();
        self.scored.extend(
            self.keys
                .iter()
                .copied()
                .zip(self.scores.iter().map(|s| s.abs())),
        );
        self.scored
            .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        self.scored.truncate(self.cap);
        self.items.clear();
        self.items.extend(self.scored.iter().map(|&(i, _)| i));
    }

    /// Offer every item of `other`, in ascending item order, as under
    /// [`CandidateSet::offer`]. The merge hook: a prune pass can trigger
    /// partway through, so the order is fixed by item id rather than left
    /// to `other`'s hasher, which differs between otherwise equal sets.
    pub fn offer_set<F: Fn(u64) -> f64>(&mut self, other: &CandidateSet, score: F) {
        let mut items: Vec<u64> = other.items.iter().copied().collect();
        items.sort_unstable();
        for item in items {
            self.offer(item, &score);
        }
    }

    /// The current candidates (unordered).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.items.iter().copied()
    }

    /// The candidate maximizing `|score|`, if any; ties go to the smallest
    /// item id, as in [`CandidateSet::top_k`].
    pub fn argmax<F: Fn(u64) -> f64>(&self, score: F) -> Option<u64> {
        self.items.iter().copied().max_by(|&a, &b| {
            score(a)
                .abs()
                .partial_cmp(&score(b).abs())
                .unwrap()
                .then(b.cmp(&a))
        })
    }

    /// The top `k` candidates by `|score|`, descending.
    pub fn top_k<F: Fn(u64) -> f64>(&self, k: usize, score: F) -> Vec<(u64, f64)> {
        let mut scored: Vec<(u64, f64)> = self.items.iter().map(|&i| (i, score(i))).collect();
        scored.sort_by(|a, b| {
            b.1.abs()
                .partial_cmp(&a.1.abs())
                .unwrap()
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored
    }

    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Bits to store the set: one identifier per slot (the set holds up to
    /// `2·cap` items between prune passes).
    pub fn space_bits(&self, universe: u64) -> u64 {
        2 * self.cap as u64 * bd_hash::width_unsigned(universe.max(2) - 1) as u64
    }
}

impl SketchState for CandidateSet {
    /// Mutable state: the candidate items, encoded sorted (the prune buffers
    /// are scratch). Restoring inserts without a prune pass, so the set is
    /// reinstated exactly as saved — including mid-growth sizes above `cap`.
    fn save_state(&self, w: &mut StateWriter) {
        let mut items: Vec<u64> = self.items.iter().copied().collect();
        items.sort_unstable();
        w.u64_seq(items.iter().copied());
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let items = r.u64_seq()?;
        if items.len() > 2 * self.cap {
            return Err(StateError::Corrupt("candidate set above 2·cap"));
        }
        self.items.clear();
        self.items.extend(items);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_strongest_items() {
        let mut c = CandidateSet::new(3);
        let score = |i: u64| i as f64; // bigger id = stronger
        for i in 1..=20u64 {
            c.offer(i, score);
        }
        assert!(c.len() <= 6, "bounded by 2·cap");
        assert_eq!(c.argmax(score), Some(20));
        let top: Vec<u64> = c.top_k(3, score).into_iter().map(|(i, _)| i).collect();
        assert_eq!(top, vec![20, 19, 18]);
    }

    #[test]
    fn top_k_ordering() {
        let mut c = CandidateSet::new(8);
        let score = |i: u64| -((i % 5) as f64); // |score| = i mod 5
        for i in 0..8u64 {
            c.offer(i, score);
        }
        let top = c.top_k(2, score);
        assert_eq!(top.len(), 2);
        assert!(top[0].1.abs() >= top[1].1.abs());
    }

    #[test]
    fn argmax_breaks_ties_by_smallest_item() {
        let mut c = CandidateSet::new(64);
        let score = |i: u64| if i.is_multiple_of(2) { 5.0 } else { -5.0 };
        for i in (10..40u64).rev() {
            c.offer(i, score);
        }
        assert_eq!(c.argmax(score), Some(10));
        assert_eq!(c.top_k(1, score)[0].0, 10);
    }

    #[test]
    fn duplicate_offers_are_idempotent() {
        let mut c = CandidateSet::new(2);
        for _ in 0..5 {
            c.offer(7, |_| 1.0);
        }
        assert_eq!(c.len(), 1);
    }
}
