//! Bounded candidate tracking for point-query sketches.
//!
//! Countsketch-style structures answer point queries but cannot *enumerate*
//! heavy items. The standard fix (used since \[14\]) is to maintain, online, a
//! small set of the items whose current estimates are largest: every update
//! re-estimates the touched item and the set evicts its weakest member when
//! over capacity. The set's size is charged to the reported space.

use bd_stream::{Scratch, SketchState, StateError, StateReader, StateWriter};
use std::collections::HashSet;

/// A capped set of candidate items, evicted by a caller-supplied score.
#[derive(Clone, Debug, Default)]
pub struct CandidateSet {
    cap: usize,
    items: HashSet<u64>,
    /// Reusable prune-pass buffers (no semantic state): scored members,
    /// with their chunk position for [`CandidateSet::offer_chunk`].
    live: Scratch<Vec<(u64, f64, usize)>>,
    held: Scratch<Vec<bool>>,
    outside: Scratch<Vec<u64>>,
    scores: Scratch<Vec<f64>>,
}

/// `live` entries that are not chunk items.
const NOT_IN_CHUNK: usize = usize::MAX;

impl CandidateSet {
    /// Create with capacity `cap ≥ 1`.
    pub fn new(cap: usize) -> Self {
        CandidateSet {
            cap: cap.max(1),
            ..Default::default()
        }
    }

    /// Offer an item. The set is allowed to grow to `2·cap` before a prune
    /// pass re-scores everything and keeps the top `cap` by `|score|` —
    /// amortizing eviction to O(1) score evaluations per offer while never
    /// dropping an item that was in the true top `cap` at prune time.
    pub fn offer<F: Fn(u64) -> f64>(&mut self, item: u64, score: F) {
        self.items.insert(item);
        if self.items.len() > 2 * self.cap {
            self.live.clear();
            self.live.extend(
                self.items
                    .iter()
                    .map(|&i| (i, score(i).abs(), NOT_IN_CHUNK)),
            );
            keep_top(&mut self.live, self.cap);
            self.live.truncate(self.cap);
            self.items.clear();
            self.items.extend(self.live.iter().map(|e| e.0));
        }
    }

    /// Offer a chunk of *distinct* items whose scores are already known,
    /// with every prune pass scoring from a table built once per chunk.
    ///
    /// `scores[i]` is the score of the chunk's `i`-th item and
    /// `index_of(item)` its position in the chunk, if it has one. Members
    /// held from earlier chunks that are not in this one are scored by a
    /// single `score_many(members, out)` call. The chunk is then replayed
    /// in order: prune passes fire at exactly the offers, and keep exactly
    /// the items, that per-item [`CandidateSet::offer`] calls would under
    /// the same scores — so a caller whose scores come from settled
    /// counters gets a bit-identical set for one score per item instead of
    /// `2·cap` per prune pass.
    pub fn offer_chunk<I, L, F>(&mut self, chunk: I, scores: &[f64], index_of: L, score_many: F)
    where
        I: IntoIterator<Item = u64>,
        L: Fn(u64) -> Option<usize>,
        F: FnOnce(&[u64], &mut Vec<f64>),
    {
        let Self {
            cap,
            items,
            live,
            held,
            outside,
            scores: outside_scores,
        } = self;
        held.clear();
        held.resize(scores.len(), false);
        live.clear();
        outside.clear();
        for &m in items.iter() {
            match index_of(m) {
                Some(i) => {
                    held[i] = true;
                    live.push((m, scores[i].abs(), i));
                }
                None => outside.push(m),
            }
        }
        if !outside.is_empty() {
            outside_scores.clear();
            score_many(outside, outside_scores);
            live.extend(
                outside
                    .iter()
                    .zip(outside_scores.iter())
                    .map(|(&m, s)| (m, s.abs(), NOT_IN_CHUNK)),
            );
        }
        for (i, item) in chunk.into_iter().enumerate() {
            if held[i] {
                continue;
            }
            held[i] = true;
            live.push((item, scores[i].abs(), i));
            if live.len() > 2 * *cap {
                keep_top(live, *cap);
                // A held member evicted before its own offer comes up is
                // inserted again there, as a per-item offer would.
                for &(_, _, at) in &live[*cap..] {
                    if at != NOT_IN_CHUNK {
                        held[at] = false;
                    }
                }
                live.truncate(*cap);
            }
        }
        items.clear();
        items.extend(live.iter().map(|e| e.0));
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

/// Move the top `cap` of more than `cap` entries by `|score|` (descending,
/// ties to the smallest item id) to the front of `entries`, leaving the
/// rest behind them. Ids are distinct, so the order is strict and total:
/// the kept set does not depend on the order `entries` arrive in.
fn keep_top(entries: &mut [(u64, f64, usize)], cap: usize) {
    entries.select_nth_unstable_by(cap, |a, b| {
        b.1.partial_cmp(&a.1)
            .expect("candidate scores are never NaN")
            .then(a.0.cmp(&b.0))
    });
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

    fn state_bytes(s: &CandidateSet) -> Vec<u8> {
        let mut w = StateWriter::new();
        s.save_state(&mut w);
        w.into_bytes()
    }

    /// A clone carries the members, not the prune-pass buffers.
    #[test]
    fn clones_carry_the_set_not_the_prune_buffers() {
        let mut c = CandidateSet::new(3);
        let score = |i: u64| i as f64;
        for i in 1..=20u64 {
            c.offer(i, score);
        }
        let chunk = [30u64, 31, 32, 33, 34, 35, 36];
        let scores: Vec<f64> = chunk.iter().map(|&i| score(i)).collect();
        c.offer_chunk(
            chunk,
            &scores,
            |i| chunk.iter().position(|&c| c == i),
            |items, out| out.extend(items.iter().map(|&i| score(i))),
        );
        assert!(c.live.capacity() > 0 && c.held.capacity() > 0);
        let clone = c.clone();
        let buffers = clone.live.capacity()
            + clone.held.capacity()
            + clone.outside.capacity()
            + clone.scores.capacity();
        assert_eq!(buffers, 0);
        assert_eq!(state_bytes(&clone), state_bytes(&c));
    }

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
    fn offer_chunk_matches_per_item_offers() {
        // Few distinct |scores| force id tie-breaks; each chunk covers
        // about half of a 41-item universe, so held members sit both in
        // and outside it, and some are evicted before their own offer.
        let score = |i: u64| ((i * 7919) % 5) as f64 - 2.0;
        let mut batched = CandidateSet::new(4);
        let mut reference = batched.clone();
        for c in 0..40u64 {
            let chunk: Vec<u64> = (0..23).map(|j| (c * 3 + j * 7) % 41).collect();
            let mut chunk_ids = chunk.clone();
            chunk_ids.sort_unstable();
            chunk_ids.dedup();
            assert_eq!(chunk_ids.len(), chunk.len(), "chunk items are distinct");
            let scores: Vec<f64> = chunk.iter().map(|&i| score(i)).collect();
            batched.offer_chunk(
                chunk.iter().copied(),
                &scores,
                |i| chunk.iter().position(|&x| x == i),
                |members, out| out.extend(members.iter().map(|&i| score(i))),
            );
            for &i in &chunk {
                reference.offer(i, score);
            }
            let mut a: Vec<u64> = batched.iter().collect();
            let mut b: Vec<u64> = reference.iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "chunk {c}");
        }
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
