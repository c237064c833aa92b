//! Overload scenario workloads for the bounded-queue serving layer.
//!
//! These streams are *shaped in time*, unlike the shuffled stationary
//! workloads elsewhere in [`gen`](crate::gen): they concentrate update mass
//! into phases that saturate a [`StreamService`](crate::service::StreamService)
//! dispatcher faster than its workers drain, which is exactly the regime the
//! bounded queues and their back-pressure exist for (DESIGN.md §12).
//!
//! * [`BurstGen`] — alternating hot bursts and quiet diverse phases; the
//!   bursts arrive faster than the steady-state service rate.
//! * [`SkewFlipGen`] — a Zipfian stream whose head permutes mid-stream, the
//!   Barkay–Porat–Shalem-style non-stationary skew that defeats static
//!   provisioning.
//! * [`DeletionStormGen`] — an insert phase followed by a concentrated
//!   deletion storm driving the observed deletion fraction toward (but never
//!   past) the α-cap `(α−1)/(2α)`.

use crate::gen::zipf::Zipf;
use crate::update::{StreamBatch, Update};
use rand::Rng;

/// Alternating hot-burst / quiet-trickle phases. Each burst concentrates
/// unit insertions on a few freshly-drawn hot items; each quiet phase
/// spreads updates over the universe with a bounded deletion fraction
/// (deletions only cancel previously inserted mass, so prefixes stay
/// nonnegative). The phase structure is deliberately *not* shuffled — the
/// time-concentration is the workload.
#[derive(Clone, Debug)]
pub struct BurstGen {
    /// Universe size.
    pub n: u64,
    /// Number of burst + quiet phase pairs.
    pub phases: usize,
    /// Updates per burst phase.
    pub burst_len: usize,
    /// Updates per quiet phase.
    pub quiet_len: usize,
    /// Distinct hot items per burst.
    pub hot: usize,
    /// Probability a quiet-phase update deletes previously inserted mass.
    pub deletion_fraction: f64,
}

impl BurstGen {
    /// Default shape: 8 hot items per burst, 10% quiet-phase deletions.
    pub fn new(n: u64, phases: usize, burst_len: usize, quiet_len: usize) -> Self {
        BurstGen {
            n,
            phases,
            burst_len,
            quiet_len,
            hot: 8,
            deletion_fraction: 0.1,
        }
    }

    /// Generate the phased stream (strict turnstile: every deletion cancels
    /// an earlier insertion).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> StreamBatch {
        let hot = self.hot.max(1);
        let zipf = Zipf::new(hot, 1.2);
        let mut updates = Vec::with_capacity(self.phases * (self.burst_len + self.quiet_len));
        let mut deletable: Vec<u64> = Vec::new();
        for _ in 0..self.phases {
            let hot_ids: Vec<u64> = (0..hot).map(|_| rng.gen_range(0..self.n)).collect();
            for _ in 0..self.burst_len {
                let item = hot_ids[zipf.sample(rng)];
                updates.push(Update::insert(item, 1));
                deletable.push(item);
            }
            for _ in 0..self.quiet_len {
                if !deletable.is_empty() && rng.gen_bool(self.deletion_fraction) {
                    let k = rng.gen_range(0..deletable.len());
                    updates.push(Update::delete(deletable.swap_remove(k), 1));
                } else {
                    let item = rng.gen_range(0..self.n);
                    updates.push(Update::insert(item, 1));
                    deletable.push(item);
                }
            }
        }
        StreamBatch::new(self.n, updates)
    }
}

/// A Zipfian stream whose head permutes mid-stream: the rank → item map is
/// reshuffled at every flip boundary, so the hot set a provisioner tuned for
/// evaporates and reforms elsewhere. Deletions (bounded fraction) cancel
/// previously inserted mass only.
#[derive(Clone, Debug)]
pub struct SkewFlipGen {
    /// Universe size.
    pub n: u64,
    /// Total updates.
    pub len: usize,
    /// Head permutations; the stream has `flips + 1` skew segments.
    pub flips: usize,
    /// Support of the Zipf head.
    pub support: usize,
    /// Probability an update deletes previously inserted mass.
    pub deletion_fraction: f64,
}

impl SkewFlipGen {
    /// Default shape: 64-item head, 10% deletions.
    pub fn new(n: u64, len: usize, flips: usize) -> Self {
        SkewFlipGen {
            n,
            len,
            flips,
            support: 64,
            deletion_fraction: 0.1,
        }
    }

    /// Generate the flip-segmented stream.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> StreamBatch {
        use rand::seq::SliceRandom;
        let support = self.support.min(self.n as usize).max(1);
        let zipf = Zipf::new(support, 1.3);
        let mut ids: Vec<u64> = Vec::with_capacity(support);
        let mut seen = std::collections::HashSet::new();
        while ids.len() < support {
            let c = rng.gen_range(0..self.n);
            if seen.insert(c) {
                ids.push(c);
            }
        }
        let segments = self.flips + 1;
        let per_seg = self.len / segments;
        let mut updates = Vec::with_capacity(self.len);
        let mut deletable: Vec<u64> = Vec::new();
        for seg in 0..segments {
            // The flip: rank r now maps to a different item.
            ids.shuffle(rng);
            let seg_len = if seg + 1 == segments {
                self.len - per_seg * (segments - 1)
            } else {
                per_seg
            };
            for _ in 0..seg_len {
                if !deletable.is_empty() && rng.gen_bool(self.deletion_fraction) {
                    let k = rng.gen_range(0..deletable.len());
                    updates.push(Update::delete(deletable.swap_remove(k), 1));
                } else {
                    let item = ids[zipf.sample(rng)];
                    updates.push(Update::insert(item, 1));
                    deletable.push(item);
                }
            }
        }
        StreamBatch::new(self.n, updates)
    }
}

/// An insert phase followed by one concentrated deletion storm sized to
/// drive the observed deletion fraction to `load` × the α-cap `(α−1)/(2α)`
/// — the adversarial-but-legal regime a bounded-deletion service must
/// survive without absorbing an unbounded backlog. `load < 1` keeps the
/// stream within the configured α.
#[derive(Clone, Debug)]
pub struct DeletionStormGen {
    /// Universe size.
    pub n: u64,
    /// Unit insertions in the build-up phase.
    pub inserts: usize,
    /// The α the stream must stay within.
    pub alpha: f64,
    /// Fraction of the deletion cap the storm reaches (default 0.9).
    pub load: f64,
}

impl DeletionStormGen {
    /// Storm at 90% of the α-cap.
    pub fn new(n: u64, inserts: usize, alpha: f64) -> Self {
        assert!(alpha > 1.0, "a deletion storm needs α > 1");
        DeletionStormGen {
            n,
            inserts,
            alpha,
            load: 0.9,
        }
    }

    /// Generate the build-up + storm stream (strict turnstile).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> StreamBatch {
        // d deletions after I insertions hit fraction d/(I+d); solve for
        // d at the target fraction `load × (α−1)/(2α)`.
        let target = self.load * (self.alpha - 1.0) / (2.0 * self.alpha);
        let deletions = (target * self.inserts as f64 / (1.0 - target)).floor() as usize;
        let mut updates = Vec::with_capacity(self.inserts + deletions);
        let mut deletable: Vec<u64> = Vec::with_capacity(self.inserts);
        for _ in 0..self.inserts {
            let item = rng.gen_range(0..self.n);
            updates.push(Update::insert(item, 1));
            deletable.push(item);
        }
        // The storm: back-to-back deletions of previously inserted mass.
        for _ in 0..deletions {
            let k = rng.gen_range(0..deletable.len());
            updates.push(Update::delete(deletable.swap_remove(k), 1));
        }
        StreamBatch::new(self.n, updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::FrequencyVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn burst_prefixes_stay_nonnegative() {
        let mut rng = StdRng::seed_from_u64(31);
        let s = BurstGen::new(1 << 16, 4, 500, 500).generate(&mut rng);
        assert_eq!(s.updates.len(), 4 * 1000);
        let mut v = FrequencyVector::new(s.n);
        for u in &s {
            v.update(*u);
            assert!(v.is_nonnegative());
        }
    }

    #[test]
    fn burst_concentrates_mass_in_phases() {
        let mut rng = StdRng::seed_from_u64(32);
        let g = BurstGen::new(1 << 16, 2, 1000, 1000);
        let s = g.generate(&mut rng);
        // A burst phase touches ≤ `hot` distinct items over 1000 updates.
        let first_burst: std::collections::HashSet<u64> =
            s.updates[..g.burst_len].iter().map(|u| u.item).collect();
        assert!(first_burst.len() <= g.hot);
        // The quiet phase is diverse by comparison.
        let quiet: std::collections::HashSet<u64> = s.updates
            [g.burst_len..g.burst_len + g.quiet_len]
            .iter()
            .map(|u| u.item)
            .collect();
        assert!(quiet.len() > 10 * first_burst.len());
    }

    #[test]
    fn skew_flip_changes_the_head() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = SkewFlipGen::new(1 << 20, 20_000, 1);
        let s = g.generate(&mut rng);
        let half = s.updates.len() / 2;
        let top = |ups: &[Update]| -> u64 {
            let mut counts = std::collections::HashMap::new();
            for u in ups.iter().filter(|u| u.is_insertion()) {
                *counts.entry(u.item).or_insert(0u64) += 1;
            }
            counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0
        };
        // The hottest item before the flip differs from the one after
        // (64-item head reshuffled; collision odds are negligible at this
        // seed, and determinism makes the assertion stable).
        assert_ne!(top(&s.updates[..half]), top(&s.updates[half..]));
    }

    #[test]
    fn deletion_storm_approaches_but_respects_the_cap() {
        let mut rng = StdRng::seed_from_u64(34);
        let alpha = 3.0;
        let g = DeletionStormGen::new(1 << 16, 10_000, alpha);
        let s = g.generate(&mut rng);
        let (mut ins, mut del) = (0u64, 0u64);
        for u in &s {
            if u.is_insertion() {
                ins += u.delta as u64;
            } else {
                del += u.delta.unsigned_abs();
            }
        }
        let frac = del as f64 / (ins + del) as f64;
        let cap = (alpha - 1.0) / (2.0 * alpha);
        assert!(frac < cap, "storm broke the α-cap: {frac} ≥ {cap}");
        assert!(frac > 0.8 * cap, "storm too tame: {frac} vs cap {cap}");
        // Strictness: prefixes never go negative.
        let v = FrequencyVector::from_stream(&s);
        assert!(v.is_nonnegative());
        assert!(v.alpha_l1() <= alpha + 1e-9);
    }
}
