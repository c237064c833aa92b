//! Baseline support sampler for turnstile streams (paper §7 setup, \[38\]).
//!
//! Subsample the universe at `log n` nested levels `I_j = {i : h(i) ≤ 2^j}`
//! and keep an s-sparse recovery sketch of `f|I_j` at every level. At query
//! time the level whose live support fits the recovery budget decodes
//! exactly and its non-zero coordinates are returned. The α-property version
//! (bd-core, Figure 8) keeps only `O(log α)` of these levels alive at a
//! time; this baseline keeps all `log n`, which is the `Ω(k log²(n/k))`
//! regime of \[41\].

use crate::sparse_recovery::{Recovery, SparseRecovery};
use bd_hash::RowHashes;
use bd_stream::{BatchScratch, Scratch, Sketch, SpaceReport, SpaceUsage, Update};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Reusable batched-ingest scratch (no sketch state).
#[derive(Debug, Default)]
struct IngestScratch {
    agg: BatchScratch,
    plan: RowHashes,
    hashes: Vec<u64>,
}

/// The full-level-set support sampler.
#[derive(Clone, Debug)]
pub struct SupportSamplerTurnstile {
    h: bd_hash::KWiseHash,
    levels: Vec<SparseRecovery>,
    log_n: usize,
    k: usize,
    scratch: Scratch<IngestScratch>,
}

impl SupportSamplerTurnstile {
    /// Build for universe `n`, requesting at least `min(k, ‖f‖₀)` support
    /// items per query; recovery budget `s = Θ(k)` per level.
    pub fn new(seed: u64, n: u64, k: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let log_n = bd_hash::log2_ceil(n.max(2)) as usize;
        let s = (4 * k).max(8);
        SupportSamplerTurnstile {
            h: bd_hash::KWiseHash::pairwise(&mut rng, bd_hash::next_pow2(n)),
            levels: (0..=log_n)
                .map(|_| SparseRecovery::new(rng.gen(), n, s))
                .collect(),
            log_n,
            k,
            scratch: Scratch::default(),
        }
    }

    /// The request size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Apply an update. Item `i` lives in levels `j ≥ ⌈log2(h(i)+1)⌉`.
    pub fn update(&mut self, item: u64, delta: i64) {
        let hv = self.h.hash(item);
        let first = if hv == 0 {
            0
        } else {
            (bd_hash::log2_floor(hv) + 1) as usize
        };
        for j in first..=self.log_n {
            self.levels[j].update(item, delta);
        }
    }

    /// Decode: union of all successfully recovered levels' supports.
    pub fn query(&self) -> Vec<(u64, i64)> {
        let mut found: HashMap<u64, i64> = HashMap::new();
        for lvl in &self.levels {
            if let Recovery::Sparse(m) = lvl.decode() {
                for (i, v) in m {
                    found.insert(i, v);
                }
            }
        }
        let mut out: Vec<(u64, i64)> = found.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Convenience: just the recovered items, up to the whole union.
    pub fn support(&self) -> Vec<u64> {
        self.query().into_iter().map(|(i, _)| i).collect()
    }
}

impl Sketch for SupportSamplerTurnstile {
    fn update(&mut self, item: u64, delta: i64) {
        SupportSamplerTurnstile::update(self, item, delta);
    }

    /// Batched ingestion: collapse each chunk to per-item net deltas before
    /// touching the levels (reusable aggregation table + chunk-batched
    /// universe hash — zero steady-state allocations). Every level sketch is
    /// linear, so applying the net delta once is state-identical to
    /// replaying the duplicates — but pays one universe hash and one
    /// `O(log n)`-level walk (each with its own per-row recovery hashing)
    /// per *distinct* item instead of per update. On Zipfian chunks this is
    /// most of the ingest cost.
    fn update_batch(&mut self, batch: &[Update]) {
        let Self {
            h,
            levels,
            log_n,
            scratch,
            ..
        } = self;
        let IngestScratch { agg, plan, hashes } = &mut **scratch;
        let agg = agg.aggregate_net(batch);
        let live = || agg.iter().filter(|&&(_, net)| net != 0);
        plan.load(live().map(|&(item, _)| item));
        plan.eval_buckets(h, hashes);
        for (idx, &(item, delta)) in live().enumerate() {
            let hv = hashes[idx];
            let first = if hv == 0 {
                0
            } else {
                (bd_hash::log2_floor(hv) + 1) as usize
            };
            for lvl in &mut levels[first..=*log_n] {
                lvl.update(item, delta);
            }
        }
    }
}

impl SpaceUsage for SupportSamplerTurnstile {
    fn space(&self) -> SpaceReport {
        let mut rep = SpaceReport {
            seed_bits: self.h.seed_bits() as u64,
            ..Default::default()
        };
        for lvl in &self.levels {
            rep = rep.merge(lvl.space());
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_stream::gen::L0AlphaGen;
    use bd_stream::FrequencyVector;

    #[test]
    fn recovers_enough_support() {
        let stream = L0AlphaGen::new(1 << 16, 400, 2.0).generate_seeded(1);
        let truth = FrequencyVector::from_stream(&stream);
        let mut s = SupportSamplerTurnstile::new(1, stream.n, 16);
        for u in &stream {
            s.update(u.item, u.delta);
        }
        let got = s.query();
        assert!(got.len() >= 16, "only {} items recovered", got.len());
        for (i, v) in got {
            assert_eq!(truth.get(i), v, "recovered value must be exact");
            assert!(v != 0);
        }
    }

    #[test]
    fn small_support_recovered_entirely() {
        let mut s = SupportSamplerTurnstile::new(2, 1 << 20, 8);
        for i in 0..5u64 {
            s.update(i * 99_991, (i + 1) as i64);
        }
        let got = s.support();
        assert_eq!(got.len(), 5, "‖f‖₀ < k ⇒ all of the support comes back");
    }

    #[test]
    fn deleted_items_never_returned() {
        let mut s = SupportSamplerTurnstile::new(3, 1 << 16, 8);
        for i in 0..50u64 {
            s.update(i, 1);
        }
        for i in 0..45u64 {
            s.update(i, -1);
        }
        let got = s.support();
        assert!(
            got.iter().all(|&i| i >= 45),
            "deleted item returned: {got:?}"
        );
        assert!(got.len() >= 5);
    }

    #[test]
    fn empty_stream_returns_nothing() {
        let s = SupportSamplerTurnstile::new(4, 1 << 10, 4);
        assert!(s.query().is_empty());
    }
}
