//! Bit-equivalence sweep for the batched hash engine: `hash_batch` and
//! `RowHashes` plans (the power-form evaluator) must agree bit-for-bit with
//! the scalar Horner `hash` (and `sign`) evaluations for every independence
//! and range class the workspace uses, for extreme coefficients and for rows
//! long enough to reduce more than once, and the Lemire reduction must agree
//! with its own definition (`⌊v·range/2^61⌋`) while covering the full output
//! support.

use bd_hash::batch::FOLD;
use bd_hash::{reduce_range, KWiseHash, M61Elem, RowHashes, SignHash, M61};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input sweep: small, structured, and adversarial (≥ 2^61, u64::MAX) items
/// at eight lengths.
fn input_sweep() -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(0xba7c4);
    let mut base: Vec<u64> = (0..61).map(|b| 1u64 << b).collect();
    base.extend([0, 1, 2, M61 - 1, M61, M61 + 1, u64::MAX - 1, u64::MAX]);
    base.extend((0..64).map(|_| rng.gen::<u64>()));
    (0..=7usize)
        .map(|cut| base[..base.len() - cut].to_vec())
        .collect()
}

#[test]
fn hash_batch_is_bit_identical_to_scalar() {
    let mut rng = StdRng::seed_from_u64(1);
    for k in [1usize, 2, 4, 6, 8] {
        for range in [1u64, 2, 13, 96, 4096, 99_991, u32::MAX as u64, 1 << 40] {
            let h = KWiseHash::new(&mut rng, k, range);
            let mut out = Vec::new();
            for items in input_sweep() {
                h.hash_batch(&items, &mut out);
                assert_eq!(out.len(), items.len());
                for (idx, &x) in items.iter().enumerate() {
                    assert_eq!(out[idx], h.hash(x), "k={k} range={range} x={x}");
                }
            }
        }
    }
}

#[test]
fn row_plan_is_bit_identical_to_scalar() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut plan = RowHashes::new();
    let (mut buckets, mut signs) = (Vec::new(), Vec::new());
    for k in [1usize, 2, 4, 6, 8] {
        for range in [1u64, 7, 480, u32::MAX as u64] {
            // A multi-row table: d rows of (bucket, sign) pairs over one plan.
            let rows: Vec<(KWiseHash, SignHash)> = (0..5)
                .map(|_| {
                    (
                        KWiseHash::new(&mut rng, k, range),
                        SignHash::with_independence(&mut rng, k),
                    )
                })
                .collect();
            for items in input_sweep() {
                plan.load(items.iter().copied());
                buckets.clear();
                signs.clear();
                for (h, g) in &rows {
                    plan.append_buckets(h, &mut buckets);
                    plan.append_signs(g, &mut signs);
                }
                let m = items.len();
                for (r, (h, g)) in rows.iter().enumerate() {
                    for (idx, &x) in items.iter().enumerate() {
                        assert_eq!(buckets[r * m + idx], h.hash(x), "bucket k={k}");
                        assert_eq!(signs[r * m + idx], g.sign(x) >= 0, "sign k={k}");
                    }
                }
            }
        }
    }
}

/// The coefficient vectors the power-form sweeps run: random ones for every
/// independence class the workspace builds and for odd `k`, the extremes
/// (all `M61 − 1`, whose products give the largest `u128` sums, and all
/// zero), and `k` at the fold bound (`FOLD` non-constant terms, one
/// reduction) and past it, where a row reduces more than once.
fn coefficient_sweep(rng: &mut StdRng) -> Vec<Vec<M61Elem>> {
    let mut sweep: Vec<Vec<M61Elem>> = [1usize, 2, 3, 4, 5, 6, 8]
        .into_iter()
        .map(|k| (0..k).map(|_| M61Elem::new(rng.gen())).collect())
        .collect();
    for k in [2usize, 4, 6, 8, FOLD + 1, FOLD + 2, 2 * FOLD + 3] {
        sweep.push(vec![M61Elem::new(M61 - 1); k]);
        sweep.push(vec![M61Elem::ZERO; k]);
    }
    for k in [FOLD + 1, FOLD + 2, 2 * FOLD + 3] {
        sweep.push((0..k).map(|_| M61Elem::new(rng.gen())).collect());
    }
    sweep
}

#[test]
fn power_form_matches_horner_definition() {
    // Power form ≡ definition: the plan and `hash_batch` must agree
    // bit-for-bit with Horner's rule for every coefficient vector of the
    // sweep, on adversarial (≥ 2^61, u64::MAX) points. Range 2^61 is the
    // identity on field values, so the outputs are the raw residues. One
    // plan serves every row in ascending and then descending degree, so
    // rows both raise the held powers and read a prefix of a longer table.
    let mut rng = StdRng::seed_from_u64(0x513d);
    let raw: Vec<u64> = {
        let mut v: Vec<u64> = vec![0, 1, M61 - 1, M61, M61 + 1, u64::MAX - 1, u64::MAX];
        v.extend((0..61).map(|b| 1u64 << b));
        v.extend((0..32).map(|_| rng.gen::<u64>()));
        v
    };
    let rows: Vec<KWiseHash> = coefficient_sweep(&mut rng)
        .into_iter()
        .map(|c| KWiseHash::from_coeffs(c, 1 << 61))
        .collect();
    let mut plan = RowHashes::new();
    plan.load(raw.iter().copied());
    let (mut out, mut batch) = (Vec::new(), Vec::new());
    for h in rows.iter().chain(rows.iter().rev()) {
        let k = h.independence();
        plan.eval_buckets(h, &mut out);
        h.hash_batch(&raw, &mut batch);
        for (idx, &x) in raw.iter().enumerate() {
            let want = h.eval_field(x);
            assert_eq!(want, h.hash(x), "range 2^61 must be the identity");
            assert_eq!(out[idx], want, "plan ≠ definition, k={k} x={x}");
            assert_eq!(batch[idx], want, "hash_batch ≠ definition, k={k} x={x}");
        }
    }
    assert_eq!(plan.len(), raw.len());
}

#[test]
fn hash_batch_covers_every_chunk_length() {
    // Chunk lengths 0..=17 with adversarial values at every position, for
    // the random classes k ∈ {1, 2, 4, 6, 8} and the extreme and
    // past-the-fold coefficient vectors; ranges include 1 and
    // non-powers-of-two. The plan runs the same chunks.
    let mut rng = StdRng::seed_from_u64(0x7a11);
    let adversarial = [0u64, M61 - 1, M61, M61 + 1, u64::MAX];
    let mut coeffs: Vec<Vec<M61Elem>> = [1usize, 2, 4, 6, 8]
        .into_iter()
        .map(|k| (0..k).map(|_| M61Elem::new(rng.gen())).collect())
        .collect();
    coeffs.extend(coefficient_sweep(&mut rng));
    let mut plan = RowHashes::new();
    let (mut out, mut planned) = (Vec::new(), Vec::new());
    for c in coeffs {
        let k = c.len();
        for range in [1u64, 13, 99_991, 1 << 40] {
            let h = KWiseHash::from_coeffs(c.clone(), range);
            for len in 0..=17usize {
                let items: Vec<u64> = (0..len)
                    .map(|i| adversarial[i % adversarial.len()].wrapping_sub(i as u64))
                    .collect();
                h.hash_batch(&items, &mut out);
                plan.load(items.iter().copied());
                plan.eval_buckets(&h, &mut planned);
                assert_eq!(out.len(), len);
                assert_eq!(planned.len(), len);
                for (idx, &x) in items.iter().enumerate() {
                    let want = h.hash(x);
                    assert_eq!(out[idx], want, "k={k} range={range} len={len} idx={idx}");
                    assert_eq!(planned[idx], want, "plan k={k} range={range} len={len}");
                }
            }
        }
    }
}

#[test]
fn lemire_matches_definition() {
    // reduce_range(v, b) must equal ⌊v·b/2^61⌋ exactly, for field values and
    // every range class (1, non-powers-of-two, u32::MAX-scale, huge).
    let mut rng = StdRng::seed_from_u64(3);
    for range in [1u64, 3, 13, 96, 1000, u32::MAX as u64, 1 << 45, M61 - 1] {
        for _ in 0..2000 {
            let v = rng.gen_range(0..M61);
            let expect = ((v as u128 * range as u128) >> 61) as u64;
            let got = reduce_range(v, range);
            assert_eq!(got, expect);
            assert!(got < range, "v={v} range={range} out={got}");
        }
        // Interval endpoints of the field domain.
        assert_eq!(reduce_range(0, range), 0);
        assert!(reduce_range(M61 - 1, range) < range);
    }
}

#[test]
fn lemire_support_covers_the_whole_range() {
    // The reduced distribution's support is all of [0, range) for ranges far
    // below 2^61: each bucket's preimage is an interval of ⌊2^61/range⌋ or
    // ⌈2^61/range⌉ field values, never empty.
    for range in [1u64, 2, 5, 13, 96, 480, 4096] {
        let mut hit = vec![false; range as usize];
        // Probing one value inside each bucket's preimage interval is enough.
        for b in 0..range {
            let v = ((b as u128 * (1u128 << 61)) / range as u128) as u64 + 1;
            let v = v.min(M61 - 1);
            hit[reduce_range(v, range) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "range {range} has empty buckets");
        // And nothing ever lands outside.
        for v in [0, M61 / 2, M61 - 1] {
            assert!(reduce_range(v, range) < range);
        }
    }
}

#[test]
fn bucket_sizes_differ_by_at_most_one() {
    // The bias argument: exhaustive count over a scaled-down field shows the
    // Lemire preimages are balanced intervals. (Scaled: check on 2^16 as a
    // stand-in domain with the same algebra.)
    let domain = 1u64 << 16;
    for range in [3u64, 7, 10, 96] {
        let mut counts = vec![0u64; range as usize];
        for v in 0..domain {
            counts[((v as u128 * range as u128) >> 16) as usize] += 1;
        }
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(hi - lo <= 1, "range {range}: preimage sizes {lo}..{hi}");
    }
}
