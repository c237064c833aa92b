//! Bit-equivalence sweep for the batched hash engine: `hash_batch` and
//! `RowHashes` plans must agree bit-for-bit with the scalar `hash` (and
//! `sign`) evaluations for every independence and range class the workspace
//! uses, and the Lemire reduction must agree with its own definition
//! (`⌊v·range/2^61⌋`) while covering the full output support.

use bd_hash::field::poly_eval;
use bd_hash::{reduce_range, simd, KWiseHash, M61Elem, RowHashes, SignHash, M61};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input sweep: small, structured, and adversarial (≥ 2^61, u64::MAX) items
/// at lengths that exercise the 4-chain kernel's remainder handling.
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
    for k in [1usize, 2, 4, 8] {
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
    for k in [1usize, 2, 4, 8] {
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

#[test]
fn every_simd_kernel_matches_scalar_and_definition() {
    // SIMD ≡ scalar ≡ definition: every kernel this machine offers (scalar,
    // AVX2 where detected) must agree bit-for-bit with the Horner
    // definition, for every independence class the workspace uses, with
    // adversarial (≥ 2^61, u64::MAX) points visiting every lane position —
    // the sweep windows slide by one, so each value crosses every `÷ 4`
    // lane remainder of both 4-lane groups.
    let mut rng = StdRng::seed_from_u64(0x513d);
    let raw: Vec<u64> = {
        let mut v: Vec<u64> = vec![0, 1, M61 - 1, M61, M61 + 1, u64::MAX - 1, u64::MAX];
        v.extend((0..61).map(|b| 1u64 << b));
        v.extend((0..32).map(|_| rng.gen::<u64>()));
        v
    };
    for k in [1usize, 2, 4, 8] {
        let coeffs: Vec<M61Elem> = (0..k).map(|_| M61Elem::new(rng.gen())).collect();
        for w in raw.windows(simd::KERNEL_WIDTH) {
            let x: [M61Elem; simd::KERNEL_WIDTH] = std::array::from_fn(|i| M61Elem::new(w[i]));
            let want: [M61Elem; simd::KERNEL_WIDTH] =
                std::array::from_fn(|i| poly_eval(&coeffs, x[i]));
            assert_eq!(
                simd::poly_eval8_scalar(&coeffs, &x),
                want,
                "scalar kernel ≠ definition, k={k}"
            );
            for (name, kernel) in simd::kernels() {
                assert_eq!(kernel(&coeffs, &x), want, "kernel={name} k={k}");
            }
        }
    }
}

#[test]
fn hash_batch_covers_every_kernel_tail_remainder() {
    // Chunk lengths 0..=2·KERNEL_WIDTH+1 hit every `len % 8` (hence every
    // `len % 4`) remainder, with adversarial values landing both in the
    // vector body and in the scalar tail; ranges include 1 and
    // non-powers-of-two.
    let mut rng = StdRng::seed_from_u64(0x7a11);
    let adversarial = [0u64, M61 - 1, M61, M61 + 1, u64::MAX];
    for k in [1usize, 2, 4, 8] {
        for range in [1u64, 13, 99_991, 1 << 40] {
            let h = KWiseHash::new(&mut rng, k, range);
            let mut out = Vec::new();
            for len in 0..=(2 * simd::KERNEL_WIDTH + 1) {
                let items: Vec<u64> = (0..len)
                    .map(|i| adversarial[i % adversarial.len()].wrapping_sub(i as u64))
                    .collect();
                h.hash_batch(&items, &mut out);
                assert_eq!(out.len(), len);
                for (idx, &x) in items.iter().enumerate() {
                    assert_eq!(
                        out[idx],
                        h.hash(x),
                        "k={k} range={range} len={len} idx={idx}"
                    );
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
