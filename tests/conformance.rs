//! Conformance suite for the unified `Sketch` trait layer, driven by the
//! workspace registry.
//!
//! The suite iterates `registry().families()` — it maintains **no
//! hand-written list of structures**. Registering a new family in its
//! defining crate automatically enrols it here, and each family's
//! [`Capabilities`] descriptor declares which contracts apply:
//!
//! * **same-seed determinism** (every family) — building one spec twice and
//!   replaying one stream yields bit-identical query probes, per-update and
//!   batched;
//! * **`update_batch` ≡ sequential `update`** (`caps.batch_bitwise`) —
//!   bit-identical probes whether driven per-update or in chunks (families
//!   with *statistical* batch overrides — the α heavy hitters, the general
//!   α L1 estimator — opt out and are covered by the quality checks below);
//! * **linearity** (`caps.linear`) — `update(i,a); update(i,b)` ≡
//!   `update(i, a+b)`;
//! * **`Mergeable` laws** (`caps.mergeable`, via `merge_dyn`) —
//!   associativity `(a ⊕ b) ⊕ c ≡ a ⊕ (b ⊕ c)` ≡ the single-pass sketch,
//!   commutativity `a ⊕ b ≡ b ⊕ a`, and identity `a ⊕ empty ≡ a ≡
//!   empty ⊕ a`. Families with `merge_bitwise` must agree bit-for-bit;
//!   the rest are estimate-equal (see `DESIGN.md §7`);
//! * **capability consistency** — the descriptor's query flags match the
//!   built sketch's dynamic views.
//!
//! Sampling families run their exact checks in a degenerate (no-thinning)
//! regime via a budget override in `common::conformance_spec`; their thinned
//! regimes keep distribution-level checks in their module tests plus the
//! extra thinned determinism case here.

mod common;

use bounded_deletions::prelude::*;
use common::{assert_probes_match, conformance_spec, probe, stream, ProbeVal};

/// Same spec + same stream ⇒ bit-identical probes, whether driven
/// per-update or in chunks.
fn check_determinism(name: &str, spec: &SketchSpec) {
    let s = stream(0xD5);
    let run = |runner: StreamRunner| {
        let mut sk = registry().build(spec).unwrap();
        runner.run(&mut *sk, &s);
        probe(sk.as_ref())
    };
    assert_probes_match(
        &format!("{name} (per-update replay)"),
        &run(StreamRunner::unbatched()),
        &run(StreamRunner::unbatched()),
        true,
    );
    assert_probes_match(
        &format!("{name} (batched replay)"),
        &run(StreamRunner::new()),
        &run(StreamRunner::new()),
        true,
    );
}

/// Batched ingestion must be bit-identical to sequential ingestion.
fn check_batch_exact(name: &str, spec: &SketchSpec) {
    let s = stream(0xB4);
    let (mut seq, mut bat) = registry().build_pair(spec).unwrap();
    StreamRunner::unbatched().run(&mut *seq, &s);
    StreamRunner::new().run(&mut *bat, &s);
    assert_probes_match(
        &format!("{name} (update_batch vs update)"),
        &probe(seq.as_ref()),
        &probe(bat.as_ref()),
        true,
    );
}

/// `update(i, a); update(i, b)` ≡ `update(i, a + b)` under the probe.
fn check_linearity(name: &str, spec: &SketchSpec) {
    let pairs: &[(i64, i64)] = &[(3, 4), (10, -6), (-2, -5), (7, -7)];
    let (mut split, mut joined) = registry().build_pair(spec).unwrap();
    for (idx, &(a, b)) in pairs.iter().enumerate() {
        let item = 37 * idx as u64 + 5;
        split.update(item, a);
        split.update(item, b);
        joined.update(item, a + b);
    }
    assert_probes_match(
        &format!("{name} (linearity)"),
        &probe(split.as_ref()),
        &probe(joined.as_ref()),
        true,
    );
}

/// Build the spec's sketch over one shard of updates.
fn shard_sketch(spec: &SketchSpec, shard: &[Update]) -> Box<dyn DynSketch> {
    let mut sk = registry().build(spec).unwrap();
    sk.update_batch(shard);
    sk
}

/// Merge associativity through the dynamic merge hook: shard a stream three
/// ways; `(a ⊕ b) ⊕ c`, `a ⊕ (b ⊕ c)`, and the single-pass sketch agree.
fn check_merge_associative(name: &str, spec: &SketchSpec, bitwise: bool) {
    let s = stream(0x3A);
    let third = s.len() / 3;
    let shards = [
        &s.updates[..third],
        &s.updates[third..2 * third],
        &s.updates[2 * third..],
    ];
    let sharded = |order_left: bool| {
        let mut parts: Vec<Box<dyn DynSketch>> = shards
            .iter()
            .map(|shard| shard_sketch(spec, shard))
            .collect();
        let c = parts.pop().unwrap();
        let mut b = parts.pop().unwrap();
        let mut a = parts.pop().unwrap();
        if order_left {
            a.merge_dyn(b.as_ref()).unwrap();
            a.merge_dyn(c.as_ref()).unwrap();
            probe(a.as_ref())
        } else {
            b.merge_dyn(c.as_ref()).unwrap();
            a.merge_dyn(b.as_ref()).unwrap();
            probe(a.as_ref())
        }
    };
    let left = sharded(true);
    let right = sharded(false);
    let mut whole = registry().build(spec).unwrap();
    whole.update_batch(&s.updates);
    assert_probes_match(&format!("{name} (associativity)"), &left, &right, bitwise);
    assert_probes_match(
        &format!("{name} (merge vs single pass)"),
        &left,
        &probe(whole.as_ref()),
        bitwise,
    );
}

/// The interleaved-merge law — the property epoch snapshots actually rely
/// on: a sketch that has been merged *keeps ingesting* correctly, and
/// merging commutes with ingestion. `merge(a, b)` then ingest `c` must
/// agree with ingest `c` then `merge(·, b)` (the service's workers are
/// merged mid-stream as clones while the originals ingest on).
fn check_merge_interleaved(name: &str, spec: &SketchSpec, bitwise: bool) {
    let s = stream(0x1E);
    let third = s.len() / 3;
    let (s1, s2, s3) = (
        &s.updates[..third],
        &s.updates[third..2 * third],
        &s.updates[2 * third..],
    );
    let b = shard_sketch(spec, s2);
    // merge first, ingest after …
    let mut merged_then_fed = shard_sketch(spec, s1);
    merged_then_fed.merge_dyn(b.as_ref()).unwrap();
    merged_then_fed.update_batch(s3);
    // … versus ingest first, merge after.
    let mut fed_then_merged = shard_sketch(spec, s1);
    fed_then_merged.update_batch(s3);
    fed_then_merged.merge_dyn(b.as_ref()).unwrap();
    assert_probes_match(
        &format!("{name} (merge·ingest interleaving)"),
        &probe(merged_then_fed.as_ref()),
        &probe(fed_then_merged.as_ref()),
        bitwise,
    );
}

/// Merge commutativity: `a ⊕ b ≡ b ⊕ a` on a two-way shard split.
fn check_merge_commutative(name: &str, spec: &SketchSpec, bitwise: bool) {
    let s = stream(0xC0);
    let half = s.len() / 2;
    let (left, right) = (&s.updates[..half], &s.updates[half..]);
    let mut ab = shard_sketch(spec, left);
    ab.merge_dyn(shard_sketch(spec, right).as_ref()).unwrap();
    let mut ba = shard_sketch(spec, right);
    ba.merge_dyn(shard_sketch(spec, left).as_ref()).unwrap();
    assert_probes_match(
        &format!("{name} (commutativity)"),
        &probe(ab.as_ref()),
        &probe(ba.as_ref()),
        bitwise,
    );
}

/// Merge identity: folding in a fresh (never-updated) copy changes nothing,
/// from either side.
fn check_merge_identity(name: &str, spec: &SketchSpec, bitwise: bool) {
    let s = stream(0x1D);
    let alone = shard_sketch(spec, &s.updates);
    let want = probe(alone.as_ref());
    let mut right = shard_sketch(spec, &s.updates);
    right
        .merge_dyn(registry().build(spec).unwrap().as_ref())
        .unwrap();
    assert_probes_match(
        &format!("{name} (a ⊕ empty)"),
        &want,
        &probe(right.as_ref()),
        bitwise,
    );
    let mut left = registry().build(spec).unwrap();
    left.merge_dyn(alone.as_ref()).unwrap();
    assert_probes_match(
        &format!("{name} (empty ⊕ a)"),
        &want,
        &probe(left.as_ref()),
        bitwise,
    );
}

#[test]
fn every_family_is_deterministic() {
    for info in registry().families() {
        check_determinism(info.family.name(), &conformance_spec(info.family));
    }
}

#[test]
fn declared_batch_bitwise_families_match_sequential() {
    for info in registry().families() {
        if info.caps.batch_bitwise {
            check_batch_exact(info.family.name(), &conformance_spec(info.family));
        }
    }
}

#[test]
fn declared_linear_families_are_linear() {
    for info in registry().families() {
        if info.caps.linear {
            check_linearity(info.family.name(), &conformance_spec(info.family));
        }
    }
}

#[test]
fn declared_mergeable_families_merge_associatively() {
    for info in registry().families() {
        if info.caps.mergeable {
            check_merge_associative(
                info.family.name(),
                &conformance_spec(info.family),
                info.caps.merge_bitwise,
            );
        }
    }
}

#[test]
fn declared_mergeable_families_merge_commutatively() {
    for info in registry().families() {
        if info.caps.mergeable {
            check_merge_commutative(
                info.family.name(),
                &conformance_spec(info.family),
                info.caps.merge_bitwise,
            );
        }
    }
}

#[test]
fn merging_interleaves_with_ingestion() {
    for info in registry().families() {
        if info.caps.mergeable {
            check_merge_interleaved(
                info.family.name(),
                &conformance_spec(info.family),
                info.caps.merge_bitwise,
            );
        }
    }
}

#[test]
fn merging_an_empty_sketch_is_identity() {
    for info in registry().families() {
        if info.caps.mergeable {
            check_merge_identity(
                info.family.name(),
                &conformance_spec(info.family),
                info.caps.merge_bitwise,
            );
        }
    }
}

/// The capability descriptor must match the built sketch's dynamic views,
/// and every probe must observe at least one query capability — otherwise
/// the determinism checks above would be vacuous for that family.
#[test]
fn capability_descriptors_match_built_sketches() {
    for info in registry().families() {
        let spec = conformance_spec(info.family);
        let mut sk = registry().build(&spec).unwrap();
        let name = info.family.name();
        assert_eq!(sk.as_point().is_some(), info.caps.point, "{name}: point");
        assert_eq!(
            sk.as_point_batch().is_some(),
            info.caps.point_batch,
            "{name}: point_batch"
        );
        assert!(
            info.caps.point || !info.caps.point_batch,
            "{name}: point_batch without point"
        );
        assert_eq!(sk.as_norm().is_some(), info.caps.norm, "{name}: norm");
        assert_eq!(sk.as_sample().is_some(), info.caps.sample, "{name}: sample");
        assert_eq!(
            sk.as_support().is_some(),
            info.caps.support,
            "{name}: support"
        );
        assert!(
            info.caps.point || info.caps.norm || info.caps.sample || info.caps.support,
            "{name}: no query capability — conformance probes would be vacuous"
        );
        // merge_dyn agrees with the mergeable flag, and merge_bitwise is
        // only ever claimed for mergeable families.
        let other = registry().build(&spec).unwrap();
        let merged = sk.merge_dyn(other.as_ref());
        assert_eq!(merged.is_ok(), info.caps.mergeable, "{name}: mergeable");
        assert!(
            info.caps.mergeable || !info.caps.merge_bitwise,
            "{name}: merge_bitwise without mergeable"
        );
    }
}

/// Determinism must also hold in the *thinning* regime, where halving
/// consumes RNG draws per retained entry (the degenerate budget above never
/// thins, so it can't catch iteration-order nondeterminism).
#[test]
fn thinned_sampling_regime_stays_deterministic() {
    for family in [SketchFamily::SampledVector, SketchFamily::Csss] {
        let spec = conformance_spec(family).with_budget(128).with_seed(28);
        check_determinism("thinned", &spec);
    }
    // SampledVector keeps the default sequential batch loop, so bitwise
    // batch equality holds even while thinning; CSSS's pre-aggregating
    // override is only statistical there (covered by its module tests).
    let spec = conformance_spec(SketchFamily::SampledVector)
        .with_budget(128)
        .with_seed(28);
    check_batch_exact("thinned(SampledVector)", &spec);
}

/// The batched heavy-hitter paths must answer queries as well as the
/// sequential ones (their overrides are statistical, not bitwise — they opt
/// out of `batch_bitwise`).
#[test]
fn heavy_hitters_batched_quality_matches() {
    let eps = 0.05;
    let s = BoundedDeletionGen::new(1 << 12, 40_000, 4.0).generate_seeded(0x51);
    let truth = FrequencyVector::from_stream(&s);
    for family in [SketchFamily::AlphaHh, SketchFamily::AlphaHhGeneral] {
        let spec = SketchSpec::new(family)
            .with_n(s.n)
            .with_epsilon(eps)
            .with_alpha(4.0)
            .with_seed(99);
        for runner in [StreamRunner::unbatched(), StreamRunner::new()] {
            let mut hh: AlphaHeavyHitters = build_sketch(&spec);
            runner.run(&mut hh, &s);
            let got: Vec<u64> = hh.query().into_iter().map(|(i, _)| i).collect();
            for i in truth.l1_heavy_hitters(eps) {
                assert!(
                    got.contains(&i),
                    "{family}: missed {i} (chunk {})",
                    runner.chunk()
                );
            }
        }
    }
}

/// The general α L1 estimator's pre-aggregating batch path is statistical
/// (per-weight quantization + one binomial draw per collapsed item): both
/// drive modes must land within the module-test tolerance of exact L1.
#[test]
fn l1_general_batched_quality_matches() {
    let s = BoundedDeletionGen::new(1 << 12, 60_000, 3.0).generate_seeded(0x71);
    let truth = FrequencyVector::from_stream(&s).l1() as f64;
    let spec = SketchSpec::new(SketchFamily::AlphaL1General)
        .with_n(s.n)
        .with_epsilon(0.2)
        .with_alpha(3.0)
        .with_seed(17);
    for runner in [StreamRunner::unbatched(), StreamRunner::new()] {
        let mut sk = registry().build(&spec).unwrap();
        runner.run(&mut *sk, &s);
        let est = sk.as_norm().expect("norm family").norm_estimate();
        assert!(
            (est - truth).abs() / truth < 0.35,
            "alpha_l1_general estimate {est} vs exact {truth} (chunk {})",
            runner.chunk()
        );
    }
}

/// The deletion-fraction (α-regime) accounting the service's `EpochReport`
/// is built on: on the shared conformance workload, the mass-accounting α
/// floor `(I+D)/(I−D)` must lower-bound the realized α₁ = (I+D)/‖f‖₁
/// exactly, the deletion fraction must respect the α-property cap
/// `(α−1)/(2α)`, and a deletion-heavy stream must be flagged as violating
/// a too-tight configured α.
#[test]
fn epoch_report_alpha_accounting_matches_ground_truth() {
    let s = stream(0xA1);
    let truth = FrequencyVector::from_stream(&s);
    let mut svc = StreamService::start(
        registry(),
        &conformance_spec(SketchFamily::Exact), // α = 3 configured
        ServiceConfig::default().with_epoch(1 << 20).with_threads(2),
    )
    .unwrap();
    svc.ingest(&s.updates).unwrap();
    let rep = svc.finish().unwrap().expect("one final epoch").report;
    // Exact mass accounting against the stream.
    let del: u64 = s
        .updates
        .iter()
        .filter(|u| u.delta < 0)
        .map(|u| u.delta.unsigned_abs())
        .sum();
    assert_eq!(rep.total_mass(), s.total_mass());
    assert_eq!(rep.total_deleted, del);
    // The α floor bounds (and here, with every coordinate non-negative at
    // the end of a BoundedDeletionGen stream, nearly matches) realized α₁.
    assert!(rep.alpha_observed() <= truth.alpha_l1() + 1e-9);
    assert!(
        rep.alpha_observed() > 1.0,
        "mixed stream must observe α > 1"
    );
    // The workload honours its α = 3 promise, and the report agrees.
    assert!(
        rep.within_alpha(),
        "α floor {} vs configured 3",
        rep.alpha_observed()
    );
    assert!(rep.deletion_fraction() <= EpochReport::deletion_cap(rep.alpha_configured));
    // A deletion-heavy epoch must trip the flag against a tight α.
    let heavy: Vec<Update> = (0..600)
        .map(|i| Update::new(i % 64, 2))
        .chain((0..500).map(|i| Update::new(i % 64, -2)))
        .collect();
    let mut tight = StreamService::start(
        registry(),
        &conformance_spec(SketchFamily::Exact).with_alpha(2.0),
        ServiceConfig::default().with_epoch(1 << 20).with_threads(2),
    )
    .unwrap();
    tight.ingest(&heavy).unwrap();
    let rep = tight.finish().unwrap().unwrap().report;
    assert!(
        (rep.alpha_observed() - 11.0).abs() < 1e-9,
        "I=1200, D=1000 ⇒ floor 11"
    );
    assert!(
        !rep.within_alpha(),
        "α floor 11 must violate configured α = 2"
    );
    assert!(rep.deletion_fraction() > EpochReport::deletion_cap(2.0));
}

/// The [`PointQueryBatch`] law: for every family that advertises the
/// batched point path, `point_many` over an arbitrary query set (duplicates
/// included) must be **bit-identical**, item by item, to the scalar
/// `point` calls on the same state — the batch only amortizes hashing, it
/// must not change the arithmetic. This is what lets the query engine and
/// the TCP front-end route through the batch unconditionally.
#[test]
fn batched_point_queries_match_scalar_bit_for_bit() {
    let s = stream(0xBA);
    let mut covered = 0;
    for info in registry().families() {
        if !info.caps.point_batch {
            continue;
        }
        covered += 1;
        let name = info.family.name();
        let mut sk = registry().build(&conformance_spec(info.family)).unwrap();
        StreamRunner::new().run(&mut *sk, &s);
        // Dense prefix, strided sweep, and deliberate duplicates.
        let items: Vec<u64> = (0..256u64)
            .chain((0..64).map(|i| i * 13 % 1024))
            .chain([3, 3, 3])
            .collect();
        let batch = sk.as_point_batch().unwrap();
        let point = sk.as_point().unwrap();
        let mut out = Vec::new();
        batch.point_many(&items, &mut out);
        assert_eq!(out.len(), items.len(), "{name}: wrong batch length");
        for (&i, &est) in items.iter().zip(&out) {
            assert_eq!(
                est.to_bits(),
                point.point(i).to_bits(),
                "{name}: batched point of {i} diverged"
            );
        }
        // Contract: append, don't clear.
        batch.point_many(&items[..4], &mut out);
        assert_eq!(out.len(), items.len() + 4, "{name}: batch must append");
    }
    assert!(covered >= 5, "batched-point catalog shrank: {covered}");
}

/// `ProbeVal` is part of the shared test-helper contract; pin the kinds so
/// a helper refactor can't silently weaken the comparisons.
#[test]
fn probe_distinguishes_items_from_scalars() {
    let spec = conformance_spec(SketchFamily::Exact);
    let mut sk = registry().build(&spec).unwrap();
    sk.update(3, 7);
    let p = probe(sk.as_ref());
    assert!(p
        .iter()
        .any(|v| matches!(v, ProbeVal::Scalar(x) if *x == 7.0)));
}

/// The persist round-trip law: for every family advertising the persist
/// capability, `from_bytes(to_bytes(s))` restores the **full** mutable
/// state — probes bit-identical, re-encoding deterministic, and (the
/// property recovery actually relies on) continued ingestion after the
/// round trip bit-identical to never having been encoded at all. Families
/// without the capability must refuse with the typed error, and the
/// descriptor flag must agree with the built sketch's dynamic accessor.
#[test]
fn persistable_families_roundtrip_bit_for_bit() {
    let s = stream(0x5A);
    let half = s.len() / 2;
    let (prefix, tail) = (&s.updates[..half], &s.updates[half..]);
    let mut covered = 0;
    for info in registry().families() {
        let name = info.family.name();
        let spec = conformance_spec(info.family);
        let mut sk = registry().build(&spec).unwrap();
        assert_eq!(
            sk.persist_state().is_some(),
            info.caps.persist,
            "{name}: persist capability flag disagrees with the state accessor"
        );
        if !info.caps.persist {
            assert_eq!(
                sketch_to_bytes(&spec, sk.as_ref()).map(|_| ()),
                Err(PersistError::NotPersistable),
                "{name}: encoding without the capability must be the typed refusal"
            );
            continue;
        }
        covered += 1;
        sk.update_batch(prefix);
        let bytes = sketch_to_bytes(&spec, sk.as_ref()).unwrap();
        let (decoded_spec, mut restored) = sketch_from_bytes(registry(), &bytes)
            .unwrap_or_else(|e| panic!("{name}: round-trip decode failed: {e}"));
        assert_eq!(decoded_spec, spec, "{name}: spec stamp drifted");
        assert_probes_match(
            &format!("{name} (persist round-trip)"),
            &probe(sk.as_ref()),
            &probe(restored.as_ref()),
            true,
        );
        assert_eq!(
            bytes,
            sketch_to_bytes(&decoded_spec, restored.as_ref()).unwrap(),
            "{name}: re-encoding the restored sketch is not deterministic"
        );
        // Restart ≡ uninterrupted: both continue over the tail.
        sk.update_batch(tail);
        restored.update_batch(tail);
        assert_probes_match(
            &format!("{name} (ingestion after restore)"),
            &probe(sk.as_ref()),
            &probe(restored.as_ref()),
            true,
        );
    }
    assert!(
        covered >= 20,
        "persistable catalog shrank unexpectedly: {covered} families"
    );
}

/// Merges depend on sketch state alone, never on a hasher: merging a
/// right-hand part rebuilt from scratch (same spec, same updates, fresh
/// hash-table seeds) gives identical `sketch_to_bytes`, for every mergeable
/// and persistable family. Several rebuilds make a merge that walks a hash
/// table in iteration order all but certain to show.
#[test]
fn merges_do_not_depend_on_hash_order() {
    let s = stream(0x4B);
    let (left, right) = s.updates.split_at(s.len() / 2);
    let mut covered = 0;
    for info in registry().families() {
        if !(info.caps.mergeable && info.caps.persist) {
            continue;
        }
        covered += 1;
        let spec = conformance_spec(info.family);
        let a = shard_sketch(&spec, left);
        let merged = || {
            let mut m = a.clone_dyn();
            m.merge_dyn(shard_sketch(&spec, right).as_ref()).unwrap();
            sketch_to_bytes(&spec, m.as_ref()).unwrap()
        };
        let first = merged();
        for rebuild in 1..8 {
            assert!(
                first == merged(),
                "{}: merged bytes changed with rebuild {rebuild} of the right part",
                info.family
            );
        }
    }
    assert!(
        covered >= 20,
        "mergeable persistable catalog shrank unexpectedly: {covered} families"
    );
}

/// Adversarial snapshot decoding: truncations at every boundary, a
/// deterministic bit-flip sweep, wrong versions, bad magic, and oversized
/// length headers all land on typed [`PersistError`]s — never a panic,
/// never an unbounded allocation.
#[test]
fn adversarial_snapshot_decodes_are_typed_errors() {
    let s = stream(0xAD);
    let spec = conformance_spec(SketchFamily::Exact);
    let mut sk = registry().build(&spec).unwrap();
    sk.update_batch(&s.updates);
    let blob = sketch_to_bytes(&spec, sk.as_ref()).unwrap();

    // Sketch blob: every truncation length decodes to a typed error.
    for cut in 0..blob.len() {
        let err = sketch_from_bytes(registry(), &blob[..cut])
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::BadMagic
                    | PersistError::State(_)
                    | PersistError::UnsupportedVersion(_)
            ),
            "blob truncated at {cut}: unexpected {err:?}"
        );
    }

    // Snapshot file image around the blob.
    let mut svc = StreamService::start(
        registry(),
        &spec,
        ServiceConfig::default()
            .with_epoch(s.len() as u64)
            .with_threads(1),
    )
    .unwrap();
    let mut snaps = svc.ingest(&s.updates).unwrap();
    snaps.extend(svc.finish().unwrap());
    let snap = snaps.pop().expect("one full epoch");
    let file = encode_snapshot(
        &spec,
        "service:test",
        &snap.report,
        snap.report.total_updates as u64,
        snap.sketch.as_ref(),
    )
    .unwrap();
    assert!(decode_snapshot(registry(), &file).is_ok());

    // Truncation sweep: every prefix fails with a typed error.
    for cut in 0..file.len() {
        assert!(
            decode_snapshot(registry(), &file[..cut]).is_err(),
            "file truncated at {cut} decoded"
        );
    }
    // Deterministic bit-flip sweep: a stride relatively prime to 8 visits
    // both header and payload bits; the CRC (or an envelope check before
    // it) must reject every single-bit corruption.
    let total_bits = file.len() * 8;
    let mut flipped_checked = 0usize;
    let mut bit = 0usize;
    while bit < total_bits {
        let mut bad = file.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        assert!(
            decode_snapshot(registry(), &bad).is_err(),
            "bit flip at {bit} decoded"
        );
        flipped_checked += 1;
        bit += 131;
    }
    assert!(flipped_checked > 50, "bit-flip sweep degenerated");

    // Wrong version (newer than this build) is its own typed error.
    let mut newer = file.clone();
    newer[4..6].copy_from_slice(&(PERSIST_VERSION + 1).to_le_bytes());
    assert_eq!(
        decode_snapshot(registry(), &newer).unwrap_err(),
        PersistError::UnsupportedVersion(PERSIST_VERSION + 1)
    );
    // Wrong magic.
    let mut magic = file.clone();
    magic[..4].copy_from_slice(b"NOPE");
    assert_eq!(
        decode_snapshot(registry(), &magic).unwrap_err(),
        PersistError::BadMagic
    );
    // An oversized length header is rejected before any allocation.
    let mut huge = file.clone();
    huge[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_snapshot(registry(), &huge).unwrap_err(),
        PersistError::Oversized(u32::MAX as u64)
    );
}
