//! Shard ≡ sequential conformance for one-shot parallel ingestion.
//!
//! A one-shot parallel run is a `StreamService` whose single epoch covers
//! the stream (`DESIGN.md §7`). Here it is driven with a dispatch chunk of
//! ⌈len/k⌉, so each of the k workers ingests one contiguous shard of the
//! stream and the shards are folded once, at the final cut.
//!
//! For **every** family whose registry descriptor reports `mergeable` (the
//! suite iterates `registry().families()` — no hand-maintained list), such
//! a run at k ∈ {1, 2, 4, 7} shards over a mixed insert/delete workload
//! must agree with the sequential `StreamRunner`: bit-for-bit where the
//! family claims `merge_bitwise`, estimate-equal (within the
//! float-association tolerance) otherwise. CI re-runs this suite with the
//! `BD_SHARD_THREADS` knob set to 2 and 8 so thread-count-dependent bugs
//! surface there too.

mod common;

use bd_stream::{RegistryError, ServiceConfig, Snapshot, StreamService};
use bounded_deletions::prelude::*;
use common::{assert_probes_match, conformance_spec, probe, stream};
use std::sync::Arc;

/// The shard counts under test: the fixed {1, 2, 4, 7} sweep plus an
/// optional `BD_SHARD_THREADS` entry (the CI thread-matrix knob).
fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 4, 7];
    if let Some(extra) = std::env::var("BD_SHARD_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if extra >= 1 && !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

/// One epoch over the whole stream, k workers, one contiguous shard each.
fn one_shot_config(len: usize, shards: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_threads(shards)
        .with_epoch(len as u64)
        .with_chunk(len.div_ceil(shards).max(1))
}

/// Run the one-shot service and return its single snapshot.
fn one_shot(
    spec: &SketchSpec,
    s: &StreamBatch,
    shards: usize,
) -> Result<Arc<Snapshot>, RegistryError> {
    let mut svc = StreamService::start(registry(), spec, one_shot_config(s.len(), shards))?;
    let mut snaps = svc.ingest(&s.updates).unwrap();
    snaps.extend(svc.finish().unwrap());
    assert_eq!(snaps.len(), 1, "{}: one epoch, one snapshot", spec.family);
    Ok(snaps.remove(0))
}

/// The acceptance check: shard(k) ≡ sequential for every mergeable family.
#[test]
fn sharded_matches_sequential_for_every_mergeable_family() {
    let s = stream(0x5A);
    let mut covered = Vec::new();
    for info in registry().families() {
        if !info.caps.mergeable {
            continue;
        }
        covered.push(info.family.name());
        let spec = conformance_spec(info.family);
        let mut seq = registry().build(&spec).unwrap();
        StreamRunner::new().run(&mut *seq, &s);
        let want = probe(seq.as_ref());
        for k in shard_counts() {
            let snap = one_shot(&spec, &s, k)
                .unwrap_or_else(|e| panic!("{}: sharded run failed: {e}", info.family));
            assert_probes_match(
                &format!("{} (shards = {k})", info.family),
                &want,
                &probe(snap.sketch.as_ref()),
                info.caps.merge_bitwise,
            );
            let report = snap.report;
            assert_eq!(
                report.total_updates,
                s.len(),
                "{}: lost updates",
                info.family
            );
            assert_eq!(
                report.total_mass(),
                s.total_mass(),
                "{}: lost mass",
                info.family
            );
        }
    }
    assert!(
        covered.len() >= 20,
        "mergeable catalog shrank unexpectedly: {covered:?}"
    );
}

/// Two sharded runs with the same seed and shard count replay identically —
/// including in the *thinning* regime, where merging consumes RNG draws.
#[test]
fn sharded_runs_replay_identically() {
    let s = stream(0xDE);
    let thinned = [
        conformance_spec(SketchFamily::Csss).with_budget(128),
        conformance_spec(SketchFamily::SampledVector).with_budget(128),
    ];
    let exact_regime = [
        conformance_spec(SketchFamily::AlphaHh),
        conformance_spec(SketchFamily::AlphaL0),
    ];
    for spec in thinned.iter().chain(&exact_regime) {
        for k in [2, 4, 7] {
            let run_once = || probe(one_shot(spec, &s, k).unwrap().sketch.as_ref());
            assert_probes_match(
                &format!("{} (determinism, shards = {k})", spec.family),
                &run_once(),
                &run_once(),
                true,
            );
        }
    }
}

/// Multi-shard runs on non-mergeable families are rejected up front.
#[test]
fn non_mergeable_families_error_beyond_one_shard() {
    let s = stream(0x91);
    let mut rejected = 0;
    for info in registry().families() {
        if info.caps.mergeable {
            continue;
        }
        rejected += 1;
        let spec = conformance_spec(info.family);
        assert!(
            matches!(one_shot(&spec, &s, 4), Err(RegistryError::NotMergeable)),
            "{}: expected NotMergeable",
            info.family
        );
    }
    assert!(rejected > 0, "no non-mergeable families left to reject?");
}
