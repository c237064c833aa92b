//! Tests for the declarative construction layer: spec round-trips,
//! `build_pair`/`build_n` determinism, and registry completeness (every
//! `Sketch` impl in the workspace is registered).

mod common;

use bounded_deletions::prelude::*;
use std::collections::BTreeSet;
use std::path::Path;

/// `parse(display(spec)) == spec`, bit for bit, for every family — with
/// defaults only and with every optional override set.
#[test]
fn spec_strings_round_trip_for_every_family() {
    for info in registry().families() {
        let plain = SketchSpec::new(info.family);
        let parsed: SketchSpec = plain.to_string().parse().unwrap();
        assert_eq!(parsed, plain, "{}: default spec round-trip", info.family);

        let full = SketchSpec::new(info.family)
            .with_n(123_457)
            .with_epsilon(0.037)
            .with_alpha(7.5)
            .with_delta(0.11)
            .with_seed(0xDEAD_BEEF)
            .with_regime(Regime::Theory)
            .with_k(13)
            .with_budget(99_991)
            .with_c(3.25)
            .with_depth(7)
            .with_width(333);
        let parsed: SketchSpec = full.to_string().parse().unwrap();
        assert_eq!(parsed, full, "{}: full spec round-trip", info.family);
    }
}

/// The issue's canonical example string stays parseable and buildable.
#[test]
fn canonical_spec_string_builds() {
    let (spec, sk) = registry()
        .build_str("csss:n=1e6,eps=0.05,alpha=8,seed=42")
        .unwrap();
    assert_eq!(spec.family, SketchFamily::Csss);
    assert_eq!(spec.n, 1_000_000);
    assert!(sk.as_point().is_some());
}

/// `build_pair` returns bit-identical twins: after the same batch, every
/// query probe agrees bit-for-bit. This is the property sharded ingestion
/// (shard → merge) rests on.
#[test]
fn build_pair_is_deterministic_for_every_family() {
    let stream = BoundedDeletionGen::new(1 << 10, 2_000, 3.0).generate_seeded(0xBEEF);
    for info in registry().families() {
        let spec = SketchSpec::new(info.family)
            .with_n(1 << 10)
            .with_epsilon(0.25)
            .with_alpha(3.0)
            .with_seed(5);
        let (mut a, mut b) = registry().build_pair(&spec).unwrap();
        a.update_batch(&stream.updates);
        b.update_batch(&stream.updates);
        let fingerprint = |sk: &dyn DynSketch| -> Vec<u64> {
            let mut out = Vec::new();
            if let Some(p) = sk.as_point() {
                out.extend((0..512u64).map(|i| p.point(i).to_bits()));
            }
            if let Some(nm) = sk.as_norm() {
                out.push(nm.norm_estimate().to_bits());
            }
            if let Some(s) = sk.as_sample() {
                out.push(match s.sample() {
                    SampleOutcome::Sample { item, estimate } => item ^ estimate.to_bits(),
                    SampleOutcome::Fail => u64::MAX,
                });
            }
            if let Some(sp) = sk.as_support() {
                out.extend(sp.support_query());
            }
            out
        };
        assert_eq!(
            fingerprint(a.as_ref()),
            fingerprint(b.as_ref()),
            "{}: build_pair copies diverged",
            info.family
        );
    }
}

/// Property-style seeded sweep for `build_n` — the `StreamService`'s
/// construction primitive: for every registered family, `n` copies built
/// from one spec are pairwise bit-identical after replaying the same
/// stream, across several seeds and copy counts.
#[test]
fn build_n_copies_are_pairwise_bit_identical_for_every_family() {
    for (case, (seed, copies)) in [(3u64, 3usize), (77, 4)].into_iter().enumerate() {
        let stream = common::stream(0xB0 + case as u64);
        for info in registry().families() {
            let spec = common::conformance_spec(info.family).with_seed(seed);
            let mut built = registry().build_n(&spec, copies).unwrap();
            assert_eq!(built.len(), copies);
            for sk in built.iter_mut() {
                StreamRunner::new().run(&mut **sk, &stream);
            }
            let first = common::probe(built[0].as_ref());
            for (i, sk) in built.iter().enumerate().skip(1) {
                common::assert_probes_match(
                    &format!("{} (build_n copy {i}, seed {seed})", info.family),
                    &first,
                    &common::probe(sk.as_ref()),
                    true,
                );
            }
        }
    }
}

/// A sharded one-shot run is reachable from the prelude-level API surface
/// the docs advertise: spec string → registry → a 4-worker service whose
/// one epoch covers the stream.
#[test]
fn sharded_runner_drives_a_spec_string() {
    let (spec, _) = registry()
        .build_str("countsketch:n=2^10,eps=0.2,seed=5")
        .unwrap();
    let stream = common::stream(0xCE);
    let cfg = ServiceConfig::default()
        .with_threads(4)
        .with_epoch(stream.len() as u64);
    let mut svc = StreamService::start(registry(), &spec, cfg).unwrap();
    let mut snaps = svc.ingest(&stream.updates).unwrap();
    snaps.extend(svc.finish().unwrap());
    assert_eq!(snaps.len(), 1);
    assert_eq!(snaps[0].report.total_updates, stream.len());
    assert!(snaps[0].sketch.as_point().is_some());
}

/// Collect the target type names of every `impl ... Sketch for <Type>` in a
/// crate's `src/`, skipping `#[cfg(test)]` modules (test helpers are not
/// part of the public catalog).
fn sketch_impl_targets(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            sketch_impl_targets(&path, out);
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        // Everything after the first #[cfg(test)] is test-module code in
        // this workspace's layout (one trailing tests module per file).
        let code = text.split("#[cfg(test)]").next().unwrap();
        for line in code.lines() {
            if line.trim_start().starts_with("//") {
                continue; // doc/comment lines mentioning impls
            }
            let Some(impl_at) = line.find("impl") else {
                continue;
            };
            let rest = &line[impl_at..];
            // Match `impl<...>? (path::)?Sketch for Target`.
            let Some(for_at) = rest.find(" for ") else {
                continue;
            };
            let head = &rest[..for_at];
            if !(head.ends_with("Sketch") || head.ends_with("Sketch ")) {
                continue;
            }
            let head_trim = head.trim_end();
            let trait_name = head_trim
                .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("");
            if trait_name != "Sketch" {
                continue; // DynSketch, etc.
            }
            let target = rest[for_at + 5..]
                .trim()
                .split(['<', ' ', '{'])
                .next()
                .unwrap()
                .to_string();
            if !target.is_empty() {
                out.insert(target);
            }
        }
    }
}

/// Registry completeness: every `Sketch` impl in the three library crates
/// is reachable through some registered family. A new structure that
/// implements `Sketch` without registering fails this test by name.
#[test]
fn every_sketch_impl_in_the_workspace_is_registered() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut impls = BTreeSet::new();
    for krate in ["crates/stream/src", "crates/sketch/src", "crates/core/src"] {
        sketch_impl_targets(&root.join(krate), &mut impls);
    }
    assert!(
        impls.len() >= 30,
        "source scan looks broken: only {} Sketch impls found",
        impls.len()
    );
    let registered: BTreeSet<String> = registry()
        .families()
        .map(|info| {
            registry()
                .type_name(info.family)
                .unwrap()
                .split('<')
                .next()
                .unwrap()
                .rsplit("::")
                .next()
                .unwrap()
                .to_string()
        })
        .collect();
    let missing: Vec<&String> = impls.difference(&registered).collect();
    assert!(
        missing.is_empty(),
        "Sketch impls not registered in any family: {missing:?}\n\
         (register them in their defining crate's `registry` module)"
    );
}

/// And the converse sanity check: the registry's catalog covers the whole
/// `SketchFamily` enum, so `families()` is the single source of truth.
#[test]
fn registry_covers_the_family_enum() {
    let reg = registry();
    assert_eq!(reg.len(), SketchFamily::ALL.len());
    for &fam in SketchFamily::ALL {
        let info = reg
            .info(fam)
            .unwrap_or_else(|| panic!("{fam} unregistered"));
        assert_eq!(info.family, fam);
        assert!(!info.summary.is_empty() && !info.space.is_empty());
    }
}
