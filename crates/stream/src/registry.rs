//! The sketch registry: one way to build every sketch.
//!
//! A [`Registry`] maps every [`SketchFamily`] to a builder
//! `fn(&SketchSpec) -> Box<T>` plus a [`FamilyInfo`] descriptor. Generic
//! drivers — the conformance suite, the `sketchctl` CLI, benches, the
//! [`StreamService`](crate::service::StreamService) — instantiate any
//! structure by name through [`Registry::build`] / [`Registry::build_n`] /
//! [`Registry::build_str`] and never see a concrete constructor — `build_n`
//! is how the service gets one identically-seeded copy per worker.
//!
//! A family is declared once. Its type states what it can answer, merge
//! and persist in its [`impl_dyn_sketch!`](crate::impl_dyn_sketch) list,
//! and [`Registry::register`] reads that list ([`SketchCaps::CAPS`]) and
//! the type's name from the type the builder returns. The registration
//! adds only what no type can know: a summary, the space formula, and the
//! three contracts the conformance suite checks (`merge_bitwise`,
//! `batch_bitwise`, `linear`).
//!
//! This crate defines the mechanism and registers its own reference sketch
//! (the exact [`FrequencyVector`]); `bd-sketch` and `bd-core` register their
//! structures via their `register` functions, and `bd_core::registry()`
//! assembles the full workspace catalog. Registration is explicit — the
//! offline build has no inventory/linkme-style link-time collection — and
//! `tests/spec.rs` asserts the catalog covers every `Sketch` impl in the
//! workspace.
//!
//! [`DynSketch`] is the object-safe view a built sketch presents: ingestion
//! via [`Sketch`], plus *optional* dynamic access to each capability trait
//! ([`PointQuery`], [`NormEstimate`], [`SampleQuery`], [`SupportQuery`]) and
//! type-checked dynamic merging.

use std::any::Any;
use std::fmt;

use crate::sketch::{NormEstimate, PointQuery, PointQueryBatch, SampleQuery, Sketch, SupportQuery};
use crate::spec::{SketchFamily, SketchSpec, SpecError};
use crate::state::SketchState;
use crate::vector::FrequencyVector;

/// Object-safe view of a registry-built sketch: ingestion plus optional
/// dynamic query capabilities.
///
/// Implement via [`impl_dyn_sketch!`](crate::impl_dyn_sketch); every
/// accessor defaults to "capability absent".
///
/// `Send + Sync` are supertraits so built sketches can move into worker
/// threads — the [`StreamService`](crate::service::StreamService) hands one
/// identically-seeded copy to each worker — and so immutable
/// [`Snapshot`](crate::service::Snapshot)s behind an `Arc` can be queried
/// from any number of reader threads at once (the
/// [`query`](crate::query) front-end). Every sketch in the workspace is
/// plain owned data (counters, hash seeds, an owned RNG; no interior
/// mutability anywhere), so both bounds are free.
pub trait DynSketch: Sketch + Send + Sync {
    /// `&self` as `Any`, for capability-preserving downcasts.
    fn as_any(&self) -> &dyn Any;

    /// `Box<Self>` as `Box<dyn Any>`, for [`Registry::build_as`].
    fn into_any(self: Box<Self>) -> Box<dyn Any>;

    /// A deep copy behind the trait object (`Clone` behind `dyn`).
    ///
    /// This is the epoch-snapshot hook: the
    /// [`StreamService`](crate::service::StreamService) clones each shard
    /// worker's sketch at an epoch boundary and merges the clones into an
    /// immutable snapshot while the originals keep ingesting. Cloning copies
    /// the owned RNG state too, so a clone is a faithful freeze of the
    /// sketch at the moment of the cut.
    fn clone_dyn(&self) -> Box<dyn DynSketch>;

    /// Point-query view, if the family answers per-item estimates.
    fn as_point(&self) -> Option<&dyn PointQuery> {
        None
    }

    /// Batched point-query view, if the family answers k point queries
    /// through one amortized hash pass ([`PointQueryBatch`]).
    fn as_point_batch(&self) -> Option<&dyn PointQueryBatch> {
        None
    }

    /// Norm-estimate view, if the family answers a scalar statistic.
    fn as_norm(&self) -> Option<&dyn NormEstimate> {
        None
    }

    /// Sample-query view, if the family draws distributional samples.
    fn as_sample(&self) -> Option<&dyn SampleQuery> {
        None
    }

    /// Support-query view, if the family recovers explicit coordinates.
    fn as_support(&self) -> Option<&dyn SupportQuery> {
        None
    }

    /// Type-checked dynamic merge (`Mergeable::merge_from` behind `dyn`).
    /// Errs for non-mergeable families or mismatched concrete types.
    fn merge_dyn(&mut self, other: &dyn DynSketch) -> Result<(), RegistryError> {
        let _ = other;
        Err(RegistryError::NotMergeable)
    }

    /// Persistence view, if the family can encode its mutable state
    /// ([`SketchState`]). This is the durability hook beside
    /// [`clone_dyn`](DynSketch::clone_dyn): `bd_stream::persist` saves the
    /// state of a snapshot through this accessor and restores it onto a
    /// fresh same-spec build on cold start.
    fn persist_state(&self) -> Option<&dyn SketchState> {
        None
    }

    /// Mutable persistence view ([`DynSketch::persist_state`] for the
    /// decode direction).
    fn persist_state_mut(&mut self) -> Option<&mut dyn SketchState> {
        None
    }
}

/// Implement [`DynSketch`] and [`SketchCaps`] for a sketch type, listing
/// its capabilities.
///
/// ```ignore
/// impl_dyn_sketch!(CountSketch<i64>, point, merge);
/// impl_dyn_sketch!(MorrisCounter, norm);
/// impl_dyn_sketch!(AlphaL1Sampler, sample);
/// ```
///
/// Capabilities: `point`, `point_batch`, `norm`, `sample`, `support`,
/// `merge`, `persist`. The list is the type's capability descriptor: each
/// entry wires one dynamic view (which requires the matching trait impl)
/// and sets its flag in [`SketchCaps::CAPS`], which
/// [`Registry::register`] copies into the family's [`FamilyInfo::caps`].
/// The type must also be `Clone` — the macro wires
/// [`DynSketch::clone_dyn`], the epoch-snapshot hook, for every sketch.
#[macro_export]
macro_rules! impl_dyn_sketch {
    ($ty:ty $(, $cap:ident)* $(,)?) => {
        impl $crate::registry::DynSketch for $ty {
            fn as_any(&self) -> &dyn ::std::any::Any {
                self
            }
            fn into_any(self: ::std::boxed::Box<Self>) -> ::std::boxed::Box<dyn ::std::any::Any> {
                self
            }
            fn clone_dyn(&self) -> ::std::boxed::Box<dyn $crate::registry::DynSketch> {
                ::std::boxed::Box::new(::std::clone::Clone::clone(self))
            }
            $($crate::impl_dyn_sketch!(@cap $cap);)*
        }
        impl $crate::registry::SketchCaps for $ty {
            const CAPS: $crate::registry::Capabilities = {
                let mut caps = $crate::registry::Capabilities::NONE;
                $($crate::impl_dyn_sketch!(@flag caps $cap);)*
                caps
            };
        }
    };
    // Every capability but `merge` is named after its flag.
    (@flag $caps:ident merge) => {
        $caps.mergeable = true
    };
    (@flag $caps:ident $cap:ident) => {
        $caps.$cap = true
    };
    (@cap point) => {
        fn as_point(&self) -> ::std::option::Option<&dyn $crate::PointQuery> {
            ::std::option::Option::Some(self)
        }
    };
    (@cap point_batch) => {
        fn as_point_batch(&self) -> ::std::option::Option<&dyn $crate::PointQueryBatch> {
            ::std::option::Option::Some(self)
        }
    };
    (@cap norm) => {
        fn as_norm(&self) -> ::std::option::Option<&dyn $crate::NormEstimate> {
            ::std::option::Option::Some(self)
        }
    };
    (@cap sample) => {
        fn as_sample(&self) -> ::std::option::Option<&dyn $crate::SampleQuery> {
            ::std::option::Option::Some(self)
        }
    };
    (@cap support) => {
        fn as_support(&self) -> ::std::option::Option<&dyn $crate::SupportQuery> {
            ::std::option::Option::Some(self)
        }
    };
    (@cap persist) => {
        fn persist_state(&self) -> ::std::option::Option<&dyn $crate::state::SketchState> {
            ::std::option::Option::Some(self)
        }
        fn persist_state_mut(
            &mut self,
        ) -> ::std::option::Option<&mut dyn $crate::state::SketchState> {
            ::std::option::Option::Some(self)
        }
    };
    (@cap merge) => {
        fn merge_dyn(
            &mut self,
            other: &dyn $crate::registry::DynSketch,
        ) -> ::std::result::Result<(), $crate::registry::RegistryError> {
            match other.as_any().downcast_ref::<Self>() {
                ::std::option::Option::Some(o) => {
                    $crate::Mergeable::merge_from(self, o);
                    ::std::result::Result::Ok(())
                }
                ::std::option::Option::None => {
                    ::std::result::Result::Err($crate::registry::RegistryError::MergeTypeMismatch)
                }
            }
        }
    };
}

/// What a family can answer, and which contracts its ingestion honours.
///
/// `point`/`point_batch`/`norm`/`sample`/`support`/`mergeable`/`persist`
/// are the type's own: [`Registry::register`] reads them from
/// [`SketchCaps::CAPS`], and a registration cannot declare them.
/// `merge_bitwise`, `batch_bitwise` and `linear` are contracts only the
/// registration can state: `batch_bitwise` asserts `update_batch` is
/// bit-identical to the sequential loop under the family's conformance
/// regime (false only for statistically-equivalent overrides); `linear`
/// asserts `update(i,a); update(i,b) ≡ update(i,a+b)` under the same
/// regime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Capabilities {
    /// Answers [`PointQuery`].
    pub point: bool,
    /// Answers [`PointQueryBatch`]: k point queries through one amortized
    /// hash pass, bit-identical per item to the scalar path. Implies
    /// `point`.
    pub point_batch: bool,
    /// Answers [`NormEstimate`].
    pub norm: bool,
    /// Answers [`SampleQuery`].
    pub sample: bool,
    /// Answers [`SupportQuery`].
    pub support: bool,
    /// Implements [`Mergeable`](crate::Mergeable) (sharding hook).
    pub mergeable: bool,
    /// Declared: merging is deterministic — merged shards are
    /// bit-identical to the single-pass sketch in every regime. Requires
    /// `mergeable`. False for sampling mergers (CSSS, the sampled vector,
    /// compounds built on them), whose thinning-regime merges consume RNG
    /// draws; for float-row mergers (the Cauchy L1 trackers), which
    /// re-associate addition across the shard boundary; and for the
    /// windowed L0 family, whose level windows can diverge between shards
    /// in large-universe regimes. The estimate-equal contract these
    /// families satisfy instead is spelled out in `DESIGN.md §7`.
    pub merge_bitwise: bool,
    /// Declared: `update_batch` ≡ sequential loop, bit for bit.
    pub batch_bitwise: bool,
    /// Declared: updates compose additively per item.
    pub linear: bool,
    /// Implements [`SketchState`]: the mutable state round-trips through
    /// the versioned binary encoding (`save_state`/`load_state`), the
    /// durability hook `bd_stream::persist` builds on. The round-trip is
    /// bit-identical for every family that advertises it — decode rebuilds
    /// from the stamped spec and overwrites only mutated state.
    pub persist: bool,
}

impl Capabilities {
    /// No capability and no contract.
    pub const NONE: Capabilities = Capabilities {
        point: false,
        point_batch: false,
        norm: false,
        sample: false,
        support: false,
        mergeable: false,
        merge_bitwise: false,
        batch_bitwise: false,
        linear: false,
        persist: false,
    };
}

/// The capabilities a sketch type states in its
/// [`impl_dyn_sketch!`](crate::impl_dyn_sketch) list, which implements
/// this trait. The contract flags are never set.
pub trait SketchCaps: DynSketch {
    /// The listed capabilities.
    const CAPS: Capabilities;
}

impl fmt::Display for Capabilities {
    /// Compact tags, e.g. `point+merge+persist`, or `-` for none.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tags = [
            ("point", self.point),
            ("norm", self.norm),
            ("sample", self.sample),
            ("support", self.support),
            ("merge", self.mergeable),
            ("persist", self.persist),
        ];
        let on: Vec<&str> = tags.iter().filter(|t| t.1).map(|t| t.0).collect();
        if on.is_empty() {
            f.write_str("-")
        } else {
            f.write_str(&on.join("+"))
        }
    }
}

/// The registry's descriptor for one family.
#[derive(Clone, Copy, Debug)]
pub struct FamilyInfo {
    /// The family this entry describes.
    pub family: SketchFamily,
    /// One-line description for catalogs (`sketchctl families`, README).
    pub summary: &'static str,
    /// Query/merge/ingestion capabilities. A registration sets only the
    /// declared contracts; [`Registry::register`] adds the built type's
    /// [`SketchCaps::CAPS`].
    pub caps: Capabilities,
    /// The space formula, human-readable (`"O(α²/ε³) cells of log(S) bits"`).
    pub space: &'static str,
}

/// A family builder behind `dyn`: a pure function of the spec.
/// Determinism contract: equal specs must produce bit-identical sketches
/// (all randomness derives from `spec.seed`).
type BuildFn = Box<dyn Fn(&SketchSpec) -> Box<dyn DynSketch> + Send + Sync>;

/// One registered family: its descriptor, the `std::any::type_name` of
/// the type its builder returns, and the builder.
struct Entry {
    info: FamilyInfo,
    type_name: &'static str,
    build: BuildFn,
}

/// Why a registry operation failed.
#[derive(Clone, Debug, PartialEq)]
pub enum RegistryError {
    /// The spec's family has no registered builder.
    Unregistered(SketchFamily),
    /// The spec failed to parse or validate.
    Spec(SpecError),
    /// [`DynSketch::merge_dyn`] on a family without merge support.
    NotMergeable,
    /// [`DynSketch::merge_dyn`] across different concrete types.
    MergeTypeMismatch,
    /// [`Registry::build_as`] requested the wrong concrete type.
    WrongType {
        /// The type the caller asked for.
        requested: &'static str,
        /// The type the family actually builds.
        built: &'static str,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Unregistered(fam) => write!(f, "family `{fam}` is not registered"),
            RegistryError::Spec(e) => write!(f, "bad spec: {e}"),
            RegistryError::NotMergeable => write!(f, "family does not support merging"),
            RegistryError::MergeTypeMismatch => {
                write!(f, "merge requires two sketches of the same family")
            }
            RegistryError::WrongType { requested, built } => {
                write!(f, "family builds `{built}`, not `{requested}`")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<SpecError> for RegistryError {
    fn from(e: SpecError) -> Self {
        RegistryError::Spec(e)
    }
}

/// The family → builder catalog.
#[derive(Default)]
pub struct Registry {
    entries: Vec<Entry>,
}

impl Registry {
    /// An empty registry. Most callers want the fully-populated workspace
    /// catalog, `bd_core::registry()`.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a family built by `build`. `info.caps` declares only the
    /// contracts (`merge_bitwise`, `batch_bitwise`, `linear`); the
    /// descriptor's other flags are `T`'s [`SketchCaps::CAPS`], and the
    /// recorded type name is `T`'s.
    ///
    /// Panics on double registration — each family has exactly one way to
    /// be built — on a declared flag that `T` states itself, and on
    /// `merge_bitwise` for a `T` that does not merge.
    pub fn register<T: SketchCaps + 'static>(
        &mut self,
        info: FamilyInfo,
        build: fn(&SketchSpec) -> Box<T>,
    ) {
        let (family, declared) = (info.family, info.caps);
        assert!(
            self.lookup(family).is_none(),
            "family `{family}` registered twice"
        );
        let stated = Capabilities {
            merge_bitwise: false,
            batch_bitwise: false,
            linear: false,
            ..declared
        };
        assert_eq!(
            stated,
            Capabilities::NONE,
            "family `{family}` declares a flag its type states"
        );
        assert!(
            T::CAPS.mergeable || !declared.merge_bitwise,
            "family `{family}` declares merge_bitwise, but its type does not merge"
        );
        let caps = Capabilities {
            merge_bitwise: declared.merge_bitwise,
            batch_bitwise: declared.batch_bitwise,
            linear: declared.linear,
            ..T::CAPS
        };
        let type_name = std::any::type_name::<T>();
        self.entries.push(Entry {
            info: FamilyInfo { caps, ..info },
            type_name,
            build: Box::new(move |spec| build(spec)),
        });
    }

    /// The registered families' descriptors, in registration order.
    pub fn families(&self) -> impl Iterator<Item = &FamilyInfo> {
        self.entries.iter().map(|entry| &entry.info)
    }

    /// Number of registered families.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The descriptor for `family`, if registered.
    pub fn info(&self, family: SketchFamily) -> Option<&FamilyInfo> {
        self.lookup(family).map(|entry| &entry.info)
    }

    /// `std::any::type_name` of the type `family` builds, if registered
    /// (drives the registry-completeness test).
    pub fn type_name(&self, family: SketchFamily) -> Option<&'static str> {
        self.lookup(family).map(|entry| entry.type_name)
    }

    fn lookup(&self, family: SketchFamily) -> Option<&Entry> {
        self.entries.iter().find(|e| e.info.family == family)
    }

    /// The builder for a valid spec's family.
    fn builder(&self, spec: &SketchSpec) -> Result<&BuildFn, RegistryError> {
        spec.validate()?;
        let entry = self
            .lookup(spec.family)
            .ok_or(RegistryError::Unregistered(spec.family))?;
        Ok(&entry.build)
    }

    /// Build the sketch a spec describes.
    pub fn build(&self, spec: &SketchSpec) -> Result<Box<dyn DynSketch>, RegistryError> {
        Ok(self.builder(spec)?(spec))
    }

    /// Build `count` identically-seeded copies — the shard/merge
    /// configuration: feed each copy one shard of the stream, then fold the
    /// copies together with [`DynSketch::merge_dyn`]. Builders are pure
    /// functions of the spec, so the copies are pairwise bit-identical (the
    /// `build_n` sweep in `tests/spec.rs` asserts this for every family).
    pub fn build_n(
        &self,
        spec: &SketchSpec,
        count: usize,
    ) -> Result<Vec<Box<dyn DynSketch>>, RegistryError> {
        let build = self.builder(spec)?;
        Ok((0..count).map(|_| build(spec)).collect())
    }

    /// Build two identically-seeded copies ([`Registry::build_n`] with
    /// `count = 2`): feed each copy a shard, then `a.merge_dyn(&b)`.
    #[allow(clippy::type_complexity)]
    pub fn build_pair(
        &self,
        spec: &SketchSpec,
    ) -> Result<(Box<dyn DynSketch>, Box<dyn DynSketch>), RegistryError> {
        let mut pair = self.build_n(spec, 2)?;
        let b = pair.pop().expect("build_n(2) returns two sketches");
        let a = pair.pop().expect("build_n(2) returns two sketches");
        Ok((a, b))
    }

    /// Parse a compact spec string and build it.
    pub fn build_str(&self, s: &str) -> Result<(SketchSpec, Box<dyn DynSketch>), RegistryError> {
        let spec: SketchSpec = s.parse()?;
        let sketch = self.build(&spec)?;
        Ok((spec, sketch))
    }

    /// Build and downcast to the family's concrete type — for drivers that
    /// need a structure-specific query (`AlphaHeavyHitters::query`, ...)
    /// while still constructing through the one spec path.
    pub fn build_as<S: Any>(&self, spec: &SketchSpec) -> Result<Box<S>, RegistryError> {
        let built = self.type_name(spec.family).unwrap_or("<unregistered>");
        self.build(spec)?
            .into_any()
            .downcast::<S>()
            .map_err(|_| RegistryError::WrongType {
                requested: std::any::type_name::<S>(),
                built,
            })
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("families", &self.entries.len())
            .finish()
    }
}

// The reference sketch: exact frequencies, point queries, trivially linear,
// and mergeable by coordinate-wise addition (the sharded control family).
crate::impl_dyn_sketch!(FrequencyVector, point, merge, persist);

/// Register this crate's reference family ([`SketchFamily::Exact`]).
pub fn register_reference(reg: &mut Registry) {
    reg.register(
        FamilyInfo {
            family: SketchFamily::Exact,
            summary: "exact frequency vector (ground truth)",
            caps: Capabilities {
                merge_bitwise: true,
                batch_bitwise: true,
                linear: true,
                ..Default::default()
            },
            space: "n counters of log(m) bits (dense ground truth)",
        },
        |spec| Box::new(FrequencyVector::new(spec.n)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::Update;

    fn reg() -> Registry {
        let mut r = Registry::new();
        register_reference(&mut r);
        r
    }

    #[test]
    fn builds_reference_family_from_string() {
        let r = reg();
        let (spec, mut sk) = r.build_str("exact:n=2^10,seed=7").unwrap();
        assert_eq!(spec.n, 1 << 10);
        sk.update(3, 5);
        sk.update_batch(&[Update::new(3, -2), Update::new(9, 1)]);
        let p = sk.as_point().expect("exact answers point queries");
        assert_eq!(p.point(3), 3.0);
        assert_eq!(p.point(9), 1.0);
        assert!(sk.as_norm().is_none());
        assert!(sk.as_sample().is_none());
    }

    #[test]
    fn build_as_downcasts_and_rejects_wrong_type() {
        let r = reg();
        let spec = SketchSpec::new(SketchFamily::Exact).with_n(64);
        let mut fv: Box<FrequencyVector> = r.build_as(&spec).unwrap();
        Sketch::update(fv.as_mut(), 5, 2);
        assert_eq!(fv.get(5), 2);
        let err = r
            .build_as::<crate::runner::StreamRunner>(&spec)
            .unwrap_err();
        assert!(matches!(err, RegistryError::WrongType { .. }));
    }

    #[test]
    fn build_pair_is_bit_identical() {
        let r = reg();
        let spec = SketchSpec::new(SketchFamily::Exact)
            .with_n(256)
            .with_seed(9);
        let (mut a, mut b) = r.build_pair(&spec).unwrap();
        for u in [Update::new(1, 4), Update::new(7, -2)] {
            a.update(u.item, u.delta);
            b.update(u.item, u.delta);
        }
        let (pa, pb) = (a.as_point().unwrap(), b.as_point().unwrap());
        for i in 0..256 {
            assert_eq!(pa.point(i).to_bits(), pb.point(i).to_bits());
        }
    }

    #[test]
    fn unregistered_and_invalid_specs_error() {
        let r = reg();
        let spec = SketchSpec::new(SketchFamily::Morris);
        assert!(matches!(
            r.build(&spec),
            Err(RegistryError::Unregistered(SketchFamily::Morris))
        ));
        let mut bad = SketchSpec::new(SketchFamily::Exact);
        bad.epsilon = 2.0;
        assert!(matches!(r.build(&bad), Err(RegistryError::Spec(_))));
    }

    #[test]
    fn reference_family_merges_exactly() {
        let r = reg();
        let spec = SketchSpec::new(SketchFamily::Exact).with_n(16);
        let (mut a, mut b) = r.build_pair(&spec).unwrap();
        a.update(3, 5);
        b.update(3, -2);
        b.update(7, 4);
        a.merge_dyn(b.as_ref()).unwrap();
        let p = a.as_point().unwrap();
        assert_eq!(p.point(3), 3.0);
        assert_eq!(p.point(7), 4.0);
    }

    /// A point-only dummy: no merge, so merge_dyn takes the default
    /// "NotMergeable" path.
    #[derive(Clone)]
    struct NoMerge;
    impl crate::space::SpaceUsage for NoMerge {
        fn space(&self) -> crate::space::SpaceReport {
            crate::space::SpaceReport::default()
        }
    }
    impl Sketch for NoMerge {
        fn update(&mut self, _item: u64, _delta: i64) {}
    }
    crate::impl_dyn_sketch!(NoMerge, point);
    impl PointQuery for NoMerge {
        fn point(&self, _item: u64) -> f64 {
            0.0
        }
    }

    fn register_no_merge(caps: Capabilities) -> Registry {
        let mut r = Registry::new();
        r.register(
            FamilyInfo {
                family: SketchFamily::Morris,
                summary: "point-only dummy",
                caps,
                space: "none",
            },
            |_| Box::new(NoMerge),
        );
        r
    }

    #[test]
    fn non_mergeable_merge_errs() {
        let mut a = NoMerge;
        let b = NoMerge;
        assert_eq!(
            DynSketch::merge_dyn(&mut a, &b),
            Err(RegistryError::NotMergeable)
        );
    }

    #[test]
    fn descriptors_come_from_the_built_type() {
        let r = register_no_merge(Capabilities {
            batch_bitwise: true,
            ..Default::default()
        });
        let info = r.info(SketchFamily::Morris).unwrap();
        assert_eq!(
            info.caps,
            Capabilities {
                point: true,
                batch_bitwise: true,
                ..Default::default()
            }
        );
        assert_eq!(
            r.type_name(SketchFamily::Morris),
            Some(std::any::type_name::<NoMerge>())
        );
        assert_eq!(
            reg().info(SketchFamily::Exact).unwrap().caps,
            Capabilities {
                point: true,
                mergeable: true,
                merge_bitwise: true,
                batch_bitwise: true,
                linear: true,
                persist: true,
                ..Default::default()
            }
        );
    }

    #[test]
    #[should_panic(expected = "declares a flag its type states")]
    fn declaring_a_stated_flag_panics() {
        register_no_merge(Capabilities {
            mergeable: true,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "declares merge_bitwise, but its type does not merge")]
    fn merge_bitwise_without_merge_panics() {
        register_no_merge(Capabilities {
            merge_bitwise: true,
            ..Default::default()
        });
    }

    #[test]
    fn clone_dyn_freezes_state() {
        let r = reg();
        let (_, mut sk) = r.build_str("exact:n=64").unwrap();
        sk.update(3, 5);
        let frozen = sk.clone_dyn();
        sk.update(3, 2);
        assert_eq!(frozen.as_point().unwrap().point(3), 5.0, "clone mutated");
        assert_eq!(sk.as_point().unwrap().point(3), 7.0);
        // The clone keeps the full capability surface.
        assert!(frozen.as_norm().is_none() && frozen.as_sample().is_none());
    }

    #[test]
    fn build_n_returns_count_copies() {
        let r = reg();
        let spec = SketchSpec::new(SketchFamily::Exact).with_n(32).with_seed(4);
        let copies = r.build_n(&spec, 5).unwrap();
        assert_eq!(copies.len(), 5);
        assert!(matches!(
            r.build_n(&SketchSpec::new(SketchFamily::Morris), 2),
            Err(RegistryError::Unregistered(SketchFamily::Morris))
        ));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let mut r = reg();
        register_reference(&mut r);
    }
}
