//! Snapshot persistence: epochs that survive a restart.
//!
//! The durability unit is the epoch cut. Every scheduled cut already
//! produces an immutable [`Snapshot`](crate::service::Snapshot) (merged
//! sketch + [`EpochReport`]); this module gives that pair a **versioned,
//! seed-and-spec-stamped binary encoding** and a crash-tolerant on-disk
//! store, so a [`StreamService`](crate::service::StreamService) can
//! cold-start from the last valid snapshot and replay only the stream tail
//! after its epoch stamp.
//!
//! It also owns how durable bytes are framed and checksummed. Snapshot
//! files and WAL segment headers ([`crate::wal`]) share one envelope,
//! written by `seal` and opened by `open`:
//!
//! ```text
//! [ magic: 4 ][ version: u16 ][ len: u32 ][ body: len bytes ][ CRC-32C of everything before it: u32 ]
//! ```
//!
//! `open` checks magic, version, the caller's length cap, the input's
//! length, then the [`crc32c`], each failure its own [`PersistError`].
//! All integers are little-endian and floats travel as `to_bits`, in the
//! [`StateWriter`] vocabulary.
//!
//! * **Sketch blob** (`BDSK`): magic, format version, the full
//!   [`SketchSpec`] display string (which embeds
//!   the seed — a wrong-seed file *is* a wrong-spec file), then the
//!   family's [`SketchState`](crate::state::SketchState) encoding. Decoding
//!   rebuilds the sketch from the stamped spec through the registry — the
//!   same type-checked path `merge_dyn` uses — and overwrites only the
//!   mutable state, so shapes and hash functions can never desynchronize
//!   from the construction path. The blob carries no checksum of its own:
//!   on disk it only ever lives inside a checksummed snapshot file.
//! * **Snapshot file** (`BDSN`, format [`PERSIST_VERSION`]): the envelope
//!   around a payload capped at [`MAX_SNAPSHOT`]. The payload stamps the
//!   service-config string, the epoch position (epoch index, ingested
//!   prefix length, *offered* stream position — the replay cursor), the
//!   cumulative accounting of the [`EpochReport`], and closes with the
//!   sketch blob, whose header is the file's one spec stamp.
//!
//! [`SnapshotStore`] writes one file per epoch (`epoch-NNNNNNNN.bdsnap`)
//! via a synced temp file + rename. It performs that create, write,
//! `fsync`, rename and directory sync, and `prune`'s unlinks, through the
//! crate's durability layer (`disk.rs`), the one place that touches the
//! disk and that [`crate::fault`] crashes. [`SnapshotStore::load_latest`]
//! scans newest-first, skipping torn or corrupt files — a bad final write
//! simply falls back to the previous epoch — but stopping at a file of
//! another format version, or one it cannot read, which this build must
//! neither skip nor overwrite. Recovery correctness (persist → restart → replay-tail ≡
//! uninterrupted) is pinned by `tests/recovery.rs`; the round-trip law
//! (`from_bytes(to_bytes(s))` bit-identical) by `tests/conformance.rs`.

use crate::disk::Disk;
use crate::registry::{DynSketch, Registry, RegistryError};
use crate::service::EpochReport;
use crate::spec::SketchSpec;
use crate::state::{StateError, StateReader, StateWriter};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic tag opening a sketch blob.
pub const SKETCH_MAGIC: [u8; 4] = *b"BDSK";

/// Magic tag opening a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"BDSN";

/// Format version stamped into snapshot files and sketch blobs. Decoders
/// reject any other ([`PersistError::UnsupportedVersion`]); bumping this is
/// the contract for any layout change. Version 2 moved snapshot files onto
/// the CRC-32C envelope and stamps the spec once, in the sketch blob;
/// version 3 drops the four shed-load counters (the service sheds nothing).
pub const PERSIST_VERSION: u16 = 3;

/// Hard cap on a snapshot payload or sketch state blob. Snapshots carry
/// whole sketch tables, so the cap is wider than the wire layer's 1 MiB
/// query-frame cap ([`crate::wire::MAX_FRAME`]) but serves the same
/// purpose: a corrupt length header is rejected before it can demand an
/// absurd allocation.
pub const MAX_SNAPSHOT: usize = 1 << 26;

/// Why persistence failed: every adversarial input (truncation, bit flips,
/// wrong version, wrong spec/seed, oversized lengths) lands on one of
/// these — decoding never panics.
#[derive(Clone, Debug, PartialEq)]
pub enum PersistError {
    /// Filesystem failure, with the formatted OS error.
    Io(String),
    /// The blob doesn't open with the expected magic tag.
    BadMagic,
    /// The blob's format version is not the one this build writes.
    UnsupportedVersion(u16),
    /// A length header exceeds its cap ([`MAX_SNAPSHOT`] for snapshots,
    /// [`MAX_WAL_RECORD`](crate::wal::MAX_WAL_RECORD) for WAL segment
    /// headers).
    Oversized(u64),
    /// An envelope's CRC-32C doesn't match its bytes (bit flips, torn
    /// writes).
    ChecksumMismatch,
    /// The stamped spec string failed to parse.
    BadSpec(String),
    /// The stamped spec doesn't match the one the caller is running with —
    /// different family, shape, or **seed** (the spec string embeds the
    /// seed, so a wrong-seed file is caught here).
    SpecMismatch {
        /// The spec the caller expected.
        expected: String,
        /// The spec the file stamps.
        found: String,
    },
    /// The stamped service config doesn't match the recovering service's
    /// (dispatch geometry — threads/chunk/epoch — must continue
    /// identically for replay to be faithful).
    ConfigMismatch {
        /// The config the caller expected.
        expected: String,
        /// The config the file stamps.
        found: String,
    },
    /// The family doesn't advertise the persist capability.
    NotPersistable,
    /// An armed [`FaultInjector`](crate::fault::FaultInjector) fired: the
    /// modeled process is dead (testing only — never produced in normal
    /// operation).
    FaultInjected,
    /// The state blob inside the envelope is malformed.
    State(StateError),
    /// Rebuilding the sketch from the stamped spec failed.
    Registry(RegistryError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            PersistError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "snapshot format version {v} is not supported")
            }
            PersistError::Oversized(n) => write!(f, "length {n} exceeds its cap"),
            PersistError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            PersistError::BadSpec(e) => write!(f, "snapshot spec stamp failed to parse: {e}"),
            PersistError::SpecMismatch { expected, found } => {
                write!(f, "snapshot spec `{found}` does not match `{expected}`")
            }
            PersistError::ConfigMismatch { expected, found } => {
                write!(f, "snapshot config `{found}` does not match `{expected}`")
            }
            PersistError::NotPersistable => {
                write!(f, "family does not support state persistence")
            }
            PersistError::FaultInjected => write!(f, "injected crash: the process is dead"),
            PersistError::State(e) => write!(f, "snapshot state blob: {e}"),
            PersistError::Registry(e) => write!(f, "snapshot rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<StateError> for PersistError {
    fn from(e: StateError) -> Self {
        PersistError::State(e)
    }
}

impl From<RegistryError> for PersistError {
    fn from(e: RegistryError) -> Self {
        PersistError::Registry(e)
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

/// Slicing-by-8 lookup tables for the reflected CRC-32C (Castagnoli)
/// polynomial, built at compile time. `t[0]` is the classic byte-at-a-time
/// table; `t[j]` advances a byte through `j` further zero bytes, letting
/// the hot loop fold eight input bytes per iteration.
const fn crc_tables() -> [[u32; 256]; 8] {
    const POLY: u32 = 0x82F6_3B78;
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

const CRC32C_TABLE: [[u32; 256]; 8] = crc_tables();

/// One slicing-by-8 step over the `chunks_exact(8)` stream.
#[inline]
fn crc_slice8(t: &[[u32; 256]; 8], crc: u32, c: &[u8]) -> u32 {
    let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
    let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// CRC-32C (Castagnoli) — the one checksum of durable bytes: snapshot
/// files, WAL segment headers, and every WAL record frame. The log
/// checksums every dispatched cell on the ingest hot path, so the
/// polynomial is chosen for the x86 `crc32` instruction (SSE4.2, ~5× the
/// table loop on the machines this serves); elsewhere it falls back to a
/// slicing-by-8 table loop.
pub fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: guarded by the sse4.2 runtime check.
        return unsafe { crc32c_sse42(bytes) };
    }
    crc32c_sw(bytes)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = !0u32 as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(c.try_into().unwrap()));
    }
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

fn crc32c_sw(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        crc = crc_slice8(&CRC32C_TABLE, crc, c);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC32C_TABLE[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Frame `body` in the durable envelope: `magic | u16 version | u32 len |
/// body | CRC-32C` of everything before the checksum. The caller keeps
/// `body` within the cap its [`open`] will enforce.
pub(crate) fn seal(magic: [u8; 4], version: u16, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 2 + 4 + body.len() + 4);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    let crc = crc32c(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Open an envelope written by [`seal`], returning its body and the bytes
/// after it. Checks, in order and each with its own error: the magic
/// ([`PersistError::BadMagic`]), the version
/// ([`PersistError::UnsupportedVersion`]), the length against `cap`
/// ([`PersistError::Oversized`], before anything is sliced), that the
/// input holds the whole envelope (`State(Truncated)`), and the checksum
/// ([`PersistError::ChecksumMismatch`]).
pub(crate) fn open(
    magic: [u8; 4],
    version: u16,
    cap: usize,
    bytes: &[u8],
) -> Result<(&[u8], &[u8]), PersistError> {
    let mut r = StateReader::new(bytes);
    if r.bytes(4).map_err(|_| PersistError::BadMagic)? != magic {
        return Err(PersistError::BadMagic);
    }
    let found = r.u16()?;
    if found != version {
        return Err(PersistError::UnsupportedVersion(found));
    }
    let len = r.u32()? as usize;
    if len > cap {
        return Err(PersistError::Oversized(len as u64));
    }
    let body = r.bytes(len)?;
    let stored = r.u32()?;
    if crc32c(&bytes[..4 + 2 + 4 + len]) != stored {
        return Err(PersistError::ChecksumMismatch);
    }
    Ok((body, r.bytes(r.remaining())?))
}

/// Encode a sketch as a self-describing blob: magic, version, the spec
/// display string (seed included), and the family's state encoding.
/// Errs with [`PersistError::NotPersistable`] if the family doesn't
/// implement [`SketchState`](crate::state::SketchState).
pub fn sketch_to_bytes(spec: &SketchSpec, sk: &dyn DynSketch) -> Result<Vec<u8>, PersistError> {
    let state = sk.persist_state().ok_or(PersistError::NotPersistable)?;
    let mut body = StateWriter::new();
    state.save_state(&mut body);
    let body = body.into_bytes();
    if body.len() > MAX_SNAPSHOT {
        return Err(PersistError::Oversized(body.len() as u64));
    }
    let mut w = StateWriter::new();
    w.bytes(&SKETCH_MAGIC);
    w.u16(PERSIST_VERSION);
    w.str(&spec.to_string());
    w.u32(body.len() as u32);
    w.bytes(&body);
    Ok(w.into_bytes())
}

/// Decode a sketch blob: parse the stamped spec, rebuild the sketch fresh
/// through the registry (the type-checked construction path), and overwrite
/// its mutable state. Strict: truncation, trailing bytes, bad magic, and
/// unsupported versions are all typed errors.
pub fn sketch_from_bytes(
    registry: &Registry,
    bytes: &[u8],
) -> Result<(SketchSpec, Box<dyn DynSketch>), PersistError> {
    let mut r = StateReader::new(bytes);
    if r.bytes(4).map_err(|_| PersistError::BadMagic)? != SKETCH_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u16()?;
    if version != PERSIST_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let spec_str = r.str()?;
    let spec: SketchSpec = spec_str
        .parse()
        .map_err(|e| PersistError::BadSpec(format!("{e}")))?;
    let len = r.u32()? as usize;
    if len > MAX_SNAPSHOT {
        return Err(PersistError::Oversized(len as u64));
    }
    let body = r.bytes(len)?;
    r.finish()?;
    let mut sk = registry.build(&spec)?;
    let state = sk.persist_state_mut().ok_or(PersistError::NotPersistable)?;
    let mut br = StateReader::new(body);
    state.load_state(&mut br)?;
    br.finish()?;
    Ok((spec, sk))
}

/// One decoded snapshot: everything a service needs to continue as if it
/// had never stopped.
pub struct SnapshotRecord {
    /// The spec the sketches were built from, as the sketch blob stamps it.
    pub spec: SketchSpec,
    /// The service-config display string in effect when the cut was taken.
    pub config: String,
    /// The cut's accounting (merge timing is not persisted — a recovered
    /// report carries zeroed merge rounds).
    pub report: EpochReport,
    /// Position in the *offered* stream where the tail begins: replay the
    /// source from this offset to catch up.
    pub offered: u64,
    /// The merged epoch sketch, rebuilt and state-restored.
    pub sketch: Box<dyn DynSketch>,
}

impl fmt::Debug for SnapshotRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotRecord")
            .field("epoch", &self.report.epoch)
            .field("offered", &self.offered)
            .finish_non_exhaustive()
    }
}

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Encode one epoch snapshot as a complete file image: the payload (the
/// stamps and accounting, then the sketch blob) sealed in the CRC-32C
/// envelope.
pub fn encode_snapshot(
    spec: &SketchSpec,
    config: &str,
    report: &EpochReport,
    offered: u64,
    sketch: &dyn DynSketch,
) -> Result<Vec<u8>, PersistError> {
    let mut p = StateWriter::new();
    p.str(config);
    // The epoch stamp: where the stream cursor stood at the cut.
    p.u64(report.epoch as u64);
    p.u64(report.total_updates as u64);
    p.u64(offered);
    // The report's accounting (cumulative counters first — recovery
    // restores these so the continuation's totals stay monotone).
    p.u64(report.total_inserted);
    p.u64(report.total_deleted);
    p.u64(report.updates as u64);
    p.u64(report.inserted_mass);
    p.u64(report.deleted_mass);
    p.f64(report.alpha_configured);
    p.u64(report.queue_peak as u64);
    p.u64(duration_nanos(report.blocked));
    p.u64(duration_nanos(report.elapsed));
    p.u64(duration_nanos(report.merge_elapsed));
    p.u64(report.threads as u64);
    p.u64(report.space.counters);
    p.u64(report.space.counter_bits);
    p.u64(report.space.seed_bits);
    p.u64(report.space.overhead_bits);
    // The blob closes the payload, so it needs no length prefix.
    p.bytes(&sketch_to_bytes(spec, sketch)?);
    let payload = p.into_bytes();
    if payload.len() > MAX_SNAPSHOT {
        return Err(PersistError::Oversized(payload.len() as u64));
    }
    Ok(seal(SNAPSHOT_MAGIC, PERSIST_VERSION, &payload))
}

/// Decode a snapshot file image produced by [`encode_snapshot`]: open the
/// envelope (magic, version, length cap, CRC-32C), reject trailing bytes,
/// then rebuild the sketch through the registry.
pub fn decode_snapshot(registry: &Registry, bytes: &[u8]) -> Result<SnapshotRecord, PersistError> {
    let (payload, rest) = open(SNAPSHOT_MAGIC, PERSIST_VERSION, MAX_SNAPSHOT, bytes)?;
    if !rest.is_empty() {
        return Err(StateError::TrailingBytes(rest.len()).into());
    }
    let mut p = StateReader::new(payload);
    let config = p.str()?;
    let epoch = p.u64()? as usize;
    let total_updates = p.u64()? as usize;
    let offered = p.u64()?;
    let total_inserted = p.u64()?;
    let total_deleted = p.u64()?;
    let updates = p.u64()? as usize;
    let inserted_mass = p.u64()?;
    let deleted_mass = p.u64()?;
    let alpha_configured = p.f64()?;
    let queue_peak = p.u64()? as usize;
    let blocked = Duration::from_nanos(p.u64()?);
    let elapsed = Duration::from_nanos(p.u64()?);
    let merge_elapsed = Duration::from_nanos(p.u64()?);
    let threads = p.u64()? as usize;
    let space = crate::space::SpaceReport {
        counters: p.u64()?,
        counter_bits: p.u64()?,
        seed_bits: p.u64()?,
        overhead_bits: p.u64()?,
    };
    let (spec, sketch) = sketch_from_bytes(registry, p.bytes(p.remaining())?)?;
    let report = EpochReport {
        epoch,
        updates,
        total_updates,
        inserted_mass,
        deleted_mass,
        total_inserted,
        total_deleted,
        alpha_configured,
        total_dropped_updates: 0,
        queue_peak,
        blocked,
        space,
        elapsed,
        merge_elapsed,
        merge: crate::merge::MergeReport::default(),
        threads,
        // WAL accounting is live-only: a recovered report carries zeros.
        wal_records: 0,
        wal_bytes: 0,
    };
    Ok(SnapshotRecord {
        spec,
        config,
        report,
        offered,
        sketch,
    })
}

/// A directory of per-epoch snapshot files: `epoch-NNNNNNNN.bdsnap`.
///
/// Writes are atomic (temp file + rename), so a crash mid-write leaves at
/// worst a stray `.tmp` that [`SnapshotStore::load_latest`] never
/// considers; reads are crash-tolerant (invalid files are skipped,
/// newest-first). A store and its clones write through one durability
/// layer, which the service's log shares.
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    pub(crate) disk: Disk,
}

impl SnapshotStore {
    /// Open (creating if needed) a snapshot directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(SnapshotStore {
            dir,
            disk: Disk::default(),
        })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path for epoch `epoch`.
    pub fn path_for(&self, epoch: usize) -> PathBuf {
        self.dir.join(format!("epoch-{epoch:08}.bdsnap"))
    }

    /// Persist one epoch cut. The file appears atomically under its final
    /// name or not at all.
    pub fn save(
        &self,
        spec: &SketchSpec,
        config: &str,
        report: &EpochReport,
        offered: u64,
        sketch: &dyn DynSketch,
    ) -> Result<PathBuf, PersistError> {
        let bytes = encode_snapshot(spec, config, report, offered, sketch)?;
        let path = self.path_for(report.epoch);
        let tmp = self.dir.join(format!("epoch-{:08}.tmp", report.epoch));
        {
            let mut f = self.disk.create(&tmp)?;
            self.disk.write(&mut f, &bytes)?;
            self.disk.fsync(&f)?;
        }
        self.disk.rename(&tmp, &path)?;
        // The rename is only durable once the directory entry is — fsync
        // the directory so a power loss can't resurrect the old name.
        self.disk.sync_dir(&self.dir)?;
        Ok(path)
    }

    /// Prune old snapshots, keeping the newest `retain` epochs (`0`
    /// disables pruning). Meant to run right after a successful
    /// [`SnapshotStore::save`], so the newest file — the one just
    /// written — is valid and is never deleted. Unlinks are made durable
    /// with a directory fsync, and a file already gone counts as removed;
    /// returns the epochs removed.
    pub fn prune(&self, retain: usize) -> Result<Vec<usize>, PersistError> {
        if retain == 0 {
            return Ok(Vec::new());
        }
        let epochs = self.epochs()?;
        if epochs.len() <= retain {
            return Ok(Vec::new());
        }
        let cut = epochs.len() - retain;
        let doomed = epochs[..cut].to_vec();
        for &epoch in &doomed {
            self.disk.unlink(&self.path_for(epoch))?;
        }
        self.disk.sync_dir(&self.dir)?;
        Ok(doomed)
    }

    /// Every epoch with a snapshot file present, ascending.
    pub fn epochs(&self) -> Result<Vec<usize>, PersistError> {
        let files = numbered_files(&self.dir, "epoch-", ".bdsnap")?;
        Ok(files.into_iter().map(|(epoch, _)| epoch).collect())
    }

    /// Load and fully validate one epoch's snapshot.
    pub fn load_epoch(
        &self,
        registry: &Registry,
        epoch: usize,
    ) -> Result<SnapshotRecord, PersistError> {
        let bytes = fs::read(self.path_for(epoch))?;
        decode_snapshot(registry, &bytes)
    }

    /// The newest snapshot that decodes and checksums cleanly, or `None`
    /// for an empty (or wholly-invalid) store. Invalid files — a torn
    /// final write, a bit-flipped payload — are skipped, falling back to
    /// the previous epoch: this is the crash-tolerance contract.
    ///
    /// A file of another format version is
    /// [`PersistError::UnsupportedVersion`], and one this process cannot
    /// read is [`PersistError::Io`]; neither is skipped. The first was
    /// written by another build, and falling back past either would
    /// resume behind the log's truncation horizon and let later cuts
    /// overwrite the file. A crash cannot leave such a file behind,
    /// because [`SnapshotStore::save`] only renames a synced file into
    /// place.
    pub fn load_latest(&self, registry: &Registry) -> Result<Option<SnapshotRecord>, PersistError> {
        for epoch in self.epochs()?.into_iter().rev() {
            match self.load_epoch(registry, epoch) {
                Ok(rec) => return Ok(Some(rec)),
                Err(e @ (PersistError::UnsupportedVersion(_) | PersistError::Io(_))) => {
                    return Err(e)
                }
                Err(_) => {}
            }
        }
        Ok(None)
    }
}

/// Every `{prefix}N{suffix}` file in `dir` with its number `N`, ascending
/// by `N` — the one directory scan behind snapshot epochs and WAL
/// segments. Names that don't match are ignored.
pub(crate) fn numbered_files<N: std::str::FromStr + Ord>(
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> Result<Vec<(N, PathBuf)>, PersistError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let number = name.to_str().and_then(|n| {
            n.strip_prefix(prefix)?
                .strip_suffix(suffix)?
                .parse::<N>()
                .ok()
        });
        if let Some(n) = number {
            out.push((n, entry.path()));
        }
    }
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::register_reference;
    use crate::spec::SketchFamily;

    fn reg() -> Registry {
        let mut r = Registry::new();
        register_reference(&mut r);
        r
    }

    fn built() -> (SketchSpec, Box<dyn DynSketch>) {
        let r = reg();
        let spec = SketchSpec::new(SketchFamily::Exact).with_n(64).with_seed(7);
        let mut sk = r.build(&spec).unwrap();
        for t in 0..200u64 {
            sk.update(t % 13, if t % 3 == 0 { -1 } else { 2 });
        }
        (spec, sk)
    }

    #[test]
    fn crc32c_known_vector_and_fallback_equivalence() {
        // The canonical check value for CRC-32C/Castagnoli.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // The dispatched (possibly hardware) path must agree with the
        // table fallback on every length mod 8 and on longer runs.
        let data: Vec<u8> = (0..1021u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 1021] {
            assert_eq!(crc32c(&data[..len]), crc32c_sw(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn sketch_blob_roundtrips_bit_for_bit() {
        let (spec, sk) = built();
        let bytes = sketch_to_bytes(&spec, sk.as_ref()).unwrap();
        let (spec2, sk2) = sketch_from_bytes(&reg(), &bytes).unwrap();
        assert_eq!(spec, spec2);
        let (p, q) = (sk.as_point().unwrap(), sk2.as_point().unwrap());
        for i in 0..64 {
            assert_eq!(p.point(i).to_bits(), q.point(i).to_bits());
        }
        // Deterministic: re-encoding the decoded sketch gives the same bytes.
        assert_eq!(bytes, sketch_to_bytes(&spec2, sk2.as_ref()).unwrap());
    }

    #[test]
    fn sketch_blob_rejects_malformed_inputs() {
        let (spec, sk) = built();
        let r = reg();
        let bytes = sketch_to_bytes(&spec, sk.as_ref()).unwrap();
        let err = |b: &[u8]| sketch_from_bytes(&r, b).map(|_| ()).unwrap_err();

        assert_eq!(err(&bytes[..3]), PersistError::BadMagic);
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(err(&wrong), PersistError::BadMagic);
        let mut newer = bytes.clone();
        newer[4] = 0xFF;
        assert!(matches!(err(&newer), PersistError::UnsupportedVersion(_)));
        assert_eq!(
            err(&bytes[..bytes.len() - 1]),
            PersistError::State(StateError::Truncated)
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            err(&trailing),
            PersistError::State(StateError::TrailingBytes(1))
        );
    }

    #[test]
    fn snapshot_file_roundtrips_and_checksums() {
        let (spec, sk) = built();
        let r = reg();
        let report = EpochReport {
            epoch: 3,
            updates: 100,
            total_updates: 300,
            inserted_mass: 120,
            deleted_mass: 30,
            total_inserted: 400,
            total_deleted: 90,
            alpha_configured: 4.0,
            total_dropped_updates: 0,
            queue_peak: 5,
            blocked: Duration::from_nanos(777),
            space: sk.space(),
            elapsed: Duration::from_micros(10),
            merge_elapsed: Duration::ZERO,
            merge: Default::default(),
            threads: 2,
            wal_records: 7,
            wal_bytes: 512,
        };
        let bytes = encode_snapshot(&spec, "service:epoch=100", &report, 300, sk.as_ref()).unwrap();
        let rec = decode_snapshot(&r, &bytes).unwrap();
        assert_eq!(rec.spec, spec);
        assert_eq!(rec.config, "service:epoch=100");
        assert_eq!(rec.offered, 300);
        assert_eq!(rec.report.epoch, 3);
        assert_eq!(rec.report.total_updates, 300);
        assert_eq!(rec.report.total_inserted, 400);
        assert_eq!(rec.report.blocked, Duration::from_nanos(777));
        let (p, q) = (sk.as_point().unwrap(), rec.sketch.as_point().unwrap());
        for i in 0..64 {
            assert_eq!(p.point(i).to_bits(), q.point(i).to_bits());
        }

        // Any single bit flip in the body is caught by the CRC.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert_eq!(
            decode_snapshot(&r, &flipped).unwrap_err(),
            PersistError::ChecksumMismatch
        );
        // Truncation never panics.
        for cut in [0, 3, 5, 9, bytes.len() - 1] {
            assert!(decode_snapshot(&r, &bytes[..cut]).is_err());
        }
        // An oversized length header is rejected before allocation.
        let mut huge = bytes.clone();
        huge[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_snapshot(&r, &huge).unwrap_err(),
            PersistError::Oversized(u32::MAX as u64)
        );
    }

    #[test]
    fn store_saves_scans_and_falls_back() {
        let (spec, sk) = built();
        let r = reg();
        let dir = std::env::temp_dir().join(format!("bd-persist-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.load_latest(&r).unwrap().is_none());

        let mut report = EpochReport {
            epoch: 1,
            updates: 10,
            total_updates: 10,
            inserted_mass: 10,
            deleted_mass: 0,
            total_inserted: 10,
            total_deleted: 0,
            alpha_configured: 2.0,
            total_dropped_updates: 0,
            queue_peak: 0,
            blocked: Duration::ZERO,
            space: sk.space(),
            elapsed: Duration::ZERO,
            merge_elapsed: Duration::ZERO,
            merge: Default::default(),
            threads: 1,
            wal_records: 0,
            wal_bytes: 0,
        };
        store.save(&spec, "cfg", &report, 10, sk.as_ref()).unwrap();
        report.epoch = 2;
        report.total_updates = 20;
        let p2 = store.save(&spec, "cfg", &report, 20, sk.as_ref()).unwrap();
        assert_eq!(store.epochs().unwrap(), vec![1, 2]);
        assert_eq!(store.load_latest(&r).unwrap().unwrap().report.epoch, 2);

        // Corrupt the newest file: load_latest falls back to epoch 1.
        let mut raw = fs::read(&p2).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        fs::write(&p2, &raw).unwrap();
        let rec = store.load_latest(&r).unwrap().unwrap();
        assert_eq!(rec.report.epoch, 1);
        assert_eq!(rec.offered, 10);

        let _ = fs::remove_dir_all(&dir);
    }
}
