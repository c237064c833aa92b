//! Write-ahead logging between epoch cuts: durable ingest for
//! non-replayable sources.
//!
//! Snapshot persistence ([`crate::persist`]) makes *epoch cuts* durable,
//! but a crash between cuts still loses the current epoch's tail —
//! recoverable only when the caller can re-offer the stream, which live
//! [`run_channel`](crate::service::StreamService::run_channel) sources
//! cannot do. This module closes that gap: a **segmented append-only
//! log** that a [`StreamService`](crate::service::StreamService) writes
//! one record into per dispatched batch, *after* dispatch, and truncates
//! at each persisted epoch cut. Recovery then becomes snapshot + WAL tail
//! replay — no source cooperation required. The bounded-deletion model
//! keeps replay well-behaved: the α-cap bounds how much net mass a logged
//! tail can cancel, so a replayed tail can never collapse the sketch's
//! regime.
//!
//! ## On-disk format
//!
//! One segment per epoch-in-progress, `wal-NNNNNNNN.bdwal`, named by a
//! **monotone sequence number** (not the epoch index — recovery opens a
//! fresh segment while older ones still hold the authoritative tail):
//!
//! * **Segment header** — the durable envelope snapshot files use too
//!   (magic `BDWL`, format version [`WAL_VERSION`], a length-prefixed body,
//!   and a CRC-32C over everything before it; see [`crate::persist`]).
//!   The body stamps the spec (seed included), the service *geometry*, the
//!   sequence number, and the offered-stream position the segment starts
//!   at.
//! * **Records** — one length-prefixed, CRC-32C-framed record per dispatched
//!   grid cell: the offered position the cell starts at, then the cell's
//!   updates verbatim ([`WalCell::Batch`]). The format also has a record
//!   for a shed cell's count and mass ([`WalCell::Shed`]); the codec still
//!   reads and writes it, but the service never writes one, and replay
//!   treats one as the end of the replayable chain.
//!
//! A record's checksum covers its body only, not its length prefix, so
//! records are framed by hand rather than by the envelope: the layout is
//! fixed at `WAL_VERSION` 1. Records self-stamp their offered position, so
//! replay is total under any crash: [`read_segment`] consumes frames until
//! the first torn or corrupt one and reports the damage as a typed
//! [`WalTruncation`] — never a panic, never a partial record handed to
//! the caller.
//!
//! ## Fsync contract
//!
//! The `wal=` knob in the [`ServiceConfig`](crate::service::ServiceConfig)
//! grammar picks the durability point, and only that. Under every policy
//! the service's dispatcher owns the one [`WalWriter`] and encodes,
//! checksums, and `write(2)`s each record itself, right after dispatching
//! the cell; a failed append is therefore the error of the `ingest` call
//! that dispatched the cell, and `Ok` from that call means every cell it
//! dispatched was written to the log.
//!
//! * [`WalPolicy::Off`] — no log; a crash loses the tail since the last
//!   persisted cut (the PR 9 contract).
//! * [`WalPolicy::Batch`] — fsync after every appended record; a crash
//!   loses at most the one cell being appended.
//! * [`WalPolicy::Epoch`] — records are written (so an OS that stays up
//!   keeps them) but fsynced only at segment roll, which the dispatcher
//!   waits for at each cut; a power loss can lose the un-synced tail of
//!   the current epoch, while a process crash loses only what it would
//!   under `batch`.
//!
//! Every durability point fsyncs the file *and the parent directory*, so
//! creates/unlinks themselves survive power loss. Under `batch` that is
//! segment creation, every append, roll, and truncation; under `epoch`
//! the creation fsyncs are deferred to the next seal (a crash in the
//! window leaves an unreadable final segment — the "crash during
//! creation" case recovery deletes), keeping the per-cut cost at one
//! file sync plus one directory sync (`DESIGN.md §14` states the full
//! durability matrix and the op sequence of each step).
//!
//! The writer performs each of these steps — create, write, `fdatasync`,
//! `fsync`, directory sync, unlink, and [`truncate_segment`]'s `set_len` —
//! through the crate's durability layer (`disk.rs`), which shares the
//! snapshot store's crash switch ([`crate::fault`]) when the service opens
//! the log.

use crate::disk::Disk;
use crate::persist::{crc32c, numbered_files, open, seal, PersistError};
use crate::spec::SpecError;
use crate::state::{StateReader, StateWriter};
use crate::update::Update;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

/// Magic tag opening a WAL segment.
pub const WAL_MAGIC: [u8; 4] = *b"BDWL";

/// WAL format version. Decoders reject anything else; bumping this is the
/// contract for any layout change.
pub const WAL_VERSION: u16 = 1;

/// Hard cap on one record frame's body. A cell of `chunk` updates encodes
/// to a `13 + 16·chunk`-byte body, so cells of up to `2^20 − 1` updates
/// fit; [`WalWriter::append`] refuses a larger record rather than write
/// one the reader would reject, and the reader rejects a corrupt length
/// header before it can demand an absurd allocation.
pub const MAX_WAL_RECORD: usize = 1 << 24;

/// When the log reaches disk — the `wal=` value in the service config
/// grammar.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WalPolicy {
    /// No write-ahead log (the default): a crash loses the tail since the
    /// last persisted epoch cut.
    #[default]
    Off,
    /// Fsync after every appended record: a crash loses at most the one
    /// cell being appended. The strongest (and slowest) setting.
    Batch,
    /// Write records eagerly but fsync only at segment roll (each epoch
    /// cut): a process crash loses only what it would under `Batch`, a
    /// power loss can lose the un-synced tail of the current epoch.
    Epoch,
}

impl fmt::Display for WalPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WalPolicy::Off => "off",
            WalPolicy::Batch => "batch",
            WalPolicy::Epoch => "epoch",
        })
    }
}

impl FromStr for WalPolicy {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        match s.trim() {
            "off" => Ok(WalPolicy::Off),
            "batch" => Ok(WalPolicy::Batch),
            "epoch" => Ok(WalPolicy::Epoch),
            other => Err(SpecError::BadField(
                "wal",
                format!("`{other}` is not `off`, `batch`, or `epoch`"),
            )),
        }
    }
}

/// What one logged grid cell did to the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalCell {
    /// A dispatched batch, updates verbatim — replay re-dispatches it
    /// through the same chunk grid. Shared (`Arc`) with the worker the
    /// cell was dispatched to, so logging never copies the updates.
    Batch(Arc<Vec<Update>>),
    /// A shed cell's count and mass: record kind 2 of `WAL_VERSION` 1,
    /// which the codec still reads and writes. The service never writes
    /// one, and replay treats one as the end of the replayable chain. A
    /// shim for perfbench's `WalCell::Shed { .. }` match arms.
    Shed {
        /// Updates in the shed cell.
        count: u32,
        /// Mass `Σ|Δ|` of the shed cell.
        mass: u64,
    },
}

/// One WAL record: a grid cell stamped with the offered-stream position
/// it starts at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Offered-stream position *before* this cell.
    pub offered: u64,
    /// The cell itself.
    pub cell: WalCell,
}

impl WalRecord {
    /// Updates this record advances the offered cursor by.
    pub fn len(&self) -> usize {
        match &self.cell {
            WalCell::Batch(updates) => updates.len(),
            WalCell::Shed { count, .. } => *count as usize,
        }
    }

    /// Whether the record covers zero updates (never written by the
    /// service; tolerated by the reader).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The offered position after this cell.
    pub fn end_offered(&self) -> u64 {
        self.offered + self.len() as u64
    }
}

/// Why a segment's record stream ended early. This is the *total* face of
/// a torn or corrupt tail: the reader hands back every intact record and
/// one of these — never a panic, never a partial record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalDamage {
    /// The file ends inside a frame (torn final write).
    TornFrame,
    /// A frame's length header is zero or exceeds [`MAX_WAL_RECORD`]
    /// (corruption that would otherwise demand an absurd allocation).
    BadLength,
    /// A frame's CRC-32C doesn't match its body (bit flips, torn writes
    /// that happen to leave the length intact).
    Checksum,
    /// The frame's body decoded to no valid record.
    Malformed,
}

impl fmt::Display for WalDamage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WalDamage::TornFrame => "torn frame",
            WalDamage::BadLength => "bad frame length",
            WalDamage::Checksum => "frame checksum mismatch",
            WalDamage::Malformed => "malformed record body",
        })
    }
}

/// A typed report of where (and why) a segment's record stream stopped
/// being valid. `valid_len` is the byte length of the intact prefix —
/// [`truncate_segment`] cuts the file back to exactly that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalTruncation {
    /// Byte offset of the first bad frame == length of the valid prefix.
    pub valid_len: u64,
    /// What was wrong with the first bad frame.
    pub damage: WalDamage,
}

impl fmt::Display for WalTruncation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wal tail truncated at byte {}: {}",
            self.valid_len, self.damage
        )
    }
}

/// A segment header, decoded and stamp-ready.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentHeader {
    /// The sketch spec display string (seed included) the service ran.
    pub spec: String,
    /// The service *geometry* stamp
    /// ([`ServiceConfig::geometry_string`](crate::service::ServiceConfig::geometry_string)) —
    /// dispatch shape only, so `wal=`/`retain=` may change across
    /// restarts.
    pub config: String,
    /// The segment's monotone sequence number.
    pub seq: u64,
    /// Offered-stream position the segment's first record starts at.
    pub start_offered: u64,
}

/// Everything [`read_segment`] learned about one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// The decoded header.
    pub header: SegmentHeader,
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// `Some` iff the record stream ended at a torn/corrupt frame rather
    /// than a clean end-of-file.
    pub truncation: Option<WalTruncation>,
}

/// A sealed (no longer written) segment the writer still owns: deletable
/// once a persisted snapshot covers `end_offered`.
#[derive(Clone, Debug)]
pub struct SealedSegment {
    /// The segment's sequence number.
    pub seq: u64,
    /// Offered position after the segment's last record.
    pub end_offered: u64,
    /// The segment file.
    pub path: PathBuf,
}

/// The file name for segment `seq`.
pub fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:08}.bdwal")
}

/// Every WAL segment in `dir`, ascending by sequence number.
pub fn wal_segments(dir: impl AsRef<Path>) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    numbered_files(dir.as_ref(), "wal-", ".bdwal")
}

fn encode_header(spec: &str, config: &str, seq: u64, start_offered: u64) -> Vec<u8> {
    let mut body = StateWriter::new();
    body.str(spec);
    body.str(config);
    body.u64(seq);
    body.u64(start_offered);
    seal(WAL_MAGIC, WAL_VERSION, &body.into_bytes())
}

/// Encode one record as a framed byte string: `u32` body length, body,
/// CRC-32C over the body.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(&mut out, rec);
    out
}

/// [`encode_record`] into a caller-owned buffer (cleared first). The
/// writer reuses one buffer across appends: a fresh ~64 KiB `Vec` per
/// dispatched cell is allocator traffic and fresh-page faults on the
/// hot path, for bytes that are discarded as soon as they hit the file.
pub fn encode_record_into(out: &mut Vec<u8>, rec: &WalRecord) {
    out.clear();
    out.extend_from_slice(&[0u8; 4]); // body length, backpatched below
    out.extend_from_slice(&rec.offered.to_le_bytes());
    match &rec.cell {
        WalCell::Batch(updates) => {
            out.push(1);
            out.extend_from_slice(&(updates.len() as u32).to_le_bytes());
            #[cfg(target_endian = "little")]
            {
                // `Update` is `#[repr(C)] { item: u64, delta: i64 }`, so on
                // a little-endian target the slice's in-memory bytes are
                // exactly the wire encoding — one memcpy instead of two
                // extend calls per update (this runs per dispatched cell
                // under `wal=batch|epoch`).
                const _: () = assert!(std::mem::size_of::<Update>() == 16);
                const _: () = assert!(std::mem::align_of::<Update>() == 8);
                let raw = unsafe {
                    std::slice::from_raw_parts(updates.as_ptr().cast::<u8>(), updates.len() * 16)
                };
                out.extend_from_slice(raw);
            }
            #[cfg(target_endian = "big")]
            for u in updates {
                out.extend_from_slice(&u.item.to_le_bytes());
                out.extend_from_slice(&u.delta.to_le_bytes());
            }
        }
        WalCell::Shed { count, mass } => {
            out.push(2);
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&mass.to_le_bytes());
        }
    }
    let body_len = out.len() - 4;
    out[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    let crc = crc32c(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

fn decode_record_body(body: &[u8]) -> Result<WalRecord, ()> {
    let mut r = StateReader::new(body);
    let offered = r.u64().map_err(|_| ())?;
    let kind = r.u8().map_err(|_| ())?;
    let cell = match kind {
        1 => {
            let count = r.u32().map_err(|_| ())? as usize;
            if count.saturating_mul(16) > MAX_WAL_RECORD {
                return Err(());
            }
            let mut updates = Vec::with_capacity(count);
            for _ in 0..count {
                let item = r.u64().map_err(|_| ())?;
                let delta = r.i64().map_err(|_| ())?;
                updates.push(Update { item, delta });
            }
            WalCell::Batch(Arc::new(updates))
        }
        2 => WalCell::Shed {
            count: r.u32().map_err(|_| ())?,
            mass: r.u64().map_err(|_| ())?,
        },
        _ => return Err(()),
    };
    r.finish().map_err(|_| ())?;
    Ok(WalRecord { offered, cell })
}

/// Decode the record frame that starts at byte `pos`: the record and the
/// offset just past its frame, or what is wrong with the frame.
fn record_at(bytes: &[u8], pos: usize) -> Result<(WalRecord, usize), WalDamage> {
    let len_bytes = bytes.get(pos..pos + 4).ok_or(WalDamage::TornFrame)?;
    let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
    if len == 0 || len > MAX_WAL_RECORD {
        return Err(WalDamage::BadLength);
    }
    let end = pos + 8 + len;
    let (body, crc) = bytes
        .get(pos + 4..end)
        .ok_or(WalDamage::TornFrame)?
        .split_at(len);
    if crc32c(body) != u32::from_le_bytes(crc.try_into().unwrap()) {
        return Err(WalDamage::Checksum);
    }
    let rec = decode_record_body(body).map_err(|()| WalDamage::Malformed)?;
    Ok((rec, end))
}

/// Read and validate one segment: strict on the header (a segment whose
/// header doesn't open is unusable — [`PersistError::BadMagic`] and
/// friends), **total on the records** — the scan stops at the first torn
/// or corrupt frame and reports it as a typed [`WalTruncation`] instead
/// of an error. A clean empty segment (header only) is valid.
pub fn read_segment(path: impl AsRef<Path>) -> Result<SegmentScan, PersistError> {
    let bytes = fs::read(path.as_ref())?;
    let (body, records_bytes) = open(WAL_MAGIC, WAL_VERSION, MAX_WAL_RECORD, &bytes)?;
    let mut hr = StateReader::new(body);
    let header = SegmentHeader {
        spec: hr.str()?,
        config: hr.str()?,
        seq: hr.u64()?,
        start_offered: hr.u64()?,
    };
    hr.finish()?;

    let mut records = Vec::new();
    let mut pos = bytes.len() - records_bytes.len();
    let mut truncation = None;
    while pos < bytes.len() {
        match record_at(&bytes, pos) {
            Ok((rec, next)) => {
                records.push(rec);
                pos = next;
            }
            Err(damage) => {
                truncation = Some(WalTruncation {
                    valid_len: pos as u64,
                    damage,
                });
                break;
            }
        }
    }
    Ok(SegmentScan {
        header,
        records,
        truncation,
    })
}

/// Physically repair a segment with a damaged tail: cut the file back to
/// its valid prefix (as reported by [`read_segment`]) and fsync the file
/// and its directory. Idempotent.
pub fn truncate_segment(path: impl AsRef<Path>, valid_len: u64) -> Result<(), PersistError> {
    repair_segment(&Disk::default(), path.as_ref(), valid_len)
}

/// [`truncate_segment`] through `disk`.
pub(crate) fn repair_segment(disk: &Disk, path: &Path, valid_len: u64) -> Result<(), PersistError> {
    let file = disk.truncate(path, valid_len)?;
    disk.fsync(&file)?;
    if let Some(dir) = path.parent() {
        disk.sync_dir(dir)?;
    }
    Ok(())
}

/// Create segment `seq` in `dir` and write its `header`. With `durable`,
/// the header and the directory entry naming the file are fsynced before
/// returning — required under [`WalPolicy::Batch`], whose first append
/// may be acknowledged immediately after. Under [`WalPolicy::Epoch`]
/// creation is *not* synced: the next seal ([`WalWriter::roll`]) covers
/// both, and a crash in the window leaves at worst an unreadable final
/// segment — exactly the "crash during creation" case recovery already
/// deletes.
fn create_segment(
    disk: &Disk,
    dir: &Path,
    seq: u64,
    header: &[u8],
    durable: bool,
) -> Result<(fs::File, PathBuf), PersistError> {
    let path = dir.join(segment_file_name(seq));
    let mut file = disk.create(&path)?;
    disk.write(&mut file, header)?;
    if durable {
        disk.fsync(&file)?;
        disk.sync_dir(dir)?;
    }
    Ok((file, path))
}

/// The append side of the log: one active segment, rolled at each epoch
/// cut, sealed segments deleted once a persisted snapshot covers them.
///
/// A writer only exists for [`WalPolicy::Batch`] / [`WalPolicy::Epoch`]
/// (the service never constructs one under `off`), and lives in the same
/// directory as the [`SnapshotStore`](crate::persist::SnapshotStore).
pub struct WalWriter {
    disk: Disk,
    dir: PathBuf,
    spec: String,
    config: String,
    policy: WalPolicy,
    seq: u64,
    end_offered: u64,
    file: fs::File,
    path: PathBuf,
    sealed: Vec<SealedSegment>,
    bytes: u64,
    scratch: Vec<u8>,
}

impl fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalWriter")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .field("seq", &self.seq)
            .field("end_offered", &self.end_offered)
            .finish_non_exhaustive()
    }
}

impl WalWriter {
    /// Open a writer in `dir`, creating segment `seq` starting at offered
    /// position `start_offered`. Under [`WalPolicy::Batch`] the segment
    /// file (and the directory entry for it) are durable before this
    /// returns.
    pub fn open(
        dir: impl AsRef<Path>,
        spec: &str,
        config: &str,
        policy: WalPolicy,
        seq: u64,
        start_offered: u64,
    ) -> Result<Self, PersistError> {
        let disk = Disk::default();
        Self::open_on(disk, dir.as_ref(), spec, config, policy, seq, start_offered)
    }

    /// [`WalWriter::open`] writing through `disk`.
    pub(crate) fn open_on(
        disk: Disk,
        dir: &Path,
        spec: &str,
        config: &str,
        policy: WalPolicy,
        seq: u64,
        start_offered: u64,
    ) -> Result<Self, PersistError> {
        fs::create_dir_all(dir)?;
        let header = encode_header(spec, config, seq, start_offered);
        let (file, path) = create_segment(&disk, dir, seq, &header, policy == WalPolicy::Batch)?;
        Ok(WalWriter {
            disk,
            dir: dir.to_path_buf(),
            spec: spec.to_string(),
            config: config.to_string(),
            policy,
            seq,
            end_offered: start_offered,
            file,
            path,
            sealed: Vec::new(),
            bytes: 0,
            scratch: Vec::new(),
        })
    }

    fn open_segment(&mut self, seq: u64, start_offered: u64) -> Result<(), PersistError> {
        let header = encode_header(&self.spec, &self.config, seq, start_offered);
        let durable = self.policy == WalPolicy::Batch;
        let (file, path) = create_segment(&self.disk, &self.dir, seq, &header, durable)?;
        self.seq = seq;
        self.end_offered = start_offered;
        self.file = file;
        self.path = path;
        Ok(())
    }

    /// Frame bytes appended over this writer's lifetime.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Register segments that already existed before this writer opened
    /// (recovery): they are deletable by [`WalWriter::truncate_through`]
    /// once a persisted snapshot covers their `end_offered`.
    pub fn prime_sealed(&mut self, sealed: Vec<SealedSegment>) {
        self.sealed.extend(sealed);
    }

    /// Append one record. Under [`WalPolicy::Batch`] the record is
    /// durable when this returns; under [`WalPolicy::Epoch`] it is
    /// written but synced only at the next [`WalWriter::roll`]. Returns
    /// the frame bytes appended. A record whose body exceeds
    /// [`MAX_WAL_RECORD`] is [`PersistError::Oversized`], and nothing is
    /// written: [`read_segment`] would reject its frame.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64, PersistError> {
        encode_record_into(&mut self.scratch, rec);
        let body = self.scratch.len() - 8; // less the length and the CRC
        if body > MAX_WAL_RECORD {
            return Err(PersistError::Oversized(body as u64));
        }
        self.disk.write(&mut self.file, &self.scratch)?;
        if self.policy == WalPolicy::Batch {
            self.disk.fdatasync(&self.file)?;
        }
        self.end_offered = rec.end_offered();
        let frame_len = self.scratch.len() as u64;
        self.bytes += frame_len;
        Ok(frame_len)
    }

    /// Roll the log at an epoch cut: sync and seal the active segment
    /// (its records are now covered by the cut whose snapshot save is in
    /// flight) and open the next one starting at `offered`. Under
    /// [`WalPolicy::Epoch`] the seal also fsyncs the directory — segment
    /// creation deferred the entry's durability to exactly this point.
    pub fn roll(&mut self, offered: u64) -> Result<(), PersistError> {
        // `fdatasync`, not `fsync`: replay needs the frames and the file
        // size (fdatasync flushes both), not timestamps — skipping the
        // pure-metadata journal commit at every seal.
        self.disk.fdatasync(&self.file)?;
        if self.policy == WalPolicy::Epoch {
            self.disk.sync_dir(&self.dir)?;
        }
        self.sealed.push(SealedSegment {
            seq: self.seq,
            end_offered: self.end_offered,
            path: self.path.clone(),
        });
        self.open_segment(self.seq + 1, offered)
    }

    /// Delete every sealed segment whose records are entirely covered by
    /// a durable snapshot at offered position `offered`, then fsync the
    /// directory so the unlinks survive power loss. The active segment is
    /// never deleted, and a segment already gone counts as deleted.
    pub fn truncate_through(&mut self, offered: u64) -> Result<usize, PersistError> {
        let mut deleted = 0;
        for seg in self.sealed.iter().filter(|seg| seg.end_offered <= offered) {
            self.disk.unlink(&seg.path)?;
            deleted += 1;
        }
        self.sealed.retain(|seg| seg.end_offered > offered);
        if deleted > 0 {
            self.disk.sync_dir(&self.dir)?;
        }
        Ok(deleted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bd-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn batch(offered: u64, n: u64) -> WalRecord {
        WalRecord {
            offered,
            cell: WalCell::Batch(Arc::new(
                (0..n)
                    .map(|i| Update::new(i, if i % 2 == 0 { 3 } else { -1 }))
                    .collect(),
            )),
        }
    }

    #[test]
    fn policy_parses_and_displays() {
        for (s, p) in [
            ("off", WalPolicy::Off),
            ("batch", WalPolicy::Batch),
            ("epoch", WalPolicy::Epoch),
        ] {
            assert_eq!(s.parse::<WalPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), s);
        }
        assert!("sometimes".parse::<WalPolicy>().is_err());
    }

    #[test]
    fn record_frames_roundtrip() {
        for rec in [
            batch(0, 5),
            batch(12345, 1),
            WalRecord {
                offered: 99,
                cell: WalCell::Shed {
                    count: 64,
                    mass: 1234,
                },
            },
        ] {
            let frame = encode_record(&rec);
            let body = &frame[4..frame.len() - 4];
            assert_eq!(decode_record_body(body).unwrap(), rec);
        }
    }

    #[test]
    fn writer_appends_and_reader_scans() {
        let dir = tmp("scan");
        let mut w = WalWriter::open(&dir, "spec", "cfg", WalPolicy::Batch, 0, 0).unwrap();
        let r1 = batch(0, 4);
        let r2 = WalRecord {
            offered: 4,
            cell: WalCell::Shed { count: 4, mass: 40 },
        };
        let r3 = batch(8, 4);
        for r in [&r1, &r2, &r3] {
            w.append(r).unwrap();
        }
        let scan = read_segment(dir.join(segment_file_name(0))).unwrap();
        assert_eq!(scan.header.spec, "spec");
        assert_eq!(scan.header.config, "cfg");
        assert_eq!(scan.header.seq, 0);
        assert_eq!(scan.header.start_offered, 0);
        assert_eq!(scan.records, vec![r1, r2, r3]);
        assert!(scan.truncation.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn roll_seals_and_truncate_deletes_covered_segments() {
        let dir = tmp("roll");
        let mut w = WalWriter::open(&dir, "s", "c", WalPolicy::Epoch, 0, 0).unwrap();
        w.append(&batch(0, 10)).unwrap();
        w.roll(10).unwrap();
        w.append(&batch(10, 10)).unwrap();
        w.roll(20).unwrap();
        assert_eq!(wal_segments(&dir).unwrap().len(), 3);
        // A snapshot at offered=10 covers only segment 0.
        assert_eq!(w.truncate_through(10).unwrap(), 1);
        let segs = wal_segments(&dir).unwrap();
        assert_eq!(segs.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![1, 2]);
        // Idempotent; a later snapshot covers segment 1 too.
        assert_eq!(w.truncate_through(10).unwrap(), 0);
        assert_eq!(w.truncate_through(20).unwrap(), 1);
        assert_eq!(wal_segments(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_corrupt_tails_are_typed_never_panic() {
        let dir = tmp("torn");
        let mut w = WalWriter::open(&dir, "s", "c", WalPolicy::Batch, 0, 0).unwrap();
        let r1 = batch(0, 6);
        let r2 = batch(6, 6);
        w.append(&r1).unwrap();
        w.append(&r2).unwrap();
        drop(w);
        let path = dir.join(segment_file_name(0));
        let clean = fs::read(&path).unwrap();
        let frame2 = encode_record(&r2);
        let first_end = clean.len() - frame2.len();

        // Torn mid-frame: every truncation point inside the final frame.
        for cut in [1, 3, 5, frame2.len() - 1] {
            fs::write(&path, &clean[..first_end + cut]).unwrap();
            let scan = read_segment(&path).unwrap();
            assert_eq!(scan.records, vec![r1.clone()]);
            let t = scan.truncation.unwrap();
            assert_eq!(t.valid_len, first_end as u64);
            assert_eq!(t.damage, WalDamage::TornFrame);
            // Repair restores a cleanly-scanning file.
            truncate_segment(&path, t.valid_len).unwrap();
            let repaired = read_segment(&path).unwrap();
            assert_eq!(repaired.records, vec![r1.clone()]);
            assert!(repaired.truncation.is_none());
            fs::write(&path, &clean).unwrap();
        }

        // A bit flip in the final frame's body: checksum damage.
        let mut flipped = clean.clone();
        let mid = first_end + frame2.len() / 2;
        flipped[mid] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.records, vec![r1.clone()]);
        assert_eq!(scan.truncation.unwrap().damage, WalDamage::Checksum);

        // An absurd length header: rejected before allocation.
        let mut huge = clean[..first_end].to_vec();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&[0; 16]);
        fs::write(&path, &huge).unwrap();
        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.truncation.unwrap().damage, WalDamage::BadLength);

        // Header damage is a hard error (the segment is unusable).
        fs::write(&path, &clean[..8]).unwrap();
        assert!(read_segment(&path).is_err());
        let mut bad_magic = clean.clone();
        bad_magic[0] = b'X';
        fs::write(&path, &bad_magic).unwrap();
        assert_eq!(read_segment(&path).unwrap_err(), PersistError::BadMagic);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The writer refuses a record its own reader would reject: a cell of
    /// 2^20 updates has a body over [`MAX_WAL_RECORD`], so `append` fails
    /// before writing and the segment still scans clean; a cell of one
    /// update fewer appends and reads back.
    #[test]
    fn append_refuses_records_the_reader_would_reject() {
        let dir = tmp("oversized");
        let mut w = WalWriter::open(&dir, "s", "c", WalPolicy::Epoch, 0, 0).unwrap();
        let path = dir.join(segment_file_name(0));
        let header_len = fs::metadata(&path).unwrap().len();
        assert_eq!(
            w.append(&batch(0, 1 << 20)),
            Err(PersistError::Oversized(13 + (16 << 20)))
        );
        assert_eq!(fs::metadata(&path).unwrap().len(), header_len);
        let scan = read_segment(&path).unwrap();
        assert!(scan.records.is_empty() && scan.truncation.is_none());

        let fits = batch(0, (1 << 20) - 1);
        w.append(&fits).unwrap();
        let scan = read_segment(&path).unwrap();
        assert!(scan.truncation.is_none());
        assert_eq!(scan.records, vec![fits]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The on-disk WAL layout is frozen at `WAL_VERSION` 1: a golden
    /// segment keeps its exact length and checksum.
    #[test]
    fn segment_bytes_are_pinned() {
        let dir = tmp("golden");
        let mut w = WalWriter::open(
            &dir,
            "csss:n=64,seed=3",
            "service:epoch=8",
            WalPolicy::Batch,
            7,
            100,
        )
        .unwrap();
        w.append(&WalRecord {
            offered: 100,
            cell: WalCell::Batch(Arc::new(
                (0..5u64).map(|i| Update::new(i, 3 - i as i64)).collect(),
            )),
        })
        .unwrap();
        w.append(&WalRecord {
            offered: 105,
            cell: WalCell::Shed { count: 4, mass: 40 },
        })
        .unwrap();
        drop(w);
        let file = fs::read(dir.join(segment_file_name(7))).unwrap();
        assert_eq!((file.len(), crc32c(&file)), (195, 0x196A_B710));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every truncation and every single-bit flip of a header-only
    /// segment makes the header unusable: a typed error, never a panic
    /// and never a scan.
    #[test]
    fn segment_header_damage_is_a_typed_error() {
        let dir = tmp("header");
        drop(WalWriter::open(&dir, "spec", "cfg", WalPolicy::Batch, 0, 0).unwrap());
        let path = dir.join(segment_file_name(0));
        let clean = fs::read(&path).unwrap();
        assert!(read_segment(&path).unwrap().records.is_empty());
        for cut in 0..clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            assert!(read_segment(&path).is_err(), "header cut at {cut} read");
        }
        for bit in 0..clean.len() * 8 {
            let mut bad = clean.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &bad).unwrap();
            assert!(
                read_segment(&path).is_err(),
                "header bit {bit} flipped read"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_listing_sorts_by_seq() {
        let dir = tmp("list");
        fs::create_dir_all(&dir).unwrap();
        for seq in [3u64, 1, 2] {
            drop(WalWriter::open(&dir, "s", "c", WalPolicy::Epoch, seq, 0).unwrap());
        }
        fs::write(dir.join("not-a-segment.txt"), b"x").unwrap();
        let segs = wal_segments(&dir).unwrap();
        assert_eq!(
            segs.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
