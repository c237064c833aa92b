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
//! replay is total under any crash: a [`SegmentReader`] yields frames one
//! at a time until the first torn or corrupt one and reports the damage as
//! a typed [`WalTruncation`] — never a panic, never a partial record
//! handed to the caller, and never more than one frame in memory.
//!
//! ## Segment recycling
//!
//! A cut retires the sealed segments its durable snapshot covers, but the
//! [`WalWriter`] keeps the first of them as a *spare* (`spare.bdwal`,
//! outside `wal-*.bdwal`, so no segment listing sees it), and its next
//! roll renames the spare to the new segment's name and writes over it in
//! place. A cut therefore neither frees a segment's blocks nor allocates
//! new ones; on a filesystem that discards freed blocks, freeing them is
//! what a cut used to wait for. A directory holds the live segment, the
//! sealed segments no snapshot covers yet, and at most one spare.
//!
//! A recycled segment holds, past its own frames, the frames of the
//! segment the file held before: *leftovers*. Once sealed, a segment is
//! cut to its own frames ([`WalWriter::roll`]); the live segment is not,
//! so the reader tells leftovers apart by the offered position each record
//! carries. Every frame in a spare ends at or before the durable snapshot
//! that retired it, which is at or before the recycled segment's start, so
//! an intact frame whose record starts before the previous record's end
//! (or before the header's `start_offered`) can only be a leftover, and it
//! ends the segment's records cleanly ([`SegmentReader`]). The record
//! checksum covers the body alone and carries no segment stamp, so an
//! aligned leftover frame passes it; the offered chain is what the rule
//! rests on. A writer only recycles a spare it retired itself: one found
//! on disk may come from another run's stream.
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
//! creates, renames and unlinks themselves survive power loss. Under
//! `batch` that is a new segment (created or recycled), every append,
//! roll, and truncation; under `epoch` the new segment's fsyncs are
//! deferred to the next seal (a crash in the window leaves an unreadable
//! final segment — the "crash during creation" case recovery deletes — or
//! one still holding the spare's covered records), keeping the per-cut
//! cost at one file sync plus one directory sync (`DESIGN.md §14` states
//! the full durability matrix and the op sequence of each step).
//!
//! The writer performs each of these steps — create, write, `fdatasync`,
//! `fsync`, directory sync, rename, unlink, and the `set_len` of a seal's
//! trim and of [`truncate_segment`] — through the crate's durability layer
//! (`disk.rs`), which shares the snapshot store's crash switch
//! ([`crate::fault`]) when the service opens the log.

use crate::disk::Disk;
use crate::persist::{crc32c, numbered_files, open, read_envelope, seal, PersistError};
use crate::spec::SpecError;
use crate::state::{StateReader, StateWriter};
use crate::update::Update;
use std::fmt;
use std::fs;
use std::io::{self, BufReader, Read};
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

/// The most updates one logged cell can carry, `2^20 − 1`: the largest
/// `n` whose [`WalCell::Batch`] body — the offered position (`u64`), the
/// kind tag (`u8`), the count (`u32`), then `16·n` bytes of updates —
/// fits [`MAX_WAL_RECORD`]. The service config refuses a larger `chunk`
/// while a log is on.
pub(crate) const MAX_LOGGED_CELL: usize = (MAX_WAL_RECORD - (8 + 1 + 4)) / 16;

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

/// A sealed (no longer written) segment the writer still owns: retired
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
            // One length check for the whole cell: the rest of the body is
            // exactly `count` 16-byte updates.
            let raw = r.bytes(r.remaining()).map_err(|_| ())?;
            if count.checked_mul(16) != Some(raw.len()) {
                return Err(());
            }
            let updates = raw
                .chunks_exact(16)
                .map(|u| {
                    let (item, delta) = u.split_at(8);
                    Update {
                        item: u64::from_le_bytes(item.try_into().expect("8 of 16 bytes")),
                        delta: i64::from_le_bytes(delta.try_into().expect("8 of 16 bytes")),
                    }
                })
                .collect();
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

/// A segment read one record at a time: strict on the header, which
/// [`SegmentReader::open`] checks, then **total on the records** — it
/// yields every intact record in append order and stops at the first torn
/// or corrupt frame, which [`SegmentReader::truncation`] then reports as a
/// typed [`WalTruncation`] instead of an error. Frames are read through a
/// `BufReader` into one reused buffer, and each frame's length is checked
/// against the bytes left in the file before anything is allocated for
/// it, so the reader holds one frame however long the segment is.
///
/// The records also end, cleanly, at the first intact frame whose record
/// starts before the previous record's end (or before the header's
/// `start_offered`): that frame is a leftover of the segment the file held
/// before the writer recycled it ([`WalWriter::roll`]), never a record of
/// this one.
///
/// Recovery dispatches each record as it is yielded; [`read_segment`]
/// collects them.
pub struct SegmentReader {
    header: SegmentHeader,
    file: BufReader<fs::File>,
    /// The file's length when it was opened.
    len: u64,
    /// Offset of the next frame: the end of the intact prefix so far.
    pos: u64,
    /// The offered position the next record may not start before: the
    /// previous record's end, or the header's `start_offered`.
    floor: u64,
    /// The current frame's body and checksum, reused across frames.
    frame: Vec<u8>,
    truncation: Option<WalTruncation>,
    done: bool,
}

impl fmt::Debug for SegmentReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentReader")
            .field("header", &self.header)
            .field("pos", &self.pos)
            .field("truncation", &self.truncation)
            .finish_non_exhaustive()
    }
}

impl SegmentReader {
    /// Open segment `path` and check its header. A header that does not
    /// open makes the segment unusable: [`PersistError::BadMagic`],
    /// [`PersistError::UnsupportedVersion`], [`PersistError::Oversized`],
    /// `State(Truncated)` or [`PersistError::ChecksumMismatch`], checked
    /// in that order. So is a path that is not a regular file
    /// ([`PersistError::Io`]). A clean empty segment (header only) is
    /// valid and yields no record.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let path = path.as_ref();
        let file = fs::File::open(path)?;
        let meta = file.metadata()?;
        // `File::open` opens a directory too, and its reported size says
        // nothing about what a read returns.
        if !meta.is_file() {
            return Err(PersistError::Io(format!(
                "{} is not a regular file",
                path.display()
            )));
        }
        let len = meta.len();
        let mut file = BufReader::new(file);
        let envelope = read_envelope(&mut file, len, MAX_WAL_RECORD)?;
        let (body, _) = open(WAL_MAGIC, WAL_VERSION, MAX_WAL_RECORD, &envelope)?;
        let mut hr = StateReader::new(body);
        let header = SegmentHeader {
            spec: hr.str()?,
            config: hr.str()?,
            seq: hr.u64()?,
            start_offered: hr.u64()?,
        };
        hr.finish()?;
        Ok(SegmentReader {
            floor: header.start_offered,
            header,
            file,
            len,
            pos: envelope.len() as u64,
            frame: Vec::new(),
            truncation: None,
            done: false,
        })
    }

    /// The decoded header.
    pub fn header(&self) -> &SegmentHeader {
        &self.header
    }

    /// `Some` iff the record stream ended at a torn or corrupt frame
    /// rather than a clean end of file. Known only once the reader has
    /// yielded its last record.
    pub fn truncation(&self) -> Option<WalTruncation> {
        self.truncation
    }

    /// Read the frame at `pos`: the record and the frame's length, or what
    /// is wrong with the frame. A file that ends early is a torn frame; any
    /// other read failure is the error.
    fn read_frame(&mut self) -> io::Result<Result<(WalRecord, u64), WalDamage>> {
        let left = self.len - self.pos;
        let mut len_bytes = [0u8; 4];
        if left < 4 || !fill(&mut self.file, &mut len_bytes)? {
            return Ok(Err(WalDamage::TornFrame));
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len == 0 || len > MAX_WAL_RECORD {
            return Ok(Err(WalDamage::BadLength));
        }
        // Body and checksum, checked against what the file still holds
        // before the buffer grows for them.
        let need = len + 4;
        if need as u64 > left - 4 {
            return Ok(Err(WalDamage::TornFrame));
        }
        if self.frame.len() < need {
            self.frame.reserve_exact(need - self.frame.len());
            self.frame.resize(need, 0);
        }
        let frame = &mut self.frame[..need];
        if !fill(&mut self.file, frame)? {
            return Ok(Err(WalDamage::TornFrame));
        }
        let (body, crc) = frame.split_at(len);
        if crc32c(body) != u32::from_le_bytes(crc.try_into().expect("a 4-byte checksum")) {
            return Ok(Err(WalDamage::Checksum));
        }
        let Ok(rec) = decode_record_body(body) else {
            return Ok(Err(WalDamage::Malformed));
        };
        Ok(Ok((rec, 4 + need as u64)))
    }
}

impl Iterator for SegmentReader {
    /// An intact record, or the read failure that ended the stream.
    type Item = Result<WalRecord, PersistError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done || self.pos == self.len {
            return None;
        }
        match self.read_frame() {
            Ok(Ok((rec, frame_len))) if rec.offered >= self.floor => {
                self.pos += frame_len;
                self.floor = rec.end_offered();
                Some(Ok(rec))
            }
            // A leftover of the recycled file: a clean end, nothing to
            // repair.
            Ok(Ok(_)) => {
                self.done = true;
                None
            }
            Ok(Err(damage)) => {
                self.done = true;
                self.truncation = Some(WalTruncation {
                    valid_len: self.pos,
                    damage,
                });
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e.into()))
            }
        }
    }
}

/// `read_exact`, with a source that ends first reported as `false` rather
/// than as an error: the file was shorter than its length said.
fn fill(src: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    match src.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Read and validate one whole segment: [`SegmentReader`]'s records,
/// collected. Strict on the header, total on the records, as the reader
/// is. A clean empty segment (header only) is valid.
pub fn read_segment(path: impl AsRef<Path>) -> Result<SegmentScan, PersistError> {
    let mut reader = SegmentReader::open(path)?;
    let records = reader.by_ref().collect::<Result<_, _>>()?;
    Ok(SegmentScan {
        header: reader.header,
        records,
        truncation: reader.truncation,
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
    let file = open_in_place(path)?;
    disk.set_len(&file, valid_len)?;
    disk.fsync(&file)?;
    if let Some(dir) = path.parent() {
        disk.sync_dir(dir)?;
    }
    Ok(())
}

/// Open an existing file for writing from its first byte, keeping its
/// contents. Nothing on disk changes, so the durability layer does not
/// count it.
fn open_in_place(path: &Path) -> io::Result<fs::File> {
    fs::OpenOptions::new().write(true).open(path)
}

/// The name a retired segment waits under until the writer's next roll
/// overwrites it. It lies outside `wal-*.bdwal`, so [`wal_segments`] and
/// recovery never list it.
const SPARE_FILE: &str = "spare.bdwal";

/// Make segment `seq` in `dir` and write its `header` at the file's start.
/// With `recycle`, the segment is the writer's spare, renamed to the
/// segment's name and overwritten in place, so the appends that follow
/// reuse its blocks; otherwise the file is created. Returns the file, its
/// path, and the length it had (0 when created).
///
/// With `durable`, the header and the directory entry naming the file are
/// fsynced before returning — required under [`WalPolicy::Batch`], whose
/// first append may be acknowledged immediately after. Under
/// [`WalPolicy::Epoch`] neither is synced: the next seal
/// ([`WalWriter::roll`]) covers both, and a crash in the window leaves at
/// worst an unreadable final segment — exactly the "crash during creation"
/// case recovery already deletes — or a final segment whose header and
/// records are still the spare's, all covered by a durable snapshot.
fn open_segment_file(
    disk: &Disk,
    dir: &Path,
    seq: u64,
    header: &[u8],
    recycle: bool,
    durable: bool,
) -> Result<(fs::File, PathBuf, u64), PersistError> {
    let path = dir.join(segment_file_name(seq));
    let (mut file, old_len) = if recycle {
        disk.rename(&dir.join(SPARE_FILE), &path)?;
        let file = open_in_place(&path)?;
        let len = file.metadata()?.len();
        (file, len)
    } else {
        (disk.create(&path)?, 0)
    };
    disk.write(&mut file, header)?;
    if durable {
        disk.fsync(&file)?;
        disk.sync_dir(dir)?;
    }
    Ok((file, path, old_len))
}

/// The append side of the log: one active segment, rolled at each epoch
/// cut; a sealed segment is retired once a persisted snapshot covers it.
/// The first segment a [`WalWriter::truncate_through`] call retires becomes
/// the writer's *spare*, and the next roll overwrites it in place instead
/// of allocating a new file, so a cut neither frees nor allocates a
/// segment's blocks.
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
    /// Bytes written to the active segment: its header and its frames.
    written: u64,
    /// The active segment's length when it was recycled (0 when created).
    /// Bytes between `written` and it are leftovers of an older segment.
    old_len: u64,
    sealed: Vec<SealedSegment>,
    /// Whether the spare in `dir` is a segment this writer retired. A
    /// spare found on disk may hold another run's records, so it is never
    /// recycled, only replaced.
    spare: bool,
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
        let durable = policy == WalPolicy::Batch;
        let (file, path, _) = open_segment_file(&disk, dir, seq, &header, false, durable)?;
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
            written: header.len() as u64,
            old_len: 0,
            sealed: Vec::new(),
            spare: false,
            bytes: 0,
            scratch: Vec::new(),
        })
    }

    /// Make segment `seq`, starting at `start_offered`, the active one:
    /// the spare recycled when the writer holds one, a new file otherwise.
    fn open_segment(&mut self, seq: u64, start_offered: u64) -> Result<(), PersistError> {
        let header = encode_header(&self.spec, &self.config, seq, start_offered);
        let recycle = std::mem::take(&mut self.spare);
        let durable = self.policy == WalPolicy::Batch;
        let (file, path, old_len) =
            open_segment_file(&self.disk, &self.dir, seq, &header, recycle, durable)?;
        self.seq = seq;
        self.end_offered = start_offered;
        self.file = file;
        self.path = path;
        self.written = header.len() as u64;
        self.old_len = old_len;
        Ok(())
    }

    /// Frame bytes appended over this writer's lifetime.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Register segments that already existed before this writer opened
    /// (recovery): they are retired by [`WalWriter::truncate_through`]
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
        self.written += frame_len;
        self.bytes += frame_len;
        Ok(frame_len)
    }

    /// Roll the log at an epoch cut: sync and seal the active segment
    /// (its records are now covered by the cut whose snapshot save is in
    /// flight) and open the next one starting at `offered` — in the spare,
    /// when [`WalWriter::truncate_through`] left one. Under
    /// [`WalPolicy::Epoch`] the seal also fsyncs the directory — segment
    /// creation deferred the entry's durability to exactly this point.
    ///
    /// A recycled segment that wrote fewer bytes than the file held is cut
    /// to its own frames before the sync, so a sealed segment holds exactly
    /// its records: a leftover region that does not line up with its
    /// frames would read as damage and end recovery's replayable chain.
    pub fn roll(&mut self, offered: u64) -> Result<(), PersistError> {
        if self.written < self.old_len {
            self.disk.set_len(&self.file, self.written)?;
        }
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

    /// Retire every sealed segment whose records are entirely covered by
    /// a durable snapshot at offered position `offered`, then fsync the
    /// directory so the retirements survive power loss. Returns how many
    /// segments were retired. The active segment is never retired.
    ///
    /// The first covered segment is renamed to the spare, which the next
    /// [`WalWriter::roll`] overwrites instead of allocating a new file; a
    /// spare left on disk by an earlier writer is replaced, and only then
    /// freed. Every further covered segment is unlinked (one already gone
    /// counts as unlinked), so a directory holds the live segment, the
    /// sealed segments no snapshot covers yet, and at most one spare.
    pub fn truncate_through(&mut self, offered: u64) -> Result<usize, PersistError> {
        let mut retired = 0;
        for seg in self.sealed.iter().filter(|seg| seg.end_offered <= offered) {
            if self.spare {
                self.disk.unlink(&seg.path)?;
            } else {
                self.disk.rename(&seg.path, &self.dir.join(SPARE_FILE))?;
                self.spare = true;
            }
            retired += 1;
        }
        self.sealed.retain(|seg| seg.end_offered > offered);
        if retired > 0 {
            self.disk.sync_dir(&self.dir)?;
        }
        Ok(retired)
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

    /// A log whose first segment holds `lens`-update records from offered
    /// position 0, rolled at their end and retired, so the writer holds it
    /// as its spare; the live segment (1) holds nothing yet.
    fn writer_with_spare(dir: &Path, policy: WalPolicy, lens: &[u64]) -> WalWriter {
        let mut w = WalWriter::open(dir, "spec", "cfg", policy, 0, 0).unwrap();
        let mut at = 0;
        for &n in lens {
            w.append(&batch(at, n)).unwrap();
            at += n;
        }
        w.roll(at).unwrap();
        assert_eq!(w.truncate_through(at).unwrap(), 1);
        assert!(w.spare && dir.join(SPARE_FILE).exists());
        w
    }

    /// Retiring a covered segment keeps its file as the spare, and the next
    /// roll renames that file to the new segment's name and writes over it:
    /// no file is created, and the new segment is the retired one's inode.
    /// No segment listing sees the spare.
    #[cfg(unix)]
    #[test]
    fn retire_then_roll_reuses_the_file() {
        use crate::disk::fault::{DiskOp, FaultInjector};
        use std::os::unix::fs::MetadataExt;
        for policy in [WalPolicy::Batch, WalPolicy::Epoch] {
            let dir = tmp(&format!("recycle-{policy}"));
            let ino = |path: &Path| fs::metadata(path).unwrap().ino();
            let mut w = WalWriter::open(&dir, "s", "c", policy, 0, 0).unwrap();
            w.append(&batch(0, 10)).unwrap();
            w.roll(10).unwrap();
            let retired = ino(&dir.join(segment_file_name(0)));
            assert_eq!(w.truncate_through(10).unwrap(), 1);
            assert_eq!(ino(&dir.join(SPARE_FILE)), retired);
            let listed = wal_segments(&dir).unwrap();
            assert_eq!(listed.iter().map(|(s, _)| *s).collect::<Vec<_>>(), [1]);

            let log = FaultInjector::recorder();
            w.disk.arm(Arc::clone(&log));
            w.append(&batch(10, 4)).unwrap();
            w.roll(14).unwrap();
            // An append, the seal, then the spare renamed into place and
            // its header written: no `Create`.
            let durable = policy == WalPolicy::Batch;
            let pick = |on: bool, ops: &[DiskOp]| if on { ops.to_vec() } else { Vec::new() };
            let want = [
                vec![DiskOp::Write],
                pick(durable, &[DiskOp::SyncData]),
                vec![DiskOp::SyncData],
                pick(!durable, &[DiskOp::SyncDir]),
                vec![DiskOp::Rename, DiskOp::Write],
                pick(durable, &[DiskOp::SyncAll, DiskOp::SyncDir]),
            ]
            .concat();
            assert_eq!(log.ops(), want, "wal={policy}");
            assert_eq!(ino(&dir.join(segment_file_name(2))), retired);
            assert!(!dir.join(SPARE_FILE).exists());
            // The spare is spent: a second covered segment is renamed into
            // its place, a third one is unlinked.
            w.roll(14).unwrap();
            assert_eq!(w.truncate_through(14).unwrap(), 2);
            assert!(dir.join(SPARE_FILE).exists());
            let listed = wal_segments(&dir).unwrap();
            assert_eq!(listed.iter().map(|(s, _)| *s).collect::<Vec<_>>(), [3]);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A recycled segment that ends short of the file it overwrote is cut
    /// to its own frames when sealed, and then scans clean with exactly its
    /// records. The old frames are longer than the new one, so without the
    /// cut the region after it would not line up with a frame and would
    /// read as damage.
    #[test]
    fn a_recycled_segment_sealed_short_scans_clean() {
        use crate::disk::fault::{DiskOp, FaultInjector};
        let dir = tmp("recycle-short");
        let mut w = writer_with_spare(&dir, WalPolicy::Epoch, &[9, 7, 5]);
        let old_len = fs::metadata(dir.join(SPARE_FILE)).unwrap().len();
        w.append(&batch(21, 2)).unwrap();
        w.roll(23).unwrap();
        let own = batch(23, 3);
        w.append(&own).unwrap();
        let log = FaultInjector::recorder();
        w.disk.arm(Arc::clone(&log));
        w.roll(26).unwrap();
        assert_eq!(
            log.ops()[..3],
            [DiskOp::SetLen, DiskOp::SyncData, DiskOp::SyncDir]
        );
        let path = dir.join(segment_file_name(2));
        let header = encode_header("spec", "cfg", 2, 23).len() as u64;
        let len = fs::metadata(&path).unwrap().len();
        assert!(len < old_len);
        assert_eq!(len, header + encode_record(&own).len() as u64);
        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.records, [own]);
        assert!(scan.truncation.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A recycled live segment (never sealed, as after a crash) still holds
    /// the old segment's frames past its own, aligned with them and each
    /// passing its checksum. The reader yields only the segment's own
    /// records, reports no truncation, and stops at the first leftover
    /// frame without reading the rest.
    #[test]
    fn a_recycled_live_segment_yields_only_its_own_records() {
        let dir = tmp("recycle-live");
        let mut w = writer_with_spare(&dir, WalPolicy::Epoch, &[6, 6, 6, 6]);
        w.append(&batch(24, 6)).unwrap();
        w.roll(30).unwrap();
        let own = batch(30, 6);
        w.append(&own).unwrap();
        drop(w);
        let path = dir.join(segment_file_name(2));
        let frame = encode_record(&own).len() as u64;
        let header = encode_header("spec", "cfg", 2, 30).len() as u64;
        assert_eq!(fs::metadata(&path).unwrap().len(), header + 4 * frame);

        let mut reader = SegmentReader::open(&path).unwrap();
        let got = reader.by_ref().collect::<Result<Vec<_>, _>>().unwrap();
        assert_eq!(got, [own]);
        assert_eq!(reader.truncation(), None);
        assert_eq!(reader.pos, header + frame);
        use std::io::Seek;
        assert_eq!(reader.file.stream_position().unwrap(), header + 2 * frame);
        // A header-only recycled segment ends at its first leftover too.
        let mut w = writer_with_spare(&dir.join("empty"), WalPolicy::Epoch, &[6, 6]);
        w.roll(12).unwrap();
        drop(w);
        let scan = read_segment(dir.join("empty").join(segment_file_name(2))).unwrap();
        assert!(scan.records.is_empty() && scan.truncation.is_none());
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

    /// The reader's laws on a three-record segment. Cut anywhere in the
    /// records region, or flip any one bit there, and the reader yields
    /// exactly the records whose frames lie wholly before the damage, then
    /// reports a truncation at the damaged frame's start; a cut on a frame
    /// boundary is a clean end, with no truncation.
    #[test]
    fn reader_yields_exactly_the_frames_before_any_damage() {
        let dir = tmp("laws");
        let recs = [
            batch(0, 3),
            batch(3, 5),
            WalRecord {
                offered: 8,
                cell: WalCell::Shed { count: 2, mass: 9 },
            },
        ];
        let mut w = WalWriter::open(&dir, "spec", "cfg", WalPolicy::Epoch, 0, 0).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        drop(w);
        let path = dir.join(segment_file_name(0));
        let clean = fs::read(&path).unwrap();
        // Frame boundaries: the header's end, then each frame's end.
        let frames: usize = recs.iter().map(|r| encode_record(r).len()).sum();
        let mut bounds = vec![clean.len() - frames];
        for r in &recs {
            bounds.push(bounds.last().unwrap() + encode_record(r).len());
        }
        // How many frames end at or before byte offset `at`.
        let whole_before = |at: usize| bounds.iter().rposition(|&b| b <= at).unwrap();

        for cut in bounds[0]..=clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            let scan = read_segment(&path).unwrap();
            let k = whole_before(cut);
            assert_eq!(scan.records, recs[..k], "cut at {cut}");
            let want = (cut != bounds[k]).then_some(bounds[k] as u64);
            assert_eq!(scan.truncation.map(|t| t.valid_len), want, "cut at {cut}");
        }
        for bit in bounds[0] * 8..clean.len() * 8 {
            let mut bad = clean.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &bad).unwrap();
            let scan = read_segment(&path).unwrap();
            let k = whole_before(bit / 8);
            assert_eq!(scan.records, recs[..k], "bit {bit} flipped");
            assert_eq!(
                scan.truncation.map(|t| t.valid_len),
                Some(bounds[k] as u64),
                "bit {bit} flipped"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A final frame whose length header claims a whole [`MAX_WAL_RECORD`]
    /// body with 16 bytes behind it is torn, and the reader never grows its
    /// buffer past the file's length to find that out.
    #[test]
    fn reader_checks_a_frame_length_before_allocating() {
        let dir = tmp("claim");
        let recs = [batch(0, 6), batch(6, 6)];
        let mut w = WalWriter::open(&dir, "s", "c", WalPolicy::Batch, 0, 0).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        drop(w);
        let path = dir.join(segment_file_name(0));
        let mut bytes = fs::read(&path).unwrap();
        let intact = bytes.len() as u64;
        bytes.extend_from_slice(&(MAX_WAL_RECORD as u32).to_le_bytes());
        bytes.extend_from_slice(&[0; 16]);
        fs::write(&path, &bytes).unwrap();

        let mut reader = SegmentReader::open(&path).unwrap();
        let mut got = Vec::new();
        while let Some(rec) = reader.next() {
            got.push(rec.unwrap());
            assert!(reader.frame.capacity() <= bytes.len());
        }
        assert!(reader.frame.capacity() <= bytes.len());
        assert_eq!(got, recs);
        assert_eq!(
            reader.truncation(),
            Some(WalTruncation {
                valid_len: intact,
                damage: WalDamage::TornFrame,
            })
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A directory named like a segment is an I/O error from `open`, not a
    /// header to check: `File::open` opens a directory, and the size a
    /// filesystem reports for one changes with its entries.
    #[test]
    fn reader_refuses_a_directory_named_like_a_segment() {
        let dir = tmp("dir-segment");
        let fake = dir.join(segment_file_name(5));
        fs::create_dir_all(&fake).unwrap();
        for entries in [0, 3, 40] {
            for i in 0..entries {
                fs::write(fake.join(format!("entry-{i}")), b"x").unwrap();
            }
            assert!(
                matches!(SegmentReader::open(&fake), Err(PersistError::Io(_))),
                "{entries} entries"
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
