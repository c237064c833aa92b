//! The sketch state codec: the byte-level vocabulary every persistable
//! family encodes its **mutable** state with.
//!
//! Builders are pure functions of the [`SketchSpec`](crate::spec::SketchSpec)
//! — equal specs build bit-identical sketches — so a persisted sketch never
//! encodes its hash functions, shapes, or seeds. Decoding builds a fresh
//! sketch from the stamped spec and then overwrites only the state that
//! updates mutate: counter tables, sample maps, RNG words, level windows.
//! That keeps encodings small, versionable, and impossible to desynchronize
//! from the construction path.
//!
//! The byte conventions: all integers little-endian, floats as IEEE-754
//! bit patterns (`f64::to_bits`), sequences length-prefixed, decoding
//! strict — short buffers, oversized counts, and trailing bytes are typed
//! [`StateError`]s, never panics. [`StateReader`] is also the one reader
//! behind the snapshot and WAL envelopes ([`crate::persist`]) and the wire
//! protocol's frame bodies ([`crate::wire`]). Hash-map state is always
//! written in sorted key order, so `save_state` is a **deterministic**
//! function of the sketch's logical state (two bit-identical sketches
//! encode to identical bytes).

use std::fmt;

/// Hard cap on any counted field inside a state blob, in bytes of payload
/// it may demand (the same defensive shape as the wire layer's
/// [`MAX_FRAME`](crate::wire::MAX_FRAME), sized for sketch tables instead
/// of query frames).
pub const MAX_STATE: usize = 1 << 26;

/// A malformed state blob (strict decoding — any of these aborts the
/// decode with a typed error).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// The blob ended before a field's bytes.
    Truncated,
    /// Bytes remained after the last field.
    TrailingBytes(usize),
    /// A counted field would demand more than [`MAX_STATE`] bytes.
    Oversized(u64),
    /// A field decoded to a value the sketch's invariants reject (the
    /// message names the field).
    Corrupt(&'static str),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Truncated => write!(f, "state blob truncated"),
            StateError::TrailingBytes(n) => write!(f, "{n} trailing bytes after state blob"),
            StateError::Oversized(n) => {
                write!(f, "counted state field of {n} elements exceeds the cap")
            }
            StateError::Corrupt(what) => write!(f, "corrupt state field: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

/// Little-endian writer for sketch state. Appends to an owned buffer;
/// nested encoders just keep writing (framing and checksums belong to the
/// durable envelope, `persist::seal` / `persist::open`, not to the state
/// vocabulary).
#[derive(Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        StateWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `i128` as two little-endian 64-bit halves (low, high).
    pub fn i128(&mut self, v: i128) {
        self.u64(v as u64);
        self.u64((v as u128 >> 64) as u64);
    }

    /// A float as its IEEE-754 bit pattern — survives bit-for-bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Raw bytes, no prefix (magic tags, pre-encoded blobs).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// A short UTF-8 string with a `u16` length prefix (spec stamps).
    pub fn str(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize);
        self.u16(s.len() as u16);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A `u32` count prefix for a sequence of `len` elements.
    pub fn seq(&mut self, len: usize) {
        debug_assert!(len <= u32::MAX as usize);
        self.u32(len as u32);
    }

    /// A counted sequence of `u64` words.
    pub fn u64_seq(&mut self, vals: impl ExactSizeIterator<Item = u64>) {
        self.seq(vals.len());
        for v in vals {
            self.u64(v);
        }
    }

    /// A counted sequence of `i64` words.
    pub fn i64_slice(&mut self, vals: &[i64]) {
        self.seq(vals.len());
        for &v in vals {
            self.i64(v);
        }
    }

    /// A counted sequence of floats, each as its bit pattern.
    pub fn f64_slice(&mut self, vals: &[f64]) {
        self.seq(vals.len());
        for &v in vals {
            self.f64(v);
        }
    }
}

/// Strict little-endian reader over a state blob. Every accessor returns
/// [`StateError::Truncated`] past the end; [`StateReader::finish`] rejects
/// trailing bytes so decoders can't silently ignore tail garbage.
pub struct StateReader<'a> {
    data: &'a [u8],
}

impl<'a> StateReader<'a> {
    /// A reader over the whole blob.
    pub fn new(data: &'a [u8]) -> Self {
        StateReader { data }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        if self.data.len() < n {
            return Err(StateError::Truncated);
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    pub fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.bytes(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, StateError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, StateError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, StateError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, StateError> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// An `i128` from two little-endian 64-bit halves (low, high).
    pub fn i128(&mut self) -> Result<i128, StateError> {
        let lo = self.u64()? as u128;
        let hi = self.u64()? as u128;
        Ok(((hi << 64) | lo) as i128)
    }

    pub fn f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u16`-prefixed UTF-8 string ([`StateWriter::str`]).
    pub fn str(&mut self) -> Result<String, StateError> {
        let len = self.u16()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| StateError::Corrupt("non-UTF-8 string"))
    }

    /// A count prefix, validated against the bytes each element needs so a
    /// lying count can't demand an oversized allocation.
    pub fn seq(&mut self, elem_bytes: usize) -> Result<usize, StateError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_bytes.max(1)) > MAX_STATE {
            return Err(StateError::Oversized(n as u64));
        }
        Ok(n)
    }

    /// A counted sequence of `u64` words.
    pub fn u64_seq(&mut self) -> Result<Vec<u64>, StateError> {
        let n = self.seq(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// A counted sequence decoded **onto** an existing table: the count
    /// must match the built sketch's shape exactly (shape is the spec's
    /// job, not the blob's).
    pub fn i64_slice_into(&mut self, out: &mut [i64]) -> Result<(), StateError> {
        let n = self.seq(8)?;
        if n != out.len() {
            return Err(StateError::Corrupt("i64 table length"));
        }
        for slot in out.iter_mut() {
            *slot = self.i64()?;
        }
        Ok(())
    }

    /// A counted float sequence decoded onto an existing table.
    pub fn f64_slice_into(&mut self, out: &mut [f64]) -> Result<(), StateError> {
        let n = self.seq(8)?;
        if n != out.len() {
            return Err(StateError::Corrupt("f64 table length"));
        }
        for slot in out.iter_mut() {
            *slot = self.f64()?;
        }
        Ok(())
    }

    /// Assert the blob is fully consumed.
    pub fn finish(self) -> Result<(), StateError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(StateError::TrailingBytes(self.data.len()))
        }
    }
}

/// The persistence capability: a sketch that can save its mutable state
/// and later restore it onto a freshly-built (same-spec) instance.
///
/// The contract, pinned per-family by `tests/conformance.rs`:
///
/// * `load_state` after `save_state` on a same-spec sketch is
///   **bit-identical** — same answers, same space, and replay-equivalent
///   (further updates and merges continue exactly as the original would);
/// * `save_state` is deterministic: logical state alone decides the bytes
///   (map iteration order never leaks);
/// * `load_state` is strict: short blobs, oversized counts, shape
///   mismatches, and trailing bytes are typed [`StateError`]s, never
///   panics, and on error the sketch may be left partially overwritten
///   (callers discard it — the registry decode path builds a throwaway).
pub trait SketchState {
    /// Append this sketch's mutable state to `w`.
    fn save_state(&self, w: &mut StateWriter);

    /// Overwrite this sketch's mutable state from `r`. The sketch must
    /// have been built from the same spec that the saved sketch was.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip_bit_for_bit() {
        let mut w = StateWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-40);
        w.i128(-(1i128 << 100));
        w.f64(f64::from_bits(0x7FF8_0000_DEAD_BEEF)); // NaN payload survives
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -40);
        assert_eq!(r.i128().unwrap(), -(1i128 << 100));
        assert_eq!(r.f64().unwrap().to_bits(), 0x7FF8_0000_DEAD_BEEF);
        r.finish().unwrap();
    }

    #[test]
    fn sequences_roundtrip_and_validate_shapes() {
        let mut w = StateWriter::new();
        w.u64_seq([3u64, 1, 4].into_iter());
        w.i64_slice(&[-1, 5]);
        w.f64_slice(&[0.5, -0.0]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.u64_seq().unwrap(), vec![3, 1, 4]);
        let mut i = [0i64; 2];
        r.i64_slice_into(&mut i).unwrap();
        assert_eq!(i, [-1, 5]);
        let mut f = [0f64; 2];
        r.f64_slice_into(&mut f).unwrap();
        assert_eq!(f[1].to_bits(), (-0.0f64).to_bits());
        r.finish().unwrap();

        // Shape mismatch is a typed error.
        let mut r = StateReader::new(&bytes);
        let _ = r.u64_seq().unwrap();
        let mut one = [0i64; 1];
        assert_eq!(
            r.i64_slice_into(&mut one),
            Err(StateError::Corrupt("i64 table length"))
        );
    }

    #[test]
    fn truncation_trailing_and_oversized_are_typed() {
        let mut w = StateWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes[..4]);
        assert_eq!(r.u64(), Err(StateError::Truncated));

        let mut r = StateReader::new(&bytes);
        r.u32().unwrap();
        assert_eq!(r.finish(), Err(StateError::TrailingBytes(4)));

        // A lying count cannot demand an oversized allocation.
        let mut w = StateWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.u64_seq(), Err(StateError::Oversized(u32::MAX as u64)));
    }
}
