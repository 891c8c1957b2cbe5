//! Versioned, checksummed snapshots of the online decision engine.
//!
//! A snapshot is a byte envelope:
//!
//! ```text
//! magic "RSZSNAP" + version byte | payload length (u64 LE) | payload | FNV-1a 64 of payload
//! ```
//!
//! The payload is whatever an [`Encoder`] accumulated — typically a
//! [`crate::PrefixDp`] state (step counter, the live DP table's exact
//! `f64` bit patterns, priced-slot-pool counters) plus per-algorithm
//! bookkeeping layered on top by `rsz_online`. Restoring goes through
//! [`Decoder::from_sealed`], which rejects truncation, a foreign magic,
//! a version this build does not speak, and any bit flip in the payload
//! (checksum) **before** a single field is decoded; the field decoders
//! then validate shape invariants (sorted non-empty grid levels,
//! length/product agreement) so a corrupted-but-checksum-valid payload
//! fails with [`SnapshotError::Corrupt`] instead of panicking or
//! producing garbage tables.
//!
//! What is deliberately **not** serialized: priced-slot pool *entries*
//! (pricing is a pure function of `(instance, oracle, t, λ, grid)`, so
//! re-pricing after a restore reproduces bit-identical tables), the
//! transform scratch, the spare ping-pong table, and cached level grids
//! — all of these are rebuilt lazily on the first post-restore step.
//! That keeps snapshots small (one table, a few counters) and makes
//! restart-resume bit-identity a corollary of the engine's determinism
//! rather than a serialization obligation.

use std::fmt;

use crate::table::Table;

/// Envelope magic: 7 identifying bytes plus one version byte.
const MAGIC: [u8; 7] = *b"RSZSNAP";

/// The snapshot format version this build writes, and the only one
/// [`Decoder::from_sealed`] opens. It names the layouts `rsz_online`'s
/// controllers put in the payload, so a layout change bumps it; the
/// envelope itself has never changed. An envelope of an older version
/// fails with [`SnapshotError::BadVersion`]. Builds from commit e36abfb
/// through 71b71ff read versions 1 and 2 and write this one, so one run
/// of such a build upgrades an older file.
pub const FORMAT_VERSION: u8 = 3;

/// Why a snapshot could not be restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the declared content did.
    Truncated,
    /// The envelope does not start with the snapshot magic.
    BadMagic,
    /// The envelope magic matches but the version byte is not one this
    /// build speaks.
    BadVersion(u8),
    /// The payload checksum does not match — the snapshot was corrupted
    /// in storage or transit.
    ChecksumMismatch,
    /// The checksum matches but a decoded field violates a structural
    /// invariant (the snapshot was produced by something else, or the
    /// writer and reader disagree about the state being restored).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "snapshot format version {v} is not supported \
                     (this build speaks only {FORMAT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch (corrupted payload)")
            }
            SnapshotError::Corrupt(what) => write!(f, "snapshot payload is corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over `bytes` — tiny, dependency-free, and plenty for
/// detecting storage corruption (this is an integrity check, not a
/// cryptographic seal).
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    fnv(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a 64-bit hash from `hash` over `bytes`:
/// `checksum_continue(checksum(a), b) == checksum(a ++ b)`. Starting from
/// `checksum(&[])`, it folds a stream one piece at a time.
#[inline]
#[must_use]
pub fn checksum_continue(hash: u64, bytes: &[u8]) -> u64 {
    fnv(hash, bytes)
}

#[inline]
fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The byte range of a sealed envelope that the payload checksum
/// covers, read from the envelope's own header: `None` when the bytes
/// are not even a plausible envelope (foreign magic, header truncated,
/// or a declared length past the end of the buffer). On a
/// [`SnapshotError::ChecksumMismatch`] this is the span a diagnostic
/// should blame — `rsz simulate --resume` and the `rsz serve` daemon
/// report it so a corrupted snapshot file can be inspected at the
/// offending offsets instead of just "checksum mismatch".
#[must_use]
pub fn payload_range(bytes: &[u8]) -> Option<std::ops::Range<usize>> {
    let header = MAGIC.len() + 1 + 8;
    if bytes.len() < header || bytes[..MAGIC.len()] != MAGIC {
        return None;
    }
    let declared = u64::from_le_bytes(bytes[MAGIC.len() + 1..header].try_into().expect("8 bytes"));
    let declared = usize::try_from(declared).ok()?;
    let end = header.checked_add(declared)?;
    (end <= bytes.len()).then_some(header..end)
}

/// Little-endian byte sink for snapshot payloads.
#[derive(Clone, Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty payload.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` as its exact bit pattern (round-trips NaN
    /// payloads, signed zeros, infinities — bit identity is the
    /// contract).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// An encoder that appends after the bytes already in `buf`, so a
    /// caller can build one payload inside a larger buffer it reuses.
    #[must_use]
    pub fn resume(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Payload bytes accumulated so far.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.buf
    }

    /// Hand back the buffer (with whatever preceded the payload when the
    /// encoder was [`Encoder::resume`]d).
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Wrap the payload in the versioned, checksummed envelope.
    #[must_use]
    pub fn into_sealed(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MAGIC.len() + 1 + 8 + self.buf.len() + 8);
        out.extend_from_slice(&MAGIC);
        out.push(FORMAT_VERSION);
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        let sum = checksum(&self.buf);
        out.extend_from_slice(&self.buf);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }
}

/// Little-endian byte source over a verified payload.
#[derive(Clone, Debug)]
pub struct Decoder<'a> {
    rest: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Open a sealed envelope: verify magic, version, declared length,
    /// and checksum, then expose the payload for field decoding. Only
    /// [`FORMAT_VERSION`] opens. The version byte, outside the checksum,
    /// is checked first, so an envelope of another version fails with
    /// [`SnapshotError::BadVersion`] whatever its payload holds.
    pub fn from_sealed(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() + 1 {
            return Err(if bytes.starts_with(&MAGIC[..bytes.len().min(MAGIC.len())]) {
                SnapshotError::Truncated
            } else {
                SnapshotError::BadMagic
            });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = bytes[MAGIC.len()];
        if version != FORMAT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let rest = &bytes[MAGIC.len() + 1..];
        if rest.len() < 8 {
            return Err(SnapshotError::Truncated);
        }
        let declared = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
        let rest = &rest[8..];
        let declared = usize::try_from(declared).map_err(|_| SnapshotError::Truncated)?;
        if rest.len() < declared + 8 {
            return Err(SnapshotError::Truncated);
        }
        let (payload, tail) = rest.split_at(declared);
        let stored = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
        if checksum(payload) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        Ok(Self { rest: payload })
    }

    /// A decoder straight over `payload` (no envelope) — used when a
    /// snapshot embeds a sub-record it wants to decode independently.
    #[must_use]
    pub fn over(payload: &'a [u8]) -> Self {
        Self { rest: payload }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// `true` when every payload byte was consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.rest.len() < n {
            return Err(SnapshotError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read a `u64` and narrow it to `usize`.
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.take_u64()?).map_err(|_| SnapshotError::Corrupt("usize overflow"))
    }

    /// Read an `f64` bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.take_usize()?;
        self.take(len)
    }
}

/// Sanity bound on decoded grid shapes: no real instance has more
/// dimensions or levels than this, so anything larger is a corrupt
/// length field and must not drive an allocation.
const MAX_DECODED_DIM: usize = 1 << 20;

/// Serialize a DP [`Table`] — per-dimension level lists plus every
/// value's exact bit pattern.
pub fn encode_table(enc: &mut Encoder, table: &Table) {
    enc.put_usize(table.dims());
    for j in 0..table.dims() {
        let levels = table.levels(j);
        enc.put_usize(levels.len());
        for &l in levels {
            enc.put_u32(l);
        }
    }
    enc.put_usize(table.len());
    for &v in table.values() {
        enc.put_f64(v);
    }
}

/// Decode a [`Table`], validating every structural invariant the rest
/// of the solver relies on (non-empty strictly-sorted level lists,
/// value count equal to the grid size) so corrupt payloads surface as
/// [`SnapshotError::Corrupt`] rather than a panic or a garbage table.
pub fn decode_table(dec: &mut Decoder<'_>) -> Result<Table, SnapshotError> {
    let dims = dec.take_usize()?;
    if dims == 0 || dims > MAX_DECODED_DIM {
        return Err(SnapshotError::Corrupt("table dimension count out of range"));
    }
    let mut levels = Vec::with_capacity(dims);
    let mut cells = 1usize;
    for _ in 0..dims {
        let len = dec.take_usize()?;
        if len == 0 || len > MAX_DECODED_DIM {
            return Err(SnapshotError::Corrupt("grid dimension length out of range"));
        }
        if dec.remaining() < len * 4 {
            return Err(SnapshotError::Truncated);
        }
        let mut dim = Vec::with_capacity(len);
        for _ in 0..len {
            dim.push(dec.take_u32()?);
        }
        if !dim.windows(2).all(|w| w[0] < w[1]) {
            return Err(SnapshotError::Corrupt("grid levels are not strictly sorted"));
        }
        cells = cells.checked_mul(len).ok_or(SnapshotError::Corrupt("grid size overflows"))?;
        levels.push(dim);
    }
    let count = dec.take_usize()?;
    if count != cells {
        return Err(SnapshotError::Corrupt("value count does not match grid size"));
    }
    if dec.remaining() < count * 8 {
        return Err(SnapshotError::Truncated);
    }
    let mut table = Table::new(levels, 0.0);
    for v in table.values_mut() {
        *v = dec.take_f64()?;
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u32(0xdead_beef);
        enc.put_u64(u64::MAX - 3);
        enc.put_usize(42);
        enc.put_f64(-0.0);
        enc.put_f64(f64::INFINITY);
        enc.put_bytes(b"hello");
        let sealed = enc.into_sealed();
        let mut dec = Decoder::from_sealed(&sealed).unwrap();
        assert_eq!(dec.take_u8().unwrap(), 7);
        assert_eq!(dec.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(dec.take_usize().unwrap(), 42);
        assert_eq!(dec.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.take_f64().unwrap().is_infinite());
        assert_eq!(dec.take_bytes().unwrap(), b"hello");
        assert!(dec.is_empty());
    }

    #[test]
    fn envelope_rejects_tampering() {
        let mut enc = Encoder::new();
        enc.put_u64(1234);
        let sealed = enc.into_sealed();

        assert_eq!(Decoder::from_sealed(b"not a snapshot!!").unwrap_err(), SnapshotError::BadMagic);
        assert_eq!(Decoder::from_sealed(&sealed[..4]).unwrap_err(), SnapshotError::Truncated);
        assert_eq!(
            Decoder::from_sealed(&sealed[..sealed.len() - 1]).unwrap_err(),
            SnapshotError::Truncated
        );

        let mut wrong_version = sealed.clone();
        wrong_version[MAGIC.len()] = 99;
        assert_eq!(
            Decoder::from_sealed(&wrong_version).unwrap_err(),
            SnapshotError::BadVersion(99)
        );
        wrong_version[MAGIC.len()] = 0;
        assert_eq!(Decoder::from_sealed(&wrong_version).unwrap_err(), SnapshotError::BadVersion(0));

        // The older versions are refused by their version byte, though
        // the rest of the envelope is intact.
        for v in 1..FORMAT_VERSION {
            wrong_version[MAGIC.len()] = v;
            assert_eq!(
                Decoder::from_sealed(&wrong_version).unwrap_err(),
                SnapshotError::BadVersion(v)
            );
        }
        assert!(Decoder::from_sealed(&sealed).is_ok());

        // Flip one payload bit: the checksum must catch it.
        let mut flipped = sealed.clone();
        let payload_start = MAGIC.len() + 1 + 8;
        flipped[payload_start] ^= 0x01;
        assert_eq!(Decoder::from_sealed(&flipped).unwrap_err(), SnapshotError::ChecksumMismatch);
    }

    #[test]
    fn payload_range_reports_the_checksummed_span() {
        let mut enc = Encoder::new();
        enc.put_u64(1234);
        let sealed = enc.into_sealed();
        let header = MAGIC.len() + 1 + 8;
        assert_eq!(payload_range(&sealed), Some(header..header + 8));

        // The range is readable even when the payload is corrupt — that
        // is the point: it locates the bytes that failed the check.
        let mut flipped = sealed.clone();
        flipped[header] ^= 0x01;
        assert_eq!(payload_range(&flipped), Some(header..header + 8));

        // Not an envelope / truncated header / declared length past the
        // end: nothing sensible to report.
        assert_eq!(payload_range(b"not a snapshot!!"), None);
        assert_eq!(payload_range(&sealed[..4]), None);
        assert_eq!(payload_range(&sealed[..sealed.len() - 9]), None);
    }

    #[test]
    fn table_round_trip_is_bit_exact() {
        let mut table = Table::new(vec![vec![0u32, 1, 3], vec![0u32, 2]], 0.0);
        let vals = [1.5, f64::INFINITY, -0.0, 2.625e-300, 7.0, -123.456];
        table.values_mut().copy_from_slice(&vals);
        let mut enc = Encoder::new();
        encode_table(&mut enc, &table);
        let sealed = enc.into_sealed();
        let mut dec = Decoder::from_sealed(&sealed).unwrap();
        let back = decode_table(&mut dec).unwrap();
        assert_eq!(back.all_levels(), table.all_levels());
        for (a, b) in back.values().iter().zip(table.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corrupt_table_fields_fail_structurally() {
        // Unsorted levels survive the checksum (they were *written* that
        // way) but must fail the structural validation.
        let mut enc = Encoder::new();
        enc.put_usize(1); // dims
        enc.put_usize(2); // levels in dim 0
        enc.put_u32(5);
        enc.put_u32(3); // descending: invalid
        enc.put_usize(2);
        enc.put_f64(0.0);
        enc.put_f64(0.0);
        let sealed = enc.into_sealed();
        let mut dec = Decoder::from_sealed(&sealed).unwrap();
        assert_eq!(
            decode_table(&mut dec).unwrap_err(),
            SnapshotError::Corrupt("grid levels are not strictly sorted")
        );

        // A wrong value count must fail before any value is read.
        let mut enc = Encoder::new();
        enc.put_usize(1);
        enc.put_usize(1);
        enc.put_u32(0);
        enc.put_usize(5); // grid has 1 cell, 5 declared
        let sealed = enc.into_sealed();
        let mut dec = Decoder::from_sealed(&sealed).unwrap();
        assert_eq!(
            decode_table(&mut dec).unwrap_err(),
            SnapshotError::Corrupt("value count does not match grid size")
        );

        // An absurd length field must not drive an allocation.
        let mut enc = Encoder::new();
        enc.put_usize(usize::MAX / 2);
        let sealed = enc.into_sealed();
        let mut dec = Decoder::from_sealed(&sealed).unwrap();
        assert!(decode_table(&mut dec).is_err());
    }
}
