//! Per-tenant write-ahead log of accepted telemetry.
//!
//! Every record the daemon *accepts* — the tenant's registration and
//! each validated tick — is appended here before the controller
//! decides, so a crash between append and reply loses at most the
//! reply, never the tick. Framing per record:
//!
//! ```text
//! [u32 LE payload length][payload][u64 LE FNV-1a(payload)]
//! ```
//!
//! Recovery distinguishes two failure shapes, because they demand
//! opposite responses:
//!
//! * **torn tail** — the file ends mid-record, exactly what `kill -9`
//!   during an append leaves behind. The complete prefix is valid;
//!   recovery truncates the tail and resumes.
//! * **corruption** — a complete record whose checksum does not match,
//!   or framing that cannot be (a declared length beyond
//!   [`MAX_RECORD`]). The log cannot be trusted past this point;
//!   recovery quarantines the tenant and reports the byte range that
//!   failed the check.
//!
//! The log is **segmented**: the active file `<tenant>.wal` is sealed
//! (renamed to `<tenant>.NNNNNNNNNNNN.walseg`, the number being the
//! count of accepted ticks it runs through) once it crosses a size
//! threshold, and a fresh active segment opens with its own
//! registration record so every segment is self-describing. Sealing
//! happens only at record boundaries, so a torn tail is legal **only**
//! in the active segment — a short sealed segment is corruption.
//! Sealed segments a durable checkpoint at `k` covers are deleted
//! (compaction), which is what bounds the log's size: the history log
//! (`<tenant>.hist`, `crate::state`) holds every load up to its latest
//! checkpoint, in this module's framing. The segment holding tick
//! `k - 1` stays. Once compaction has run, recovery needs that history:
//! the WAL alone no longer starts at seq 0 — and since it still holds a
//! tick, it shows as much when the history is lost.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use rsz_offline::{checksum, Decoder, Encoder, SnapshotError};

use crate::spec::TenantSpec;

/// Sanity bound on a single record's payload. Registrations are a few
/// hundred bytes, ticks seventeen; anything claiming more is framing
/// damage, not a long record.
pub const MAX_RECORD: usize = 1 << 20;

/// One accepted event.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// The tenant registered with this spec (always the first record).
    Register(TenantSpec),
    /// One accepted telemetry tick.
    Tick {
        /// Client sequence number; contiguous from 0 in a valid log.
        seq: u64,
        /// The validated load (finite, non-negative, within capacity).
        load: f64,
    },
}

/// How the log ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalTail {
    /// Every byte belonged to a complete, checksummed record.
    Clean,
    /// The file ends mid-record at this offset; the prefix before it is
    /// intact. Crash-consistent — truncate and resume.
    Torn { at: usize },
    /// The byte range `start..end` failed its integrity check (FNV-1a
    /// mismatch or impossible framing). Not crash-consistent —
    /// quarantine.
    Corrupt { start: usize, end: usize, what: &'static str },
}

/// The outcome of scanning a WAL image.
#[derive(Clone, Debug)]
pub struct WalScan {
    /// Records recovered from the intact prefix.
    pub records: Vec<WalRecord>,
    /// Number of bytes of intact prefix (where a torn tail would be
    /// truncated to).
    pub intact_len: usize,
    /// How the scan ended.
    pub tail: WalTail,
}

fn encode_payload(record: &WalRecord, enc: &mut Encoder) {
    match record {
        WalRecord::Register(spec) => {
            enc.put_u8(1);
            spec.encode(enc);
        }
        WalRecord::Tick { seq, load } => {
            enc.put_u8(2);
            enc.put_u64(*seq);
            enc.put_f64(*load);
        }
    }
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord, SnapshotError> {
    let mut dec = Decoder::over(payload);
    let record = match dec.take_u8()? {
        1 => WalRecord::Register(TenantSpec::decode(&mut dec)?),
        2 => WalRecord::Tick { seq: dec.take_u64()?, load: dec.take_f64()? },
        _ => return Err(SnapshotError::Corrupt("unknown WAL record tag")),
    };
    if !dec.is_empty() {
        return Err(SnapshotError::Corrupt("trailing bytes inside a WAL record"));
    }
    Ok(record)
}

/// Frame one record: length, payload, checksum.
///
/// # Panics
///
/// If the record's payload exceeds [`MAX_RECORD`]. No record of a
/// registered tenant does: registration appends its record through
/// [`WalWriter::append`], which refuses one that would.
#[must_use]
pub fn frame(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    frame_into(&mut out, |enc| encode_payload(record, enc))
        .expect("an accepted record fits the frame bound");
    out
}

/// Append one frame to `out`: a length field, the payload `payload`
/// writes, and its checksum. The history log (`crate::state`) frames its
/// records with this too. A payload over [`MAX_RECORD`] is refused
/// (`out` is left as it was): the reader would take it for framing
/// damage.
pub(crate) fn frame_into(out: &mut Vec<u8>, payload: impl FnOnce(&mut Encoder)) -> io::Result<()> {
    let at = out.len();
    out.extend_from_slice(&[0; LEN_BYTES]);
    let mut enc = Encoder::resume(std::mem::take(out));
    payload(&mut enc);
    *out = enc.into_bytes();
    let len = out.len() - at - LEN_BYTES;
    if len > MAX_RECORD {
        out.truncate(at);
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("a {len}-byte record exceeds the frame bound"),
        ));
    }
    out[at..at + LEN_BYTES].copy_from_slice(&(len as u32).to_le_bytes());
    let sum = checksum(&out[at + LEN_BYTES..]);
    out.extend_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Bytes of a frame's length field.
const LEN_BYTES: usize = 4;

/// Bytes of a frame's checksum.
const SUM_BYTES: usize = 8;

/// One intact frame of a log image.
pub(crate) struct Frame {
    /// Where its payload lies in the image.
    pub payload: Range<usize>,
    /// The offset just past it, where the next frame starts.
    pub end: usize,
}

/// The frame starting at byte `at` of `bytes`, `None` at a clean end, or
/// the tail that ends the intact prefix at `at` (torn, or failing its
/// integrity check).
pub(crate) fn next_frame(bytes: &[u8], at: usize) -> Result<Option<Frame>, WalTail> {
    let rest = &bytes[at..];
    if rest.is_empty() {
        return Ok(None);
    }
    if rest.len() < LEN_BYTES {
        return Err(WalTail::Torn { at });
    }
    let len = u32::from_le_bytes(rest[..LEN_BYTES].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD {
        return Err(WalTail::Corrupt {
            start: at,
            end: at + LEN_BYTES,
            what: "impossible record length",
        });
    }
    let payload = at + LEN_BYTES..at + LEN_BYTES + len;
    let end = payload.end + SUM_BYTES;
    if bytes.len() < end {
        return Err(WalTail::Torn { at });
    }
    let stored = u64::from_le_bytes(bytes[payload.end..end].try_into().expect("8 bytes"));
    if checksum(&bytes[payload.clone()]) != stored {
        return Err(WalTail::Corrupt {
            start: payload.start,
            end: payload.end,
            what: "record failed its FNV-1a check",
        });
    }
    Ok(Some(Frame { payload, end }))
}

/// Scan a WAL image into records plus a tail classification. Never
/// fails: damage is reported in [`WalScan::tail`], and the records of
/// the intact prefix are always returned.
#[must_use]
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut at = 0usize;
    loop {
        let tail = match next_frame(bytes, at) {
            Ok(None) => WalTail::Clean,
            Ok(Some(Frame { payload, end })) => match decode_payload(&bytes[payload.clone()]) {
                Ok(record) => {
                    records.push(record);
                    at = end;
                    continue;
                }
                Err(_) => WalTail::Corrupt {
                    start: payload.start,
                    end: payload.end,
                    what: "record checksum ok but contents undecodable",
                },
            },
            Err(tail) => tail,
        };
        return WalScan { records, intact_len: at, tail };
    }
}

/// An open, append-only WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    fsync: bool,
    bytes: u64,
    /// The frame being written, kept between appends so a tick's append
    /// reuses its capacity instead of allocating.
    frame: Vec<u8>,
}

impl WalWriter {
    /// Open (creating if absent) the WAL at `path` for appending.
    pub fn open(path: &Path, fsync: bool) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = file.metadata()?.len();
        Ok(Self { file, fsync, bytes, frame: Vec::new() })
    }

    /// Append one record and flush it to the OS. With `fsync` the write
    /// is also forced to stable storage — survives power loss, not just
    /// process death.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.frame.clear();
        frame_into(&mut self.frame, |enc| encode_payload(record, enc))?;
        self.file.write_all(&self.frame)?;
        self.file.flush()?;
        if self.fsync {
            self.file.sync_data()?;
        }
        self.bytes += self.frame.len() as u64;
        Ok(())
    }

    /// Size of the file this writer has appended through, in bytes —
    /// what segment rotation checks against its threshold.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Force everything appended so far to stable storage (graceful
    /// shutdown does this even when per-append `fsync` is off).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.sync_data()
    }
}

/// Read a whole WAL file; a missing file is an empty log.
pub fn read_file(path: &Path) -> io::Result<Vec<u8>> {
    match File::open(path) {
        Ok(mut f) => {
            let mut buf = Vec::new();
            f.read_to_end(&mut buf)?;
            Ok(buf)
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

/// Truncate the WAL at `path` to `len` bytes (drop a torn tail).
pub fn truncate_file(path: &Path, len: usize) -> io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len as u64)
}

/// `<dir>/<tenant>.wal`
#[must_use]
pub fn wal_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.wal"))
}

/// `<dir>/<tenant>.snap` — where formats 2 and 3 kept a tenant's
/// snapshot. This build never writes one, and refuses to start over one
/// that was never migrated (`crate::state`).
#[must_use]
pub fn snap_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.snap"))
}

/// `<dir>/<tenant>.hist` — the tenant's history log (`crate::state`).
#[must_use]
pub fn hist_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.hist"))
}

/// `<dir>/<tenant>.NNNNNNNNNNNN.walseg` — a sealed segment running
/// through `through` accepted ticks (zero-padded so the lexicographic
/// order of segment files is their numeric order).
#[must_use]
pub fn seg_path(dir: &Path, tenant: &str, through: u64) -> PathBuf {
    dir.join(format!("{tenant}.{through:012}.walseg"))
}

/// Parse a sealed segment's file name, `<tenant>.NNNNNNNNNNNN.walseg`,
/// into `(tenant, through)`; `None` for any other name.
#[must_use]
pub(crate) fn parse_seg_name(file: &str) -> Option<(&str, u64)> {
    let (tenant, digits) = file.strip_suffix(".walseg")?.rsplit_once('.')?;
    if digits.len() != 12 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((tenant, digits.parse().ok()?))
}

/// The sealed segments of `tenant` under `dir`, as `(through, path)`
/// pairs in ascending `through` order. A missing directory is an empty
/// list; files whose names don't parse are ignored (they are not ours).
/// It reads the whole directory, so the daemon does not call it: it
/// reads the directory once at startup and tracks each tenant's
/// segments itself from then on.
#[must_use]
pub fn list_segments(dir: &Path, tenant: &str) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        match parse_seg_name(name) {
            Some((owner, through)) if owner == tenant => out.push((through, path)),
            _ => {}
        }
    }
    out.sort_by_key(|&(through, _)| through);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GridSpec;

    fn spec() -> TenantSpec {
        TenantSpec {
            fleet: "homogeneous:4".into(),
            algo: "b".into(),
            engine: true,
            cache: false,
            grid: GridSpec::Full,
            deadline_us: None,
            snapshot_every: 0,
        }
    }

    fn sample_log() -> (Vec<WalRecord>, Vec<u8>) {
        let records = vec![
            WalRecord::Register(spec()),
            WalRecord::Tick { seq: 0, load: 1.5 },
            WalRecord::Tick { seq: 1, load: 0.0 },
            WalRecord::Tick { seq: 2, load: 2.25 },
        ];
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&frame(r));
        }
        (records, bytes)
    }

    #[test]
    fn clean_logs_round_trip() {
        let (records, bytes) = sample_log();
        let s = scan(&bytes);
        assert_eq!(s.tail, WalTail::Clean);
        assert_eq!(s.records, records);
        assert_eq!(s.intact_len, bytes.len());
        assert_eq!(scan(&[]).tail, WalTail::Clean);
    }

    #[test]
    fn every_truncation_point_is_torn_or_clean_never_corrupt() {
        let (records, bytes) = sample_log();
        let boundaries: Vec<usize> = {
            let mut v = vec![0];
            let mut at = 0;
            for r in &records {
                at += frame(r).len();
                v.push(at);
            }
            v
        };
        for cut in 0..bytes.len() {
            let s = scan(&bytes[..cut]);
            if boundaries.contains(&cut) {
                assert_eq!(s.tail, WalTail::Clean, "cut at boundary {cut}");
            } else {
                let at = *boundaries.iter().filter(|&&b| b <= cut).max().unwrap();
                assert_eq!(s.tail, WalTail::Torn { at }, "cut at {cut}");
                assert_eq!(s.intact_len, at);
            }
            // The recovered prefix is always a prefix of the original.
            assert_eq!(s.records[..], records[..s.records.len()]);
        }
    }

    #[test]
    fn bit_flips_in_payload_or_checksum_are_corrupt() {
        let (_, bytes) = sample_log();
        // Flip a bit inside the first record's payload.
        let mut dirty = bytes.clone();
        dirty[6] ^= 0x10;
        let s = scan(&dirty);
        match s.tail {
            WalTail::Corrupt { start, end, .. } => {
                assert!(start <= 6 && 6 < end, "range {start}..{end} must cover the flip");
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
        assert!(s.records.is_empty());

        // An impossible declared length is corruption, not a torn tail.
        let mut huge = bytes;
        huge[0..4].copy_from_slice(&(MAX_RECORD as u32 + 1).to_le_bytes());
        assert!(matches!(scan(&huge).tail, WalTail::Corrupt { .. }));
    }

    #[test]
    fn segment_listing_orders_and_filters() {
        let dir = std::env::temp_dir().join(format!("rsz-walseg-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for through in [12u64, 3, 7] {
            std::fs::write(seg_path(&dir, "t1", through), b"x").unwrap();
        }
        // Another tenant's segment and unrelated files must not leak in.
        std::fs::write(seg_path(&dir, "t2", 1), b"x").unwrap();
        std::fs::write(dir.join("t1.wal"), b"x").unwrap();
        std::fs::write(dir.join("t1.notdigits.walseg"), b"x").unwrap();
        let segs = list_segments(&dir, "t1");
        let throughs: Vec<u64> = segs.iter().map(|&(t, _)| t).collect();
        assert_eq!(throughs, vec![3, 7, 12]);
        assert!(list_segments(&dir.join("missing"), "t1").is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_tracks_bytes_across_reopen() {
        let dir = std::env::temp_dir().join(format!("rsz-walbytes-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = wal_path(&dir, "t");
        let mut w = WalWriter::open(&path, false).unwrap();
        assert_eq!(w.bytes(), 0);
        w.append(&WalRecord::Tick { seq: 0, load: 1.0 }).unwrap();
        let after_one = w.bytes();
        assert_eq!(after_one as usize, frame(&WalRecord::Tick { seq: 0, load: 1.0 }).len());
        drop(w);
        let w = WalWriter::open(&path, false).unwrap();
        assert_eq!(w.bytes(), after_one, "reopen must resume the on-disk size");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_appends_scannable_records() {
        let dir = std::env::temp_dir().join(format!("rsz-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = wal_path(&dir, "t1");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path, false).unwrap();
        w.append(&WalRecord::Register(spec())).unwrap();
        w.append(&WalRecord::Tick { seq: 0, load: 3.0 }).unwrap();
        drop(w);
        // Re-open appends, as a restarted daemon would.
        let mut w = WalWriter::open(&path, false).unwrap();
        w.append(&WalRecord::Tick { seq: 1, load: 1.0 }).unwrap();
        drop(w);
        let bytes = read_file(&path).unwrap();
        let s = scan(&bytes);
        assert_eq!(s.tail, WalTail::Clean);
        assert_eq!(s.records.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
