//! The daemon's state formats, in one place: the rolling state digest
//! and the replica fingerprint built from it, and the `<tenant>.hist`
//! history log with its checkpoint records. None of them costs more as
//! a tenant ages: a fingerprint is O(1), and a snapshot is one append of
//! O(cadence) bytes.
//!
//! **Rolling digest.** Each tenant keeps two FNV-1a states
//! ([`StateDigest`]): one over its accepted loads, folded once per
//! accepted tick (the load's 8 bit-pattern bytes), and one over its
//! committed decisions, folded once per decision (dimension, then each
//! count). They cover the load and decision streams *as they were
//! folded*: a later in-memory change to an old load does not reach
//! them. It shows when the history is read again — by recovery, whose
//! digest check compares the log's slot records with its checkpoint, or
//! by a fresh replica, which folds what the primary ships.
//!
//! **Fingerprint, layout 2.** FNV-1a over a small header: layout byte
//! `2`, the encoded spec, `k`, the load digest, the decision digest
//! (only when `full`: with a deadline armed, decisions follow
//! wall-clock overruns and a faithful replica may differ) and the
//! `full` flag. [`state_fingerprint`] computes the same value from
//! scratch through the same folding code. Layout 1 hashed the whole
//! history inside an `RSZSNAP` envelope at every fingerprint; sync
//! replies carry the two layouts under different keys (`fps`, `fps2`).
//!
//! **History log, format 4.** Frames in the WAL's framing (length,
//! payload, FNV-1a), of two kinds:
//! * a *slot record* per committed slot: `seq`, the load's bit pattern,
//!   and the decision (dimension, then each count), `seq` counting up
//!   from 0;
//! * a *checkpoint record*: the tag [`CHECKPOINT_TAG`] (a `seq` no slot
//!   reaches), format byte `4`, `k`, both digest states at `k`, the
//!   tenant name, the spec, and the controller's algorithm tag + state
//!   ([`rsz_online::save_controller`], envelope-version-3 layouts).
//!
//! A snapshot is one `write`: the slot records since the previous
//! checkpoint, then a checkpoint at `k` ([`encode_append`]). The log is
//! created at a tenant's first snapshot. A crash mid-append leaves a
//! torn tail after the previous checkpoint, whose slot records, and the
//! WAL, are intact. Recovery ([`read_log`]) reads the log once, folds
//! the slot records into a digest as it goes, and keeps the last
//! checkpoint whose `k` and digests agree with the slot records before
//! it — only that one's controller is decoded. Everything after it is
//! cut off, and the WAL replays past `k`.
//!
//! **Older formats are refused, not read.** Formats 2 and 3 kept a
//! tenant's checkpoint in a `<tenant>.snap` beside the log: a sealed
//! `RSZSNAP` envelope of version 1 (format 2, with no log) or 2 (format
//! 3, over a log of slot records only). Builds from commit e36abfb
//! through 71b71ff read them, and a tenant's first recovery there wrote
//! a format-4 checkpoint and deleted the `.snap`. A `.snap` whose log
//! holds no checkpoint record was never migrated, and the daemon refuses
//! to start over it ([`check_snap`]): the error names the file, its
//! format and the upgrade path — start one of those builds once over the
//! directory. A `.snap` beside a log that does hold a checkpoint record
//! is what a migration leaves when its delete fails, and is ignored.

use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;

use rsz_core::Config;
use rsz_offline::{checksum, checksum_continue, payload_range, Decoder, Encoder, SnapshotError};
use rsz_online::{save_controller, Checkpoint};

use crate::protocol::wire;
use crate::spec::TenantSpec;
use crate::wal;

/// The fingerprint layout this build computes. Sync replies carry its
/// entries under `fps2` (layout 1 travelled under `fps`), so a build
/// reads only entries of its own layout.
const FINGERPRINT_LAYOUT: u8 = 2;

/// What a checkpoint record's payload starts with where a slot record
/// has its `seq`: no slot ever reaches it.
const CHECKPOINT_TAG: u64 = u64::MAX;

/// The checkpoint format this build writes and reads (formats 2 and 3
/// were `.snap` files). Its controller state is in the current envelope
/// version's layouts (3), so a layout change bumps it too.
const CHECKPOINT_FORMAT: u8 = 4;

/// A tenant's rolling FNV-1a states over its accepted loads and its
/// committed decisions. The default is the digest of nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StateDigest {
    /// FNV-1a over every accepted load's bit pattern, in seq order.
    pub loads: u64,
    /// FNV-1a over every committed decision, in slot order.
    pub decisions: u64,
}

impl Default for StateDigest {
    fn default() -> Self {
        Self { loads: checksum(&[]), decisions: checksum(&[]) }
    }
}

impl StateDigest {
    /// The digest of `loads` and `decisions` from scratch.
    #[must_use]
    pub fn of(loads: &[f64], decisions: &[Config]) -> Self {
        let mut digest = Self::default();
        loads.iter().for_each(|&load| digest.fold_load(load));
        decisions.iter().for_each(|config| digest.fold_decision(config));
        digest
    }

    /// Fold the next accepted load.
    pub fn fold_load(&mut self, load: f64) {
        self.loads = checksum_continue(self.loads, &load.to_bits().to_le_bytes());
    }

    /// Fold the next committed decision.
    pub fn fold_decision(&mut self, config: &Config) {
        let counts = config.counts();
        let mut h = checksum_continue(self.decisions, &(counts.len() as u64).to_le_bytes());
        for &c in counts {
            h = checksum_continue(h, &c.to_le_bytes());
        }
        self.decisions = h;
    }

    /// The layout-2 fingerprint of a tenant under `spec` whose digests
    /// cover `k` accepted ticks (and, when `full`, `k` decisions).
    #[must_use]
    pub fn fingerprint(&self, spec: &TenantSpec, k: usize, full: bool) -> u64 {
        let mut head = Encoder::new();
        head.put_u8(FINGERPRINT_LAYOUT);
        spec.encode(&mut head);
        head.put_usize(k);
        head.put_u64(self.loads);
        if full {
            head.put_u64(self.decisions);
        }
        head.put_u8(u8::from(full));
        checksum(head.payload())
    }
}

/// The layout-2 fingerprint of one tenant at `loads.len()` accepted
/// ticks, computed from scratch: what the daemon's rolling digest gives
/// at the same point. Pass `decisions` only when the degradation ladder
/// is off for this tenant; both sides of a sync derive that flag the
/// same way. O(age) — the reference a replica falls back to for a `k`
/// it did not record itself.
#[must_use]
pub fn state_fingerprint(spec: &TenantSpec, loads: &[f64], decisions: Option<&[Config]>) -> u64 {
    StateDigest::of(loads, decisions.unwrap_or(&[])).fingerprint(
        spec,
        loads.len(),
        decisions.is_some(),
    )
}

/// One snapshot's append, encoded into `out` (cleared first): a slot
/// record for each of the committed slots `from..k` (their `loads` and
/// `decisions`), then a checkpoint at `k` of tenant `name` — its spec,
/// `digest` (the digest states at `k`) and `controller`. Fails only when
/// a record outgrows the log's frame bound ([`wal::MAX_RECORD`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_append(
    out: &mut Vec<u8>,
    from: usize,
    loads: &[f64],
    decisions: &[Config],
    name: &str,
    spec: &TenantSpec,
    digest: &StateDigest,
    controller: &impl Checkpoint,
) -> io::Result<()> {
    out.clear();
    for (i, (&load, config)) in loads.iter().zip(decisions).enumerate() {
        wal::frame_into(out, |enc| {
            enc.put_u64((from + i) as u64);
            enc.put_f64(load);
            enc.put_usize(config.counts().len());
            config.counts().iter().for_each(|&c| enc.put_u32(c));
        })?;
    }
    wal::frame_into(out, |enc| {
        enc.put_u64(CHECKPOINT_TAG);
        enc.put_u8(CHECKPOINT_FORMAT);
        enc.put_usize(from + loads.len());
        enc.put_u64(digest.loads);
        enc.put_u64(digest.decisions);
        enc.put_bytes(name.as_bytes());
        spec.encode(enc);
        save_controller(controller, enc);
    })
}

/// Append `bytes` to the history log at `path` with one write, creating
/// the log if needed. `cut`, when known, is where the records known good
/// end: the file is cut back to it first, so nothing a failed append
/// left behind stays in front of the new records.
pub(crate) fn append_log(
    path: &Path,
    bytes: &[u8],
    cut: Option<u64>,
    fsync: bool,
) -> io::Result<()> {
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    if let Some(len) = cut {
        file.set_len(len)?;
    }
    file.write_all(bytes)?;
    if fsync {
        file.sync_data()?;
    }
    Ok(())
}

/// One intact frame of a history log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoryFrame {
    /// The frame's bytes in the log, framing included.
    pub range: Range<usize>,
    /// Its payload's bytes in the log.
    pub payload: Range<usize>,
    /// `Some(k)` for a checkpoint record at `k`, `None` for a slot
    /// record.
    pub checkpoint: Option<usize>,
}

/// The frames of the history log image `bytes`, in order, up to the end
/// or the first frame that is torn or fails its checksum. A checkpoint
/// is told by its tag; its `k` is read, nothing else is decoded.
#[must_use]
pub fn history_frames(bytes: &[u8]) -> Vec<HistoryFrame> {
    let mut frames = Vec::new();
    let mut at = 0;
    while let Ok(Some(wal::Frame { payload, end })) = wal::next_frame(bytes, at) {
        let mut dec = Decoder::over(&bytes[payload.clone()]);
        let checkpoint = match dec.take_u64() {
            Ok(CHECKPOINT_TAG) => checkpoint_head(&mut dec).ok().map(|(k, _)| k),
            _ => None,
        };
        frames.push(HistoryFrame { range: at..end, payload, checkpoint });
        at = end;
    }
    frames
}

/// A checkpoint record's fixed head, after its tag: `k` and the digest
/// states at `k`.
fn checkpoint_head(dec: &mut Decoder<'_>) -> Result<(usize, StateDigest), SnapshotError> {
    if dec.take_u8()? != CHECKPOINT_FORMAT {
        return Err(SnapshotError::Corrupt("unknown checkpoint format"));
    }
    let k = dec.take_usize()?;
    let loads = dec.take_u64()?;
    let decisions = dec.take_u64()?;
    Ok((k, StateDigest { loads, decisions }))
}

/// What recovery reads back from a history log ([`read_log`]).
pub(crate) struct Log<'a> {
    /// The loads of the slot records, in seq order, up to the end or
    /// the first damaged frame.
    loads: Vec<f64>,
    /// Their committed decisions.
    decisions: Vec<Config>,
    /// The last checkpoint whose `k` and digests agree with the slot
    /// records in front of it.
    checkpoint: Option<LogCheckpoint<'a>>,
}

/// A checkpoint record recovery may restore from.
struct LogCheckpoint<'a> {
    /// Committed slots it covers.
    k: usize,
    /// Both digest states at `k`.
    digest: StateDigest,
    /// The byte offset just past the record.
    end: usize,
    /// The rest of the record: name, spec, controller.
    body: Decoder<'a>,
}

/// The tenant name and spec a checkpoint record holds, checking that
/// the name is `name`.
fn take_owner(dec: &mut Decoder<'_>, name: &str) -> Result<TenantSpec, String> {
    let owner = wire::take_str(dec, "tenant name is not UTF-8").map_err(|e| e.to_string())?;
    if owner != name {
        return Err(format!("state belongs to tenant `{owner}`"));
    }
    TenantSpec::decode(dec).map_err(|e| e.to_string())
}

/// Read the history log image `bytes` of a tenant whose fleet has `d`
/// server types, in one pass: every slot record up to the end or the
/// first damaged frame (torn, failing its checksum, or out of place),
/// and the last checkpoint that agrees with them. Checkpoints that
/// disagree are passed over; only their frame checksums are read.
pub(crate) fn read_log(bytes: &[u8], d: usize) -> Log<'_> {
    let mut log = Log { loads: Vec::new(), decisions: Vec::new(), checkpoint: None };
    let mut digest = StateDigest::default();
    let mut at = 0;
    while let Ok(Some(wal::Frame { payload, end })) = wal::next_frame(bytes, at) {
        let mut dec = Decoder::over(&bytes[payload]);
        let Ok(first) = dec.take_u64() else { break };
        if first == CHECKPOINT_TAG {
            if let Ok((k, at_k)) = checkpoint_head(&mut dec) {
                if k == log.loads.len() && at_k == digest {
                    log.checkpoint = Some(LogCheckpoint { k, digest, end, body: dec });
                }
            }
        } else {
            let Ok((load, config)) = take_slot(&mut dec, first, log.loads.len(), d) else { break };
            digest.fold_load(load);
            digest.fold_decision(&config);
            log.loads.push(load);
            log.decisions.push(config);
        }
        at = end;
    }
    log
}

/// The rest of a slot record whose `seq` was read: it must be slot
/// `expect` of a fleet of `d` types.
fn take_slot(
    dec: &mut Decoder<'_>,
    seq: u64,
    expect: usize,
    d: usize,
) -> Result<(f64, Config), SnapshotError> {
    let load = dec.take_f64()?;
    let len = dec.take_usize()?;
    if seq != expect as u64 || len != d {
        return Err(SnapshotError::Corrupt("history record out of place"));
    }
    let counts = (0..len).map(|_| dec.take_u32()).collect::<Result<_, _>>()?;
    if !dec.is_empty() {
        return Err(SnapshotError::Corrupt("trailing bytes in a history record"));
    }
    Ok((load, Config::new(counts)))
}

/// The checkpoint recovery restores a tenant from, and the committed
/// history in front of it.
pub(crate) struct Found<'a> {
    /// The spec the checkpoint was taken under.
    pub spec: TenantSpec,
    /// Committed slots it covers.
    pub k: usize,
    /// The accepted loads `0..k`.
    pub loads: Vec<f64>,
    /// The committed decisions `0..k`.
    pub decisions: Vec<Config>,
    /// The controller's tag + state, for
    /// [`rsz_online::restore_controller`].
    pub controller: Decoder<'a>,
    /// Both digest states at `k`.
    pub digest: StateDigest,
    /// Where the history up to `k` ends in the log.
    pub log_end: usize,
}

/// Find the checkpoint to restore tenant `name` from: the last one in
/// the history log `read` that agrees with the slot records before it.
pub(crate) fn find_checkpoint<'a>(mut read: Log<'a>, name: &str) -> Result<Found<'a>, String> {
    let LogCheckpoint { k, digest, end, body: mut controller } =
        read.checkpoint.ok_or("the history log holds no usable checkpoint")?;
    let spec = take_owner(&mut controller, name)?;
    read.loads.truncate(k);
    read.decisions.truncate(k);
    let (loads, decisions) = (read.loads, read.decisions);
    Ok(Found { spec, k, loads, decisions, controller, digest, log_end: end })
}

/// The spec of tenant `name` as the history log image `log` records it:
/// its last intact checkpoint record, digests unchecked.
pub(crate) fn spec_on_disk(log: &[u8], name: &str) -> Option<TenantSpec> {
    let last = history_frames(log).into_iter().rev().find(|f| f.checkpoint.is_some())?;
    let mut dec = Decoder::over(&log[last.payload]);
    dec.take_u64().ok()?;
    checkpoint_head(&mut dec).ok()?;
    take_owner(&mut dec, name).ok()
}

/// Check the `.snap` an older build left for `tenant` in the state
/// directory `dir`. When the tenant's history log holds a checkpoint
/// record, the `.snap` was migrated and only its delete failed: it is
/// ignored. Otherwise the state was never migrated, and the error names
/// the file, its format and the upgrade path.
pub(crate) fn check_snap(dir: &Path, tenant: &str) -> io::Result<()> {
    let log = std::fs::read(wal::hist_path(dir, tenant)).unwrap_or_default();
    if history_frames(&log).iter().any(|f| f.checkpoint.is_some()) {
        return Ok(());
    }
    // The format, 2 or 3, is told by the version byte (1 or 2) of the
    // `.snap`'s envelope, which the decoder refuses before anything else.
    let snap = wal::snap_path(dir, tenant);
    let format = match std::fs::read(&snap).as_deref().map(Decoder::from_sealed) {
        Ok(Err(SnapshotError::BadVersion(v @ 1..=2))) => format!("state format {}", v + 1),
        _ => "an older state format".to_owned(),
    };
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{} holds {format}, which this build no longer reads; to upgrade the state \
             directory, start any build from commit e36abfb through 71b71ff over it once \
             (its recovery rewrites every tenant in state format {CHECKPOINT_FORMAT}), then \
             start this one",
            snap.display()
        ),
    ))
}

/// Human-readable snapshot failure, including the byte range that
/// failed the FNV-1a check when that is what happened.
pub fn describe_snapshot_error(bytes: &[u8], e: &SnapshotError) -> String {
    if matches!(e, SnapshotError::ChecksumMismatch) {
        if let Some(range) = payload_range(bytes) {
            return format!("{e} (bytes {}..{} failed the FNV-1a check)", range.start, range.end);
        }
    }
    format!("{e}")
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

    #[test]
    fn fingerprints_are_deterministic_and_bit_sensitive() {
        let loads = [1.0, 2.5, 0.25];
        let decisions = vec![Config::new(vec![1]), Config::new(vec![2]), Config::new(vec![1])];
        let a = state_fingerprint(&spec(), &loads, Some(&decisions));
        assert_eq!(a, state_fingerprint(&spec(), &loads, Some(&decisions)));
        // One mantissa bit in one load must change the fingerprint.
        let mut flipped = loads;
        flipped[1] = f64::from_bits(flipped[1].to_bits() ^ (1 << 30));
        assert_ne!(a, state_fingerprint(&spec(), &flipped, Some(&decisions)));
        // A different decision must change the full flavor…
        let mut other = decisions.clone();
        other[2] = Config::new(vec![3]);
        assert_ne!(a, state_fingerprint(&spec(), &loads, Some(&other)));
        // …and the loads-only flavor must ignore decisions entirely.
        let loads_only = state_fingerprint(&spec(), &loads, None);
        assert_eq!(loads_only, StateDigest::of(&loads, &other).fingerprint(&spec(), 3, false));
        assert_ne!(a, loads_only);
        // So must the spec and the count the digests claim to cover.
        let mut gamma = spec();
        gamma.grid = GridSpec::Gamma(2.0);
        assert_ne!(a, state_fingerprint(&gamma, &loads, Some(&decisions)));
        assert_ne!(a, StateDigest::of(&loads, &decisions).fingerprint(&spec(), 4, true));
    }

    #[test]
    fn rolling_digest_equals_the_from_scratch_fingerprint_at_every_k() {
        let loads: Vec<f64> = (0..40).map(|i| f64::from(i * 7 % 13) * 0.3).collect();
        let decisions: Vec<Config> =
            (0..40u32).map(|i| Config::new(vec![i % 4, (i * 3) % 5])).collect();
        let mut rolling = StateDigest::default();
        for k in 0..=40 {
            for full in [false, true] {
                let committed = full.then(|| &decisions[..k]);
                assert_eq!(
                    rolling.fingerprint(&spec(), k, full),
                    state_fingerprint(&spec(), &loads[..k], committed),
                    "k {k}, full {full}"
                );
            }
            if k < 40 {
                rolling.fold_load(loads[k]);
                rolling.fold_decision(&decisions[k]);
            }
        }
    }

    /// A stand-in controller whose whole state is one number.
    struct Counter(u64);

    impl Checkpoint for Counter {
        fn algo_tag(&self) -> &'static str {
            "counter"
        }

        fn save_state(&self, enc: &mut Encoder) {
            enc.put_u64(self.0);
        }

        fn restore_state(
            &mut self,
            _: &rsz_core::Instance,
            dec: &mut Decoder<'_>,
        ) -> Result<(), SnapshotError> {
            self.0 = dec.take_u64()?;
            Ok(())
        }
    }

    /// Append the slots `from..to` and a checkpoint at `to` with digests
    /// `digest` to the log at `path`; returns the append's length.
    fn append(path: &Path, cut: Option<u64>, from: usize, to: usize, digest: &StateDigest) -> u64 {
        let (loads, decisions) = slots();
        let mut buf = Vec::new();
        let (loads, decisions) = (&loads[from..to], &decisions[from..to]);
        encode_append(&mut buf, from, loads, decisions, "t", &spec(), digest, &Counter(to as u64))
            .unwrap();
        append_log(path, &buf, cut, false).unwrap();
        buf.len() as u64
    }

    fn slots() -> (Vec<f64>, Vec<Config>) {
        let loads = (0..20).map(|i| f64::from(i) * 0.5).collect();
        let decisions = (0..20u32).map(|i| Config::new(vec![i % 3, 1])).collect();
        (loads, decisions)
    }

    fn digest_at(k: usize) -> StateDigest {
        let (loads, decisions) = slots();
        StateDigest::of(&loads[..k], &decisions[..k])
    }

    #[test]
    fn log_reads_back_to_its_last_agreeing_checkpoint() {
        let dir = std::env::temp_dir().join(format!("rsz-hist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = wal::hist_path(&dir, "t");
        let first = append(&path, None, 0, 8, &digest_at(8));
        // Junk past the known-good end (a failed append) is cut first.
        std::fs::OpenOptions::new().append(true).open(&path).unwrap().write_all(b"junk").unwrap();
        let full = first + append(&path, Some(first), 8, 20, &digest_at(20));
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, full);

        // Slot records are the bytes the format-3 log held.
        let frames = history_frames(&bytes);
        let ks: Vec<_> = frames.iter().filter_map(|f| f.checkpoint).collect();
        assert_eq!((frames.len(), ks), (22, vec![8, 20]));
        let payload = &bytes[frames[1].payload.clone()];
        let mut legacy = Encoder::new();
        legacy.put_u64(1);
        legacy.put_f64(0.5);
        legacy.put_usize(2);
        legacy.put_u32(1);
        legacy.put_u32(1);
        assert_eq!(payload, legacy.payload());

        let (loads, decisions) = slots();
        let log = read_log(&bytes, 2);
        assert_eq!((log.loads.as_slice(), log.decisions.as_slice()), (&loads[..], &decisions[..]));
        let checkpoint = log.checkpoint.as_ref().unwrap();
        assert_eq!(
            (checkpoint.k, checkpoint.end, checkpoint.digest),
            (20, bytes.len(), digest_at(20))
        );
        let mut dec = checkpoint.body.clone();
        assert_eq!(take_owner(&mut dec, "t").unwrap(), spec());
        assert_eq!((dec.take_bytes().unwrap(), dec.take_u64().unwrap()), (&b"counter"[..], 20));
        assert!(dec.is_empty());
        assert!(take_owner(&mut checkpoint.body.clone(), "u").is_err(), "another tenant's");
        assert_eq!(spec_on_disk(&bytes, "t"), Some(spec()));

        // Torn inside the last checkpoint: the one before it is used, and
        // the slot records between them are still read.
        let torn = &bytes[..bytes.len() - 5];
        let log = read_log(torn, 2);
        assert_eq!((log.loads.len(), log.checkpoint.map(|c| c.k)), (20, Some(8)));
        // A flipped slot record ends the read there.
        let mut flipped = bytes.clone();
        flipped[frames[10].range.start + 9] ^= 1;
        let log = read_log(&flipped, 2);
        assert_eq!((log.loads.len(), log.checkpoint.map(|c| c.k)), (9, Some(8)));
        // A checkpoint whose digests, or whose `k`, disagree with the slot
        // records before it is passed over; so is a log read for the
        // wrong fleet.
        let mut wrong = bytes[..frames[8].range.end].to_vec();
        for (k, digest) in [(8, digest_at(7)), (7, digest_at(7))] {
            let mut buf = Vec::new();
            encode_append(&mut buf, k, &[], &[], "t", &spec(), &digest, &Counter(0)).unwrap();
            wrong.extend_from_slice(&buf);
        }
        let checkpoint = read_log(&wrong, 2).checkpoint.unwrap();
        assert_eq!((checkpoint.k, checkpoint.end), (8, frames[8].range.end));
        let log = read_log(&bytes, 3);
        assert!(log.loads.is_empty() && log.checkpoint.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    mod digest_props {
        use super::*;
        use crate::daemon::{lock_clean, Daemon, ServeOptions};
        use crate::replication::Role;
        use crate::tenant::QuarantineReason;
        use proptest::prelude::*;

        fn tmp_dir(tag: &str) -> std::path::PathBuf {
            let dir =
                std::env::temp_dir().join(format!("rsz-state-test-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            dir
        }

        /// Every tenant's rolling digest equals the digest of its
        /// in-memory loads and decisions, computed from scratch.
        fn assert_digests_track(daemon: &Daemon, after: &str) {
            for (name, loads, decisions, digest) in daemon.tenant_states() {
                let loads: Vec<f64> = loads.into_iter().map(f64::from_bits).collect();
                assert_eq!(digest, StateDigest::of(&loads, &decisions), "{name} after {after}");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Random interleavings of ticks, kill-restarts, revivals,
            /// failed WAL appends and capped replica syncs keep every
            /// rolling digest — primary and replica — equal to its
            /// from-scratch value.
            #[test]
            fn rolling_digests_track_the_in_memory_state(
                ops in prop::collection::vec((0u8..7, 0usize..2, 0.0..3.0_f64), 1..48),
            ) {
                let (pdir, rdir) = (tmp_dir("digest-p"), tmp_dir("digest-r"));
                // Gates short enough that the tick after a failed append
                // revives the tenant.
                let short = std::time::Duration::from_micros(1);
                let opts = |dir: &std::path::Path| ServeOptions {
                    state_dir: dir.to_path_buf(),
                    snapshot_every: 3,
                    fingerprint_every: 2,
                    backoff_base: short,
                    backoff_cap: short,
                    ..ServeOptions::default()
                };
                let names = ["b", "c"];
                let register = |d: &Daemon| {
                    for (name, algo) in names.iter().zip(["b", "c:0.5"]) {
                        let reg = format!(
                            r#"{{"op":"register","tenant":"{name}","fleet":"cpu-gpu:2,1","algo":"{algo}"}}"#
                        );
                        assert!(d.handle(&reg).contains("\"ok\":true"));
                    }
                };
                let mut primary = Daemon::new(opts(&pdir)).unwrap();
                register(&primary);
                let replica = Daemon::new(opts(&rdir)).unwrap();
                replica.set_role(Role::Replica);
                for (op, who, load) in ops {
                    let name = names[who];
                    let what = match op {
                        0..=2 => {
                            let seq = primary.replication_have()[who].1;
                            let line = format!(
                                r#"{{"op":"tick","tenant":"{name}","seq":{seq},"load":{load}}}"#
                            );
                            primary.handle(&line);
                            "tick"
                        }
                        3 => {
                            drop(primary);
                            primary = Daemon::new(opts(&pdir)).unwrap();
                            "restart"
                        }
                        4 => {
                            let slot = lock_clean(&primary.tenants).get(name).cloned().unwrap();
                            let mut st = lock_clean(&slot.state);
                            st.controller = None;
                            primary.revive(&mut st, name).unwrap();
                            "revive"
                        }
                        5 => {
                            // The append of the next tick fails after
                            // writing part (or all) of its frame, and the
                            // tenant quarantines as `tick_core` makes it.
                            let slot = lock_clean(&primary.tenants).get(name).cloned().unwrap();
                            let mut st = lock_clean(&slot.state);
                            if st.quarantine.is_none() {
                                let seq = st.accepted() as u64;
                                let frame = wal::frame(&wal::WalRecord::Tick { seq, load });
                                let written = if load < 1.5 { frame.len() / 2 } else { frame.len() };
                                std::fs::OpenOptions::new()
                                    .append(true)
                                    .open(wal::wal_path(&pdir, name))
                                    .and_then(|mut f| f.write_all(&frame[..written]))
                                    .unwrap();
                                let detail = "WAL append failed".to_owned();
                                primary.quarantine(&mut st, name, QuarantineReason::Io, detail);
                            }
                            "failed append"
                        }
                        _ => {
                            let have = replica.replication_have();
                            let reply = primary.sync_reply_capped("r", &have, 200);
                            let report = replica.apply_sync(&reply).unwrap();
                            prop_assert_eq!(report.fp_mismatches, 0);
                            "sync"
                        }
                    };
                    assert_digests_track(&primary, what);
                    assert_digests_track(&replica, what);
                }
                std::fs::remove_dir_all(&pdir).unwrap();
                std::fs::remove_dir_all(&rdir).unwrap();
            }
        }
    }
}
