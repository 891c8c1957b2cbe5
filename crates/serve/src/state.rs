//! The daemon's state formats, in one place: the rolling state digest
//! and the replica fingerprint built from it, the `<tenant>.snap`
//! snapshot, and the `<tenant>.hist` history log. None of them costs
//! more as a tenant ages: a fingerprint is O(1), a snapshot writes
//! O(cadence) bytes.
//!
//! **Rolling digest.** Each tenant keeps two FNV-1a states
//! ([`StateDigest`]): one over its accepted loads, folded once per
//! accepted tick (the load's 8 bit-pattern bytes), and one over its
//! committed decisions, folded once per decision (dimension, then each
//! count). They cover the load and decision streams *as they were
//! folded*: a later in-memory change to an old load does not reach
//! them. It shows when the history is read again — by recovery, whose
//! digest check compares the history log with the snapshot, or by a
//! fresh replica, which folds what the primary ships.
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
//! **Snapshot, format 3.** A sealed `RSZSNAP` envelope (version 2)
//! holding format byte `3`, the tenant name, the spec, `k`, both digest
//! states at `k`, and the controller's algorithm tag + state
//! ([`rsz_online::save_controller`]). It is written to a temporary file
//! and renamed over the old one, so a crash leaves the old snapshot or
//! the new one.
//!
//! **History log.** The committed slots `(seq, load, decision)`, one
//! record each, framed like WAL records.
//! Before each snapshot's rename the daemon appends the slots since the
//! previous one (about a cadence's worth), so the log always reaches at
//! least as far as the snapshot; the log is created at a tenant's first
//! snapshot. Recovery reads the first `k` records, checks them against
//! the snapshot's digests, and cuts off any records past `k` (what a
//! crash between the append and the rename leaves behind). A missing or
//! bad log makes the snapshot unusable, exactly as a bad snapshot is:
//! recovery falls back to the WAL.
//!
//! **Format 2** (read only): a version-1 envelope holding format byte
//! `2`, name, spec, `k`, the accepted loads `0..k` and a
//! [`rsz_online::save_run`] image (committed schedule + controller,
//! older controller layouts). It restores and replays bit-identically;
//! the next snapshot writes format 3 with a complete history log.

use std::io::{self, Seek, SeekFrom, Write};
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

/// The snapshot format this build writes.
const SNAP_FORMAT: u8 = 3;

/// The previous snapshot format, still read.
const SNAP_FORMAT_LEGACY: u8 = 2;

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

/// Seal a format-3 snapshot of tenant `name` at `k` committed slots.
#[must_use]
pub(crate) fn encode_snapshot(
    name: &str,
    spec: &TenantSpec,
    k: usize,
    digest: &StateDigest,
    controller: &impl Checkpoint,
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(SNAP_FORMAT);
    enc.put_bytes(name.as_bytes());
    spec.encode(&mut enc);
    enc.put_usize(k);
    enc.put_u64(digest.loads);
    enc.put_u64(digest.decisions);
    save_controller(controller, &mut enc);
    enc.into_sealed()
}

/// Write `bytes` to `path` through a temporary file and a rename.
pub(crate) fn write_replacing(path: &Path, bytes: &[u8], fsync: bool) -> io::Result<()> {
    let tmp = path.with_extension("snap.tmp");
    let written = std::fs::write(&tmp, bytes).and_then(|()| {
        if fsync {
            std::fs::File::open(&tmp)?.sync_data()?;
        }
        std::fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// A decoded snapshot header plus what follows it.
pub(crate) struct Snapshot<'a> {
    /// The spec the snapshot was taken under.
    pub spec: TenantSpec,
    /// Committed slots it covers (at least 1).
    pub k: usize,
    /// The format-specific rest.
    pub body: SnapBody<'a>,
}

/// What a snapshot holds past its header.
pub(crate) enum SnapBody<'a> {
    /// Format 3: the digests at `k`, and a decoder positioned at the
    /// controller's tag + state. The history is in the history log.
    Current {
        /// Both digest states at `k`.
        digest: StateDigest,
        /// The controller bytes.
        controller: Decoder<'a>,
    },
    /// Format 2: the accepted loads `0..k` and a `save_run` image.
    Legacy {
        /// The accepted loads.
        loads: Vec<f64>,
        /// The sealed `save_run` bytes.
        run: &'a [u8],
    },
}

/// Decode the snapshot `bytes` of tenant `name`, either format.
pub(crate) fn decode_snapshot<'a>(bytes: &'a [u8], name: &str) -> Result<Snapshot<'a>, String> {
    let mut dec = Decoder::from_sealed(bytes).map_err(|e| describe_snapshot_error(bytes, &e))?;
    let format = dec.take_u8().map_err(stringify)?;
    // Format 3 needs the controller layouts of envelope version 2; a
    // version byte (outside the checksum) that disagrees is damage.
    let current = match (format, dec.version()) {
        (SNAP_FORMAT, 2..) => true,
        (SNAP_FORMAT_LEGACY, 1) => false,
        (format, version) => {
            return Err(format!("snapshot format {format} in an envelope of version {version}"))
        }
    };
    let snap_name =
        wire::take_str(&mut dec, "snapshot tenant name is not UTF-8").map_err(stringify)?;
    if snap_name != name {
        return Err(format!("snapshot belongs to tenant `{snap_name}`"));
    }
    let spec = TenantSpec::decode(&mut dec).map_err(stringify)?;
    let k = dec.take_usize().map_err(stringify)?;
    if k == 0 {
        return Err("snapshot covers zero slots".into());
    }
    let body = if current {
        let loads = dec.take_u64().map_err(stringify)?;
        let decisions = dec.take_u64().map_err(stringify)?;
        SnapBody::Current { digest: StateDigest { loads, decisions }, controller: dec }
    } else {
        if dec.remaining() / 8 < k {
            return Err(stringify(SnapshotError::Truncated));
        }
        let loads = (0..k).map(|_| dec.take_f64()).collect::<Result<_, _>>().map_err(stringify)?;
        let run = dec.take_bytes().map_err(stringify)?;
        SnapBody::Legacy { loads, run }
    };
    Ok(Snapshot { spec, k, body })
}

/// Append the committed slots `from..from + loads.len()` to the history
/// log at `path`, first cutting the file back to `keep` bytes (the end
/// of the records known good) so nothing stale stays behind them.
/// Returns the log's new length.
pub(crate) fn append_history(
    path: &Path,
    keep: u64,
    from: usize,
    loads: &[f64],
    decisions: &[Config],
    fsync: bool,
) -> io::Result<u64> {
    let mut out = Vec::with_capacity(loads.len() * 48);
    for (i, (&load, config)) in loads.iter().zip(decisions).enumerate() {
        let mut enc = Encoder::new();
        enc.put_u64((from + i) as u64);
        enc.put_f64(load);
        enc.put_usize(config.counts().len());
        for &c in config.counts() {
            enc.put_u32(c);
        }
        out.extend_from_slice(&wal::frame_payload(enc.payload()));
    }
    let mut file =
        std::fs::OpenOptions::new().create(true).write(true).truncate(false).open(path)?;
    file.set_len(keep)?;
    file.seek(SeekFrom::Start(keep))?;
    file.write_all(&out)?;
    if fsync {
        file.sync_data()?;
    }
    Ok(keep + out.len() as u64)
}

/// The first `k` committed slots, as read back from a history log.
pub(crate) struct History {
    /// Accepted loads `0..k`.
    pub loads: Vec<f64>,
    /// Committed decisions `0..k`.
    pub decisions: Vec<Config>,
    /// Bytes of the log those `k` records take.
    pub bytes: u64,
}

/// Read the first `k` records of the history log at `path` for a fleet
/// of `d` types and check them against `digest`, the snapshot's digest
/// states at `k`. Records past `k` are cut off the file.
pub(crate) fn read_history(
    path: &Path,
    k: usize,
    d: usize,
    digest: &StateDigest,
) -> Result<History, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("history log unreadable: {e}"))?;
    let mut history = History { loads: Vec::with_capacity(k), decisions: Vec::new(), bytes: 0 };
    history.decisions.reserve(k);
    let mut at = 0;
    for seq in 0..k {
        let (payload, end) = match wal::next_frame(&bytes, at) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Err(format!("history log ends at slot {seq} of {k}")),
            Err(tail) => return Err(format!("history log damaged at slot {seq}: {tail:?}")),
        };
        let mut dec = Decoder::over(payload);
        let record = (|| {
            let at_seq = dec.take_u64()?;
            let load = dec.take_f64()?;
            let len = dec.take_usize()?;
            if at_seq != seq as u64 || len != d {
                return Err(SnapshotError::Corrupt("history record out of place"));
            }
            let counts = (0..len).map(|_| dec.take_u32()).collect::<Result<_, _>>()?;
            if !dec.is_empty() {
                return Err(SnapshotError::Corrupt("trailing bytes in a history record"));
            }
            Ok((load, Config::new(counts)))
        })()
        .map_err(|e| format!("history record {seq}: {e}"))?;
        history.loads.push(record.0);
        history.decisions.push(record.1);
        at = end;
    }
    if StateDigest::of(&history.loads, &history.decisions) != *digest {
        return Err(format!("history log disagrees with the snapshot's digests at k={k}"));
    }
    if bytes.len() > at {
        let _ = wal::truncate_file(path, at);
    }
    history.bytes = at as u64;
    Ok(history)
}

fn stringify(e: SnapshotError) -> String {
    format!("{e}")
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

    #[test]
    fn history_appends_resume_and_read_back_checked() {
        let dir = std::env::temp_dir().join(format!("rsz-hist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = wal::hist_path(&dir, "t");
        let loads: Vec<f64> = (0..20).map(|i| f64::from(i) * 0.5).collect();
        let decisions: Vec<Config> = (0..20u32).map(|i| Config::new(vec![i % 3, 1])).collect();
        let half = append_history(&path, 0, 0, &loads[..8], &decisions[..8], false).unwrap();
        // Junk past the known-good end (a torn append) is cut first.
        std::fs::OpenOptions::new().append(true).open(&path).unwrap().write_all(b"junk").unwrap();
        let full = append_history(&path, half, 8, &loads[8..], &decisions[8..], false).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full);

        let digest = StateDigest::of(&loads[..12], &decisions[..12]);
        let h = read_history(&path, 12, 2, &digest).unwrap();
        assert_eq!((h.loads.as_slice(), h.decisions.as_slice()), (&loads[..12], &decisions[..12]));
        // Records past k were cut off the file.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), h.bytes);
        // Wrong digests, too few records, or the wrong fleet: refused.
        assert!(read_history(&path, 12, 2, &StateDigest::default()).is_err());
        assert!(read_history(&path, 13, 2, &digest).is_err());
        assert!(read_history(&path, 12, 3, &digest).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    mod digest_props {
        use super::*;
        use crate::daemon::{lock_clean, Daemon, ServeOptions};
        use crate::replication::Role;
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

            /// Random interleavings of ticks, kill-restarts, revivals and
            /// capped replica syncs keep every rolling digest — primary
            /// and replica — equal to its from-scratch value.
            #[test]
            fn rolling_digests_track_the_in_memory_state(
                ops in prop::collection::vec((0u8..6, 0usize..2, 0.0..3.0_f64), 1..48),
            ) {
                let (pdir, rdir) = (tmp_dir("digest-p"), tmp_dir("digest-r"));
                let opts = |dir: &std::path::Path| ServeOptions {
                    state_dir: dir.to_path_buf(),
                    snapshot_every: 3,
                    fingerprint_every: 2,
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
                            primary.revive(&mut st, name, &[]).unwrap();
                            "revive"
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
