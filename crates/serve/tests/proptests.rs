//! Property tests for the serve wire surface and the replication
//! apply path.
//!
//! Three families of properties:
//!
//! 1. **Decoders never panic** — `parse_request`, `json::parse`,
//!    `wal::scan`, and `from_hex` return structured errors (or a
//!    classified tail) on arbitrary bytes, split frames, partial
//!    frames, and mangled hex; they never panic and never misreport an
//!    intact prefix.
//! 2. **`apply_sync` is total** — a replica fed arbitrary reply lines,
//!    bit-flipped frame batches, or reordered frames rejects them with
//!    structured errors (`repl_frame_rejects`, per-tenant report
//!    errors) and stays fully serviceable; an older primary's layout-1
//!    fingerprint ring is never read, never quarantining.
//! 3. **Failover idempotency** — under an arbitrary retransmit mask
//!    (every seq sent once, then any subset re-sent in any order, as a
//!    failing-over client would) the committed prefix is never
//!    double-applied: the decision stream is bit-identical to the
//!    single-send run and the accepted-tick count equals the horizon.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use proptest::prelude::*;
use rsz_serve::json::{self, Json};
use rsz_serve::protocol::parse_request;
use rsz_serve::wal::{self, WalRecord, WalTail};
use rsz_serve::{from_hex, to_hex, Daemon, GridSpec, Role, ServeOptions, TenantSpec};

fn spec() -> TenantSpec {
    TenantSpec {
        fleet: "cpu-gpu:2,1".into(),
        algo: "b".into(),
        engine: true,
        cache: false,
        grid: GridSpec::Full,
        deadline_us: None,
        snapshot_every: 0,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsz-serve-prop-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn options(dir: &Path) -> ServeOptions {
    ServeOptions { state_dir: dir.to_path_buf(), ..ServeOptions::default() }
}

fn register_line(tenant: &str) -> String {
    format!(
        r#"{{"op":"register","tenant":"{tenant}","fleet":"cpu-gpu:2,1","algo":"b","engine":true,"cache":false,"grid":"full"}}"#
    )
}

fn tick_line(tenant: &str, seq: u64, load: f64) -> String {
    format!(r#"{{"op":"tick","tenant":"{tenant}","seq":{seq},"load":{load}}}"#)
}

/// A clean framed log: one registration plus `loads` ticks.
fn framed_log(loads: &[f64]) -> (Vec<WalRecord>, Vec<u8>) {
    let mut records = vec![WalRecord::Register(spec())];
    for (i, &l) in loads.iter().enumerate() {
        records.push(WalRecord::Tick { seq: i as u64, load: l });
    }
    let mut bytes = Vec::new();
    for r in &records {
        bytes.extend_from_slice(&wal::frame(r));
    }
    (records, bytes)
}

// ---------------------------------------------------------------------
// 1. Decoders are total
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes through every wire decoder: structured outcomes,
    /// no panics.
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..160),
    ) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parse_request(&line);
        let _ = json::parse(&line);
        let _ = from_hex(&line);
        let s = wal::scan(&bytes);
        prop_assert!(s.intact_len <= bytes.len());
        match s.tail {
            WalTail::Clean => prop_assert_eq!(s.intact_len, bytes.len()),
            WalTail::Torn { at } => prop_assert_eq!(at, s.intact_len),
            WalTail::Corrupt { start, end, .. } => {
                prop_assert!(s.intact_len <= start, "corruption inside the intact prefix");
                prop_assert!(start <= end && end <= bytes.len());
            }
        }
    }

    /// A partial frame (any cut point) is a torn tail or a clean
    /// boundary — never corruption, and never a lost committed record.
    #[test]
    fn split_frames_are_torn_never_corrupt(
        loads in prop::collection::vec(0.0..3.0_f64, 0..6),
        cut_frac in 0.0..1.0_f64,
    ) {
        let (records, bytes) = framed_log(&loads);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let s = wal::scan(&bytes[..cut]);
        prop_assert!(
            !matches!(s.tail, WalTail::Corrupt { .. }),
            "truncation misread as corruption at {cut}"
        );
        prop_assert_eq!(&s.records[..], &records[..s.records.len()]);
    }

    /// Garbage appended after clean frames can tear or corrupt the
    /// tail, but the committed records before it always survive.
    #[test]
    fn garbage_suffix_never_erases_committed_records(
        loads in prop::collection::vec(0.0..3.0_f64, 0..5),
        garbage in prop::collection::vec(0u8..=255, 0..48),
    ) {
        let (records, mut bytes) = framed_log(&loads);
        let valid_len = bytes.len();
        bytes.extend_from_slice(&garbage);
        let s = wal::scan(&bytes);
        prop_assert!(s.intact_len >= valid_len);
        prop_assert!(s.records.len() >= records.len());
        prop_assert_eq!(&s.records[..records.len()], &records[..]);
    }

    /// Hex round-trips losslessly; an odd length or one non-hex byte is
    /// a structured `None`.
    #[test]
    fn hex_round_trips_and_mangling_is_rejected(
        bytes in prop::collection::vec(0u8..=255, 1..64),
        pos in 0usize..128,
        make_odd in 0u8..2,
    ) {
        let hex = to_hex(&bytes);
        prop_assert_eq!(from_hex(&hex).as_deref(), Some(&bytes[..]));
        let mut mangled = hex.into_bytes();
        if make_odd == 1 {
            mangled.pop();
        } else {
            let i = pos % mangled.len();
            mangled[i] = b'g';
        }
        prop_assert_eq!(from_hex(&String::from_utf8(mangled).unwrap()), None);
    }
}

// ---------------------------------------------------------------------
// 2. apply_sync is total
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A replica fed arbitrary reply lines stays up: `apply_sync`
    /// returns a structured error (or an empty report), never panics,
    /// and the daemon still answers probes afterwards.
    #[test]
    fn apply_sync_is_total_on_arbitrary_lines(
        bytes in prop::collection::vec(0u8..=255, 0..200),
    ) {
        let dir = tmp_dir("apply-fuzz");
        let daemon = Daemon::new(options(&dir)).unwrap();
        daemon.set_role(Role::Replica);
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let _ = daemon.apply_sync(&line);
        prop_assert!(daemon.handle("GET /livez").contains("\"live\":true"));
        prop_assert!(daemon.handle("GET /readyz").contains("\"role\":\"replica\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One flipped hex character anywhere in a genuine frame batch is
    /// caught by the end-to-end FNV-1a framing (or the hex decode)
    /// before anything reaches the step path: the batch is rejected
    /// with a structured error and the replica applies nothing.
    #[test]
    fn flipped_sync_frames_are_rejected_before_the_step_path(
        loads in prop::collection::vec(0.0..3.0_f64, 1..6),
        flip_at in 0usize..4096,
    ) {
        let primary_dir = tmp_dir("flip-primary");
        let primary = Daemon::new(options(&primary_dir)).unwrap();
        assert!(primary.handle(&register_line("t")).contains("\"ok\":true"));
        for (i, &l) in loads.iter().enumerate() {
            primary.handle(&tick_line("t", i as u64, l));
        }
        let reply = primary.handle(r#"{"op":"repl.sync","replica":"r1","have":{}}"#);

        // Locate the frames hex inside the reply and flip one digit.
        let v = json::parse(&reply).unwrap();
        let hex = v
            .get("tenants")
            .and_then(|t| t.get("t"))
            .and_then(|t| t.get("frames"))
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        let i = flip_at % hex.len();
        let old = hex.as_bytes()[i];
        let new = if old == b'0' { b'1' } else { b'0' };
        let mut flipped = hex.clone().into_bytes();
        flipped[i] = new;
        let mangled = reply.replace(&hex, &String::from_utf8(flipped).unwrap());

        let replica_dir = tmp_dir("flip-replica");
        let replica = Daemon::new(options(&replica_dir)).unwrap();
        replica.set_role(Role::Replica);
        let report = replica.apply_sync(&mangled).unwrap();
        prop_assert_eq!(report.applied, 0, "corrupt batch must apply nothing");
        prop_assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        prop_assert_eq!(replica.counters.repl_frame_rejects.load(Ordering::Relaxed), 1);
        // The clean original still applies afterwards — full recovery.
        let report = replica.apply_sync(&reply).unwrap();
        prop_assert_eq!(report.applied, loads.len() as u64);
        prop_assert!(report.errors.is_empty(), "{:?}", report.errors);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// An older primary's fingerprint ring — layout 1, under the `fps`
    /// key — is skipped whatever values it carries: never checked,
    /// never quarantining the tenant.
    #[test]
    fn layout_one_fingerprints_are_skipped_not_quarantined(
        loads in prop::collection::vec(0.0..3.0_f64, 1..12),
        entries in prop::collection::vec((1u64..12, 0u64..u64::MAX), 1..8),
    ) {
        let primary_dir = tmp_dir("layout-primary");
        let primary = Daemon::new(options(&primary_dir)).unwrap();
        assert!(primary.handle(&register_line("t")).contains("\"ok\":true"));
        for (i, &l) in loads.iter().enumerate() {
            primary.handle(&tick_line("t", i as u64, l));
        }
        let reply = primary.handle(r#"{"op":"repl.sync","replica":"r1","have":{}}"#);
        let fps: Vec<String> = entries
            .iter()
            .map(|&(k, fp)| format!(r#"{{"k":{k},"fp":"{fp:016x}","full":true}}"#))
            .collect();
        let v = json::parse(&reply).unwrap();
        let ring = v.get("tenants").and_then(|t| t.get("t")).and_then(|t| t.get("fps2")).unwrap();
        let foreign = reply.replacen(
            &format!("\"fps2\":{}", ring.to_line()),
            &format!("\"fps\":[{}]", fps.join(",")),
            1,
        );
        prop_assert!(foreign != reply, "the ring was replaced");

        let replica_dir = tmp_dir("layout-replica");
        let replica = Daemon::new(options(&replica_dir)).unwrap();
        replica.set_role(Role::Replica);
        let report = replica.apply_sync(&foreign).unwrap();
        prop_assert_eq!(report.applied, loads.len() as u64);
        prop_assert_eq!((report.fp_checks, report.fp_mismatches), (0, 0));
        prop_assert!(report.errors.is_empty(), "{:?}", report.errors);
        prop_assert!(replica.handle("GET /readyz").contains("\"quarantined\":0"));
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }

    /// Reordered tick frames (a misbehaving primary) surface as a
    /// structured sequence-gap error; the contiguous prefix before the
    /// reorder point still applies and the replica stays serviceable.
    #[test]
    fn reordered_sync_frames_error_structurally(
        loads in prop::collection::vec(0.0..3.0_f64, 2..6),
        a in 0usize..8,
        b in 0usize..8,
    ) {
        let a = a % loads.len();
        let b = b % loads.len();
        prop_assume!(a != b);
        let mut frames = Vec::new();
        frames.extend_from_slice(&wal::frame(&WalRecord::Register(spec())));
        let mut order: Vec<usize> = (0..loads.len()).collect();
        order.swap(a, b);
        for &i in &order {
            frames.extend_from_slice(&wal::frame(&WalRecord::Tick {
                seq: i as u64,
                load: loads[i],
            }));
        }
        let reply = format!(
            r#"{{"ok":true,"role":"primary","replica":"r1","tenants":{{"t":{{"ticks":{},"snap_k":0,"frames":"{}","fps":[]}}}}}}"#,
            loads.len(),
            to_hex(&frames)
        );
        let dir = tmp_dir("reorder");
        let replica = Daemon::new(options(&dir)).unwrap();
        replica.set_role(Role::Replica);
        let report = replica.apply_sync(&reply).unwrap();
        prop_assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        // The contiguous prefix before the swap applied; the first
        // out-of-order seq is a gap and stops the batch there.
        prop_assert_eq!(report.applied, a.min(b) as u64);
        prop_assert!(replica.handle("GET /livez").contains("\"live\":true"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// 3. Failover idempotency
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The property that makes client failover safe: send every tick
    /// once, then retransmit an arbitrary subset in arbitrary order
    /// (what a client replaying against a promoted replica does). The
    /// committed prefix is never double-applied — every retransmit is
    /// flagged `replayed` with a bit-identical config, and the daemon's
    /// accepted-tick count equals the horizon exactly.
    #[test]
    fn committed_prefix_is_never_double_applied(
        loads in prop::collection::vec(0.0..3.0_f64, 1..10),
        mask in prop::collection::vec(0u8..2, 10),
        rot in 0usize..10,
    ) {
        let dir = tmp_dir("idem");
        let daemon = Daemon::new(options(&dir)).unwrap();
        assert!(daemon.handle(&register_line("t")).contains("\"ok\":true"));
        let mut first: Vec<String> = Vec::new();
        for (i, &l) in loads.iter().enumerate() {
            let v = json::parse(&daemon.handle(&tick_line("t", i as u64, l))).unwrap();
            prop_assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
            prop_assert_eq!(v.get("replayed").and_then(Json::as_bool), Some(false));
            first.push(format!("{:?}", v.get("config")));
        }
        let before = daemon.counters.decisions.load(Ordering::Relaxed);

        // Retransmit the masked subset, rotated so order varies.
        let mut subset: Vec<usize> =
            (0..loads.len()).filter(|&i| mask[i % mask.len()] == 1).collect();
        let pivot = rot % subset.len().max(1);
        subset.rotate_left(pivot);
        for &i in &subset {
            let v = json::parse(&daemon.handle(&tick_line("t", i as u64, loads[i]))).unwrap();
            prop_assert_eq!(
                v.get("replayed").and_then(Json::as_bool),
                Some(true),
                "seq {} must replay, not re-decide",
                i
            );
            prop_assert_eq!(
                format!("{:?}", v.get("config")),
                first[i].clone(),
                "seq {} replay diverged",
                i
            );
        }
        prop_assert_eq!(
            daemon.counters.decisions.load(Ordering::Relaxed),
            before,
            "retransmits must not decide"
        );
        let v = json::parse(&daemon.handle(&register_line("t"))).unwrap();
        prop_assert_eq!(v.get("resumed_ticks").and_then(Json::as_u64), Some(loads.len() as u64));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
