//! Compatibility of tenant specs across the retirement of the
//! `engine`/`cache` solver flags: both keys stay on the wire and in the
//! encoded spec as inert records of what the client sent, so WALs,
//! snapshots and replica fingerprints written before the retirement
//! still decode and match. The pinned spec bytes, fingerprint and
//! `.snap` bytes also hold the daemon's on-disk and replica formats
//! fixed across internal rewrites of the tick path.

use heterogeneous_rightsizing::offline::{checksum, Encoder};
use heterogeneous_rightsizing::prelude::*;
use heterogeneous_rightsizing::serve::json::{self, Json};
use heterogeneous_rightsizing::serve::protocol::parse_request;
use heterogeneous_rightsizing::serve::{state_fingerprint, wal, Daemon, Request, ServeOptions};

const DEFAULT: &str = r#"{"op":"register","tenant":"t","fleet":"cpu-gpu:4,2","algo":"b"}"#;
const RETIRED: &str = r#"{"op":"register","tenant":"t","fleet":"cpu-gpu:4,2","algo":"b","engine":false,"cache":true}"#;

/// `TenantSpec::encode` of [`DEFAULT`], recorded before the retirement.
const DEFAULT_SPEC_HEX: &str = "0b000000000000006370752d6770753a342c32010000000000000062010000ffffffffffffffff0000000000000000";

/// `state_fingerprint` of [`DEFAULT`] after the 16 ticks of [`loads`]
/// (full flavor), recorded before the retirement.
const DEFAULT_FINGERPRINT: u64 = 0x6f5b_41b2_0aba_6a87;

/// Length and `checksum` of [`DEFAULT`]'s `.snap` file after the 16
/// ticks of [`loads`] (one snapshot at the default cadence of 16),
/// recorded before tenants kept their prefix instance across ticks.
const DEFAULT_SNAP_LEN: usize = 1026;
const DEFAULT_SNAP_CHECKSUM: u64 = 0xf17a_8a4b_8476_7426;

fn loads() -> Vec<f64> {
    (0..16).map(|i| f64::from((i * 7 % 11) as u32) * 0.9).collect()
}

/// Register `line` on a fresh daemon and return its 16 decisions.
fn decisions(line: &str, tag: &str) -> Vec<Config> {
    run(line, tag).0
}

/// Register `line` on a fresh daemon, feed it the 16 ticks of
/// [`loads`], and return its decisions plus the bytes of its `.snap`.
fn run(line: &str, tag: &str) -> (Vec<Config>, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("rsz-serve-compat-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let daemon =
        Daemon::new(ServeOptions { state_dir: dir.clone(), ..ServeOptions::default() }).unwrap();
    let reply = json::parse(&daemon.handle(line)).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    let out = loads()
        .iter()
        .enumerate()
        .map(|(seq, load)| {
            let line = format!(r#"{{"op":"tick","tenant":"t","seq":{seq},"load":{load}}}"#);
            let reply = daemon.handle(&line);
            match json::parse(&reply).unwrap().get("config") {
                Some(Json::Arr(items)) => {
                    Config::new(items.iter().map(|c| c.as_u64().unwrap() as u32).collect())
                }
                other => panic!("no decision ({other:?}) in {reply}"),
            }
        })
        .collect();
    let snap = std::fs::read(wal::snap_path(&dir, "t")).expect("a snapshot at 16 ticks");
    std::fs::remove_dir_all(&dir).ok();
    (out, snap)
}

#[test]
fn retired_engine_and_cache_keys_decide_like_a_default_register() {
    let Ok(Request::Register { spec, .. }) = parse_request(RETIRED) else { panic!("parses") };
    assert!(!spec.engine && spec.cache, "the keys are recorded verbatim");
    assert_eq!(decisions(RETIRED, "retired"), decisions(DEFAULT, "default"));
}

#[test]
fn default_tenant_spec_bytes_and_fingerprint_are_pinned() {
    let Ok(Request::Register { spec, .. }) = parse_request(DEFAULT) else { panic!("parses") };
    let mut enc = Encoder::new();
    spec.encode(&mut enc);
    let hex: String = enc.payload().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, DEFAULT_SPEC_HEX, "encoded TenantSpec bytes changed");
    let fingerprint = state_fingerprint(&spec, &loads(), Some(&decisions(DEFAULT, "pinned")));
    assert_eq!(fingerprint, DEFAULT_FINGERPRINT, "state fingerprint changed: {fingerprint:#018x}");
}

#[test]
fn default_tenant_snapshot_bytes_are_pinned() {
    let (_, snap) = run(DEFAULT, "snap");
    let sum = checksum(&snap);
    assert_eq!(
        (snap.len(), sum),
        (DEFAULT_SNAP_LEN, DEFAULT_SNAP_CHECKSUM),
        "snapshot bytes changed: len {}, checksum {sum:#018x}",
        snap.len()
    );
}
