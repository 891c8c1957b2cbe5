//! Compatibility of the daemon's on-disk and replica formats.
//!
//! * Tenant specs: the retired `engine`/`cache` solver flags stay on the
//!   wire and in the encoded spec as inert records of what the client
//!   sent, so WALs, snapshots and fingerprints written before the
//!   retirement still decode and match. The spec bytes are pinned.
//! * Current formats: the layout-2 fingerprint and the format-4 `.hist`
//!   history log (slot records and checkpoint records) of a fixed
//!   16-tick run are pinned, which holds them fixed across internal
//!   rewrites of the tick path.
//! * Older formats: state directories written in format 2 (`.snap` with
//!   the full load prefix and a `save_run` image inside) and format 3
//!   (`.snap` with the controller over a `.hist` of slot records) are
//!   committed under `tests/fixtures/`. The current daemon refuses to
//!   start over them, naming the `.snap`, its format and the upgrade path
//!   (one start of a build from commit e36abfb through 71b71ff), and
//!   leaves every file as it was. A `.snap` beside a log that holds a
//!   checkpoint record (a migration whose delete failed) is ignored. The
//!   format-2, format-3 and layout-1 constants stay as the values those
//!   fixtures were pinned by; a replica does not read an older primary's
//!   layout-1 ring.
//! * Decisions: replicas of different builds compare decision digests,
//!   so the served decisions of tenants whose every dispatch cell is
//!   all-affine are pinned too (`tests/fixtures/all_affine/`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use heterogeneous_rightsizing::offline::{
    checksum, payload_range, Decoder, Encoder, SnapshotError,
};
use heterogeneous_rightsizing::online::{
    restore_run, DegradeOptions, GracefulDegrader, OnlineAlgorithm,
};
use heterogeneous_rightsizing::prelude::*;
use heterogeneous_rightsizing::serve::json::{self, Json};
use heterogeneous_rightsizing::serve::protocol::parse_request;
use heterogeneous_rightsizing::serve::{
    build_controller, history_frames, state_fingerprint, to_hex, wal, Daemon, Request, Role,
    ServeOptions, TenantSpec,
};

const DEFAULT: &str = r#"{"op":"register","tenant":"t","fleet":"cpu-gpu:4,2","algo":"b"}"#;
const RETIRED: &str = r#"{"op":"register","tenant":"t","fleet":"cpu-gpu:4,2","algo":"b","engine":false,"cache":true}"#;

/// `TenantSpec::encode` of [`DEFAULT`], recorded before the retirement.
const DEFAULT_SPEC_HEX: &str = "0b000000000000006370752d6770753a342c32010000000000000062010000ffffffffffffffff0000000000000000";

/// Layout-1 fingerprint of [`DEFAULT`] after the 16 ticks of [`loads`]
/// (full flavor): FNV-1a over the whole canonical state in a version-1
/// `RSZSNAP` envelope. Read side only: [`layout_one_fingerprint`].
const DEFAULT_FINGERPRINT: u64 = 0x6f5b_41b2_0aba_6a87;

/// Length and `checksum` of [`DEFAULT`]'s format-2 `.snap` after the 16
/// ticks of [`loads`] — the committed `format2_default` fixture.
const DEFAULT_SNAP_LEN: usize = 1026;
const DEFAULT_SNAP_CHECKSUM: u64 = 0xf17a_8a4b_8476_7426;

/// Layout-2 fingerprint of the same state.
const DEFAULT_FINGERPRINT_V2: u64 = 0x509c_14db_bd97_4487;

/// Length and `checksum` of the format-3 `.snap` and `.hist` of the same
/// run — the committed `format3_default` fixture.
const DEFAULT_SNAP3_LEN: usize = 482;
const DEFAULT_SNAP3_CHECKSUM: u64 = 0x90e1_ebd8_0c03_1643;
const DEFAULT_HIST_LEN: usize = 704;
const DEFAULT_HIST_CHECKSUM: u64 = 0xcfda_9221_80d1_4ede;

/// Length and `checksum` of the format-4 `.hist` the same run writes now:
/// the format-3 log's 16 slot records, then a checkpoint at 16.
const DEFAULT_HIST4_LEN: usize = 1190;
const DEFAULT_HIST4_CHECKSUM: u64 = 0x9c08_5247_755e_706d;

fn loads() -> Vec<f64> {
    default_loads(16)
}

/// The `format2_default` trace, extended past the fixture's 16 ticks.
fn default_loads(n: u32) -> Vec<f64> {
    (0..n).map(|i| f64::from(i * 7 % 11) * 0.9).collect()
}

/// The `format2_compacted` trace (52 ticks in the fixture), extended.
fn compacted_loads(n: u32) -> Vec<f64> {
    (0..n).map(|i| 8.0 * (f64::from(i) * 0.618_033_988_749_895).fract()).collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsz-serve-compat-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn options(dir: &Path) -> ServeOptions {
    ServeOptions { state_dir: dir.to_path_buf(), ..ServeOptions::default() }
}

fn tick_line(tenant: &str, seq: usize, load: f64) -> String {
    format!(r#"{{"op":"tick","tenant":"{tenant}","seq":{seq},"load":{load}}}"#)
}

/// A decision reply's config and `replayed` flag.
fn decided(reply: &str) -> (Config, bool) {
    let v = json::parse(reply).unwrap_or_else(|e| panic!("{reply}: {e}"));
    let config = match v.get("config") {
        Some(Json::Arr(items)) => {
            Config::new(items.iter().map(|c| c.as_u64().unwrap() as u32).collect())
        }
        other => panic!("no decision ({other:?}) in {reply}"),
    };
    (config, v.get("replayed").and_then(Json::as_bool) == Some(true))
}

/// Register `line` on a fresh daemon and return its 16 decisions.
fn decisions(line: &str, tag: &str) -> Vec<Config> {
    run(line, tag).0
}

/// Register `line` on a fresh daemon, feed it the 16 ticks of
/// [`loads`], and return its decisions plus the bytes of its `.hist`.
fn run(line: &str, tag: &str) -> (Vec<Config>, Vec<u8>) {
    let dir = tmp_dir(tag);
    let daemon = Daemon::new(options(&dir)).unwrap();
    let reply = json::parse(&daemon.handle(line)).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    let out = loads()
        .iter()
        .enumerate()
        .map(|(seq, &load)| decided(&daemon.handle(&tick_line("t", seq, load))).0)
        .collect();
    assert!(!wal::snap_path(&dir, "t").exists(), "format 4 writes no .snap");
    let hist = std::fs::read(wal::hist_path(&dir, "t")).expect("a history log at 16 ticks");
    std::fs::remove_dir_all(&dir).ok();
    (out, hist)
}

/// The directory `tests/fixtures/NAME`.
fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// A recorded decisions file: one `seq c_1 … c_d` line per tick.
fn read_decisions(path: &Path) -> Vec<Config> {
    let text = std::fs::read_to_string(path).unwrap();
    text.lines()
        .enumerate()
        .map(|(seq, line)| {
            let mut fields = line.split_whitespace().map(|f| f.parse::<u32>().unwrap());
            assert_eq!(fields.next(), Some(seq as u32), "{path:?} is in seq order");
            Config::new(fields.collect())
        })
        .collect()
}

/// The fixture under `tests/fixtures/NAME`: its state directory and
/// the decisions the daemon that wrote it answered, in seq order.
fn fixture(name: &str) -> (PathBuf, Vec<Config>) {
    let root = fixture_dir(name);
    (root.join("state"), read_decisions(&root.join("decisions.txt")))
}

/// The spec a register line names.
fn spec_of(line: &str) -> TenantSpec {
    let Ok(Request::Register { spec, .. }) = parse_request(line) else { panic!("parses") };
    spec
}

/// A direct run of `spec`'s controller over `loads`, slot by slot over
/// the revealed prefix — what the daemon must reproduce.
fn direct_run(spec: &TenantSpec, loads: &[f64]) -> Vec<Config> {
    let prefix = |n: usize| {
        Instance::builder()
            .server_types(spec.server_types().unwrap())
            .loads(loads[..n].to_vec())
            .build()
            .unwrap()
    };
    let mut controller = build_controller(spec, &prefix(1), spec.grid.mode()).unwrap();
    (0..loads.len()).map(|t| controller.decide(&prefix(t + 1), t)).collect()
}

/// The layout-1 fingerprint, computed the way older builds did: FNV-1a
/// of the canonical state sealed in a version-1 `RSZSNAP` envelope.
fn layout_one_fingerprint(spec: &TenantSpec, loads: &[f64], decisions: &[Config]) -> u64 {
    let mut enc = Encoder::new();
    enc.put_u8(1);
    spec.encode(&mut enc);
    enc.put_usize(loads.len());
    for &load in loads {
        enc.put_f64(load);
    }
    enc.put_u8(1);
    enc.put_usize(decisions.len());
    for config in decisions {
        enc.put_usize(config.counts().len());
        for &c in config.counts() {
            enc.put_u32(c);
        }
    }
    let payload = enc.payload();
    let mut sealed = b"RSZSNAP\x01".to_vec();
    sealed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    sealed.extend_from_slice(payload);
    sealed.extend_from_slice(&checksum(payload).to_le_bytes());
    checksum(&sealed)
}

#[test]
fn retired_engine_and_cache_keys_decide_like_a_default_register() {
    let spec = spec_of(RETIRED);
    assert!(!spec.engine && spec.cache, "the keys are recorded verbatim");
    assert_eq!(decisions(RETIRED, "retired"), decisions(DEFAULT, "default"));
}

#[test]
fn default_tenant_spec_bytes_and_fingerprint_are_pinned() {
    let spec = spec_of(DEFAULT);
    let mut enc = Encoder::new();
    spec.encode(&mut enc);
    let hex: String = enc.payload().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, DEFAULT_SPEC_HEX, "encoded TenantSpec bytes changed");
    let decided = decisions(DEFAULT, "pinned");
    let fingerprint = state_fingerprint(&spec, &loads(), Some(&decided));
    assert_eq!(
        fingerprint, DEFAULT_FINGERPRINT_V2,
        "state fingerprint changed: {fingerprint:#018x}"
    );
    // The layout-1 pin still describes the same state, and the format-2
    // fixture recorded exactly these decisions.
    assert_eq!(layout_one_fingerprint(&spec, &loads(), &decided), DEFAULT_FINGERPRINT);
    assert_eq!(fixture("format2_default").1, decided);
}

#[test]
fn default_tenant_snapshot_bytes_are_pinned() {
    let (_, hist) = run(DEFAULT, "snap");
    let hist_sum = checksum(&hist);
    assert_eq!(
        (hist.len(), hist_sum),
        (DEFAULT_HIST4_LEN, DEFAULT_HIST4_CHECKSUM),
        "history bytes changed: len {}, checksum {hist_sum:#018x}",
        hist.len()
    );
    // Its slot records are the format-3 log's bytes, and its checkpoint
    // follows them.
    let (state, _) = fixture("format3_default");
    let (snap3, hist3) = (
        std::fs::read(state.join("t.snap")).unwrap(),
        std::fs::read(state.join("t.hist")).unwrap(),
    );
    assert_eq!((snap3.len(), checksum(&snap3)), (DEFAULT_SNAP3_LEN, DEFAULT_SNAP3_CHECKSUM));
    assert_eq!((hist3.len(), checksum(&hist3)), (DEFAULT_HIST_LEN, DEFAULT_HIST_CHECKSUM));
    assert_eq!(&hist[..hist3.len()], &hist3[..], "the slot records are unchanged");
    let frames = history_frames(&hist);
    let checkpoints: Vec<usize> = frames.iter().filter_map(|f| f.checkpoint).collect();
    assert_eq!((frames.len(), checkpoints), (17, vec![16]));
    // The committed format-2 fixture is the file the old pin describes.
    let old = std::fs::read(fixture("format2_default").0.join("t.snap")).unwrap();
    assert_eq!((old.len(), checksum(&old)), (DEFAULT_SNAP_LEN, DEFAULT_SNAP_CHECKSUM));
}

/// Copy the fixture state directory `from` to a fresh `to`.
fn copy_state(from: &Path, tag: &str) -> PathBuf {
    let to = tmp_dir(tag);
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
    to
}

/// Every file of the directory `dir`, by name.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let entries = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    entries.map(|path| (path.clone(), std::fs::read(path).unwrap())).collect()
}

/// Start a daemon over a copy of the format-2 or format-3 fixture `name`
/// (tenant `tenant`): it must refuse, naming the `.snap`, its `format`
/// and the upgrade path, and leave every file of the copy byte for byte,
/// with none added or removed.
fn assert_refused(name: &str, tenant: &str, format: u8) {
    let dir = copy_state(&fixture(name).0, name);
    let before = files(&dir);
    let Err(e) = Daemon::new(options(&dir)) else { panic!("{name}: the daemon started") };
    let message = e.to_string();
    let snap = wal::snap_path(&dir, tenant).display().to_string();
    for part in [snap.as_str(), &format!("state format {format}"), "e36abfb through 71b71ff"] {
        assert!(message.contains(part), "{name}: `{part}` missing from: {message}");
    }
    assert_eq!(files(&dir), before, "{name}: the refusal changed the directory");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn format_two_state_directories_are_refused_with_their_upgrade_path() {
    assert_refused("format2_default", "t", 2);
    assert_refused("format2_compacted", "c", 2);
}

#[test]
fn format_three_state_directories_are_refused_with_their_upgrade_path() {
    assert_refused("format3_default", "t", 3);
    assert_refused("format3_compacted", "c", 3);
}

/// The `save_run` image inside a format-2 snapshot is a version-1 run
/// snapshot of the daemon's degradation ladder around the tenant's
/// controller. `restore_run` refuses it by its envelope version, as
/// the daemon refuses the `.snap` around it.
#[test]
fn version_one_run_images_inside_format_two_snapshots_are_refused() {
    let compacted = r#"{"op":"register","tenant":"c","fleet":"cpu-gpu:4,2","algo":"c:0.5"}"#;
    for (name, tenant, register, loads) in [
        ("format2_default", "t", DEFAULT, default_loads(40)),
        ("format2_compacted", "c", compacted, compacted_loads(80)),
    ] {
        // Format 2: format byte, name, spec, k, the loads 0..k, and the
        // sealed `save_run` image, in a version-1 envelope.
        let bytes = std::fs::read(wal::snap_path(&fixture(name).0, tenant)).unwrap();
        assert_eq!(Decoder::from_sealed(&bytes).unwrap_err(), SnapshotError::BadVersion(1));
        let mut dec = Decoder::over(&bytes[payload_range(&bytes).unwrap()]);
        assert_eq!(dec.take_u8().unwrap(), 2, "{name} is format 2");
        assert_eq!(dec.take_bytes().unwrap(), tenant.as_bytes());
        let spec = spec_of(register);
        assert_eq!(TenantSpec::decode(&mut dec).unwrap(), spec);
        let k = dec.take_usize().unwrap();
        for (seq, load) in loads[..k].iter().enumerate() {
            assert_eq!(dec.take_f64().unwrap().to_bits(), load.to_bits(), "{name} seq {seq}");
        }
        let run = dec.take_bytes().unwrap();
        let instance = Instance::builder()
            .server_types(spec.server_types().unwrap())
            .loads(loads[..k].to_vec())
            .build()
            .unwrap();
        let inner = build_controller(&spec, &instance, spec.grid.mode()).unwrap();
        let factory = |inst: &Instance, grid| build_controller(&spec, inst, grid).unwrap();
        let ladder = DegradeOptions { deadline: None, coarse_gamma: 2.0 };
        let mut controller = GracefulDegrader::new(inner, factory, ladder);
        let refused = restore_run(&mut controller, &instance, run).unwrap_err();
        assert_eq!(refused, SnapshotError::BadVersion(1), "{name}");
    }
}

/// A `.snap` beside a history log that holds a checkpoint record is
/// what a migration leaves when its delete fails. The daemon ignores
/// it: the tenant recovers every tick bit for bit, and the `.snap`
/// stays where it was, untouched.
#[test]
fn a_stray_snap_beside_a_checkpointed_log_is_ignored() {
    let loads = default_loads(40);
    let want = direct_run(&spec_of(DEFAULT), &loads);
    let dir = tmp_dir("stray-snap");
    let daemon = Daemon::new(options(&dir)).unwrap();
    assert!(daemon.handle(DEFAULT).contains("\"ok\":true"));
    for (seq, &load) in loads.iter().enumerate() {
        assert_eq!(decided(&daemon.handle(&tick_line("t", seq, load))), (want[seq].clone(), false));
    }
    drop(daemon); // kill -9
    let snap = wal::snap_path(&dir, "t");
    let stray = std::fs::read(wal::snap_path(&fixture("format3_default").0, "t")).unwrap();
    std::fs::write(&snap, &stray).unwrap();

    let daemon = Daemon::new(options(&dir)).unwrap();
    let m = json::parse(&daemon.handle("GET /metrics")).unwrap();
    assert_eq!(m.get("snapshot_fallbacks").and_then(Json::as_u64), Some(0));
    let reply = json::parse(&daemon.handle(DEFAULT)).unwrap();
    assert_eq!(reply.get("resumed_ticks").and_then(Json::as_u64), Some(40));
    for (seq, &load) in loads.iter().enumerate() {
        let (config, replayed) = decided(&daemon.handle(&tick_line("t", seq, load)));
        assert_eq!((config, replayed), (want[seq].clone(), true), "seq {seq}");
    }
    assert_eq!(std::fs::read(&snap).unwrap(), stray, "the stray .snap is left in place");
    std::fs::remove_dir_all(&dir).ok();
}

/// A sync reply from an older primary carries layout-1 fingerprints
/// under `fps`. A current replica does not read them: even a value that
/// matches nothing it would compute never quarantines the tenant.
#[test]
fn layout_one_fingerprint_entries_are_skipped_not_quarantined() {
    let spec = spec_of(DEFAULT);
    let mut frames = wal::frame(&wal::WalRecord::Register(spec.clone()));
    for (seq, &load) in loads().iter().enumerate() {
        frames.extend(wal::frame(&wal::WalRecord::Tick { seq: seq as u64, load }));
    }
    let reply = |key: &str, fps: &str| {
        format!(
            r#"{{"ok":true,"role":"primary","replica":"r","tenants":{{"t":{{"ticks":16,"snap_k":0,"frames":"{}","{key}":[{fps}]}}}}}}"#,
            to_hex(&frames)
        )
    };
    let dir = tmp_dir("layout-one");
    let replica = Daemon::new(options(&dir)).unwrap();
    replica.set_role(Role::Replica);
    let old = format!(
        r#"{{"k":16,"fp":"{DEFAULT_FINGERPRINT:016x}","full":true}},{{"k":8,"fp":"0123456789abcdef","full":true}}"#
    );
    let report = replica.apply_sync(&reply("fps", &old)).unwrap();
    assert_eq!((report.applied, report.fp_checks, report.fp_mismatches), (16, 0, 0));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    // The same state's layout-2 entry, under `fps2`, is checked and
    // matches.
    let new = format!(r#"{{"k":16,"fp":"{DEFAULT_FINGERPRINT_V2:016x}","full":true}}"#);
    let report = replica.apply_sync(&reply("fps2", &new)).unwrap();
    assert_eq!((report.fp_checks, report.fp_mismatches), (1, 0), "{:?}", report.errors);
    let ready = replica.handle("GET /readyz");
    assert!(ready.contains("\"quarantined\":0"), "{ready}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Tenants whose every dispatch cell is all-affine (both old-new types
/// and the homogeneous type have linear costs): `(tenant, register)`.
const AFFINE_TENANTS: [(&str, &str); 4] = [
    ("a", r#"{"op":"register","tenant":"a","fleet":"old-new:2,2","algo":"a"}"#),
    ("b", r#"{"op":"register","tenant":"b","fleet":"old-new:2,2","algo":"b"}"#),
    ("c", r#"{"op":"register","tenant":"c","fleet":"old-new:2,2","algo":"c:0.5"}"#),
    ("lcp", r#"{"op":"register","tenant":"lcp","fleet":"homogeneous:4","algo":"lcp"}"#),
];

/// Ticks per tenant in the all-affine golden.
const AFFINE_TICKS: usize = 2048;

/// `n` loads in `(0, cap)` that never repeat: a slow swell plus a
/// golden-ratio jitter, so the tenant scales both up and down.
fn swell_loads(cap: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let i = i as f64;
            cap * (0.45 + 0.35 * (i * 0.0654).sin() + 0.15 * (i * 0.618_033_988_749_895).fract())
        })
        .collect()
}

/// Serve [`AFFINE_TICKS`] ticks to each of [`AFFINE_TENANTS`] on one
/// daemon, seq by seq, and return every tenant's decisions.
fn serve_affine_tenants() -> Vec<Vec<Config>> {
    let dir = tmp_dir("all-affine");
    let daemon = Daemon::new(options(&dir)).unwrap();
    let mut loads = Vec::new();
    for (_, register) in AFFINE_TENANTS {
        let reply = json::parse(&daemon.handle(register)).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{register}");
        let types = spec_of(register).server_types().unwrap();
        let cap: f64 = types.iter().map(ServerType::fleet_capacity).sum();
        loads.push(swell_loads(cap, AFFINE_TICKS));
    }
    let mut out = vec![Vec::with_capacity(AFFINE_TICKS); AFFINE_TENANTS.len()];
    for seq in 0..AFFINE_TICKS {
        for (((tenant, _), loads), out) in AFFINE_TENANTS.iter().zip(&loads).zip(&mut out) {
            out.push(decided(&daemon.handle(&tick_line(tenant, seq, loads[seq]))).0);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// Every cell these tenants price is all-affine. The decisions were
/// recorded under the dispatch solver that filled such cells greedily;
/// whichever solver prices them, the served decisions (and with them
/// every replica's decision digest) must not move.
#[test]
fn all_affine_tenants_decide_as_recorded() {
    let mut distinct = swell_loads(1.0, AFFINE_TICKS);
    distinct.sort_by(f64::total_cmp);
    distinct.dedup();
    assert_eq!(distinct.len(), AFFINE_TICKS, "the golden's loads never repeat");
    let served = serve_affine_tenants();
    for ((tenant, _), got) in AFFINE_TENANTS.iter().zip(&served) {
        let want = read_decisions(&fixture_dir("all_affine").join(format!("{tenant}.txt")));
        assert_eq!(want.len(), AFFINE_TICKS, "{tenant}");
        if let Some(seq) = (0..AFFINE_TICKS).find(|&s| got[s] != want[s]) {
            panic!("{tenant} seq {seq}: served {:?}, recorded {:?}", got[seq], want[seq]);
        }
    }
}
