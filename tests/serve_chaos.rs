//! Daemon-level chaos suite for `rsz serve`: the four robustness
//! promises under injected transport and storage faults.
//!
//! 1. **Kill–restart parity** — for every controller combo and every
//!    kill offset, dropping the daemon (our `kill -9` model: no
//!    shutdown, no final snapshot) and restarting over the same state
//!    dir yields decisions bit-identical to the uninterrupted run.
//! 2. **Storage faults** — WAL truncation recovers the intact prefix;
//!    WAL bit flips quarantine (with the failing byte range) or resume
//!    a valid prefix, never panic; a snapshot append torn at any byte
//!    restores from the checkpoint before it; a history log with no
//!    checkpoint record means a full WAL replay; a corrupted last
//!    checkpoint, or a history log that is missing, torn or
//!    bit-flipped, falls back to an earlier checkpoint or the WAL
//!    without quarantining — or, once compaction deleted the WAL's
//!    start, quarantines with a structured reason, stays quarantined
//!    through retries and leaves the log as it was; slot records past
//!    the last checkpoint are cut back once recovery succeeds.
//! 3. **Transport faults** — connections dropped mid-line and partial
//!    JSON writes against a real TCP server never take the daemon down.
//! 4. **Isolation** — a quarantined tenant (poisoned λ, mid eviction
//!    storm) never perturbs a pool co-tenant's decisions, and a
//!    `deadline: None` tenant is bit-transparent through the whole
//!    serve path.
//!
//! Kill–restart parity and snapshot fallback also run over a realistic
//! horizon: a 4100-tick trace at the default cadences, past the
//! 4096-entry latency window and through hundreds of snapshot and
//! fingerprint cycles.
//!
//! Fault plans are seeded via `rsz_workloads::faultinject::daemon_plan`.
//! Set `CHAOS_QUICK=1` for a quick subset; CI runs the full matrix.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use heterogeneous_rightsizing::online::algo_a::AOptions;
use heterogeneous_rightsizing::online::algo_b::AlgorithmB;
use heterogeneous_rightsizing::online::runner::run;
use heterogeneous_rightsizing::prelude::*;
use heterogeneous_rightsizing::serve::json::{self, Json};
use heterogeneous_rightsizing::serve::{
    history_frames, wal, Client, ClientOptions, Daemon, ServeOptions, Server,
};
use heterogeneous_rightsizing::workloads::faultinject::daemon_plan;
use heterogeneous_rightsizing::workloads::fleet;

/// Seeded fault matrix: quick CI subset or the full sweep.
fn seeds() -> Vec<u64> {
    if quick() {
        vec![7, 42]
    } else {
        vec![7, 21, 42, 99, 123, 2024]
    }
}

fn quick() -> bool {
    std::env::var_os("CHAOS_QUICK").is_some()
}

/// Deterministic trace, peak 3.0 — inside every matrix fleet's capacity
/// (homogeneous:4 is the tightest at 4.0).
fn loads() -> Vec<f64> {
    vec![1.0, 2.5, 0.5, 3.0, 1.5, 0.0, 2.0, 2.75, 1.25, 0.75]
}

/// A 4100-tick trace in `[0, 3)` that never repeats a value (a Weyl
/// sequence). At the default cadences it crosses 256 snapshots and 512
/// fingerprints, and it outruns the 4096-entry latency window.
fn long_loads() -> Vec<f64> {
    (0..4100u32).map(|i| 3.0 * (f64::from(i) * 0.618_033_988_749_895).fract()).collect()
}

/// `snapshot_every` for registrations that keep the daemon's default
/// cadence (16).
const DEFAULT_CADENCE: usize = 0;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsz-serve-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn options(dir: &Path) -> ServeOptions {
    ServeOptions { state_dir: dir.to_path_buf(), ..ServeOptions::default() }
}

/// One controller combo of the parity matrix.
struct Combo {
    tag: &'static str,
    fleet: &'static str,
    algo: &'static str,
    grid: &'static str,
}

/// Every shipping controller, on both grid kinds.
fn combos() -> Vec<Combo> {
    let all = vec![
        Combo { tag: "b", fleet: "cpu-gpu:2,1", algo: "b", grid: "full" },
        Combo { tag: "b-gamma", fleet: "cpu-gpu:2,1", algo: "b", grid: "gamma:2" },
        Combo { tag: "a", fleet: "old-new:2,2", algo: "a", grid: "full" },
        Combo { tag: "lcp", fleet: "homogeneous:4", algo: "lcp", grid: "full" },
        Combo { tag: "rhc", fleet: "cpu-gpu:2,1", algo: "rhc:3", grid: "full" },
    ];
    if quick() {
        all.into_iter().take(2).collect()
    } else {
        all
    }
}

fn register_line(tenant: &str, c: &Combo, snapshot_every: usize) -> String {
    format!(
        r#"{{"op":"register","tenant":"{tenant}","fleet":"{}","algo":"{}","grid":"{}","snapshot_every":{snapshot_every}}}"#,
        c.fleet, c.algo, c.grid
    )
}

fn tick_line(tenant: &str, seq: usize, load: f64) -> String {
    format!(r#"{{"op":"tick","tenant":"{tenant}","seq":{seq},"load":{load}}}"#)
}

/// Parse a decision reply, panicking (test failure) on anything else.
fn decided(reply: &str) -> Vec<u64> {
    let v = json::parse(reply).unwrap_or_else(|e| panic!("unparseable reply {reply:?}: {e}"));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "not a decision: {reply}");
    match v.get("config") {
        Some(Json::Arr(items)) => items.iter().map(|i| i.as_u64().unwrap()).collect(),
        other => panic!("bad config {other:?} in {reply}"),
    }
}

fn assert_ok(reply: &str) {
    let v = json::parse(reply).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
}

/// Uninterrupted reference run for one combo: fresh dir, all ticks.
fn baseline(c: &Combo, snapshot_every: usize) -> Vec<Vec<u64>> {
    let dir = tmp_dir(&format!("base-{}", c.tag));
    let daemon = Daemon::new(options(&dir)).unwrap();
    assert_ok(&daemon.handle(&register_line("t", c, snapshot_every)));
    let out = loads()
        .iter()
        .enumerate()
        .map(|(i, &l)| decided(&daemon.handle(&tick_line("t", i, l))))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

// ---------------------------------------------------------------------
// 1. Kill–restart parity at every offset
// ---------------------------------------------------------------------

/// The tentpole property: for every combo and every kill offset `k`,
/// feeding `k` ticks, dying without ceremony, restarting, and feeding
/// the rest produces decisions bit-identical to the uninterrupted run —
/// replayed prefix included. Over the long trace the offsets are
/// sampled: right after a snapshot, mid-cadence, and in the last 16
/// ticks.
#[test]
fn kill_restart_is_bit_identical_at_every_offset() {
    let loads = loads();
    for c in combos() {
        let expect = baseline(&c, 3);
        for kill_at in 0..=loads.len() {
            let dir = tmp_dir(&format!("kill-{}-{kill_at}", c.tag));
            let daemon = Daemon::new(options(&dir)).unwrap();
            assert_ok(&daemon.handle(&register_line("t", &c, 3)));
            for (i, &l) in loads[..kill_at].iter().enumerate() {
                assert_eq!(decided(&daemon.handle(&tick_line("t", i, l))), expect[i]);
            }
            drop(daemon); // kill -9: no shutdown, no final snapshot
            resume_and_check(&dir, &c, &loads, 3, kill_at, &expect);
        }
    }
    let long = long_loads();
    let offsets = [2048, 2056, long.len() - 7];
    for c in combos() {
        let expect = long_reference_run("kill", &c, &long, &offsets);
        for kill_at in offsets {
            let image = kill_image("kill", &c, kill_at);
            resume_and_check(&image, &c, &long, DEFAULT_CADENCE, kill_at, &expect);
        }
    }
}

/// One uninterrupted run of `c` over `loads` at the default cadences:
/// the reference decisions of a long-trace test. Right before tick `k`
/// for each `k` in `kill_at` (after the last tick for `loads.len()`),
/// the run's state directory is copied to [`kill_image`] — exactly what
/// a kill -9 there leaves behind, since WAL appends and snapshot
/// renames reach the OS before `handle` returns.
fn long_reference_run(test: &str, c: &Combo, loads: &[f64], kill_at: &[usize]) -> Vec<Vec<u64>> {
    let dir = tmp_dir(&format!("{test}-long-{}", c.tag));
    let daemon = Daemon::new(options(&dir)).unwrap();
    assert_ok(&daemon.handle(&register_line("t", c, DEFAULT_CADENCE)));
    let mut expect = Vec::with_capacity(loads.len());
    for (i, &l) in loads.iter().enumerate() {
        if kill_at.contains(&i) {
            copy_dir(&dir, &kill_image(test, c, i));
        }
        expect.push(decided(&daemon.handle(&tick_line("t", i, l))));
    }
    if kill_at.contains(&loads.len()) {
        copy_dir(&dir, &kill_image(test, c, loads.len()));
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
    expect
}

/// Where [`long_reference_run`] leaves its state after `kill_at` ticks.
fn kill_image(test: &str, c: &Combo, kill_at: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rsz-serve-chaos-{}-{test}-image-{}-{kill_at}",
        std::process::id(),
        c.tag
    ))
}

/// Copy the flat state directory `from` to a fresh `to`.
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Restart over a state directory a kill after `kill_at` ticks left
/// behind, then send the whole stream: the committed prefix answers
/// from history, the rest decides fresh — all equal to `expect`.
fn resume_and_check(
    dir: &Path,
    c: &Combo,
    loads: &[f64],
    snapshot_every: usize,
    kill_at: usize,
    expect: &[Vec<u64>],
) {
    let daemon = Daemon::new(options(dir)).unwrap();
    if kill_at > 0 {
        assert_eq!(daemon.counters.recovered.load(Ordering::Relaxed), 1, "{}", c.tag);
    }
    // Idempotent re-register reports where to resume.
    let v = json::parse(&daemon.handle(&register_line("t", c, snapshot_every))).unwrap();
    assert_eq!(
        v.get("resumed_ticks").and_then(Json::as_u64),
        Some(kill_at as u64),
        "{} kill_at {kill_at}",
        c.tag
    );
    for (i, &l) in loads.iter().enumerate() {
        let reply = daemon.handle(&tick_line("t", i, l));
        assert_eq!(decided(&reply), expect[i], "{} kill_at {kill_at} seq {i}: {reply}", c.tag);
    }
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------
// 2. Storage faults
// ---------------------------------------------------------------------

/// Truncating the WAL at a seeded byte offset (a torn tail) recovers
/// the intact prefix: the daemon restarts, never panics, and every
/// surviving committed tick replays bit-identically.
#[test]
fn wal_truncation_recovers_the_intact_prefix() {
    let c = &combos()[0];
    let expect = baseline(c, 100); // no snapshots: recovery is WAL-only
    let loads = loads();
    for seed in seeds() {
        let plan = daemon_plan(seed);
        let dir = tmp_dir(&format!("trunc-{seed}"));
        let daemon = Daemon::new(options(&dir)).unwrap();
        assert_ok(&daemon.handle(&register_line("t", c, 100)));
        for (i, &l) in loads.iter().enumerate() {
            daemon.handle(&tick_line("t", i, l));
        }
        drop(daemon);

        let path = wal::wal_path(&dir, "t");
        let mut bytes = wal::read_file(&path).unwrap();
        plan.truncate_wal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();

        let daemon = Daemon::new(options(&dir)).unwrap();
        let health = daemon.handle("GET /health");
        assert_ok(&health);
        // However deep the cut landed, the surviving prefix must replay
        // bit-identically and fresh ticks must extend it.
        let v = json::parse(&daemon.handle(&register_line("t", c, 100))).unwrap();
        if let Some(resumed) = v.get("resumed_ticks").and_then(Json::as_u64) {
            let resumed = resumed as usize;
            assert!(resumed <= loads.len(), "seed {seed}: resumed {resumed}");
            for (i, &l) in loads.iter().enumerate() {
                let reply = daemon.handle(&tick_line("t", i, l));
                assert_eq!(decided(&reply), expect[i], "seed {seed} seq {i}: {reply}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Flipping one WAL bit either quarantines the tenant as `wal_corrupt`
/// (reporting the failing byte range) or — when the flip lands in a
/// region recovery legitimately drops, e.g. a length field turning the
/// tail torn — resumes a bit-identical prefix. It never panics and
/// never touches the co-tenant.
#[test]
fn wal_bit_flip_quarantines_or_resumes_a_prefix() {
    let c = &combos()[0];
    let expect = baseline(c, 100);
    let loads = loads();
    for seed in seeds() {
        let plan = daemon_plan(seed);
        let dir = tmp_dir(&format!("flip-{seed}"));
        let daemon = Daemon::new(options(&dir)).unwrap();
        assert_ok(&daemon.handle(&register_line("t", c, 100)));
        assert_ok(&daemon.handle(&register_line("bystander", c, 100)));
        for (i, &l) in loads.iter().enumerate() {
            daemon.handle(&tick_line("t", i, l));
            daemon.handle(&tick_line("bystander", i, l));
        }
        drop(daemon);

        let path = wal::wal_path(&dir, "t");
        let mut bytes = wal::read_file(&path).unwrap();
        plan.flip_wal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();

        let daemon = Daemon::new(options(&dir)).unwrap();
        assert_ok(&daemon.handle("GET /health"));
        let metrics = daemon.handle("GET /metrics");
        let m = json::parse(&metrics).unwrap();
        let quarantined = m
            .get("tenants")
            .and_then(|t| t.get("t"))
            .and_then(|t| t.get("quarantined"))
            .and_then(Json::as_str)
            .map(str::to_owned);
        match quarantined.as_deref() {
            Some("wal_corrupt") => {
                // Structured reason names the failing byte range.
                let detail = m
                    .get("tenants")
                    .and_then(|t| t.get("t"))
                    .and_then(|t| t.get("quarantine_detail"))
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned();
                assert!(
                    detail.contains("bytes") || detail.contains("seq"),
                    "seed {seed}: vague corruption detail {detail:?}"
                );
            }
            Some(other) => panic!("seed {seed}: unexpected quarantine reason {other}"),
            None => {
                // Flip classified as a torn tail: a valid prefix must
                // have resumed, bit-identical to the baseline.
                let v = json::parse(&daemon.handle(&register_line("t", c, 100))).unwrap();
                let resumed = v.get("resumed_ticks").and_then(Json::as_u64).unwrap_or(0) as usize;
                for (i, &l) in loads.iter().take(resumed).enumerate() {
                    assert_eq!(decided(&daemon.handle(&tick_line("t", i, l))), expect[i]);
                }
            }
        }
        // The bystander sharing the daemon (and the pool key) is whole.
        let v = json::parse(&daemon.handle(&register_line("bystander", c, 100))).unwrap();
        assert_eq!(v.get("resumed_ticks").and_then(Json::as_u64), Some(loads.len() as u64));
        for (i, &l) in loads.iter().enumerate() {
            assert_eq!(
                decided(&daemon.handle(&tick_line("bystander", i, l))),
                expect[i],
                "seed {seed}: bystander perturbed at seq {i}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The history-log faults every recovery test runs. `missing` loses the
/// log's checkpoint records (what was the `.snap` before checkpoints
/// lived in the log), `hist-missing` the whole log, and `slots-missing`
/// only its slot records.
const STATE_FAULTS: [&str; 7] =
    ["missing", "corrupt", "hist-missing", "hist-torn", "hist-flip", "hist-ahead", "slots-missing"];

/// The checkpoint records of the history log in `dir`, as `(k, bytes)`.
fn checkpoints(dir: &Path) -> Vec<(usize, std::ops::Range<usize>)> {
    let bytes = std::fs::read(wal::hist_path(dir, "t")).unwrap_or_default();
    history_frames(&bytes).into_iter().filter_map(|f| Some((f.checkpoint?, f.range))).collect()
}

/// No checkpoint record in the log: recovery replays the full WAL and
/// the result is bit-identical. The last checkpoint corrupted or torn,
/// or slot records past it (the last append's checkpoint lost): the
/// checkpoint before it restores, with no WAL-replay fallback, and the
/// log is cut back to it. The log's slot records missing (no checkpoint
/// agrees with the history before it), the whole log missing, or one of
/// its bits flipped anywhere: recovery restores what is left or falls
/// back to the WAL (`snapshot_fallbacks`), and does *not* quarantine.
/// The long trace replays 4100 ticks from the WAL alone.
#[test]
fn missing_or_corrupt_snapshots_fall_back_to_the_wal() {
    let c = &combos()[0];
    let expect = baseline(c, 3);
    let loads = loads();
    for seed in seeds() {
        for mode in STATE_FAULTS {
            let dir = tmp_dir(&format!("snap-{mode}-{seed}"));
            let daemon = Daemon::new(options(&dir)).unwrap();
            assert_ok(&daemon.handle(&register_line("t", c, 3)));
            for (i, &l) in loads.iter().enumerate() {
                daemon.handle(&tick_line("t", i, l));
            }
            drop(daemon);
            damage_snapshot_and_check(&dir, &loads, 3, &expect, seed, mode);
        }
    }
    let long = long_loads();
    let expect = long_reference_run("snap", c, &long, &[long.len()]);
    let image = kill_image("snap", c, long.len());
    for mode in STATE_FAULTS {
        let dir = tmp_dir(&format!("snap-{mode}-long"));
        copy_dir(&image, &dir);
        let seed = seeds()[0];
        damage_snapshot_and_check(&dir, &long, DEFAULT_CADENCE, &expect, seed, mode);
    }
    let _ = std::fs::remove_dir_all(&image);
}

/// Damage the history log in `dir` as `mode` and the seeded plan say:
/// drop its checkpoint records, flip a bit of its last checkpoint (or
/// drop it), lose the whole log, tear it inside its last record, flip
/// one of its bits, cut it right before its last checkpoint so the slot
/// records of the last append run past the checkpoint before them, or
/// drop its slot records.
/// Returns whether recovery must still restore a checkpoint (no
/// WAL-replay fallback).
fn damage_state(dir: &Path, seed: u64, mode: &str) -> bool {
    let plan = daemon_plan(seed);
    let hist = wal::hist_path(dir, "t");
    let mut bytes = std::fs::read(&hist).unwrap();
    let checkpoints = checkpoints(dir);
    let Some((_, last)) = checkpoints.last().cloned() else { panic!("{mode}: nothing to damage") };
    let earlier = checkpoints.len() > 1;
    match mode {
        "missing" | "slots-missing" => {
            let frames = history_frames(&bytes).into_iter();
            let kept = frames.filter(|f| f.checkpoint.is_some() == (mode == "slots-missing"));
            std::fs::write(&hist, kept.flat_map(|f| bytes[f.range].to_vec()).collect::<Vec<_>>())
                .unwrap();
            return false;
        }
        "corrupt" if plan.drop_snapshot => wal::truncate_file(&hist, last.start).unwrap(),
        "corrupt" => {
            plan.flip_wal(&mut bytes[last]); // reuse the seeded flip position
            std::fs::write(&hist, &bytes).unwrap();
        }
        "hist-missing" => {
            std::fs::remove_file(&hist).unwrap();
            return false;
        }
        "hist-torn" => {
            // Inside the last record (each is longer than 17 bytes).
            let len = bytes.len() as u64;
            wal::truncate_file(&hist, (len - 1 - seed % 17) as usize).unwrap();
        }
        "hist-flip" => {
            plan.flip_wal(&mut bytes); // reuse the seeded flip position
            std::fs::write(&hist, &bytes).unwrap();
            return false;
        }
        "hist-ahead" => {
            assert!(history_frames(&bytes[..last.start]).last().unwrap().checkpoint.is_none());
            wal::truncate_file(&hist, last.start).unwrap();
        }
        other => panic!("unknown fault {other}"),
    }
    earlier
}

/// Damage the state of a dropped daemon in `dir` that took all of
/// `loads` ([`damage_state`]), restart, and check every replayed
/// decision against `expect`.
fn damage_snapshot_and_check(
    dir: &Path,
    loads: &[f64],
    snapshot_every: usize,
    expect: &[Vec<u64>],
    seed: u64,
    mode: &str,
) {
    assert!(
        !checkpoints(dir).is_empty(),
        "cadence {snapshot_every} over {} ticks must checkpoint",
        loads.len()
    );
    let hist_len = std::fs::metadata(wal::hist_path(dir, "t")).unwrap().len();
    let restores = damage_state(dir, seed, mode);

    let daemon = Daemon::new(options(dir)).unwrap();
    assert_eq!(daemon.counters.recovered.load(Ordering::Relaxed), 1);
    let health = daemon.handle("GET /health");
    assert!(health.contains("\"quarantined\":0"), "{mode}/{seed}: {health}");
    if restores {
        let fallbacks = daemon.counters.snapshot_fallbacks.load(Ordering::Relaxed);
        assert_eq!(fallbacks, 0, "{mode}/{seed}: the earlier checkpoint must restore");
        let cut = std::fs::metadata(wal::hist_path(dir, "t")).unwrap().len();
        assert!(cut < hist_len, "{mode}/{seed}: records past the checkpoint must be cut off");
    }
    for (i, &l) in loads.iter().enumerate() {
        let reply = daemon.handle(&tick_line("t", i, l));
        assert_eq!(decided(&reply), expect[i], "{mode}/{seed} seq {i}: {reply}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A kill -9 in the middle of a snapshot's append, at every byte
/// offset: the restart restores from the checkpoint before it (no
/// WAL-replay fallback when there is one), cuts the torn tail off and
/// replays the rest from the WAL, bit-identical to the live run. A
/// state directory never holds a `.snap` or its temporary file.
#[test]
fn a_snapshot_append_torn_at_any_byte_restores_the_checkpoint_before_it() {
    let c = &combos()[0];
    let expect = baseline(c, 3);
    let loads = loads();
    let dir = tmp_dir("torn-append");
    let daemon = Daemon::new(options(&dir)).unwrap();
    assert_ok(&daemon.handle(&register_line("t", c, 3)));
    for (i, &l) in loads.iter().enumerate() {
        assert_eq!(decided(&daemon.handle(&tick_line("t", i, l))), expect[i]);
    }
    drop(daemon);
    for entry in std::fs::read_dir(&dir).unwrap() {
        let file = entry.unwrap().file_name().into_string().unwrap();
        assert!(!file.ends_with(".snap") && !file.ends_with(".snap.tmp"), "{file}");
    }
    let ends: Vec<usize> = checkpoints(&dir).into_iter().map(|(_, r)| r.end).collect();
    assert_eq!(checkpoints(&dir).iter().map(|c| c.0).collect::<Vec<_>>(), [3, 6, 9]);
    // The first append (no checkpoint before it) and the last one.
    let stride = if quick() { 7 } else { 1 };
    for (appended, earlier) in [(0..ends[0], false), (ends[1]..ends[2], true)] {
        for cut in appended.step_by(stride) {
            let torn = tmp_dir("torn-append-cut");
            copy_dir(&dir, &torn);
            wal::truncate_file(&wal::hist_path(&torn, "t"), cut).unwrap();
            let daemon = Daemon::new(options(&torn)).unwrap();
            let fallbacks = daemon.counters.snapshot_fallbacks.load(Ordering::Relaxed);
            if earlier {
                assert_eq!(fallbacks, 0, "torn at byte {cut}: the checkpoint at 6 must restore");
            }
            let v = json::parse(&daemon.handle(&register_line("t", c, 3))).unwrap();
            assert_eq!(v.get("resumed_ticks").and_then(Json::as_u64), Some(loads.len() as u64));
            for (i, &l) in loads.iter().enumerate() {
                let reply = daemon.handle(&tick_line("t", i, l));
                assert_eq!(decided(&reply), expect[i], "torn at byte {cut}, seq {i}: {reply}");
            }
            drop(daemon);
            let _ = std::fs::remove_dir_all(&torn);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 3. Transport faults against a real TCP server
// ---------------------------------------------------------------------

/// Connections dropped mid-line, partial JSON writes, and garbage bytes
/// never take the daemon down; a well-behaved client keeps deciding
/// across all of it, and duplicate seqs from retransmits replay.
#[test]
fn dropped_connections_and_partial_writes_never_kill_the_daemon() {
    use std::io::Write;
    use std::net::TcpStream;

    let c = &combos()[0];
    let dir = tmp_dir("tcp");
    let daemon = Arc::new(Daemon::new(options(&dir)).unwrap());
    let server = Server::bind(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::new(&addr, ClientOptions::default());
    let spec = heterogeneous_rightsizing::serve::TenantSpec {
        fleet: c.fleet.to_owned(),
        algo: c.algo.to_owned(),
        engine: true,
        cache: false,
        grid: heterogeneous_rightsizing::serve::GridSpec::parse(c.grid).unwrap(),
        deadline_us: None,
        snapshot_every: 0,
    };
    client.register("t", &spec).unwrap();

    let loads = loads();
    for (i, &l) in loads.iter().enumerate() {
        // Interleave each good tick with seeded abuse on raw sockets.
        let plan = daemon_plan(i as u64);
        let line = tick_line("t", i, l);
        let (head, _tail) = plan.split_line(&line);
        if let Ok(mut s) = TcpStream::connect(&addr) {
            let _ = s.write_all(head.as_bytes());
            drop(s); // connection dropped mid-line
        }
        if let Ok(mut s) = TcpStream::connect(&addr) {
            let _ = s.write_all(head.as_bytes());
            let _ = s.flush();
            std::thread::sleep(Duration::from_millis(1));
            drop(s); // partial JSON write, then gone
        }
        if let Ok(mut s) = TcpStream::connect(&addr) {
            let _ = s.write_all(b"\x00\xffnot json at all\n");
            drop(s);
        }
        let d = client.tick("t", i as u64, l).unwrap();
        assert!(!d.replayed, "seq {i} should be fresh");
        // A retransmit of the same seq replays bit-identically.
        let again = client.tick("t", i as u64, l).unwrap();
        assert!(again.replayed, "seq {i} retransmit should replay");
        assert_eq!(again.config, d.config, "seq {i} replay diverged");
    }
    let health = client.health().unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 4. Isolation and transparency
// ---------------------------------------------------------------------

/// Two tenants share one priced-slot pool under an eviction storm
/// (pool capacity 2). One is quarantined mid-storm by a poisoned λ.
/// The survivor's decisions are byte-identical to its solo run —
/// pool sharing changes hit rates, never decisions.
#[test]
fn pool_cotenant_quarantine_mid_storm_never_perturbs_the_survivor() {
    let c = &combos()[0];
    let storm = ServeOptions { pool_capacity: 2, ..Default::default() };
    let loads = loads();

    // Solo reference: the survivor alone, same starved pool.
    let dir = tmp_dir("storm-solo");
    let daemon = Daemon::new(ServeOptions { state_dir: dir.clone(), ..storm.clone() }).unwrap();
    assert_ok(&daemon.handle(&register_line("survivor", c, 4)));
    let expect: Vec<Vec<u64>> = loads
        .iter()
        .enumerate()
        .map(|(i, &l)| decided(&daemon.handle(&tick_line("survivor", i, l))))
        .collect();
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);

    // Shared run: same (fleet, grid) key, interleaved ticks, co-tenant
    // poisoned halfway through.
    let dir = tmp_dir("storm-shared");
    let daemon = Daemon::new(ServeOptions { state_dir: dir.clone(), ..storm }).unwrap();
    assert_ok(&daemon.handle(&register_line("survivor", c, 4)));
    assert_ok(&daemon.handle(&register_line("victim", c, 4)));
    for (i, &l) in loads.iter().enumerate() {
        if i < loads.len() / 2 {
            assert_ok(&daemon.handle(&tick_line("victim", i, l)));
        } else if i == loads.len() / 2 {
            let reply = daemon
                .handle(&format!(r#"{{"op":"tick","tenant":"victim","seq":{i},"load":null}}"#));
            assert!(reply.contains("\"error\":\"input\""), "{reply}");
        }
        let reply = daemon.handle(&tick_line("survivor", i, l));
        assert_eq!(decided(&reply), expect[i], "survivor perturbed at seq {i}: {reply}");
    }
    let health = daemon.handle("GET /health");
    assert!(health.contains("\"quarantined\":1"), "{health}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tenant with no deadline (daemon default `None`, no `deadline_us`)
/// goes through the degrader in bit-transparent mode: serve-path
/// decisions equal a direct local run of the same controller, and the
/// rung counters show exact-only.
#[test]
fn deadline_none_is_bit_transparent_through_the_serve_path() {
    let loads = loads();
    let types = fleet::parse("cpu-gpu:2,1").unwrap();
    let instance = Instance::builder().server_types(types).loads(loads.clone()).build().unwrap();
    let oracle = Dispatcher::new();
    let mut local = AlgorithmB::new(&instance, Dispatcher::new(), AOptions::default());
    let reference = run(&instance, &mut local, &oracle);

    let c = Combo { tag: "transparent", fleet: "cpu-gpu:2,1", algo: "b", grid: "full" };
    let dir = tmp_dir("transparent");
    let daemon = Daemon::new(options(&dir)).unwrap();
    assert_ok(&daemon.handle(&register_line("t", &c, 4)));
    for (i, &l) in loads.iter().enumerate() {
        let got = decided(&daemon.handle(&tick_line("t", i, l)));
        let want: Vec<u64> =
            reference.schedule.config(i).counts().iter().map(|&x| x as u64).collect();
        assert_eq!(got, want, "serve path diverged from the direct run at seq {i}");
    }
    let m = json::parse(&daemon.handle("GET /metrics")).unwrap();
    let tenant = m.get("tenants").and_then(|t| t.get("t")).unwrap();
    assert_eq!(
        tenant.get("rung_exact").and_then(Json::as_u64),
        Some(loads.len() as u64),
        "every decision must be exact"
    );
    assert_eq!(tenant.get("rung_coarse").and_then(Json::as_u64), Some(0));
    assert_eq!(tenant.get("rung_hold").and_then(Json::as_u64), Some(0));
    assert_eq!(tenant.get("rung").and_then(Json::as_str), Some("exact"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon-wide `rung_*` counters of `/metrics` are the sums of the
/// per-tenant ones. A tenant with a 1 µs deadline overruns it and
/// descends the ladder, so its rungs differ from an undeadlined
/// tenant's exact-only ones.
#[test]
fn daemon_rung_counters_are_the_per_tenant_sums() {
    let dir = tmp_dir("rung-sums");
    let daemon = Daemon::new(options(&dir)).unwrap();
    let c = Combo { tag: "exact", fleet: "cpu-gpu:4,2", algo: "b", grid: "full" };
    assert_ok(&daemon.handle(&register_line("exact", &c, 4)));
    assert_ok(&daemon.handle(
        r#"{"op":"register","tenant":"rushed","fleet":"cpu-gpu:4,2","algo":"b","deadline_us":1}"#,
    ));
    let ticks = 32;
    for i in 0..ticks {
        let load = 1.0 + 7.0 * (i as f64 * 0.618_033_988_749_895).fract();
        for tenant in ["exact", "rushed"] {
            assert_eq!(decided(&daemon.handle(&tick_line(tenant, i, load))).len(), 2);
        }
    }
    let m = json::parse(&daemon.handle("GET /metrics")).unwrap();
    let rungs = |v: &Json| {
        ["rung_exact", "rung_coarse", "rung_hold"].map(|k| v.get(k).and_then(Json::as_u64).unwrap())
    };
    let tenants = m.get("tenants").unwrap();
    let (exact, rushed) =
        (rungs(tenants.get("exact").unwrap()), rungs(tenants.get("rushed").unwrap()));
    assert_eq!(exact, [ticks as u64, 0, 0], "no deadline: every decision is exact");
    assert_eq!(rushed.iter().sum::<u64>(), ticks as u64);
    assert!(rushed[0] < ticks as u64, "the 1 µs tenant never descended: {rushed:?}");
    let sums: Vec<u64> = exact.iter().zip(&rushed).map(|(a, b)| a + b).collect();
    assert_eq!(rungs(&m).to_vec(), sums, "daemon-wide rungs vs per-tenant sums");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 5. Segment rotation, compaction, and graceful shutdown
// ---------------------------------------------------------------------

/// A 1-byte segment threshold seals a segment on every append, so the
/// log is maximally fragmented and snapshots compact covered segments
/// as they seal. `kill -9` over that debris — sealed segments, a
/// compacted prefix, a fresh active file — still recovers
/// bit-identically at every offset.
#[test]
fn rotation_and_compaction_survive_kill_restart_bit_identically() {
    let c = &combos()[0];
    let expect = baseline(c, 3);
    let loads = loads();
    let offsets: Vec<usize> =
        if quick() { vec![1, 3, 4, loads.len()] } else { (1..=loads.len()).collect() };
    for kill_at in offsets {
        let dir = tmp_dir(&format!("rot-{kill_at}"));
        let opts = ServeOptions { segment_bytes: 1, ..options(&dir) };
        let daemon = Daemon::new(opts.clone()).unwrap();
        assert_ok(&daemon.handle(&register_line("t", c, 3)));
        for (i, &l) in loads[..kill_at].iter().enumerate() {
            assert_eq!(decided(&daemon.handle(&tick_line("t", i, l))), expect[i]);
        }
        // Every accepted tick sealed a segment; the cadence-3 snapshot
        // at k compacted every segment before the one running through k,
        // which stays so that the WAL still holds tick k - 1.
        let sealed = daemon.counters.segments_sealed.load(Ordering::Relaxed);
        assert_eq!(sealed, kill_at as u64, "one seal per tick at threshold 1");
        let compacted = daemon.counters.segments_compacted.load(Ordering::Relaxed);
        let k = kill_at / 3 * 3;
        assert_eq!(compacted, k.saturating_sub(1) as u64, "kill_at {kill_at}");
        let on_disk: Vec<u64> = wal::list_segments(&dir, "t").into_iter().map(|s| s.0).collect();
        assert_eq!(on_disk, (k.max(1)..=kill_at).map(|t| t as u64).collect::<Vec<_>>());
        let m = json::parse(&daemon.handle("GET /metrics")).unwrap();
        assert_eq!(m.get("segments_sealed").and_then(Json::as_u64), Some(sealed));
        assert_eq!(m.get("segments_compacted").and_then(Json::as_u64), Some(compacted));
        drop(daemon); // kill -9: no shutdown, no final snapshot
        if kill_at >= 3 {
            history_faults_after_compaction_quarantine(&dir, &opts, kill_at);
        }
        if kill_at >= 6 {
            a_quarantining_log_is_left_as_it_was(&dir, &opts, &expect, kill_at);
        }

        let daemon = Daemon::new(opts).unwrap();
        let v = json::parse(&daemon.handle(&register_line("t", c, 3))).unwrap();
        assert_eq!(
            v.get("resumed_ticks").and_then(Json::as_u64),
            Some(kill_at as u64),
            "kill_at {kill_at}"
        );
        for (i, &l) in loads.iter().enumerate() {
            let reply = daemon.handle(&tick_line("t", i, l));
            assert_eq!(decided(&reply), expect[i], "kill_at {kill_at} seq {i}: {reply}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The WAL of `dir` no longer starts at seq 0 (compaction deleted the
/// segments the checkpoint covers, all but the one holding its last
/// tick), so a history log that is missing, whose checkpoint records or
/// slot records are missing, or that is torn or bit-flipped, leaves
/// nothing to replay: the tenant must quarantine with a structured
/// reason, and stay quarantined when the ticks that follow retry its
/// revival — resuming would drop acknowledged ticks.
fn history_faults_after_compaction_quarantine(dir: &Path, opts: &ServeOptions, kill_at: usize) {
    for mode in ["missing", "hist-missing", "hist-torn", "hist-flip", "slots-missing"] {
        let copy = tmp_dir(&format!("rot-{kill_at}-{mode}"));
        copy_dir(dir, &copy);
        damage_state(&copy, 7, mode);
        // Gates short enough that the ticks below also retry revival.
        let short = Duration::from_micros(1);
        let opts = ServeOptions { backoff_base: short, backoff_cap: short, ..opts.clone() };
        let daemon = Daemon::new(ServeOptions { state_dir: copy.clone(), ..opts }).unwrap();
        assert_eq!(
            quarantine_reason(&daemon),
            Some("wal_corrupt".into()),
            "kill_at {kill_at} {mode}"
        );
        for (i, &l) in loads().iter().enumerate() {
            let reply = daemon.handle(&tick_line("t", i, l));
            assert!(reply.contains("compacted"), "kill_at {kill_at} {mode} seq {i}: {reply}");
        }
        let still = quarantine_reason(&daemon);
        assert_eq!(still, Some("wal_corrupt".into()), "kill_at {kill_at} {mode}: revived");
        let _ = std::fs::remove_dir_all(&copy);
    }
}

/// Tenant `t`'s quarantine reason, as `/metrics` reports it.
fn quarantine_reason(daemon: &Daemon) -> Option<String> {
    let m = json::parse(&daemon.handle("GET /metrics")).unwrap();
    let t = m.get("tenants").and_then(|t| t.get("t"))?;
    t.get("quarantined").and_then(Json::as_str).map(str::to_owned)
}

/// A bit flipped in the first slot record after the first checkpoint of
/// the compacted state in `dir`: that checkpoint restores, but the WAL
/// no longer holds the ticks after it — the sealed segments that held
/// some of them are compacted, or, in the second variant, lost as well —
/// so the tenant quarantines. It stays quarantined through a retry after
/// its backoff and through a restart, and the log stays byte for byte
/// as it was: its records past that checkpoint are the only copy of
/// those ticks. Mending the bit brings every tick back.
fn a_quarantining_log_is_left_as_it_was(
    dir: &Path,
    opts: &ServeOptions,
    expect: &[Vec<u64>],
    kill_at: usize,
) {
    for segments_lost in [false, true] {
        let copy = tmp_dir(&format!("rot-{kill_at}-twice-{segments_lost}"));
        copy_dir(dir, &copy);
        if segments_lost {
            for (_, path) in wal::list_segments(&copy, "t") {
                std::fs::remove_file(path).unwrap();
            }
        }
        let hist = wal::hist_path(&copy, "t");
        let mut bytes = std::fs::read(&hist).unwrap();
        let frames = history_frames(&bytes);
        let first = frames.iter().position(|f| f.checkpoint.is_some()).unwrap();
        let flip = frames[first + 1].payload.start + 8; // the next slot record's load
        bytes[flip] ^= 1;
        std::fs::write(&hist, &bytes).unwrap();
        let short = Duration::from_millis(1);
        let opts = ServeOptions {
            state_dir: copy.clone(),
            backoff_base: short,
            backoff_cap: short,
            ..opts.clone()
        };
        for round in 0..2 {
            let daemon = Daemon::new(opts.clone()).unwrap();
            for retry in 0..2 {
                let at = format!("kill_at {kill_at}, lost {segments_lost}, round {round}/{retry}");
                assert_eq!(quarantine_reason(&daemon), Some("wal_corrupt".into()), "{at}");
                assert!(std::fs::read(&hist).unwrap() == bytes, "{at}: the log changed");
                std::thread::sleep(short * 5);
                let reply = daemon.handle(&tick_line("t", 0, loads()[0]));
                assert!(reply.contains("compacted"), "{at}: {reply}");
            }
        }
        if !segments_lost {
            let mut mended = std::fs::read(&hist).unwrap();
            mended[flip] ^= 1;
            std::fs::write(&hist, &mended).unwrap();
            let daemon = Daemon::new(opts).unwrap();
            assert_eq!(quarantine_reason(&daemon), None, "kill_at {kill_at}: mended");
            for (i, &l) in loads().iter().enumerate() {
                let reply = daemon.handle(&tick_line("t", i, l));
                assert_eq!(
                    decided(&reply),
                    expect[i],
                    "kill_at {kill_at} mended, seq {i}: {reply}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
}

/// An orderly shutdown stops admission with an explicit `overloaded`,
/// fsyncs the WALs, and seals a final snapshot — so the restart
/// restores from that snapshot without a WAL-replay fallback and
/// resumes bit-identically. Snapshot cadence is set beyond the horizon:
/// the only snapshot is the shutdown's.
#[test]
fn graceful_shutdown_seals_state_and_restart_resumes_cleanly() {
    let c = &combos()[0];
    let expect = baseline(c, 100);
    let loads = loads();
    let dir = tmp_dir("graceful");
    let daemon = Daemon::new(options(&dir)).unwrap();
    assert_ok(&daemon.handle(&register_line("t", c, 100)));
    for (i, &l) in loads.iter().enumerate() {
        assert_eq!(decided(&daemon.handle(&tick_line("t", i, l))), expect[i]);
    }
    assert!(checkpoints(&dir).is_empty(), "cadence 100 must not have snapshotted");

    daemon.graceful_shutdown();
    let sealed: Vec<usize> = checkpoints(&dir).into_iter().map(|(k, _)| k).collect();
    assert_eq!(sealed, [loads.len()], "shutdown must seal a final checkpoint");
    // Admission is closed: fresh work sheds explicitly and retryably.
    let reply = daemon.handle(&tick_line("t", loads.len(), 1.0));
    assert!(reply.contains("\"error\":\"overloaded\""), "{reply}");
    assert!(reply.contains("shutting down"), "{reply}");
    let ready = daemon.handle("GET /readyz");
    assert!(ready.contains("\"ready\":false"), "{ready}");
    assert!(daemon.handle("GET /livez").contains("\"live\":true"), "live until exit");
    daemon.graceful_shutdown(); // idempotent
    drop(daemon);

    let daemon = Daemon::new(options(&dir)).unwrap();
    assert_eq!(
        daemon.counters.snapshot_fallbacks.load(Ordering::Relaxed),
        0,
        "the shutdown snapshot must restore cleanly"
    );
    let v = json::parse(&daemon.handle(&register_line("t", c, 100))).unwrap();
    assert_eq!(v.get("resumed_ticks").and_then(Json::as_u64), Some(loads.len() as u64));
    for (i, &l) in loads.iter().enumerate() {
        assert_eq!(decided(&daemon.handle(&tick_line("t", i, l))), expect[i]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
