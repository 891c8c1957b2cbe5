//! `serve_bench` — the daemon under multi-tenant load: what serving
//! costs on top of the bare controllers, and what recovery costs after
//! an unceremonious death.
//!
//! Scenarios (N = 1000 tenants, `--quick`: 100):
//!
//! * **fanout** — register N tenants over a handful of shared
//!   `(fleet, grid)` pool keys, stream every tenant's trace round-robin
//!   through [`Daemon::handle`]: tick throughput, per-decision p50/p99,
//!   and the cross-tenant pool-hit rate from `/metrics`. Gated on a
//!   non-zero hit rate — N tenants on 4 pool keys must share pricing.
//! * **replay** — retransmit every tenant's first seq: duplicate-seq
//!   p99 (answered from committed history, no solve).
//! * **recovery** — drop the daemon (kill -9 model) and restart over
//!   the same state dir: recovery-replay wall-clock and per-tenant
//!   cost. Gated on all N tenants recovering and a sampled tenant
//!   replaying bit-identically.
//! * **failover** — a synced replica loses its primary: wall-clock
//!   from the death to a promoted replica that has re-served the whole
//!   stream bit-identically (lease expiry + promotion + full
//!   retransmit), p50/p99 over repeated trials. Gated on zero
//!   accepted-tick loss in every trial.
//! * **divergence** — flip one committed bit in each of M replica
//!   tenants and sync: every flip must trip a fingerprint cross-check.
//!   Reports detection counters; gated on M-for-M detection.
//! * **age** — tenants of Algorithms A, B, C and LCP at the default
//!   snapshot and fingerprint cadences, on never-repeating loads: mean
//!   tick, p99 tick and bytes written per snapshot (the history log's
//!   growth) in 512-slot windows ending at 1k, 4k and 16k slots, the
//!   three ages measured side by side. Per-tick cost must not depend on
//!   a tenant's age: each 16k/1k ratio is gated at ≤ 1.2 in full mode,
//!   and the bytes ratio — deterministic — in `--quick` mode too.
//!
//! Fanout, replay and recovery run as one round per fresh state dir,
//! and divergence as one primary/replica pair per round: each `*_ms`
//! is the median of five rounds (one under `--quick`), with its IQR,
//! and `ticks_per_sec` is taken at the median. Every state dir lives
//! under one per-process parent, marked as the top of a directory
//! hierarchy (see [`state_parent`]). Results land in
//! `results/serve.json` and, as the trajectory record the CI uploads,
//! `BENCH_serve.json`.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use rsz_bench::harness::{Bench, Row};
use rsz_online::LatencyProfile;
use rsz_serve::json::{self, Json};
use rsz_serve::{wal, Daemon, ReplicaOptions, Replicator, Role, ServeOptions};

/// Pool keys the tenant population collides on: four fleets, one grid.
const FLEETS: [&str; 4] = ["cpu-gpu:2,1", "cpu-gpu:4,2", "old-new:2,2", "homogeneous:4"];

/// Per-tenant trace, peak 3.0 — inside every fleet's capacity. Phase
/// varies per tenant so pool hits are cross-tenant, not degenerate.
fn loads(tenant: usize, horizon: usize) -> Vec<f64> {
    (0..horizon)
        .map(|t| {
            let phase = (t + tenant % 5) as f64 / 4.0 * std::f64::consts::TAU;
            1.5 + 1.25 * phase.sin() + 0.25 * ((t + tenant) % 2) as f64
        })
        .collect()
}

/// Register `tenant` on `fleet` under the controller `algo`.
fn register_tenant(daemon: &Daemon, tenant: &str, fleet: &str, algo: &str) {
    let reply = daemon.handle(&format!(
        r#"{{"op":"register","tenant":"{tenant}","fleet":"{fleet}","algo":"{algo}","engine":true}}"#
    ));
    assert!(reply.contains("\"ok\":true"), "register {tenant}: {reply}");
}

fn tick_line(tenant: &str, seq: usize, load: f64) -> String {
    format!(r#"{{"op":"tick","tenant":"{tenant}","seq":{seq},"load":{load}}}"#)
}

fn decided(reply: &str) -> Vec<u64> {
    let v = json::parse(reply).unwrap_or_else(|e| panic!("unparseable reply {reply:?}: {e}"));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "not a decision: {reply}");
    match v.get("config") {
        Some(Json::Arr(items)) => items.iter().map(|i| i.as_u64().unwrap()).collect(),
        other => panic!("bad config {other:?} in {reply}"),
    }
}

/// The age scenario's tenants: one per online algorithm the daemon
/// serves with a shared engine, each on a fleet whose capacity covers
/// the `[0, 3)` loads.
const AGE_TENANTS: [(&str, &str, &str); 4] = [
    ("a", "old-new:2,2", "a"),
    ("b", "cpu-gpu:4,2", "b"),
    ("c", "cpu-gpu:4,2", "c:0.5"),
    ("lcp", "homogeneous:4", "lcp"),
];

/// What one age window measured over all [`AGE_TENANTS`].
struct AgeWindow {
    tick_mean_us: f64,
    tick_p99_us: f64,
    snapshot_bytes: f64,
}

/// Bytes the tenant `name` has on disk in its history log, and the
/// snapshots it has sealed.
fn history_footprint(daemon: &Daemon, dir: &Path, name: &str) -> (u64, u64) {
    let metrics = json::parse(&daemon.handle("GET /metrics")).expect("metrics parse");
    let snapshots = metrics
        .get("tenants")
        .and_then(|t| t.get(name))
        .and_then(|t| t.get("snapshots"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    (std::fs::metadata(wal::hist_path(dir, name)).map_or(0, |m| m.len()), snapshots)
}

/// Ages of 1k, 4k and 16k slots side by side: three copies of
/// [`AGE_TENANTS`] are ticked (untimed) to 512, 3,584 and 15,872 slots,
/// then all twelve tenants take their next 512 slots round-robin, timed
/// — windows ending at 1k, 4k and 16k, measured over the same wall-clock
/// period, so that what the state directory's file system does over
/// time falls on every age alike. Bytes per snapshot: the history log's
/// growth per snapshot, which is all a snapshot writes.
fn age_row(quick: bool, dir: &Path) -> Row {
    const WINDOW: usize = 512;
    const AGES: [(usize, &str); 3] = [(1024, "1k"), (4096, "4k"), (16_384, "16k")];
    let daemon =
        Daemon::new(ServeOptions { state_dir: dir.to_path_buf(), ..ServeOptions::default() })
            .unwrap();
    // A Weyl sequence in [0, 3): no load ever repeats.
    let load = |seq: usize| 3.0 * (seq as f64 * 0.618_033_988_749_895).fract();
    // Equal-length names, so every age's snapshot is the same size.
    let name = |tag: &str, algo: &str| format!("age{tag:0>3}-{algo}");
    let tick = |tenant: &str, seq: usize| {
        let line = tick_line(tenant, seq, load(seq));
        let clock = Instant::now();
        let reply = daemon.handle(&line);
        let elapsed = clock.elapsed().as_secs_f64();
        debug_assert!(reply.contains("\"ok\":true"), "{reply}");
        elapsed
    };
    for &(end, tag) in &AGES {
        for (algo, fleet, spec) in AGE_TENANTS {
            let tenant = name(tag, algo);
            register_tenant(&daemon, &tenant, fleet, spec);
            for seq in 0..end - WINDOW {
                tick(&tenant, seq);
            }
        }
    }
    let footprints = |tag: &str| -> Vec<(u64, u64)> {
        AGE_TENANTS.iter().map(|t| history_footprint(&daemon, dir, &name(tag, t.0))).collect()
    };
    let before: Vec<Vec<(u64, u64)>> = AGES.iter().map(|&(_, tag)| footprints(tag)).collect();
    let mut samples = vec![Vec::with_capacity(WINDOW * AGE_TENANTS.len()); AGES.len()];
    for step in 0..WINDOW {
        for (i, &(end, tag)) in AGES.iter().enumerate() {
            for (algo, _, _) in AGE_TENANTS {
                samples[i].push(tick(&name(tag, algo), end - WINDOW + step));
            }
        }
    }
    let windows: Vec<AgeWindow> = AGES
        .iter()
        .zip(&before)
        .zip(samples)
        .map(|((&(_, tag), before), samples)| {
            let per_snapshot = AGE_TENANTS
                .iter()
                .zip(before)
                .map(|(t, &(hist0, snaps0))| {
                    let tenant = name(tag, t.0);
                    let (hist, snaps) = history_footprint(&daemon, dir, &tenant);
                    assert!(snaps > snaps0, "{tenant}: no snapshot in the window");
                    (hist - hist0) as f64 / (snaps - snaps0) as f64
                })
                .sum::<f64>()
                / AGE_TENANTS.len() as f64;
            let profile = LatencyProfile::new(samples);
            AgeWindow {
                tick_mean_us: profile.mean() * 1e6,
                tick_p99_us: profile.quantile(0.99) * 1e6,
                snapshot_bytes: per_snapshot,
            }
        })
        .collect();
    drop(daemon);

    let (young, old) = (&windows[0], &windows[windows.len() - 1]);
    let ratios = [
        ("tick_mean_ratio", old.tick_mean_us / young.tick_mean_us),
        ("tick_p99_ratio", old.tick_p99_us / young.tick_p99_us),
        ("snapshot_bytes_ratio", old.snapshot_bytes / young.snapshot_bytes),
    ];
    for (key, ratio) in ratios {
        if key == "snapshot_bytes_ratio" || !quick {
            assert!(ratio <= 1.2, "age: {key} {ratio:.3} > 1.2 (16k vs 1k slots)");
        }
    }
    let mut row = Row::new("age").field("horizon", AGES[AGES.len() - 1].0);
    for ((_, tag), w) in AGES.iter().zip(&windows) {
        row = row
            .num(format!("tick_mean_us_{tag}"), w.tick_mean_us)
            .num(format!("tick_p99_us_{tag}"), w.tick_p99_us)
            .num(format!("snapshot_bytes_{tag}"), w.snapshot_bytes);
    }
    ratios.iter().fold(row, |row, &(key, ratio)| row.num(key, ratio))
}

/// The fresh per-process parent of every scenario's state dir, marked
/// as the top of a directory hierarchy (`chattr +T`, best effort) as
/// `perfbench/run.py` marks its own, so ext4 spreads the state dirs over
/// block groups, starting from a hash of each one's name. Each state dir
/// is new, named per process, and removed only with the parent at the
/// end: ext4 without a journal skips inodes freed in the last minutes,
/// so a create beside recent deletes scans past them. Unmarked and
/// reused, fanout's `register_ms` drifted from 22 to 628 ms.
fn state_parent() -> PathBuf {
    let parent = std::env::temp_dir().join(format!("rsz-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&parent);
    std::fs::create_dir_all(&parent).expect("state parent");
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    if let Ok(dir) = std::fs::File::open(&parent) {
        use std::ffi::{c_int, c_ulong};
        use std::os::fd::AsRawFd;
        extern "C" {
            fn ioctl(fd: c_int, request: c_ulong, ...) -> c_int;
        }
        const FS_IOC_GETFLAGS: c_ulong = 0x8008_6601;
        const FS_IOC_SETFLAGS: c_ulong = 0x4008_6602;
        const FS_TOPDIR_FL: c_int = 0x0002_0000;
        let mut flags: c_int = 0;
        // SAFETY: both requests read or write one `int` through the
        // pointer, which points at a live local, on a descriptor `dir`
        // keeps open across both calls. A file system without the flag
        // fails the calls and keeps its own placement policy.
        unsafe {
            if ioctl(dir.as_raw_fd(), FS_IOC_GETFLAGS, &mut flags as *mut c_int) == 0 {
                flags |= FS_TOPDIR_FL;
                ioctl(dir.as_raw_fd(), FS_IOC_SETFLAGS, &flags as *const c_int);
            }
        }
    }
    parent
}

fn main() {
    let mut bench = Bench::from_args("serve");
    let quick = bench.quick;
    let tenants = if quick { 100 } else { 1000 };
    let horizon = 6;
    let parent = state_parent();
    // A new state dir, named per process (see `state_parent`).
    let fresh = |name: &str| parent.join(format!("{name}-{}", std::process::id()));
    let options = |dir: &Path| ServeOptions {
        state_dir: dir.to_path_buf(),
        snapshot_every: 4,
        ..ServeOptions::default()
    };

    // --- fanout, replay and recovery: one round per fresh state dir ---
    let mut round = 0;
    let ((profile, replays, hit_rate, recovered), [register, fanout, recovery]) =
        bench.repeat(|laps| {
            round += 1;
            let dir = fresh(&format!("fanout-{round}"));
            // fanout: N tenants, round-robin ticks.
            let daemon = Daemon::new(options(&dir)).expect("state dir");
            laps.time(|| {
                for i in 0..tenants {
                    register_tenant(&daemon, &format!("t{i}"), FLEETS[i % FLEETS.len()], "b");
                }
            });
            let mut samples = Vec::with_capacity(tenants * horizon);
            laps.time(|| {
                for seq in 0..horizon {
                    for i in 0..tenants {
                        let line = tick_line(&format!("t{i}"), seq, loads(i, horizon)[seq]);
                        let tick = Instant::now();
                        let reply = daemon.handle(&line);
                        samples.push(tick.elapsed().as_secs_f64());
                        debug_assert!(reply.contains("\"ok\":true"), "{reply}");
                    }
                }
            });
            let metrics = json::parse(&daemon.handle("GET /metrics")).expect("metrics parse");
            let hit_rate = metrics.get("pool_hit_rate").and_then(Json::as_f64).unwrap_or(0.0);
            assert!(
                hit_rate > 0.0,
                "{tenants} tenants over {} pool keys must share pricing (hit rate {hit_rate})",
                FLEETS.len()
            );

            // replay: duplicate seqs answer from committed history.
            let mut replay_samples = Vec::with_capacity(tenants);
            for i in 0..tenants {
                let line = tick_line(&format!("t{i}"), 0, loads(i, horizon)[0]);
                let tick = Instant::now();
                let reply = daemon.handle(&line);
                replay_samples.push(tick.elapsed().as_secs_f64());
                assert!(reply.contains("\"replayed\":true"), "t{i} seq 0 should replay: {reply}");
            }

            // Parity probe for the recovery gate, then kill -9.
            let probe = loads(0, horizon);
            let expect: Vec<Vec<u64>> = (0..horizon)
                .map(|seq| decided(&daemon.handle(&tick_line("t0", seq, probe[seq]))))
                .collect();
            drop(daemon);

            // recovery: restart over the surviving state dir.
            let daemon = laps.time(|| Daemon::new(options(&dir)).expect("recovery"));
            let recovered = daemon.counters.recovered.load(Ordering::Relaxed);
            assert_eq!(recovered as usize, tenants, "every tenant must recover");
            for (seq, want) in expect.iter().enumerate() {
                let got = decided(&daemon.handle(&tick_line("t0", seq, probe[seq])));
                assert_eq!(&got, want, "recovery diverged at seq {seq}");
            }
            (LatencyProfile::new(samples), LatencyProfile::new(replay_samples), hit_rate, recovered)
        });
    bench.row(
        Row::new("fanout")
            .field("tenants", tenants)
            .ms("register_ms", register)
            .ms("fanout_ms", fanout)
            .num("ticks_per_sec", (tenants * horizon) as f64 / fanout.median)
            .num("tick_p50_us", profile.quantile(0.5) * 1e6)
            .num("tick_p99_us", profile.quantile(0.99) * 1e6)
            .num("pool_hit_rate", hit_rate),
    );
    bench.row(
        Row::new("replay")
            .num("replay_p50_us", replays.quantile(0.5) * 1e6)
            .num("replay_p99_us", replays.quantile(0.99) * 1e6),
    );
    bench.row(
        Row::new("recovery")
            .field("recovered", recovered)
            .ms("recovery_ms", recovery)
            .num("per_tenant_us", recovery.median / tenants as f64 * 1e6),
    );

    // --- failover: primary death → promoted, caught-up replica ---
    let trials = if quick { 10 } else { 100 };
    let fo_horizon = 6;
    let pair_options = |d: &Path| ServeOptions { fingerprint_every: 2, ..options(d) };
    let mut failover_samples = Vec::with_capacity(trials);
    for trial in 0..trials {
        let (pdir, rdir) = (fresh(&format!("fo-p-{trial}")), fresh(&format!("fo-r-{trial}")));
        let primary = Arc::new(Daemon::new(pair_options(&pdir)).expect("primary dir"));
        let replica = Arc::new(Daemon::new(pair_options(&rdir)).expect("replica dir"));
        replica.set_role(Role::Replica);
        let mut replicator = Replicator::new(
            Arc::clone(&replica),
            ReplicaOptions { replica_id: "bench".into(), lease_failures: 3 },
        );
        register_tenant(&primary, "t", "cpu-gpu:2,1", "b");
        let trace = loads(trial, fo_horizon);
        let expect: Vec<Vec<u64>> = (0..fo_horizon)
            .map(|seq| {
                let d = decided(&primary.handle(&tick_line("t", seq, trace[seq])));
                replicator
                    .sync_once(&mut |line| Ok::<String, String>(primary.handle(line)))
                    .expect("clean sync");
                d
            })
            .collect();
        drop(primary); // kill -9

        let clock = Instant::now();
        while !replicator.maybe_promote() {
            let _ = replicator.sync_once(&mut |_| Err::<String, String>("dead".into()));
        }
        for (seq, want) in expect.iter().enumerate() {
            let got = decided(&replica.handle(&tick_line("t", seq, trace[seq])));
            assert_eq!(&got, want, "trial {trial}: failover diverged at seq {seq}");
        }
        failover_samples.push(clock.elapsed().as_secs_f64());
        let have = replica.replication_have();
        assert_eq!(
            have.first().map(|(_, n)| *n),
            Some(fo_horizon as u64),
            "trial {trial}: accepted ticks lost across failover"
        );
    }
    let failovers = LatencyProfile::new(failover_samples);
    bench.row(
        Row::new("failover")
            .field("trials", trials)
            .num("failover_p50_us", failovers.quantile(0.5) * 1e6)
            .num("failover_p99_us", failovers.quantile(0.99) * 1e6),
    );

    // --- divergence: M flipped replica tenants, M detections, one
    // primary/replica pair per round ---
    let flipped = if quick { 20 } else { 100 };
    let mut round = 0;
    let ((detected, fp_checks), [detect]) = bench.repeat(|laps| {
        round += 1;
        let (pdir, rdir) = (fresh(&format!("div-p-{round}")), fresh(&format!("div-r-{round}")));
        let primary = Arc::new(Daemon::new(pair_options(&pdir)).expect("primary dir"));
        let replica = Arc::new(
            Daemon::new(ServeOptions { allow_fault_hooks: true, ..pair_options(&rdir) })
                .expect("replica dir"),
        );
        replica.set_role(Role::Replica);
        let mut replicator = Replicator::new(Arc::clone(&replica), ReplicaOptions::default());
        for i in 0..flipped {
            register_tenant(&primary, &format!("d{i}"), "cpu-gpu:2,1", "b");
        }
        let tick_all = |seqs: std::ops::Range<usize>| {
            for seq in seqs {
                for i in 0..flipped {
                    primary.handle(&tick_line(&format!("d{i}"), seq, loads(i, 6)[seq]));
                }
            }
        };
        tick_all(0..4);
        replicator
            .sync_once(&mut |line| Ok::<String, String>(primary.handle(line)))
            .expect("pre-flip sync");
        for i in 0..flipped {
            assert!(replica.inject_divergence(&format!("d{i}")), "fault hook d{i}");
        }
        tick_all(4..6);
        let report = laps.time(|| {
            replicator
                .sync_once(&mut |line| Ok::<String, String>(primary.handle(line)))
                .expect("post-flip sync applies, with per-tenant errors")
        });
        let detected = replica.counters.fingerprint_mismatches.load(Ordering::Relaxed);
        let fp_checks = replica.counters.fingerprint_checks.load(Ordering::Relaxed);
        assert_eq!(
            detected as usize,
            flipped,
            "every flipped tenant must trip a fingerprint check ({:?})",
            report.errors.len()
        );
        (detected, fp_checks)
    });
    bench.row(
        Row::new("divergence")
            .field("divergence_tenants", flipped)
            .field("divergence_detected", detected)
            .field("fingerprint_checks", fp_checks)
            .ms("detect_ms", detect),
    );

    bench.row(age_row(quick, &fresh("age")));
    let _ = std::fs::remove_dir_all(&parent);

    bench.finish(
        &[("tenants", tenants.to_string()), ("pool_hit_rate", format!("{hit_rate:.3}"))],
        &["results/serve.json", "BENCH_serve.json"],
    );
}
