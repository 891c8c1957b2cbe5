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
//! Results land in `results/serve.json` and, as the trajectory record
//! the CI uploads, `BENCH_serve.json`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rsz_bench::harness::{num, render_rows, timestamp, write_records, Row};
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
fn history_footprint(daemon: &Daemon, dir: &std::path::Path, name: &str) -> (u64, u64) {
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
fn age_row(quick: bool) -> Row {
    const WINDOW: usize = 512;
    const AGES: [(usize, &str); 3] = [(1024, "1k"), (4096, "4k"), (16_384, "16k")];
    let dir = std::env::temp_dir().join(format!("rsz-serve-bench-age-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon =
        Daemon::new(ServeOptions { state_dir: dir.clone(), ..ServeOptions::default() }).unwrap();
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
            let reply = daemon.handle(&format!(
                r#"{{"op":"register","tenant":"{tenant}","fleet":"{fleet}","algo":"{spec}"}}"#
            ));
            assert!(reply.contains("\"ok\":true"), "register {tenant}: {reply}");
            for seq in 0..end - WINDOW {
                tick(&tenant, seq);
            }
        }
    }
    let footprints = |tag: &str| -> Vec<(u64, u64)> {
        AGE_TENANTS.iter().map(|t| history_footprint(&daemon, &dir, &name(tag, t.0))).collect()
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
                    let (hist, snaps) = history_footprint(&daemon, &dir, &tenant);
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
    let _ = std::fs::remove_dir_all(&dir);

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
    let mut fields = vec![("horizon".to_owned(), AGES[AGES.len() - 1].0.to_string())];
    for ((_, tag), w) in AGES.iter().zip(&windows) {
        fields.push((format!("tick_mean_us_{tag}"), num(w.tick_mean_us)));
        fields.push((format!("tick_p99_us_{tag}"), num(w.tick_p99_us)));
        fields.push((format!("snapshot_bytes_{tag}"), num(w.snapshot_bytes)));
    }
    fields.extend(ratios.iter().map(|&(key, ratio)| (key.to_owned(), num(ratio))));
    Row { name: "age".into(), fields }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let tenants = if quick { 100 } else { 1000 };
    let horizon = 6;
    let dir: PathBuf = std::env::temp_dir().join(format!("rsz-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options =
        || ServeOptions { state_dir: dir.clone(), snapshot_every: 4, ..ServeOptions::default() };
    let mut rows: Vec<Row> = Vec::new();

    // --- fanout: N tenants, round-robin ticks ---
    let daemon = Daemon::new(options()).expect("state dir");
    let clock = Instant::now();
    for i in 0..tenants {
        let reply = daemon.handle(&format!(
            r#"{{"op":"register","tenant":"t{i}","fleet":"{}","algo":"b","engine":true}}"#,
            FLEETS[i % FLEETS.len()],
        ));
        assert!(reply.contains("\"ok\":true"), "register t{i}: {reply}");
    }
    let register_secs = clock.elapsed().as_secs_f64();

    let mut samples = Vec::with_capacity(tenants * horizon);
    let clock = Instant::now();
    for seq in 0..horizon {
        for i in 0..tenants {
            let line = tick_line(&format!("t{i}"), seq, loads(i, horizon)[seq]);
            let tick = Instant::now();
            let reply = daemon.handle(&line);
            samples.push(tick.elapsed().as_secs_f64());
            debug_assert!(reply.contains("\"ok\":true"), "{reply}");
        }
    }
    let fanout_secs = clock.elapsed().as_secs_f64();
    let decisions = (tenants * horizon) as f64;
    let profile = LatencyProfile::new(samples);

    let metrics = json::parse(&daemon.handle("GET /metrics")).expect("metrics parse");
    let hit_rate = metrics.get("pool_hit_rate").and_then(Json::as_f64).unwrap_or(0.0);
    assert!(
        hit_rate > 0.0,
        "{tenants} tenants over {} pool keys must share pricing (hit rate {hit_rate})",
        FLEETS.len()
    );
    rows.push(Row {
        name: "fanout".into(),
        fields: vec![
            ("tenants".into(), tenants.to_string()),
            ("register_ms".into(), num(register_secs * 1e3)),
            ("ticks_per_sec".into(), num(decisions / fanout_secs.max(1e-12))),
            ("tick_p50_us".into(), num(profile.quantile(0.5) * 1e6)),
            ("tick_p99_us".into(), num(profile.quantile(0.99) * 1e6)),
            ("pool_hit_rate".into(), num(hit_rate)),
        ],
    });

    // --- replay: duplicate seqs answer from committed history ---
    let mut replay_samples = Vec::with_capacity(tenants);
    for i in 0..tenants {
        let line = tick_line(&format!("t{i}"), 0, loads(i, horizon)[0]);
        let tick = Instant::now();
        let reply = daemon.handle(&line);
        replay_samples.push(tick.elapsed().as_secs_f64());
        assert!(reply.contains("\"replayed\":true"), "t{i} seq 0 should replay: {reply}");
    }
    let replays = LatencyProfile::new(replay_samples);
    rows.push(Row {
        name: "replay".into(),
        fields: vec![
            ("replay_p50_us".into(), num(replays.quantile(0.5) * 1e6)),
            ("replay_p99_us".into(), num(replays.quantile(0.99) * 1e6)),
        ],
    });

    // Parity probe for the recovery gate, then kill -9.
    let probe = loads(0, horizon);
    let expect: Vec<Vec<u64>> = (0..horizon)
        .map(|seq| decided(&daemon.handle(&tick_line("t0", seq, probe[seq]))))
        .collect();
    drop(daemon);

    // --- recovery: restart over the surviving state dir ---
    let clock = Instant::now();
    let daemon = Daemon::new(options()).expect("recovery");
    let recovery_secs = clock.elapsed().as_secs_f64();
    let recovered = daemon.counters.recovered.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(recovered as usize, tenants, "every tenant must recover");
    for (seq, want) in expect.iter().enumerate() {
        let got = decided(&daemon.handle(&tick_line("t0", seq, probe[seq])));
        assert_eq!(&got, want, "recovery diverged at seq {seq}");
    }
    rows.push(Row {
        name: "recovery".into(),
        fields: vec![
            ("recovered".into(), recovered.to_string()),
            ("recovery_ms".into(), num(recovery_secs * 1e3)),
            ("per_tenant_us".into(), num(recovery_secs / tenants as f64 * 1e6)),
        ],
    });
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);

    // --- failover: primary death → promoted, caught-up replica ---
    let trials = if quick { 10 } else { 100 };
    let fo_horizon = 6;
    let pdir = std::env::temp_dir().join(format!("rsz-serve-bench-fo-p-{}", std::process::id()));
    let rdir = std::env::temp_dir().join(format!("rsz-serve-bench-fo-r-{}", std::process::id()));
    let pair_options = |d: &PathBuf| ServeOptions {
        state_dir: d.clone(),
        snapshot_every: 4,
        fingerprint_every: 2,
        ..ServeOptions::default()
    };
    let mut failover_samples = Vec::with_capacity(trials);
    for trial in 0..trials {
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&rdir);
        let primary = Arc::new(Daemon::new(pair_options(&pdir)).expect("primary dir"));
        let replica = Arc::new(Daemon::new(pair_options(&rdir)).expect("replica dir"));
        replica.set_role(Role::Replica);
        let mut replicator = Replicator::new(
            Arc::clone(&replica),
            ReplicaOptions { replica_id: "bench".into(), lease_failures: 3 },
        );
        let reply = primary.handle(
            r#"{"op":"register","tenant":"t","fleet":"cpu-gpu:2,1","algo":"b","engine":true}"#,
        );
        assert!(reply.contains("\"ok\":true"), "trial {trial}: {reply}");
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
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
    let failovers = LatencyProfile::new(failover_samples);
    rows.push(Row {
        name: "failover".into(),
        fields: vec![
            ("trials".into(), trials.to_string()),
            ("failover_p50_us".into(), num(failovers.quantile(0.5) * 1e6)),
            ("failover_p99_us".into(), num(failovers.quantile(0.99) * 1e6)),
        ],
    });

    // --- divergence: M flipped replica tenants, M detections ---
    let flipped = if quick { 20 } else { 100 };
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
    let primary = Arc::new(Daemon::new(pair_options(&pdir)).expect("primary dir"));
    let replica = Arc::new(
        Daemon::new(ServeOptions { allow_fault_hooks: true, ..pair_options(&rdir) })
            .expect("replica dir"),
    );
    replica.set_role(Role::Replica);
    let mut replicator = Replicator::new(Arc::clone(&replica), ReplicaOptions::default());
    for i in 0..flipped {
        let reply = primary.handle(&format!(
            r#"{{"op":"register","tenant":"d{i}","fleet":"cpu-gpu:2,1","algo":"b","engine":true}}"#
        ));
        assert!(reply.contains("\"ok\":true"), "register d{i}: {reply}");
    }
    for seq in 0..4 {
        for i in 0..flipped {
            primary.handle(&tick_line(&format!("d{i}"), seq, loads(i, 6)[seq]));
        }
    }
    replicator
        .sync_once(&mut |line| Ok::<String, String>(primary.handle(line)))
        .expect("pre-flip sync");
    for i in 0..flipped {
        assert!(replica.inject_divergence(&format!("d{i}")), "fault hook d{i}");
    }
    for seq in 4..6 {
        for i in 0..flipped {
            primary.handle(&tick_line(&format!("d{i}"), seq, loads(i, 6)[seq]));
        }
    }
    let clock = Instant::now();
    let report = replicator
        .sync_once(&mut |line| Ok::<String, String>(primary.handle(line)))
        .expect("post-flip sync applies, with per-tenant errors");
    let detect_secs = clock.elapsed().as_secs_f64();
    let detected =
        replica.counters.fingerprint_mismatches.load(std::sync::atomic::Ordering::Relaxed);
    let fp_checks = replica.counters.fingerprint_checks.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        detected as usize,
        flipped,
        "every flipped tenant must trip a fingerprint check ({:?})",
        report.errors.len()
    );
    rows.push(Row {
        name: "divergence".into(),
        fields: vec![
            ("divergence_tenants".into(), flipped.to_string()),
            ("divergence_detected".into(), detected.to_string()),
            ("fingerprint_checks".into(), fp_checks.to_string()),
            ("detect_ms".into(), num(detect_secs * 1e3)),
        ],
    });
    drop(replica);
    drop(primary);
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);

    rows.push(age_row(quick));

    // Console summary.
    for r in &rows {
        let fields: Vec<String> = r.fields.iter().map(|(k, v)| format!("{k} {v}")).collect();
        println!("bench: serve/{:<20} ... {}", r.name, fields.join(" | "));
    }

    let timestamp = timestamp();
    let runs = render_rows(&rows);
    let json_out = format!(
        "{{\n  \"bench\": \"serve\",\n  \"quick\": {quick},\n  \"timestamp\": {timestamp},\n  \"tenants\": {tenants},\n  \"pool_hit_rate\": {},\n  \"runs\": [\n{runs}  ]\n}}\n",
        num(hit_rate),
    );

    write_records("serve", &json_out, &["results/serve.json", "BENCH_serve.json"]);
}
