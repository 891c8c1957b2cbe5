//! Replication chaos suite: the availability promise under injected
//! network faults and primary death.
//!
//! 1. **Failover parity** — for every controller combo, every kill
//!    offset, and every fault seed, a replica syncing through a faulty
//!    link (drop/partition/delay/reorder from the seeded
//!    [`DaemonFaultPlan`]) promotes after its deterministic lease when
//!    the primary dies, and a client retransmitting the full sequence
//!    gets decisions bit-identical to the uninterrupted run — the
//!    committed prefix replays, the unsynced suffix re-decides through
//!    the identical step path, and no accepted tick is lost.
//! 2. **Divergence detection** — one flipped mantissa bit in a
//!    replica's committed state trips the next fingerprint cross-check:
//!    the tenant quarantines with the structured `divergence` reason,
//!    and even a promoted replica never serves the divergent plan.
//! 3. **Sync hygiene** — stale replies re-apply as pure no-ops and
//!    truncated replies error structurally; neither perturbs state.
//! 4. **TCP failover** — two real servers, a real client with both
//!    peers: shooting the primary mid-stream promotes the replica and
//!    the client fails over transparently, bit-identical throughout.
//!
//! Set `CHAOS_QUICK=1` for a quick subset; CI runs the full matrix.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use heterogeneous_rightsizing::serve::json::{self, Json};
use heterogeneous_rightsizing::serve::{
    Client, ClientOptions, Daemon, ReplicaOptions, Replicator, Role, ServeOptions, Server,
};
use heterogeneous_rightsizing::workloads::faultinject::daemon_plan;
use heterogeneous_rightsizing::workloads::ReplFault;

fn quick() -> bool {
    std::env::var_os("CHAOS_QUICK").is_some()
}

fn seeds() -> Vec<u64> {
    if quick() {
        vec![7]
    } else {
        vec![7, 42, 99]
    }
}

/// Deterministic trace, peak 3.0 — inside every matrix fleet's capacity.
fn loads() -> Vec<f64> {
    vec![1.0, 2.5, 0.5, 3.0, 1.5, 0.0, 2.0, 2.75, 1.25, 0.75]
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsz-repl-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn options(dir: &Path) -> ServeOptions {
    ServeOptions {
        state_dir: dir.to_path_buf(),
        fingerprint_every: 2,
        snapshot_every: 3,
        ..ServeOptions::default()
    }
}

struct Combo {
    tag: &'static str,
    fleet: &'static str,
    algo: &'static str,
}

fn combos() -> Vec<Combo> {
    let all = vec![
        Combo { tag: "b", fleet: "cpu-gpu:2,1", algo: "b" },
        Combo { tag: "a", fleet: "old-new:2,2", algo: "a" },
        Combo { tag: "lcp", fleet: "homogeneous:4", algo: "lcp" },
    ];
    if quick() {
        all.into_iter().take(1).collect()
    } else {
        all
    }
}

fn register_line(tenant: &str, c: &Combo) -> String {
    format!(
        r#"{{"op":"register","tenant":"{tenant}","fleet":"{}","algo":"{}","grid":"full"}}"#,
        c.fleet, c.algo
    )
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

fn assert_ok(reply: &str) {
    let v = json::parse(reply).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
}

/// Uninterrupted single-node reference for one combo.
fn baseline(c: &Combo) -> Vec<Vec<u64>> {
    let dir = tmp_dir(&format!("base-{}", c.tag));
    let daemon = Daemon::new(options(&dir)).unwrap();
    assert_ok(&daemon.handle(&register_line("t", c)));
    let out = loads()
        .iter()
        .enumerate()
        .map(|(i, &l)| decided(&daemon.handle(&tick_line("t", i, l))))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// An in-process primary→replica link with the seeded fault plan
/// applied per sync: drops and partitions fail the round trip, delays
/// deliver late (pull-based sync only stretches latency), reorders
/// deliver the *previous* reply — a stale sync the replica must treat
/// as a no-op.
struct FaultyLink {
    primary: Option<Arc<Daemon>>,
    plan: heterogeneous_rightsizing::workloads::DaemonFaultPlan,
    syncs: u64,
    last_reply: Option<String>,
}

impl FaultyLink {
    fn new(primary: Arc<Daemon>, seed: u64) -> Self {
        Self { primary: Some(primary), plan: daemon_plan(seed), syncs: 0, last_reply: None }
    }

    /// `kill -9` the primary: every future sync fails.
    fn kill(&mut self) {
        self.primary = None;
    }

    fn carry(&mut self, line: &str) -> Result<String, String> {
        let index = self.syncs;
        self.syncs += 1;
        let Some(primary) = &self.primary else {
            return Err("primary is dead".into());
        };
        let fault = self.plan.repl_fault(index);
        match fault {
            ReplFault::Drop | ReplFault::Partition => Err(format!("{fault:?} at sync {index}")),
            ReplFault::Reorder if self.last_reply.is_some() => Ok(self.last_reply.clone().unwrap()),
            _ => {
                let reply = primary.handle(line);
                self.last_reply = Some(reply.clone());
                Ok(reply)
            }
        }
    }
}

// ---------------------------------------------------------------------
// 1. Failover parity at every kill offset
// ---------------------------------------------------------------------

/// The tentpole property. Kill the primary after `k` accepted ticks
/// (for every `k`), let the replica's lease expire over the faulty
/// link, promote it, and retransmit the whole sequence: every decision
/// is bit-identical to the uninterrupted run and the daemon ends
/// holding exactly the full horizon — zero accepted-tick loss.
#[test]
fn failover_at_every_kill_offset_is_bit_identical() {
    let loads = loads();
    let offsets: Vec<usize> =
        if quick() { vec![0, 3, loads.len()] } else { (0..=loads.len()).collect() };
    for c in combos() {
        let expect = baseline(&c);
        for seed in seeds() {
            for &kill_at in &offsets {
                let pdir = tmp_dir(&format!("fo-p-{}-{seed}-{kill_at}", c.tag));
                let rdir = tmp_dir(&format!("fo-r-{}-{seed}-{kill_at}", c.tag));
                let primary = Arc::new(Daemon::new(options(&pdir)).unwrap());
                let replica = Arc::new(Daemon::new(options(&rdir)).unwrap());
                replica.set_role(Role::Replica);
                let mut link = FaultyLink::new(Arc::clone(&primary), seed);
                let mut replicator = Replicator::new(
                    Arc::clone(&replica),
                    ReplicaOptions { replica_id: "r1".into(), lease_failures: 3 },
                );

                assert_ok(&primary.handle(&register_line("t", &c)));
                for (i, &l) in loads[..kill_at].iter().enumerate() {
                    assert_eq!(decided(&primary.handle(&tick_line("t", i, l))), expect[i]);
                    // One sync attempt per tick, faults and all.
                    let _ = replicator.sync_once(&mut |line| link.carry(line));
                }
                // One clean sync before the kill: the replica holds the
                // whole accepted prefix and its lease count is fresh.
                replicator
                    .sync_once(&mut |line| Ok::<String, String>(primary.handle(line)))
                    .unwrap();
                assert_eq!(
                    replica.replication_have(),
                    vec![("t".to_owned(), kill_at as u64)],
                    "replica must hold the full accepted prefix before the kill"
                );
                link.kill();
                drop(primary);

                // The lease expires after exactly `lease_failures`
                // consecutive dead syncs — deterministic in attempts.
                let mut rounds = 0;
                while !replicator.maybe_promote() {
                    assert!(replicator.sync_once(&mut |line| link.carry(line)).is_err());
                    rounds += 1;
                    assert!(rounds <= 3, "promotion must land at the lease bound");
                }
                assert_eq!(replica.role(), Role::Primary, "promoted");
                assert_eq!(replica.counters.failovers.load(Ordering::Relaxed), 1);

                // Client-style retransmit of the full sequence: the
                // synced prefix replays, the lost suffix re-decides —
                // bit-identical either way, nothing double-applied.
                assert_ok(&replica.handle(&register_line("t", &c)));
                for (i, &l) in loads.iter().enumerate() {
                    let reply = replica.handle(&tick_line("t", i, l));
                    assert_eq!(
                        decided(&reply),
                        expect[i],
                        "{} seed {seed} kill_at {kill_at} seq {i}: {reply}",
                        c.tag
                    );
                }
                let v = json::parse(&replica.handle(&register_line("t", &c))).unwrap();
                assert_eq!(
                    v.get("resumed_ticks").and_then(Json::as_u64),
                    Some(loads.len() as u64),
                    "zero accepted-tick loss"
                );
                let ready = replica.handle("GET /readyz");
                assert!(ready.contains("\"ready\":true"), "{ready}");
                assert!(ready.contains("\"role\":\"primary\""), "{ready}");
                let _ = std::fs::remove_dir_all(&pdir);
                let _ = std::fs::remove_dir_all(&rdir);
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Divergence detection
// ---------------------------------------------------------------------

/// Flip one mantissa bit in the replica's committed loads: the next
/// fingerprint cross-check trips, the tenant quarantines with the
/// structured `divergence` reason, and the replica — even after
/// promotion — refuses to serve the divergent tenant. Revival is
/// early-rejected: a local replay would reproduce the divergence.
#[test]
fn injected_bit_flip_trips_the_fingerprint_check_and_quarantines() {
    let c = &combos()[0];
    let loads = loads();
    let pdir = tmp_dir("div-p");
    let rdir = tmp_dir("div-r");
    let primary = Arc::new(Daemon::new(options(&pdir)).unwrap());
    let replica = Arc::new(
        Daemon::new(ServeOptions {
            allow_fault_hooks: true,
            // Tiny revival gates so the sticky-quarantine probe below
            // exercises an actual revive attempt, not just the gate.
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(10),
            ..options(&rdir)
        })
        .unwrap(),
    );
    replica.set_role(Role::Replica);
    let mut replicator = Replicator::new(Arc::clone(&replica), ReplicaOptions::default());
    let mut transport = |line: &str| Ok::<String, String>(primary.handle(line));

    assert_ok(&primary.handle(&register_line("t", c)));
    for (i, &l) in loads.iter().take(4).enumerate() {
        assert_ok(&primary.handle(&tick_line("t", i, l)));
    }
    let report = replicator.sync_once(&mut transport).unwrap();
    assert_eq!(report.applied, 4);
    assert!(report.fp_checks > 0, "fingerprint cadence 2 must have checked by tick 4");
    assert_eq!(report.fp_mismatches, 0);

    // Silent divergence: one bit, committed state, no error anywhere.
    assert!(replica.inject_divergence("t"), "fault hook must fire");
    for (i, &l) in loads.iter().enumerate().skip(4) {
        assert_ok(&primary.handle(&tick_line("t", i, l)));
    }
    let report = replicator.sync_once(&mut transport).unwrap();
    assert_eq!(report.fp_mismatches, 1, "the flipped bit must trip exactly one check");
    assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
    assert!(report.errors[0].contains("fingerprint"), "{:?}", report.errors);
    assert_eq!(replica.counters.fingerprint_mismatches.load(Ordering::Relaxed), 1);

    // Structured reason on the readiness probe.
    let ready = replica.handle("GET /readyz");
    assert!(ready.contains("\"quarantined\":1"), "{ready}");
    assert!(ready.contains(r#""t":"divergence""#), "{ready}");

    // A promoted divergent replica still never serves that tenant:
    // quarantine is sticky because a local replay would reproduce the
    // divergent state, not repair it.
    replica.promote();
    let reply = replica.handle(&tick_line("t", 0, loads[0]));
    assert!(reply.contains("\"error\":\"quarantined\""), "{reply}");
    assert!(reply.contains("divergence"), "{reply}");
    // Past the backoff gate, revival is attempted and early-rejected:
    // a local replay would reproduce the divergent state, not fix it.
    std::thread::sleep(Duration::from_millis(50));
    let again = replica.handle(&tick_line("t", 0, loads[0]));
    assert!(again.contains("\"error\":\"quarantined\""), "revive must early-reject: {again}");
    assert!(again.contains("diverged from the primary"), "{again}");

    // The primary itself is untouched throughout.
    let m = json::parse(&primary.handle("GET /metrics")).unwrap();
    assert_eq!(m.get("fingerprint_mismatches").and_then(Json::as_u64), Some(0));
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

// ---------------------------------------------------------------------
// 3. Sync hygiene
// ---------------------------------------------------------------------

/// A stale (already-applied) reply is a pure no-op, and a truncated
/// reply errors structurally without touching state — the link can
/// reorder and tear with impunity.
#[test]
fn stale_and_truncated_replies_never_perturb_state() {
    let c = &combos()[0];
    let loads = loads();
    let pdir = tmp_dir("stale-p");
    let rdir = tmp_dir("stale-r");
    let primary = Arc::new(Daemon::new(options(&pdir)).unwrap());
    let replica = Arc::new(Daemon::new(options(&rdir)).unwrap());
    replica.set_role(Role::Replica);
    let replicator = Replicator::new(Arc::clone(&replica), ReplicaOptions::default());

    assert_ok(&primary.handle(&register_line("t", c)));
    for (i, &l) in loads.iter().enumerate() {
        assert_ok(&primary.handle(&tick_line("t", i, l)));
    }
    let request = replicator.sync_request();
    let reply = primary.handle(&request);
    let report = replica.apply_sync(&reply).unwrap();
    assert_eq!(report.applied, loads.len() as u64);

    // Same reply again: every tick replays, nothing double-applies.
    let report = replica.apply_sync(&reply).unwrap();
    assert_eq!(report.applied, 0, "stale reply must be a no-op");
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    // Truncated reply: structured error, state untouched.
    let before = replica.replication_have();
    assert!(replica.apply_sync(&reply[..reply.len() / 2]).is_err());
    assert_eq!(replica.replication_have(), before);
    assert_eq!(replicator.consecutive_failures(), 0);
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

// ---------------------------------------------------------------------
// 4. TCP failover with a real client
// ---------------------------------------------------------------------

/// Two real servers, a real replica loop, a real client that knows both
/// peers. Half the trace goes to the primary; then the primary dies,
/// the replica's lease expires and it promotes, and the client —
/// rotating on dead connections and `not_primary` — finishes the trace
/// bit-identically without ever seeing the failover.
#[test]
fn tcp_client_fails_over_transparently() {
    let c = &combos()[0];
    let loads = loads();
    let expect = baseline(c);
    let pdir = tmp_dir("tcp-p");
    let rdir = tmp_dir("tcp-r");

    let primary = Arc::new(Daemon::new(options(&pdir)).unwrap());
    let p_server = Server::bind(Arc::clone(&primary), "127.0.0.1:0").unwrap();
    let p_addr = p_server.local_addr().to_string();
    let p_thread = std::thread::spawn(move || p_server.run());

    let replica = Arc::new(Daemon::new(options(&rdir)).unwrap());
    replica.set_role(Role::Replica);
    let r_server = Server::bind(Arc::clone(&replica), "127.0.0.1:0").unwrap();
    let r_addr = r_server.local_addr().to_string();
    let r_thread = std::thread::spawn(move || r_server.run());
    let sync_daemon = Arc::clone(&replica);
    let sync_primary = p_addr.clone();
    let sync_thread = std::thread::spawn(move || {
        heterogeneous_rightsizing::serve::run_replica(
            &sync_daemon,
            &sync_primary,
            Duration::from_millis(10),
            ReplicaOptions { replica_id: "r1".into(), lease_failures: 3 },
        )
    });

    let mut client = Client::with_peers(
        &[p_addr, r_addr],
        ClientOptions {
            timeout: Duration::from_millis(500),
            max_attempts: 8,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(200),
        },
    );
    let spec = heterogeneous_rightsizing::serve::TenantSpec {
        fleet: c.fleet.to_owned(),
        algo: c.algo.to_owned(),
        engine: true,
        cache: false,
        grid: heterogeneous_rightsizing::serve::GridSpec::Full,
        deadline_us: None,
        snapshot_every: 3,
    };
    client.register("t", &spec).unwrap();

    let half = loads.len() / 2;
    for (i, &l) in loads[..half].iter().enumerate() {
        let d = client.tick("t", i as u64, l).unwrap();
        let want: Vec<u32> = expect[i].iter().map(|&x| x as u32).collect();
        assert_eq!(d.config.counts(), &want[..], "pre-failover seq {i}");
    }
    // Let the replica catch up on the committed prefix, then shoot the
    // primary (graceful op here — the lease only sees the silence).
    let catch_up = Instant::now();
    while replica.replication_have().first().map(|(_, n)| *n) != Some(half as u64) {
        assert!(catch_up.elapsed() < Duration::from_secs(10), "replica never caught up");
        std::thread::sleep(Duration::from_millis(5));
    }
    primary.graceful_shutdown();
    p_thread.join().unwrap().unwrap();

    let promoted = Instant::now();
    while replica.role() != Role::Primary {
        assert!(promoted.elapsed() < Duration::from_secs(10), "replica never promoted");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(sync_thread.join().unwrap(), "the replica loop must report its own promotion");

    // The client finishes the trace — retransmitting the prefix is safe
    // and the suffix decides fresh on the promoted replica.
    for (i, &l) in loads.iter().enumerate() {
        let d = client.tick("t", i as u64, l).unwrap();
        let want: Vec<u32> = expect[i].iter().map(|&x| x as u32).collect();
        assert_eq!(d.config.counts(), &want[..], "post-failover seq {i}");
        if i < half {
            assert!(d.replayed, "committed seq {i} must replay, not re-decide");
        }
    }
    assert!(client.rotations() > 0, "the failover must have rotated the client");

    client.shutdown().unwrap();
    r_thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}
