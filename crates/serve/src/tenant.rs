//! Per-tenant state: committed history, controller, quarantine.
//!
//! A tenant is always in one of two phases. **Live**: the controller is
//! up and ticks step it. **Quarantined**: a structured reason explains
//! what went wrong, a deterministic backoff gates when the daemon may
//! try to bring the tenant back, and — crucially — the *daemon* and
//! every other tenant keep running. Quarantine is per-tenant fault
//! isolation, not an error path.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rsz_core::{Config, Instance, InstanceError, Schedule};
use rsz_offline::GridMode;
use rsz_online::GracefulDegrader;

use crate::protocol::ErrorCode;
use crate::spec::{BoxController, TenantSpec};
use crate::state::StateDigest;
use crate::wal::WalWriter;

/// The coarse-twin factory the degrader rebuilds controllers with.
pub type ControllerFactory = Box<dyn FnMut(&Instance, GridMode) -> BoxController + Send>;

/// The degrader every tenant wraps its boxed controller in.
pub type TenantDegrader = GracefulDegrader<BoxController, ControllerFactory>;

/// Why a tenant was quarantined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// A tick failed validation (poisoned load, impossible volume).
    Input,
    /// The controller failed — a panic caught at the step boundary or a
    /// solver error.
    Solver,
    /// The tenant's WAL and history log do not add up: a record failed
    /// its integrity check, ticks are missing, or they give back fewer
    /// ticks than the tenant had accepted.
    WalCorrupt,
    /// The state directory stopped cooperating (I/O error on append or
    /// snapshot write).
    Io,
    /// A replication fingerprint check failed: this replica's state for
    /// the tenant disagrees with the primary's. Not revivable from
    /// local storage — the local WAL would replay the same divergent
    /// state — so the tenant stays gated until a fresh resync.
    Divergence,
}

impl QuarantineReason {
    /// The wire error code reported for ticks while quarantined for
    /// this reason.
    #[must_use]
    pub fn code(self) -> ErrorCode {
        match self {
            QuarantineReason::Input => ErrorCode::Input,
            QuarantineReason::Solver => ErrorCode::Solver,
            QuarantineReason::WalCorrupt => ErrorCode::WalCorrupt,
            QuarantineReason::Io => ErrorCode::Quarantined,
            QuarantineReason::Divergence => ErrorCode::Quarantined,
        }
    }

    /// Stable name used in `/metrics` and quarantine details.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            QuarantineReason::Input => "input",
            QuarantineReason::Solver => "solver",
            QuarantineReason::WalCorrupt => "wal_corrupt",
            QuarantineReason::Io => "io",
            QuarantineReason::Divergence => "divergence",
        }
    }
}

/// An active quarantine.
#[derive(Clone, Debug)]
pub struct Quarantine {
    /// Structured reason.
    pub reason: QuarantineReason,
    /// Human-readable detail (what failed, byte ranges for corruption).
    pub detail: String,
    /// How many times recovery has been attempted since entering.
    pub attempts: u32,
    /// The earliest instant a retry is allowed.
    pub until: Instant,
}

/// Deterministic decorrelated-jitter backoff: exponential in the
/// attempt count with a jitter factor derived (reproducibly) from the
/// tenant name and attempt, clamped to `[base, cap]`.
#[must_use]
pub fn backoff_delay(tenant: &str, attempts: u32, base: Duration, cap: Duration) -> Duration {
    // FNV-1a of the tenant name, mixed with the attempt, drives an
    // xorshift step — same tenant and attempt, same jitter, so chaos
    // runs reproduce their timelines from the seed alone.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= u64::from(attempts).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    let jitter = 1.0 + (h % 1000) as f64 / 1000.0; // in [1, 2)
    let exp = 2u32.saturating_pow(attempts.min(16));
    let nanos = base.as_nanos() as f64 * f64::from(exp) * jitter;
    Duration::from_nanos(nanos as u64).clamp(base, cap)
}

/// Rolling counters for one tenant, exported via `/metrics`.
#[derive(Clone, Debug, Default)]
pub struct TenantCounters {
    /// Fresh decisions made (excludes replays and restored prefix).
    pub decisions: u64,
    /// Duplicate-seq ticks answered from committed history.
    pub replays: u64,
    /// Ticks rejected by validation.
    pub rejected: u64,
    /// Times this tenant entered quarantine.
    pub quarantines: u64,
    /// Snapshots written.
    pub snapshots: u64,
    /// Decision latencies (seconds, `LatencyProfile` convention) of the
    /// most recent fresh decisions, bounded. Once full it is a ring —
    /// each sample overwrites the oldest — so it holds the latest
    /// samples in no particular order, which is all quantiles need.
    pub latencies: Vec<f64>,
    /// The slot the next sample overwrites once the window is full.
    oldest: usize,
}

impl TenantCounters {
    /// Record one fresh-decision latency (seconds), keeping a bounded
    /// window, in O(1).
    pub fn push_latency(&mut self, seconds: f64) {
        const WINDOW: usize = 4096;
        if self.latencies.len() < WINDOW {
            self.latencies.push(seconds);
        } else {
            self.latencies[self.oldest] = seconds;
            self.oldest = (self.oldest + 1) % WINDOW;
        }
    }
}

/// One periodic state fingerprint (layout 2, see `crate::state`) at
/// `k` accepted ticks. `full` records whether committed decisions were
/// folded in (they are iff the degradation ladder was off when the
/// fingerprint was taken — with the ladder armed, decisions depend on
/// wall-clock timings and a faithful replica may legitimately differ).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Accepted-tick count the fingerprint covers.
    pub k: u64,
    /// The fingerprint.
    pub fp: u64,
    /// Whether committed decisions are part of the covered state.
    pub full: bool,
}

/// Everything the daemon holds for one tenant.
pub struct TenantState {
    /// The registration spec (also the WAL's first record).
    pub spec: TenantSpec,
    /// The accepted loads over the tenant's fleet, in seq order — the
    /// committed prefix. Each accepted tick extends it by one slot
    /// ([`Instance::push_load`] checks only that slot), and the
    /// controller decides over it. It only ever receives accepted
    /// loads, so the controller can only see what has actually arrived:
    /// prefix revelation holds by construction, with no per-tick
    /// rebuild. Recovery replay reveals the undecided suffix the same
    /// way, one push per step.
    pub instance: Instance,
    /// Committed decisions, one per decided slot.
    pub decisions: Schedule,
    /// Rolling digests of the accepted loads and the committed
    /// decisions, folded as they arrive: what fingerprints and
    /// snapshots record.
    pub(crate) digest: StateDigest,
    /// Committed slots the history log on disk holds up to its latest
    /// checkpoint, checked or written by this process (0 when its
    /// contents are unknown).
    pub(crate) hist_len: usize,
    /// Bytes of the log those records (and the checkpoints among them)
    /// take.
    pub(crate) hist_bytes: u64,
    /// Whether the log may hold bytes past `hist_bytes` (its contents
    /// are unknown, or an append failed): the next snapshot cuts it back
    /// before appending.
    pub(crate) hist_cut: bool,
    /// The live controller; `None` after a panic dropped it (rebuilt
    /// from WAL + snapshot on the next recovery attempt).
    pub controller: Option<TenantDegrader>,
    /// Open WAL appender; `None` while quarantined for I/O.
    pub wal: Option<WalWriter>,
    /// Fresh decisions since the last snapshot.
    pub fresh_since_snapshot: usize,
    /// Active quarantine, if any.
    pub quarantine: Option<Quarantine>,
    /// Rolling counters.
    pub counters: TenantCounters,
    /// Recent periodic state fingerprints, oldest first, bounded —
    /// what a primary ships to replicas for divergence checks.
    pub fingerprints: Vec<Fingerprint>,
    /// Sealed WAL segments still on disk, as `(through, path)` in
    /// ascending `through` order: rotation appends, compaction prunes,
    /// and the daemon's one directory listing at startup seeds them —
    /// so no tick or snapshot lists the state directory.
    pub segments: Vec<(u64, PathBuf)>,
    /// Accepted ticks the newest sealed WAL segment runs through (0
    /// when the log has never rotated). Guards against sealing two
    /// segments at the same boundary.
    pub last_sealed_through: u64,
    /// Accepted ticks the latest durable snapshot covers — the
    /// compaction horizon, and the `snap_k` announced to replicas.
    pub last_snapshot_k: usize,
    /// Highest `k` already fingerprint-checked against a primary (a
    /// replica-side cursor so stale sync replies are not re-checked).
    pub fp_checked: u64,
}

impl TenantState {
    /// A tenant with nothing accepted yet: `instance` is the spec's
    /// fleet with no slots, `segments` its sealed WAL segments on disk.
    #[must_use]
    pub fn new(spec: TenantSpec, instance: Instance, segments: Vec<(u64, PathBuf)>) -> Self {
        Self {
            spec,
            instance,
            decisions: Schedule::empty(),
            digest: StateDigest::default(),
            hist_len: 0,
            hist_bytes: 0,
            hist_cut: false,
            controller: None,
            wal: None,
            fresh_since_snapshot: 0,
            quarantine: None,
            counters: TenantCounters::default(),
            fingerprints: Vec::new(),
            last_sealed_through: segments.last().map_or(0, |&(through, _)| through),
            segments,
            last_snapshot_k: 0,
            fp_checked: 0,
        }
    }

    /// Accepted ticks so far.
    #[must_use]
    pub fn accepted(&self) -> usize {
        self.instance.horizon()
    }

    /// Record a periodic fingerprint, keeping a bounded ring.
    pub fn push_fingerprint(&mut self, fp: Fingerprint) {
        const RING: usize = 16;
        if self.fingerprints.len() == RING {
            self.fingerprints.remove(0);
        }
        self.fingerprints.push(fp);
    }

    /// Validate one load as the next slot: finite, non-negative, and
    /// within the fleet's maximum capacity — exactly what accepting it
    /// ([`TenantState::accept_load`]) will check. This runs *before*
    /// the WAL append — the log only ever holds accepted ticks.
    pub fn validate_load(&self, load: f64) -> Result<(), String> {
        self.instance.check_next_load(load).map_err(|e| load_error(load, &e))
    }

    /// Accept one validated load: reveal it as the next slot and fold
    /// it into the load digest.
    pub fn accept_load(&mut self, load: f64) -> Result<(), String> {
        self.instance.push_load(load).map_err(|e| load_error(load, &e))?;
        self.digest.fold_load(load);
        Ok(())
    }

    /// Reveal an already accepted (and digested) load again as the
    /// next slot — recovery replay re-reveals the undecided suffix.
    pub fn reveal_load(&mut self, load: f64) -> Result<(), String> {
        self.instance.push_load(load).map_err(|e| load_error(load, &e))
    }

    /// Commit the decision for the next slot.
    pub fn commit(&mut self, config: Config) {
        self.digest.fold_decision(&config);
        self.decisions.push(config);
    }

    /// Enter quarantine: structured reason, detail, backoff-gated
    /// retry. Subsequent attempts stretch the gate exponentially.
    pub fn enter_quarantine(
        &mut self,
        reason: QuarantineReason,
        detail: String,
        base: Duration,
        cap: Duration,
        tenant: &str,
    ) {
        let attempts = self.quarantine.as_ref().map_or(0, |q| q.attempts + 1);
        let delay = backoff_delay(tenant, attempts, base, cap);
        self.counters.quarantines += 1;
        self.quarantine =
            Some(Quarantine { reason, detail, attempts, until: Instant::now() + delay });
    }
}

/// The wire detail for a rejected load.
fn load_error(load: f64, e: &InstanceError) -> String {
    match e {
        InstanceError::BadLoad { .. } if !load.is_finite() => "load must be a finite number".into(),
        InstanceError::BadLoad { .. } => format!("load {load} is negative"),
        InstanceError::InfeasibleLoad { capacity, .. } => {
            format!("load {load} exceeds fleet capacity {capacity}")
        }
        other => format!("load {load} rejected: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_monotone_and_capped() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(10);
        let a0 = backoff_delay("t1", 0, base, cap);
        assert_eq!(a0, backoff_delay("t1", 0, base, cap));
        assert!(a0 >= base && a0 <= cap);
        // Ample attempts always hit the cap.
        assert_eq!(backoff_delay("t1", 30, base, cap), cap);
        // Different tenants jitter differently somewhere in the ladder.
        let differs =
            (0..8).any(|k| backoff_delay("t1", k, base, cap) != backoff_delay("t2", k, base, cap));
        assert!(differs, "jitter should depend on the tenant name");
    }

    #[test]
    fn latency_window_is_bounded() {
        let mut c = TenantCounters::default();
        for i in 0..10_000 {
            c.push_latency(f64::from(i));
        }
        // Exactly the latest 4096 samples, in whatever order.
        let mut window = c.latencies.clone();
        window.sort_by(f64::total_cmp);
        let latest: Vec<f64> = (10_000 - 4096..10_000).map(f64::from).collect();
        assert_eq!(window, latest);
    }
}
