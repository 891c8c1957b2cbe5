//! The multi-tenant serving daemon.
//!
//! [`Daemon::handle`] is the whole protocol: one request line in, one
//! reply line out. The TCP layer ([`crate::server`]) is a thin loop
//! around it, which is what makes the chaos suite honest — tests drive
//! the daemon in-process through the same entry point production
//! traffic uses, and "kill -9" is dropping the daemon value on the
//! floor mid-stream.
//!
//! Robustness layers, in the order a tick meets them:
//!
//! 1. **admission control** — a bounded per-tenant waiting counter;
//!    beyond the bound the daemon sheds with `overloaded` instead of
//!    queueing unboundedly (the degradation ladder, driven by the
//!    per-decision deadline, engages *before* shedding: slow tenants
//!    get cheaper decisions first, and only sustained overload sheds).
//! 2. **WAL-before-decide** — a validated tick is appended to the
//!    tenant's log before the controller runs, so a crash loses
//!    replies, never accepted telemetry.
//! 3. **the step boundary** — the controller runs under
//!    `catch_unwind`; a panic quarantines that tenant and the daemon
//!    answers the next request as if nothing happened.
//! 4. **recovery** — a restart and a per-tenant revival run one loader
//!    over the tenant's WAL and history log: the last checkpoint
//!    restores the controller and the WAL suffix replays through the
//!    normal step path, bit-identical to the uninterrupted run.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rsz_core::{Instance, Schedule};
use rsz_offline::{shared_pool, SharedSlotPool};
use rsz_online::{restore_controller, DegradeOptions, GracefulDegrader, LatencyProfile};

use crate::json::{self, Json};
use crate::protocol::{self, decision_line, error_line, parse_request, ErrorCode, Request};
use crate::replication::Role;
use crate::spec::{build_controller, TenantSpec};
use crate::state::{self, Found};
use crate::tenant::{Fingerprint, QuarantineReason, TenantDegrader, TenantState};
use crate::wal::{self, WalRecord, WalScan, WalTail, WalWriter};

thread_local! {
    /// The buffer a snapshot's append is encoded into, reused by every
    /// snapshot this thread writes. It is kept per thread, not per
    /// tenant, so the memory it holds does not grow with the tenants.
    static APPEND_BUF: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Directory for per-tenant WALs and history logs.
    pub state_dir: PathBuf,
    /// Default per-decision budget (the global per-tick deadline);
    /// tenants may override via `deadline_us`.
    pub deadline: Option<Duration>,
    /// `γ₀` for the coarse degradation rung.
    pub coarse_gamma: f64,
    /// Default snapshot cadence: seal state after every `K` fresh
    /// decisions.
    pub snapshot_every: usize,
    /// Bound on concurrently waiting requests per tenant before
    /// shedding.
    pub queue_bound: usize,
    /// Priced-slot pool retention bound for shared pools.
    pub pool_capacity: usize,
    /// Quarantine backoff: first retry gate.
    pub backoff_base: Duration,
    /// Quarantine backoff: gate ceiling.
    pub backoff_cap: Duration,
    /// Force WAL appends to stable storage (`sync_data`) — survives
    /// power loss, not just process death. Off by default: the tests'
    /// crash model is process death.
    pub fsync: bool,
    /// Allow the `panic:T` fault-hook algorithm (chaos tests only).
    pub allow_fault_hooks: bool,
    /// Seal the active WAL segment once it crosses this many bytes and
    /// start a fresh one (`0` disables rotation, and with it
    /// compaction).
    pub segment_bytes: usize,
    /// Record a state fingerprint every `K` accepted ticks (`0`
    /// disables fingerprints, and with them divergence detection).
    pub fingerprint_every: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            state_dir: PathBuf::from("rsz-state"),
            deadline: None,
            coarse_gamma: 2.0,
            snapshot_every: 16,
            queue_bound: 4,
            pool_capacity: rsz_offline::DEFAULT_POOL_CAP,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(10),
            fsync: false,
            allow_fault_hooks: false,
            segment_bytes: 1 << 20,
            fingerprint_every: 8,
        }
    }
}

/// Daemon-wide counters, all monotone, exported via `/metrics`.
#[derive(Debug, Default)]
pub struct DaemonCounters {
    /// Request lines handled (any op).
    pub requests: AtomicU64,
    /// Lines rejected as `bad_request`.
    pub bad_requests: AtomicU64,
    /// Tick requests (fresh + replayed + rejected).
    pub ticks: AtomicU64,
    /// Fresh decisions made.
    pub decisions: AtomicU64,
    /// Duplicate-seq ticks answered from committed history.
    pub replays: AtomicU64,
    /// Ticks shed by admission control.
    pub shed: AtomicU64,
    /// Quarantine entries (any tenant, any reason).
    pub quarantines: AtomicU64,
    /// Successful revivals out of quarantine.
    pub revives: AtomicU64,
    /// Torn WAL tails truncated during recovery.
    pub wal_truncations: AtomicU64,
    /// Recoveries that found state on disk but no checkpoint they could
    /// restore, and replayed the full WAL.
    pub snapshot_fallbacks: AtomicU64,
    /// Snapshots sealed.
    pub snapshots: AtomicU64,
    /// Tenants recovered from disk at startup.
    pub recovered: AtomicU64,
    /// WAL segments sealed (rotation).
    pub segments_sealed: AtomicU64,
    /// Sealed WAL segments deleted because a durable checkpoint covers
    /// them (compaction).
    pub segments_compacted: AtomicU64,
    /// `repl.sync` requests served (primary side).
    pub repl_syncs: AtomicU64,
    /// Replicated ticks applied through the step path (replica side).
    pub repl_applied: AtomicU64,
    /// Replication frame batches rejected by their FNV-1a framing
    /// (transit corruption never reaches the step path).
    pub repl_frame_rejects: AtomicU64,
    /// State fingerprints checked against the primary's.
    pub fingerprint_checks: AtomicU64,
    /// Fingerprint mismatches (each quarantines its tenant as
    /// diverged).
    pub fingerprint_mismatches: AtomicU64,
    /// Promotions this process performed (replica → primary).
    pub failovers: AtomicU64,
}

/// One tenant's concurrency gate plus its state.
pub struct TenantSlot {
    waiting: AtomicUsize,
    pub(crate) state: Mutex<TenantState>,
}

/// Decrements the waiting counter even when the handler bails early.
struct QueueGuard<'a>(&'a AtomicUsize);

impl Drop for QueueGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Lock a mutex, shrugging off poisoning: a panicked handler thread
/// must never take the tenant (or the daemon) down with it.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The serving daemon. Thread-safe: the TCP layer calls
/// [`Daemon::handle`] from one thread per connection.
pub struct Daemon {
    options: ServeOptions,
    started: Instant,
    pub(crate) tenants: Mutex<HashMap<String, Arc<TenantSlot>>>,
    pools: Mutex<HashMap<String, SharedSlotPool>>,
    /// Counters, public for the bench harness.
    pub counters: DaemonCounters,
    shutdown: AtomicBool,
    role: std::sync::atomic::AtomicU8,
    /// Accepted-tick lag behind the primary after the latest applied
    /// sync (a gauge; meaningful on replicas).
    pub(crate) repl_lag: AtomicU64,
}

impl Daemon {
    /// Start a daemon over `options.state_dir`, recovering every tenant
    /// whose WAL survives there. Recovery failures quarantine the
    /// tenant in question; they never fail daemon startup. Startup fails
    /// when the directory cannot be created, or when it holds state of a
    /// format this build no longer reads (a `<tenant>.snap` that was
    /// never migrated to format 4): that is refused while the directory
    /// is listed, before any tenant is read, so no file in it changes.
    pub fn new(options: ServeOptions) -> std::io::Result<Self> {
        std::fs::create_dir_all(&options.state_dir)?;
        let daemon = Self {
            options,
            started: Instant::now(),
            tenants: Mutex::new(HashMap::new()),
            pools: Mutex::new(HashMap::new()),
            counters: DaemonCounters::default(),
            shutdown: AtomicBool::new(false),
            role: std::sync::atomic::AtomicU8::new(Role::Primary.to_u8()),
            repl_lag: AtomicU64::new(0),
        };
        daemon.recover_all()?;
        Ok(daemon)
    }

    /// The options the daemon runs with.
    #[must_use]
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Whether an orderly shutdown has been requested.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// This daemon's replication role.
    #[must_use]
    pub fn role(&self) -> Role {
        Role::from_u8(self.role.load(Ordering::SeqCst))
    }

    /// Set the replication role (a fresh daemon starts as `Primary`;
    /// `rsz serve --replica-of` flips it to `Replica` before serving).
    pub fn set_role(&self, role: Role) {
        self.role.store(role.to_u8(), Ordering::SeqCst);
    }

    /// Handle one request line, returning one reply line. Never panics
    /// on any input; never returns more or less than one line.
    pub fn handle(&self, line: &str) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let request = match parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                return error_line(ErrorCode::BadRequest, &e.detail);
            }
        };
        match request {
            Request::Register { .. } | Request::Tick { .. } if self.shutdown_requested() => {
                // Admission stops the moment a graceful shutdown
                // begins: clients back off and fail over to a peer.
                error_line(ErrorCode::Overloaded, "daemon is shutting down")
            }
            Request::Register { .. } | Request::Tick { .. } if self.role() != Role::Primary => {
                error_line(
                    ErrorCode::NotPrimary,
                    &format!(
                        "this daemon is a {}; send writes to the primary",
                        self.role().as_str()
                    ),
                )
            }
            Request::Register { tenant, spec } => self.handle_register(&tenant, spec),
            Request::Tick { tenant, seq, load } => self.handle_tick(&tenant, seq, load),
            Request::Health => self.health_line(),
            Request::Livez => self.livez_line(),
            Request::Readyz => self.readyz_line(),
            Request::Metrics => self.metrics_line(),
            Request::Shutdown => {
                self.graceful_shutdown();
                json::obj(vec![("ok", Json::Bool(true)), ("stopping", Json::Bool(true))]).to_line()
            }
            Request::ReplSync { replica, have, stuck } => {
                if self.role() == Role::Primary {
                    self.sync_reply(&replica, &have, &stuck)
                } else {
                    error_line(
                        ErrorCode::NotPrimary,
                        &format!("cannot serve repl.sync as a {}", self.role().as_str()),
                    )
                }
            }
        }
    }

    fn handle_register(&self, name: &str, spec: TenantSpec) -> String {
        match self.do_register(name, spec) {
            Ok((resumed, quarantined)) => json::obj(vec![
                ("ok", Json::Bool(true)),
                ("tenant", json::s(name)),
                ("resumed_ticks", json::n(resumed as f64)),
                ("quarantined", Json::Bool(quarantined)),
            ])
            .to_line(),
            Err((code, detail)) => error_line(code, &detail),
        }
    }

    /// Register (or idempotently re-attach) a tenant. Shared between
    /// the protocol path and replication apply (a replica registers
    /// tenants from the primary's shipped `Register` frames). Returns
    /// `(resumed ticks, quarantined)`.
    pub(crate) fn do_register(
        &self,
        name: &str,
        spec: TenantSpec,
    ) -> Result<(u64, bool), (ErrorCode, String)> {
        if let Err(detail) = spec.validate(self.options.allow_fault_hooks) {
            return Err((ErrorCode::Input, detail));
        }
        let slot = {
            let tenants = lock_clean(&self.tenants);
            tenants.get(name).cloned()
        };
        if let Some(slot) = slot {
            // Idempotent re-attach: same spec resumes; a different spec
            // for a live name is a caller bug.
            let st = lock_clean(&slot.state);
            if st.spec != spec {
                return Err((
                    ErrorCode::Input,
                    "tenant already registered with a different spec".into(),
                ));
            }
            return Ok((st.accepted() as u64, st.quarantine.is_some()));
        }
        // Fresh tenant: open its WAL and log the registration first.
        let types = spec.server_types().map_err(|detail| (ErrorCode::Input, detail))?;
        let instance = Instance::empty(types)
            .map_err(|e| (ErrorCode::Input, format!("fleet is not a valid instance: {e}")))?;
        let path = wal::wal_path(&self.options.state_dir, name);
        let mut writer = WalWriter::open(&path, self.options.fsync)
            .map_err(|e| (ErrorCode::Quarantined, format!("WAL open failed: {e}")))?;
        writer
            .append(&WalRecord::Register(spec.clone()))
            .map_err(|e| (ErrorCode::Quarantined, format!("WAL append failed: {e}")))?;
        let mut state = TenantState::new(spec, instance, Vec::new());
        state.wal = Some(writer);
        lock_clean(&self.tenants).insert(
            name.to_owned(),
            Arc::new(TenantSlot { waiting: AtomicUsize::new(0), state: Mutex::new(state) }),
        );
        Ok((0, false))
    }

    fn handle_tick(&self, name: &str, seq: u64, load: f64) -> String {
        self.counters.ticks.fetch_add(1, Ordering::Relaxed);
        let slot = {
            let tenants = lock_clean(&self.tenants);
            match tenants.get(name) {
                Some(s) => s.clone(),
                None => return error_line(ErrorCode::UnknownTenant, "register first"),
            }
        };
        // Admission control: bounded waiting per tenant, shed beyond.
        let admitted = slot
            .waiting
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |w| {
                (w < self.options.queue_bound).then_some(w + 1)
            })
            .is_ok();
        if !admitted {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            return error_line(ErrorCode::Overloaded, "tenant queue full; retry with backoff");
        }
        let _guard = QueueGuard(&slot.waiting);
        let mut st = lock_clean(&slot.state);
        match self.tick_core(&mut st, name, seq, load) {
            Ok((rung, replayed)) => {
                decision_line(seq, &st.decisions.configs()[seq as usize], rung, replayed)
            }
            Err((code, detail)) => error_line(code, &detail),
        }
    }

    /// The full accepted-tick path for one tenant, shared between the
    /// protocol handler and replication apply (a replica applies the
    /// primary's shipped ticks through exactly this path — that is what
    /// makes failover bit-identical): quarantine gate → idempotent
    /// sequencing → validation → WAL append (+rotation) → step →
    /// snapshot and fingerprint cadences. On success the decision for
    /// `seq` is committed in `st.decisions`; the returned `bool` is true
    /// when it was replayed from committed history.
    pub(crate) fn tick_core(
        &self,
        st: &mut TenantState,
        name: &str,
        seq: u64,
        load: f64,
    ) -> Result<(rsz_online::Rung, bool), (ErrorCode, String)> {
        // Quarantine gate: bounce until the backoff expires, then try
        // to revive; a failed revival re-enters with a longer gate.
        if let Some(q) = st.quarantine.clone() {
            if Instant::now() < q.until {
                return Err((
                    q.reason.code(),
                    format!(
                        "tenant quarantined ({}): {}; retry in {:?}",
                        q.reason.as_str(),
                        q.detail,
                        q.until.saturating_duration_since(Instant::now())
                    ),
                ));
            }
            match self.revive(st, name) {
                Ok(()) => {
                    st.quarantine = None;
                    self.counters.revives.fetch_add(1, Ordering::Relaxed);
                }
                Err((reason, detail)) => {
                    self.quarantine(st, name, reason, detail.clone());
                    return Err((reason.code(), detail));
                }
            }
        }

        // Idempotent sequencing: a duplicate replays its committed
        // decision, a gap is the client's bug (no quarantine — nothing
        // was accepted).
        let expected = st.accepted() as u64;
        if seq < expected {
            if seq as usize >= st.decisions.len() {
                // The decision for this accepted tick is still pending
                // (its first attempt panicked and we just revived): the
                // client should re-send the *next* seq; report the gap.
                return Err((
                    ErrorCode::Input,
                    format!("seq {seq} accepted but undecided; resend seq {expected}"),
                ));
            }
            st.counters.replays += 1;
            self.counters.replays.fetch_add(1, Ordering::Relaxed);
            let rung = st.controller.as_ref().map_or(rsz_online::Rung::Exact, |c| c.rung());
            return Ok((rung, true));
        }
        if seq > expected {
            return Err((ErrorCode::Input, format!("seq gap: expected {expected}, got {seq}")));
        }

        // Validation before the WAL: the log holds only accepted ticks.
        if let Err(detail) = st.validate_load(load) {
            st.counters.rejected += 1;
            self.quarantine(st, name, QuarantineReason::Input, detail.clone());
            return Err((ErrorCode::Input, detail));
        }
        match st.wal.as_mut() {
            Some(w) => {
                if let Err(e) = w.append(&WalRecord::Tick { seq, load }) {
                    let detail = format!("WAL append failed: {e}");
                    self.quarantine(st, name, QuarantineReason::Io, detail.clone());
                    return Err((ErrorCode::Quarantined, detail));
                }
            }
            None => {
                let detail = "WAL writer unavailable".to_owned();
                self.quarantine(st, name, QuarantineReason::Io, detail.clone());
                return Err((ErrorCode::Quarantined, detail));
            }
        }
        if let Err(detail) = st.accept_load(load) {
            // Unreachable: `validate_load` ran the same checks on the
            // same state just before the append.
            self.quarantine(st, name, QuarantineReason::Input, detail.clone());
            return Err((ErrorCode::Input, detail));
        }
        self.maybe_rotate(st, name);

        match self.step(st) {
            Ok((rung, elapsed)) => {
                st.counters.decisions += 1;
                st.counters.push_latency(elapsed.as_secs_f64());
                self.counters.decisions.fetch_add(1, Ordering::Relaxed);
                st.fresh_since_snapshot += 1;
                let cadence = if st.spec.snapshot_every == 0 {
                    self.options.snapshot_every
                } else {
                    st.spec.snapshot_every
                };
                if cadence > 0 && st.fresh_since_snapshot >= cadence {
                    self.write_snapshot(st, name);
                }
                let fe = self.options.fingerprint_every;
                if fe > 0 && st.accepted().is_multiple_of(fe) {
                    // With a deadline armed the ladder may descend on
                    // wall-clock overruns, so committed decisions are
                    // not replica-comparable; the fingerprint then
                    // covers the spec + accepted loads only.
                    let full = st.spec.effective_deadline(self.options.deadline).is_none();
                    let fp = st.digest.fingerprint(&st.spec, st.accepted(), full);
                    st.push_fingerprint(Fingerprint { k: st.accepted() as u64, fp, full });
                }
                Ok((rung, false))
            }
            Err((reason, detail)) => {
                self.quarantine(st, name, reason, detail.clone());
                Err((reason.code(), detail))
            }
        }
    }

    /// Seal the active WAL once it crosses the size threshold: rename
    /// it to `<tenant>.<through>.walseg` and start a fresh active log
    /// whose first record re-states the registration, so every segment
    /// is self-describing. Rotation only happens between appends, hence
    /// always at a record boundary — a torn tail can only ever live in
    /// the active file.
    fn maybe_rotate(&self, st: &mut TenantState, name: &str) {
        let limit = self.options.segment_bytes;
        if limit == 0 {
            return;
        }
        let through = st.accepted() as u64;
        let Some(w) = st.wal.as_ref() else { return };
        if (w.bytes() as usize) < limit || through <= st.last_sealed_through {
            return;
        }
        let active = wal::wal_path(&self.options.state_dir, name);
        let sealed = wal::seg_path(&self.options.state_dir, name, through);
        st.wal = None; // close the appender before the rename
        if std::fs::rename(&active, &sealed).is_err() {
            // Rotation is an optimisation: keep appending to the old
            // active file and try again at the next boundary.
            st.wal = WalWriter::open(&active, self.options.fsync).ok();
            return;
        }
        st.segments.push((through, sealed));
        st.last_sealed_through = through;
        self.counters.segments_sealed.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut w) = WalWriter::open(&active, self.options.fsync) {
            // An append failure here leaves the active log empty;
            // recovery re-states the registration, and the next tick's
            // append surfaces the I/O error through quarantine.
            let _ = w.append(&WalRecord::Register(st.spec.clone()));
            st.wal = Some(w);
        }
    }

    /// Decide the latest accepted slot and commit the decision. The
    /// controller runs under `catch_unwind`: a panic here is the
    /// tenant's problem, never the daemon's.
    fn step(
        &self,
        st: &mut TenantState,
    ) -> Result<(rsz_online::Rung, Duration), (QuarantineReason, String)> {
        if st.controller.is_none() {
            st.controller = Some(self.new_degrader(&st.spec, &st.instance)?);
        }
        let t = st.accepted() - 1;
        let controller = st.controller.as_mut().expect("just built");
        let instance = &st.instance;
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            rsz_online::OnlineAlgorithm::decide(controller, instance, t)
        }));
        let elapsed = start.elapsed();
        match outcome {
            Ok(config) => {
                let rung = controller.rung();
                st.commit(config);
                Ok((rung, elapsed))
            }
            Err(payload) => {
                // The controller is gone; recovery rebuilds it from the
                // snapshot + WAL. The tick stays accepted.
                st.controller = None;
                let what = panic_message(payload);
                Err((
                    QuarantineReason::Solver,
                    format!("controller panicked deciding slot {t}: {what}"),
                ))
            }
        }
    }

    /// Build the degrader for `spec` over `instance` (the prefix it
    /// decides or restores on), with the shared pricing pool installed.
    fn new_degrader(
        &self,
        spec: &TenantSpec,
        instance: &Instance,
    ) -> Result<TenantDegrader, (QuarantineReason, String)> {
        let inner =
            catch_unwind(AssertUnwindSafe(|| build_controller(spec, instance, spec.grid.mode())))
                .map_err(|p| (QuarantineReason::Solver, panic_message(p)))?
                .map_err(|e| (QuarantineReason::Solver, e))?;
        let factory_spec = spec.clone();
        let factory: crate::tenant::ControllerFactory = Box::new(move |inst, grid| {
            build_controller(&factory_spec, inst, grid).expect("spec validated at registration")
        });
        let deadline = spec.effective_deadline(self.options.deadline);
        let options = DegradeOptions { deadline, coarse_gamma: self.options.coarse_gamma };
        let mut degrader = GracefulDegrader::new(inner, factory, options);
        self.install_pool(spec, instance, &mut degrader);
        Ok(degrader)
    }

    /// Point the tenant's engine at the pool shared by every tenant
    /// with the same `(fleet, grid)` key. Sound because pricing is a
    /// pure function of `(partition, λ, grid)`: pool contents change
    /// hit rates, never decisions.
    fn install_pool(&self, spec: &TenantSpec, instance: &Instance, degrader: &mut TenantDegrader) {
        let pool = lock_clean(&self.pools)
            .entry(spec.pool_key())
            .or_insert_with(|| shared_pool(instance, self.options.pool_capacity))
            .clone();
        degrader.inner_mut().share_pool(pool);
    }

    /// Bring a tenant back from quarantine (or rebuild a controller a
    /// panic destroyed) as a restart would: read its WAL
    /// ([`Daemon::read_wal`]) and load it from disk ([`Daemon::load`]).
    /// The revival succeeds only when every tick memory had accepted
    /// comes back bit for bit. Otherwise the tenant quarantines
    /// `wal_corrupt` and memory stays as it was, so every retry checks
    /// the disk against the same ticks: the tenant stays quarantined
    /// while the damage lasts, and recovers once it is mended.
    ///
    /// Two quarantines do not reload. An `input` quarantine keeps its
    /// controller: the bad tick never reached the WAL, so the state is
    /// intact and the gate alone suffices. A diverged tenant is not
    /// revivable from local storage — its own WAL would faithfully replay
    /// the same divergent state — so `Divergence` stays quarantined until
    /// a fresh resync replaces the state wholesale.
    pub(crate) fn revive(
        &self,
        st: &mut TenantState,
        name: &str,
    ) -> Result<(), (QuarantineReason, String)> {
        match st.quarantine.as_ref().map(|q| q.reason) {
            Some(QuarantineReason::Divergence) => Err((
                QuarantineReason::Divergence,
                "diverged from the primary; local replay would reproduce the divergence".into(),
            )),
            Some(QuarantineReason::Input)
                if st.controller.is_some() && st.decisions.len() == st.accepted() =>
            {
                Ok(())
            }
            _ => {
                let wal = self.read_wal(name, &st.segments, Some(&st.spec));
                self.load(st, name, wal)
            }
        }
    }

    /// The loader's first half, shared by recovery and revival: read
    /// tenant `name`'s WAL — the sealed `segments` it tracks
    /// (ascending), then the active file — without listing the
    /// directory. A torn tail is legal only in the active file, where it
    /// is cut off: it is what `kill -9` mid-append, or an append that
    /// failed part way, leaves behind. Every registration record must
    /// agree with `spec` (the one memory holds, if any) and with the
    /// others.
    fn read_wal(
        &self,
        name: &str,
        segments: &[(u64, PathBuf)],
        spec: Option<&TenantSpec>,
    ) -> WalRead {
        let active = wal::wal_path(&self.options.state_dir, name);
        let sources = segments.iter().map(|(_, path)| (path, false)).chain([(&active, true)]);
        let mut read = WalRead { spec: spec.cloned(), ticks: Vec::new(), corrupt: None };
        'sources: for (path, is_active) in sources {
            let bytes = match wal::read_file(path) {
                Ok(b) => b,
                // No active file at all: a crash between seal-rename
                // and fresh-active-open. The sealed segments carry the
                // history; the loader opens a fresh active log.
                Err(_) if is_active => Vec::new(),
                Err(e) => {
                    read.corrupt = Some(format!("sealed WAL segment unreadable: {e}"));
                    break;
                }
            };
            let WalScan { records, intact_len, tail } = wal::scan(&bytes);
            match tail {
                WalTail::Clean => {}
                WalTail::Torn { .. } if is_active => {
                    // Crash-consistent: drop the torn tail and resume
                    // from the intact prefix.
                    let _ = wal::truncate_file(path, intact_len);
                    self.counters.wal_truncations.fetch_add(1, Ordering::Relaxed);
                }
                WalTail::Torn { at } => {
                    // Rotation seals only at record boundaries; a torn
                    // sealed segment means storage lost bytes.
                    read.corrupt = Some(format!("sealed WAL segment torn at byte {at}"));
                }
                WalTail::Corrupt { start, end, what } => {
                    read.corrupt =
                        Some(format!("WAL bytes {start}..{end} failed integrity: {what}"));
                }
            }
            for record in records {
                let damage = match record {
                    WalRecord::Register(s) => match &read.spec {
                        // Segments re-state the registration so each is
                        // self-describing; re-statements must agree.
                        None => {
                            read.spec = Some(s);
                            continue;
                        }
                        Some(prev) if *prev == s => continue,
                        Some(_) => "WAL re-registers the tenant with a different spec",
                    },
                    // Compaction may have deleted early segments: any
                    // starting seq is legal, a checkpoint must cover the
                    // gap (checked by the loader).
                    WalRecord::Tick { seq, load } => match read.ticks.last() {
                        Some(&(last, _)) if seq != last + 1 => "WAL records out of sequence",
                        _ => {
                            read.ticks.push((seq, load));
                            continue;
                        }
                    },
                };
                read.corrupt.get_or_insert_with(|| damage.to_owned());
                break 'sources;
            }
            if read.corrupt.is_some() {
                break;
            }
        }
        read
    }

    /// The loader's second half, shared by recovery and revival: replace
    /// `st` by what the disk holds for tenant `name`, as a restart does —
    /// the history log's last usable checkpoint, the `wal` ticks merged
    /// past it, and the undecided suffix replayed through the normal step
    /// path. Every tick `st` had accepted must come back bit for bit. A
    /// failure leaves `st` as it was, and the disk too, but for the torn
    /// WAL tail [`Daemon::read_wal`] cut.
    fn load(
        &self,
        st: &mut TenantState,
        name: &str,
        wal: WalRead,
    ) -> Result<(), (QuarantineReason, String)> {
        if let Some(detail) = wal.corrupt {
            return Err((QuarantineReason::WalCorrupt, detail));
        }
        let dir = &self.options.state_dir;
        let mut disk =
            TenantState::new(st.spec.clone(), st.instance.truncated(0), st.segments.clone());
        let log = wal::read_file(&wal::hist_path(dir, name))
            .map_err(|e| format!("history log unreadable: {e}"));
        let restored = match log.and_then(|log| self.try_restore(&mut disk, name, &log)) {
            Ok(restored) => restored,
            Err(_) => {
                // A checkpoint that does not restore leaves `disk` empty
                // and the WAL replays in full: slower but sufficient, so
                // this is no quarantine. Counted; the next snapshot
                // rewrites the log from slot 0.
                disk.hist_cut = true;
                self.counters.snapshot_fallbacks.fetch_add(1, Ordering::Relaxed);
                Restored::Unusable
            }
        };
        // A history log means ticks were accepted; once compaction
        // deleted the segments a checkpoint covered, one we cannot use
        // leaves a WAL that no longer starts at seq 0 — possibly with no
        // tick at all — and nothing to rebuild the prefix from.
        if restored == Restored::Unusable && wal.ticks.first().is_none_or(|&(seq, _)| seq != 0) {
            return Err((
                QuarantineReason::WalCorrupt,
                "no checkpoint is usable and the WAL no longer starts at seq 0 \
                 (compacted log without its checkpoint)"
                    .into(),
            ));
        }
        // Merge the WAL ticks over the prefix the checkpoint restored:
        // overlap must agree bit-for-bit, the contiguous extension is
        // validated and accepted, and a gap means compaction deleted
        // segments the checkpoint was supposed to cover — unrecoverable
        // locally.
        for &(seq, load) in &wal.ticks {
            let len = disk.accepted() as u64;
            if seq < len {
                if disk.instance.load(seq as usize).to_bits() != load.to_bits() {
                    return Err((
                        QuarantineReason::WalCorrupt,
                        format!("WAL tick at seq {seq} disagrees with the snapshot prefix"),
                    ));
                }
            } else if seq == len {
                disk.accept_load(load).map_err(|e| {
                    (
                        QuarantineReason::WalCorrupt,
                        format!("WAL holds an invalid accepted load at seq {seq}: {e}"),
                    )
                })?;
            } else {
                return Err((
                    QuarantineReason::WalCorrupt,
                    format!(
                        "WAL resumes at seq {seq} but only {len} ticks are recoverable \
                         (compacted log without its checkpoint)"
                    ),
                ));
            }
        }
        // The log ran past the checkpoint restored from, so ticks after
        // it were accepted. Compaction drops them from the WAL only once
        // a later checkpoint covers them, and keeps the last of them; a
        // WAL with no tick past `k` has lost segments as well, and
        // nothing holds those ticks any more.
        if let Restored::Checkpoint { k, cut: Some(_), .. } = restored {
            if disk.accepted() <= k {
                return Err((
                    QuarantineReason::WalCorrupt,
                    format!(
                        "the history log runs past its last usable checkpoint at k={k} \
                         but the WAL holds no tick after it (compacted log without its \
                         checkpoint)"
                    ),
                ));
            }
        }
        // Resuming from fewer ticks than memory had accepted, or from
        // other ones, would drop acknowledged ticks.
        let had = st.instance.loads();
        let kept =
            had.iter().zip(disk.instance.loads()).take_while(|(a, b)| a.to_bits() == b.to_bits());
        let kept = kept.count();
        if kept < had.len() {
            return Err((
                QuarantineReason::WalCorrupt,
                format!(
                    "the WAL and history log give back {kept} of the {} accepted ticks",
                    had.len()
                ),
            ));
        }
        // Replay the undecided suffix through the very same step path a
        // live tick takes — this is what makes resume bit-identical. The
        // controller sees the decided prefix grow by one push per step,
        // as it did live.
        let decided = disk.decisions.len();
        let revealed = disk.instance.truncated(decided);
        let accepted = std::mem::replace(&mut disk.instance, revealed);
        for t in decided..accepted.horizon() {
            disk.reveal_load(accepted.load(t)).map_err(|e| (QuarantineReason::WalCorrupt, e))?;
            self.step(&mut disk)?;
        }
        let mut writer = WalWriter::open(&wal::wal_path(dir, name), self.options.fsync)
            .map_err(|e| (QuarantineReason::Io, format!("WAL reopen failed: {e}")))?;
        if writer.bytes() == 0 {
            // Fresh (or lost) active log: re-state the registration so
            // the segment is self-describing.
            let _ = writer.append(&WalRecord::Register(disk.spec.clone()));
        }
        disk.wal = Some(writer);
        // Memory keeps its counters and fingerprint ring; the rest is
        // what the disk holds.
        disk.counters = std::mem::take(&mut st.counters);
        disk.fingerprints = std::mem::take(&mut st.fingerprints);
        *st = disk;
        // Every check passed, so the WAL holds whatever the log held past
        // the restored checkpoint: cut it off. Until then it stays, since
        // it may be the only copy of ticks compaction dropped from the
        // WAL.
        if let Restored::Checkpoint { cut: Some(end), .. } = restored {
            st.hist_cut = wal::truncate_file(&wal::hist_path(dir, name), end).is_err();
        }
        Ok(())
    }

    /// Restore `st`, a tenant with nothing accepted yet, from the last
    /// usable checkpoint in the history log `log_bytes`: its loads,
    /// committed decisions, digests and controller. A failure leaves
    /// `st` as it was. Nothing on disk changes here.
    fn try_restore(
        &self,
        st: &mut TenantState,
        name: &str,
        log_bytes: &[u8],
    ) -> Result<Restored, String> {
        if log_bytes.is_empty() {
            return Ok(Restored::Nothing);
        }
        let log = state::read_log(log_bytes, st.instance.num_types());
        let Found { spec, k, loads, decisions, mut controller, digest, log_end } =
            state::find_checkpoint(log, name)?;
        if spec != st.spec {
            return Err("checkpoint was taken under a different spec".into());
        }
        // Controller rebuild + restore see exactly the k-slot prefix.
        let mut prefix = st.instance.truncated(0);
        for &load in &loads {
            prefix.push_load(load).map_err(|e| format!("history holds an invalid load: {e}"))?;
        }
        let mut degrader = self.new_degrader(&st.spec, &prefix).map_err(|(_, e)| e)?;
        restore_controller(&mut degrader, &prefix, &mut controller).map_err(|e| format!("{e}"))?;
        if !controller.is_empty() {
            return Err("trailing bytes after the controller state".into());
        }
        // restore_state gives the controller a fresh pool of its own, so
        // the shared handle must be re-installed after restore.
        self.install_pool(&st.spec, &prefix, &mut degrader);
        st.digest = digest;
        (st.instance, st.controller) = (prefix, Some(degrader));
        st.decisions = Schedule::new(decisions);
        st.last_snapshot_k = k;
        // What the log holds past the restored history goes once the
        // loader has checked the WAL replays it; until then the next
        // snapshot would cut it back.
        let ran_past = log_bytes.len() > log_end;
        (st.hist_len, st.hist_bytes, st.hist_cut) = (k, log_end as u64, ran_past);
        Ok(Restored::Checkpoint { k, cut: ran_past.then_some(log_end) })
    }

    /// Seal the tenant's state with one append to its history log: the
    /// slots committed since the last snapshot, then a checkpoint record
    /// (`k`, digests, controller). A crash mid-append leaves the previous
    /// checkpoint as the log's last usable one. A durable checkpoint then
    /// compacts the WAL (see [`Daemon::compact_segments`]). Returns
    /// whether the checkpoint was sealed.
    pub(crate) fn write_snapshot(&self, st: &mut TenantState, name: &str) -> bool {
        let Some(controller) = st.controller.as_ref() else { return false };
        let k = st.decisions.len();
        if k == 0 || k != st.accepted() {
            return false;
        }
        let from = st.hist_len;
        let written = APPEND_BUF.with_borrow_mut(|buf| {
            state::encode_append(
                buf,
                from,
                &st.instance.loads()[from..k],
                &st.decisions.configs()[from..k],
                name,
                &st.spec,
                &st.digest,
                controller,
            )?;
            let cut = st.hist_cut.then_some(st.hist_bytes);
            let path = wal::hist_path(&self.options.state_dir, name);
            state::append_log(&path, buf, cut, self.options.fsync).map(|()| buf.len() as u64)
        });
        // A failure is not fatal: the WAL still recovers everything,
        // just slower, and the next attempt cuts the log back to what it
        // is known to hold.
        let Ok(appended) = written else {
            st.hist_cut = true;
            return false;
        };
        (st.hist_len, st.hist_bytes, st.hist_cut) = (k, st.hist_bytes + appended, false);
        st.fresh_since_snapshot = 0;
        st.last_snapshot_k = k;
        st.counters.snapshots += 1;
        self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        self.compact_segments(st, k as u64);
        true
    }

    /// Delete the sealed WAL segments a durable checkpoint at `k` covers
    /// and the WAL no longer needs: those running through `through < k`,
    /// whose loads the history log holds bit for bit. The segment
    /// running through `k` itself stays, so the WAL keeps tick `k - 1`:
    /// should the history log be lost, the WAL then still shows it does
    /// not start at seq 0, and recovery quarantines instead of
    /// restarting the tenant from scratch. Only the tenant's own segment
    /// list is read, never the directory; a segment that fails to delete
    /// stays listed for the next snapshot.
    fn compact_segments(&self, st: &mut TenantState, k: u64) {
        st.segments.retain(|(through, path)| {
            if *through >= k {
                return true;
            }
            match std::fs::remove_file(path) {
                Ok(()) => {
                    self.counters.segments_compacted.fetch_add(1, Ordering::Relaxed);
                    false
                }
                Err(e) => e.kind() != std::io::ErrorKind::NotFound,
            }
        });
    }

    /// Every tenant's `(name, slot)`, sorted by name. The pairs are
    /// cloned under the tenant-map lock, which is released before the
    /// caller locks any tenant's state: a tenant's lock is held for its
    /// whole tick, and a reader waiting on it must not keep the other
    /// tenants' ticks from finding their slots.
    pub(crate) fn slots(&self) -> Vec<(String, Arc<TenantSlot>)> {
        let mut slots: Vec<_> =
            lock_clean(&self.tenants).iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect();
        slots.sort_by(|a, b| a.0.cmp(&b.0));
        slots
    }

    /// Snapshot every live tenant (orderly shutdown).
    pub fn snapshot_all(&self) {
        for (name, slot) in self.slots() {
            let mut st = lock_clean(&slot.state);
            if st.quarantine.is_none() {
                self.write_snapshot(&mut st, &name);
            }
        }
    }

    /// Scan the state directory for surviving state and recover each
    /// tenant. A tenant is discoverable through its active WAL, any
    /// sealed segment or its history log — a crash between seal-rename
    /// and fresh-active-open leaves no `.wal` file, and compaction can
    /// leave the history log as the only pre-suffix evidence. Per-tenant
    /// failures quarantine that tenant. Only a `.snap` an older build
    /// left unmigrated aborts startup ([`state::check_snap`]), and it
    /// does so while listing, before any tenant is read.
    fn recover_all(&self) -> std::io::Result<()> {
        let dir = &self.options.state_dir;
        let Ok(entries) = std::fs::read_dir(dir) else { return Ok(()) };
        // This one listing also yields every tenant's sealed segments,
        // which the tenant then keeps track of itself.
        let mut found: std::collections::BTreeMap<String, Vec<(u64, PathBuf)>> =
            std::collections::BTreeMap::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(file) = path.file_name().and_then(|s| s.to_str()) else { continue };
            if let Some(stem) = file.strip_suffix(".snap") {
                state::check_snap(dir, stem)?;
            } else if let Some(stem) = [".wal", ".hist"].iter().find_map(|s| file.strip_suffix(s)) {
                found.entry(stem.to_owned()).or_default();
            } else if let Some((tenant, through)) = wal::parse_seg_name(file) {
                found.entry(tenant.to_owned()).or_default().push((through, path.clone()));
            }
        }
        for (name, mut segments) in found {
            segments.sort_by_key(|&(through, _)| through);
            if let Some(state) = self.recover_tenant(&name, segments) {
                self.counters.recovered.fetch_add(1, Ordering::Relaxed);
                lock_clean(&self.tenants).insert(
                    name,
                    Arc::new(TenantSlot { waiting: AtomicUsize::new(0), state: Mutex::new(state) }),
                );
            }
        }
        Ok(())
    }

    /// Recover one tenant from its sealed WAL `segments` (ascending),
    /// active WAL and history log, through the loader a revival runs.
    /// Returns `None` only when nothing usable survives at all (no
    /// registration in any WAL and no readable checkpoint). A tenant
    /// that fails to load is quarantined holding nothing, as a failed
    /// revival leaves memory as it was.
    fn recover_tenant(&self, name: &str, segments: Vec<(u64, PathBuf)>) -> Option<TenantState> {
        let wal = self.read_wal(name, &segments, None);
        // No usable registration anywhere: nothing to attach to.
        let spec = wal.spec.clone().or_else(|| self.checkpoint_spec(name))?;
        let instance = Instance::empty(spec.server_types().ok()?).ok()?;
        let mut state = TenantState::new(spec, instance, segments);
        if let Err((reason, detail)) = self.load(&mut state, name, wal) {
            self.quarantine(&mut state, name, reason, detail);
        }
        Some(state)
    }

    /// Peek the history log's last checkpoint for the tenant spec — the
    /// fallback registration source when compaction + crash timing left
    /// no WAL holding a `Register` record.
    fn checkpoint_spec(&self, name: &str) -> Option<TenantSpec> {
        let log = std::fs::read(wal::hist_path(&self.options.state_dir, name)).unwrap_or_default();
        state::spec_on_disk(&log, name)
    }

    pub(crate) fn quarantine(
        &self,
        st: &mut TenantState,
        name: &str,
        reason: QuarantineReason,
        detail: String,
    ) {
        self.counters.quarantines.fetch_add(1, Ordering::Relaxed);
        st.enter_quarantine(
            reason,
            detail,
            self.options.backoff_base,
            self.options.backoff_cap,
            name,
        );
    }

    /// Orderly shutdown: stop admitting writes *first* (clients see
    /// `overloaded` and fail over), then flush + fsync every tenant's
    /// WAL and seal a final snapshot. Idempotent.
    pub fn graceful_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for (name, slot) in self.slots() {
            let mut st = lock_clean(&slot.state);
            if let Some(w) = st.wal.as_mut() {
                let _ = w.sync();
            }
            if st.quarantine.is_none() {
                self.write_snapshot(&mut st, &name);
            }
        }
    }

    fn livez_line(&self) -> String {
        json::obj(vec![
            ("ok", Json::Bool(true)),
            ("live", Json::Bool(true)),
            ("uptime_us", json::n(self.started.elapsed().as_micros() as f64)),
        ])
        .to_line()
    }

    fn readyz_line(&self) -> String {
        let slots = self.slots();
        let mut reasons: Vec<(String, Json)> = Vec::new();
        for (name, slot) in &slots {
            if let Some(q) = &lock_clean(&slot.state).quarantine {
                reasons.push((name.clone(), json::s(q.reason.as_str())));
            }
        }
        let role = self.role();
        let ready = role == Role::Primary && !self.shutdown_requested();
        json::obj(vec![
            ("ok", Json::Bool(true)),
            ("ready", Json::Bool(ready)),
            ("role", json::s(role.as_str())),
            ("repl_lag_ticks", json::n(self.repl_lag.load(Ordering::Relaxed) as f64)),
            ("tenants", json::n(slots.len() as f64)),
            ("quarantined", json::n(reasons.len() as f64)),
            ("quarantine_reasons", json::obj_owned(reasons)),
        ])
        .to_line()
    }

    fn health_line(&self) -> String {
        let slots = self.slots();
        let total = slots.len();
        let quarantined =
            slots.iter().filter(|(_, s)| lock_clean(&s.state).quarantine.is_some()).count();
        json::obj(vec![
            ("ok", Json::Bool(true)),
            ("status", json::s(if quarantined == 0 { "ok" } else { "degraded" })),
            ("uptime_us", json::n(self.started.elapsed().as_micros() as f64)),
            ("tenants", json::n(total as f64)),
            ("quarantined", json::n(quarantined as f64)),
        ])
        .to_line()
    }

    fn metrics_line(&self) -> String {
        let c = &self.counters;
        let (mut all_exact, mut all_coarse, mut all_hold) = (0u64, 0u64, 0u64);
        let mut tenant_objs: Vec<(String, Json)> = Vec::new();
        let mut pool_pricings = 0u64;
        let mut pool_hits = 0u64;
        for (name, slot) in self.slots() {
            let st = lock_clean(&slot.state);
            let [p50, p99] = LatencyProfile::quantiles(&st.counters.latencies, [0.5, 0.99]);
            let (exact, coarse, hold, rung) = match st.controller.as_ref() {
                Some(ctl) => {
                    let s = ctl.stats();
                    (s.exact, s.coarse, s.hold, protocol::rung_str(ctl.rung()))
                }
                None => (0, 0, 0, "none"),
            };
            all_exact += exact;
            all_coarse += coarse;
            all_hold += hold;
            let engine = st.controller.as_ref().and_then(|ctl| ctl.inner().engine_stats());
            if let Some(e) = &engine {
                pool_pricings += e.pricings;
                pool_hits += e.pool_hits;
            }
            let mut fields = vec![
                ("ticks", json::n(st.accepted() as f64)),
                ("decisions", json::n(st.counters.decisions as f64)),
                ("replays", json::n(st.counters.replays as f64)),
                ("rejected", json::n(st.counters.rejected as f64)),
                ("quarantines", json::n(st.counters.quarantines as f64)),
                ("snapshots", json::n(st.counters.snapshots as f64)),
                ("snapshot_lag", json::n(st.fresh_since_snapshot as f64)),
                ("rung", json::s(rung)),
                ("rung_exact", json::n(exact as f64)),
                ("rung_coarse", json::n(coarse as f64)),
                ("rung_hold", json::n(hold as f64)),
                ("latency_p50_us", json::n(p50 * 1e6)),
                ("latency_p99_us", json::n(p99 * 1e6)),
            ];
            if let Some(e) = engine {
                fields.push(("pool_pricings", json::n(e.pricings as f64)));
                fields.push(("pool_hits", json::n(e.pool_hits as f64)));
            }
            if let Some(q) = &st.quarantine {
                fields.push(("quarantined", json::s(q.reason.as_str())));
                fields.push(("quarantine_detail", json::s(&q.detail)));
            }
            tenant_objs.push((name, json::obj(fields)));
        }
        let total_lookups = pool_pricings + pool_hits;
        let hit_rate =
            if total_lookups == 0 { 0.0 } else { pool_hits as f64 / total_lookups as f64 };
        json::obj(vec![
            ("ok", Json::Bool(true)),
            ("requests", json::n(c.requests.load(Ordering::Relaxed) as f64)),
            ("bad_requests", json::n(c.bad_requests.load(Ordering::Relaxed) as f64)),
            ("ticks", json::n(c.ticks.load(Ordering::Relaxed) as f64)),
            ("decisions", json::n(c.decisions.load(Ordering::Relaxed) as f64)),
            ("replays", json::n(c.replays.load(Ordering::Relaxed) as f64)),
            ("shed", json::n(c.shed.load(Ordering::Relaxed) as f64)),
            ("quarantines", json::n(c.quarantines.load(Ordering::Relaxed) as f64)),
            ("revives", json::n(c.revives.load(Ordering::Relaxed) as f64)),
            ("wal_truncations", json::n(c.wal_truncations.load(Ordering::Relaxed) as f64)),
            ("snapshot_fallbacks", json::n(c.snapshot_fallbacks.load(Ordering::Relaxed) as f64)),
            ("snapshots", json::n(c.snapshots.load(Ordering::Relaxed) as f64)),
            ("recovered", json::n(c.recovered.load(Ordering::Relaxed) as f64)),
            ("role", json::s(self.role().as_str())),
            ("repl_lag_ticks", json::n(self.repl_lag.load(Ordering::Relaxed) as f64)),
            ("segments_sealed", json::n(c.segments_sealed.load(Ordering::Relaxed) as f64)),
            ("segments_compacted", json::n(c.segments_compacted.load(Ordering::Relaxed) as f64)),
            ("repl_syncs", json::n(c.repl_syncs.load(Ordering::Relaxed) as f64)),
            ("repl_applied", json::n(c.repl_applied.load(Ordering::Relaxed) as f64)),
            ("repl_frame_rejects", json::n(c.repl_frame_rejects.load(Ordering::Relaxed) as f64)),
            ("fingerprint_checks", json::n(c.fingerprint_checks.load(Ordering::Relaxed) as f64)),
            (
                "fingerprint_mismatches",
                json::n(c.fingerprint_mismatches.load(Ordering::Relaxed) as f64),
            ),
            ("failovers", json::n(c.failovers.load(Ordering::Relaxed) as f64)),
            ("pool_hit_rate", json::n(hit_rate)),
            ("rung_exact", json::n(all_exact as f64)),
            ("rung_coarse", json::n(all_coarse as f64)),
            ("rung_hold", json::n(all_hold as f64)),
            ("tenants", json::obj_owned(tenant_objs)),
        ])
        .to_line()
    }
}

#[cfg(test)]
impl Daemon {
    /// Every tenant's loads (bit patterns), decisions and rolling
    /// digest, sorted by name.
    pub(crate) fn tenant_states(
        &self,
    ) -> Vec<(String, Vec<u64>, Vec<rsz_core::Config>, state::StateDigest)> {
        self.slots()
            .into_iter()
            .map(|(name, slot)| {
                let st = lock_clean(&slot.state);
                let loads = st.instance.loads().iter().map(|l| l.to_bits()).collect();
                (name, loads, st.decisions.configs().to_vec(), st.digest)
            })
            .collect()
    }
}

/// A tenant's WAL as [`Daemon::read_wal`] reads it.
struct WalRead {
    /// The registration its records state (or the one memory holds).
    spec: Option<TenantSpec>,
    /// Its ticks, contiguous in seq, up to the first damage.
    ticks: Vec<(u64, f64)>,
    /// What makes the WAL untrustworthy past `ticks`, if anything.
    corrupt: Option<String>,
}

/// What restoring from the history log found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Restored {
    /// No committed history on disk: no log.
    Nothing,
    /// Committed history on disk, but no checkpoint that restores.
    Unusable,
    /// The checkpoint at `k` restored. `cut`: when the log holds bytes
    /// past the history it restored, where that history ends — the
    /// bytes go once the WAL is known to replay them.
    Checkpoint { k: usize, cut: Option<usize> },
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "non-string panic payload".to_owned(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rsz-serve-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn options(dir: &std::path::Path) -> ServeOptions {
        ServeOptions { state_dir: dir.to_path_buf(), ..ServeOptions::default() }
    }

    fn decided_counts(reply: &str) -> Vec<u64> {
        let v = json::parse(reply).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
        match v.get("config").unwrap() {
            Json::Arr(items) => items.iter().map(|i| i.as_u64().unwrap()).collect(),
            other => panic!("bad config: {other:?}"),
        }
    }

    #[test]
    fn register_tick_and_kill_restart_resume_bit_identically() {
        let dir = tmp_dir("resume");
        let loads = [1.0, 2.5, 0.5, 3.0, 1.5, 0.0, 2.0, 2.75];

        // Uninterrupted baseline.
        let daemon = Daemon::new(options(&dir)).unwrap();
        let reg = r#"{"op":"register","tenant":"t1","fleet":"cpu-gpu:2,1","algo":"b","snapshot_every":3}"#;
        let v = json::parse(&daemon.handle(reg)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let mut baseline = Vec::new();
        for (i, l) in loads.iter().enumerate() {
            let line = format!(r#"{{"op":"tick","tenant":"t1","seq":{i},"load":{l}}}"#);
            baseline.push(decided_counts(&daemon.handle(&line)));
        }
        drop(daemon); // kill -9: no shutdown, no final snapshot

        // Restart over the same state dir: recovery must replay the WAL
        // (+snapshot) and answer duplicate seqs from committed history.
        let daemon = Daemon::new(options(&dir)).unwrap();
        assert_eq!(daemon.counters.recovered.load(Ordering::Relaxed), 1);
        let v = json::parse(&daemon.handle(reg)).unwrap();
        assert_eq!(v.get("resumed_ticks").and_then(Json::as_u64), Some(loads.len() as u64));
        for (i, _) in loads.iter().enumerate() {
            let line = format!(r#"{{"op":"tick","tenant":"t1","seq":{i},"load":99.0}}"#);
            let reply = daemon.handle(&line);
            let v = json::parse(&reply).unwrap();
            assert_eq!(v.get("replayed").and_then(Json::as_bool), Some(true), "{reply}");
            assert_eq!(decided_counts(&reply), baseline[i], "seq {i}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    const LOADS: [f64; 8] = [1.0, 2.5, 0.5, 3.0, 1.5, 0.0, 2.0, 2.75];
    const REGISTER: &str =
        r#"{"op":"register","tenant":"t","fleet":"cpu-gpu:2,1","algo":"b","snapshot_every":3}"#;

    /// Options whose quarantine gates open after 1 µs, so the next tick
    /// retries the revival.
    fn short_gates(dir: &std::path::Path) -> ServeOptions {
        let short = Duration::from_micros(1);
        ServeOptions { backoff_base: short, backoff_cap: short, ..options(dir) }
    }

    fn tick(daemon: &Daemon, seq: usize) -> String {
        daemon.handle(&format!(r#"{{"op":"tick","tenant":"t","seq":{seq},"load":{}}}"#, LOADS[seq]))
    }

    /// The decisions of an uninterrupted run over `LOADS`.
    fn uninterrupted(tag: &str) -> Vec<Vec<u64>> {
        let dir = tmp_dir(tag);
        let daemon = Daemon::new(options(&dir)).unwrap();
        assert!(daemon.handle(REGISTER).contains("\"ok\":true"));
        let decided = (0..LOADS.len()).map(|seq| decided_counts(&tick(&daemon, seq))).collect();
        std::fs::remove_dir_all(&dir).unwrap();
        decided
    }

    /// The WAL frame of tick `seq`.
    fn tick_frame(seq: usize) -> Vec<u8> {
        wal::frame(&WalRecord::Tick { seq: seq as u64, load: LOADS[seq] })
    }

    /// Append `bytes` to tenant `t`'s active WAL and quarantine it `io`,
    /// as `tick_core` does when an append fails after writing them.
    fn fail_append(daemon: &Daemon, bytes: &[u8]) {
        let path = wal::wal_path(&daemon.options.state_dir, "t");
        let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        std::io::Write::write_all(&mut file, bytes).unwrap();
        let slot = lock_clean(&daemon.tenants).get("t").cloned().unwrap();
        let detail = "WAL append failed".to_owned();
        daemon.quarantine(&mut lock_clean(&slot.state), "t", QuarantineReason::Io, detail);
    }

    /// An append of tick `k` fails after writing part (`whole` false)
    /// or all of its frame. The revival reads those bytes back from the
    /// WAL as a restart does: it cuts a torn frame off, or takes the
    /// whole one as accepted, so seq `k` answers `"replayed":true`.
    /// Either way the restart that follows resumes every tick.
    fn a_failed_append_is_read_back_by_the_revival(whole: bool) {
        let tag = if whole { "append-whole" } else { "append-torn" };
        let expect = uninterrupted(&format!("{tag}-base"));
        let dir = tmp_dir(tag);
        let daemon = Daemon::new(short_gates(&dir)).unwrap();
        assert!(daemon.handle(REGISTER).contains("\"ok\":true"));
        let k = 5;
        for (seq, expect) in expect.iter().enumerate().take(k) {
            assert_eq!(&decided_counts(&tick(&daemon, seq)), expect);
        }
        let frame = tick_frame(k);
        fail_append(&daemon, &frame[..if whole { frame.len() } else { frame.len() / 2 }]);
        std::thread::sleep(Duration::from_millis(1));
        let mut replayed = Vec::new();
        for (seq, expect) in expect.iter().enumerate().skip(k) {
            let reply = tick(&daemon, seq);
            assert_eq!(&decided_counts(&reply), expect, "seq {seq}: {reply}");
            replayed.push(json::parse(&reply).unwrap().get("replayed").and_then(Json::as_bool));
        }
        let cut_live = daemon.counters.wal_truncations.load(Ordering::Relaxed);
        drop(daemon); // kill -9

        let daemon = Daemon::new(short_gates(&dir)).unwrap();
        let reply = daemon.handle(REGISTER);
        let v = json::parse(&reply).unwrap();
        let resumed = v.get("resumed_ticks").and_then(Json::as_u64);
        let quarantined = v.get("quarantined").and_then(Json::as_bool);
        assert_eq!((quarantined, resumed), (Some(false), Some(LOADS.len() as u64)), "{reply}");
        for (seq, expect) in expect.iter().enumerate() {
            assert_eq!(&decided_counts(&tick(&daemon, seq)), expect, "seq {seq} after restart");
        }
        assert_eq!(replayed[0], Some(whole), "seq {k}");
        assert!(replayed[1..].iter().all(|r| *r == Some(false)), "{replayed:?}");
        let cut_restart = daemon.counters.wal_truncations.load(Ordering::Relaxed);
        assert_eq!((cut_live, cut_restart), (u64::from(!whole), 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_failed_append_is_cut_by_the_revival() {
        a_failed_append_is_read_back_by_the_revival(false);
    }

    #[test]
    fn a_whole_failed_append_is_accepted_by_the_revival() {
        a_failed_append_is_read_back_by_the_revival(true);
    }

    /// A live tenant's WAL loses its last acknowledged tick, which no
    /// checkpoint covers. Reviving from disk would drop that tick, so
    /// the tenant stays `wal_corrupt` through every retry, with memory
    /// still holding every acknowledged tick; once the WAL is mended,
    /// the next retry revives it.
    #[test]
    fn a_revival_that_would_drop_an_acknowledged_tick_is_refused() {
        let expect = uninterrupted("cut-base");
        let dir = tmp_dir("cut");
        let daemon = Daemon::new(short_gates(&dir)).unwrap();
        assert!(daemon.handle(REGISTER).contains("\"ok\":true"));
        let k = 5; // the cadence-3 checkpoint covers 3 of them
        for (seq, expect) in expect.iter().enumerate().take(k) {
            assert_eq!(&decided_counts(&tick(&daemon, seq)), expect);
        }
        let path = wal::wal_path(&dir, "t");
        let bytes = std::fs::read(&path).unwrap();
        let last = tick_frame(k - 1);
        assert!(bytes.ends_with(&last));
        wal::truncate_file(&path, bytes.len() - last.len()).unwrap();
        fail_append(&daemon, &[]);
        for retry in 0..3 {
            std::thread::sleep(Duration::from_millis(1));
            let reply = tick(&daemon, k);
            assert!(reply.contains("\"error\":\"wal_corrupt\""), "retry {retry}: {reply}");
            let (_, loads, decisions, _) = daemon.tenant_states().pop().unwrap();
            let decisions: Vec<Vec<u64>> = decisions
                .iter()
                .map(|c| c.counts().iter().map(|&n| u64::from(n)).collect())
                .collect();
            assert_eq!(loads, LOADS[..k].iter().map(|l| l.to_bits()).collect::<Vec<_>>());
            assert_eq!(decisions, expect[..k], "retry {retry}");
        }
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        std::io::Write::write_all(&mut file, &last).unwrap();
        std::thread::sleep(Duration::from_millis(1));
        for (seq, expect) in expect.iter().enumerate().skip(k) {
            assert_eq!(&decided_counts(&tick(&daemon, seq)), expect, "seq {seq}, mended");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_loads_quarantine_the_tenant_not_the_daemon() {
        let dir = tmp_dir("poison");
        let daemon = Daemon::new(options(&dir)).unwrap();
        for name in ["good", "bad"] {
            let reg = format!(r#"{{"op":"register","tenant":"{name}","fleet":"homogeneous:3"}}"#);
            assert!(daemon.handle(&reg).contains("\"ok\":true"));
        }
        daemon.handle(r#"{"op":"tick","tenant":"good","seq":0,"load":1.0}"#);
        daemon.handle(r#"{"op":"tick","tenant":"bad","seq":0,"load":1.0}"#);
        // Poisoned λ: null load → NaN → input quarantine for `bad` only.
        let reply = daemon.handle(r#"{"op":"tick","tenant":"bad","seq":1,"load":null}"#);
        assert!(reply.contains("\"error\":\"input\""), "{reply}");
        // `bad` is gated…
        let reply = daemon.handle(r#"{"op":"tick","tenant":"bad","seq":1,"load":1.0}"#);
        assert!(reply.contains("quarantined"), "{reply}");
        // …while `good` keeps deciding.
        let reply = daemon.handle(r#"{"op":"tick","tenant":"good","seq":1,"load":2.0}"#);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        let health = daemon.handle("GET /health");
        assert!(health.contains("\"quarantined\":1"), "{health}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn controller_panics_are_caught_at_the_step_boundary() {
        let dir = tmp_dir("panic");
        let daemon =
            Daemon::new(ServeOptions { allow_fault_hooks: true, ..options(&dir) }).unwrap();
        let reg = r#"{"op":"register","tenant":"t","fleet":"homogeneous:3","algo":"panic:2"}"#;
        assert!(daemon.handle(reg).contains("\"ok\":true"));
        for i in 0..2 {
            let line = format!(r#"{{"op":"tick","tenant":"t","seq":{i},"load":1.0}}"#);
            assert!(daemon.handle(&line).contains("\"ok\":true"));
        }
        let reply = daemon.handle(r#"{"op":"tick","tenant":"t","seq":2,"load":1.0}"#);
        assert!(reply.contains("\"error\":\"solver\""), "{reply}");
        assert!(reply.contains("injected fault"), "{reply}");
        // The daemon itself stays healthy.
        assert!(daemon.handle("GET /health").contains("\"ok\":true"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every load fills the fleet, so every slot saturates: the
    /// checkpoint record a snapshot appends is as large at k = 16k as at
    /// k = 1k, and a state directory never holds a `.snap`.
    #[test]
    fn checkpoints_of_a_saturated_tenant_do_not_grow_with_age() {
        let dir = tmp_dir("saturated");
        let daemon = Daemon::new(options(&dir)).unwrap();
        let reg = r#"{"op":"register","tenant":"t","fleet":"homogeneous:2","algo":"lcp"}"#;
        assert!(daemon.handle(reg).contains("\"ok\":true"));
        let types = rsz_workloads::fleet::parse("homogeneous:2").unwrap();
        let full: f64 = types.iter().map(rsz_core::ServerType::fleet_capacity).sum();
        let mut sizes = Vec::new();
        for seq in 0..16_384 {
            let line = format!(r#"{{"op":"tick","tenant":"t","seq":{seq},"load":{full}}}"#);
            assert_eq!(decided_counts(&daemon.handle(&line)), [2]);
            if seq + 1 == 1024 || seq + 1 == 16_384 {
                let log = std::fs::read(wal::hist_path(&dir, "t")).unwrap();
                let last = state::history_frames(&log).pop().unwrap();
                assert_eq!(last.checkpoint, Some(seq + 1));
                sizes.push(last.range.len());
            }
        }
        let slot = lock_clean(&daemon.tenants).get("t").cloned().unwrap();
        let saturated = lock_clean(&slot.state).controller.as_ref().unwrap().stats().saturated;
        assert_eq!(saturated, 16_384);
        assert_eq!(sizes[0], sizes[1], "checkpoint record bytes at k = 1k vs 16k");
        assert!(!wal::snap_path(&dir, "t").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_hooks_are_rejected_unless_enabled() {
        let dir = tmp_dir("hooks");
        let daemon = Daemon::new(options(&dir)).unwrap();
        let reg = r#"{"op":"register","tenant":"t","fleet":"homogeneous:3","algo":"panic:2"}"#;
        let reply = daemon.handle(reg);
        assert!(reply.contains("\"error\":\"input\""), "{reply}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A scrape waiting on one tenant's state lock (held for that
    /// tenant's whole tick) must not hold the tenant map while it waits:
    /// a tick of another tenant still finds its slot and gets its reply.
    #[test]
    fn a_scrape_waiting_on_one_tenant_does_not_stall_the_others() {
        let dir = tmp_dir("scrape");
        let daemon = Daemon::new(options(&dir)).unwrap();
        for name in ["fast", "slow"] {
            let reg = format!(
                r#"{{"op":"register","tenant":"{name}","fleet":"cpu-gpu:2,1","algo":"b"}}"#
            );
            assert!(daemon.handle(&reg).contains("\"ok\":true"));
        }
        let slow = lock_clean(&daemon.tenants).get("slow").cloned().unwrap();
        let held = lock_clean(&slow.state);
        let daemon = &daemon;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let scrape = s.spawn(|| daemon.handle("GET /metrics"));
            // Let the scrape reach `slow`'s lock before `fast` ticks. No
            // signal marks a thread blocked on a mutex, so this waits; a
            // tick that ran first would only miss the defect, never fail.
            std::thread::sleep(Duration::from_millis(100));
            s.spawn(move || {
                let tick = r#"{"op":"tick","tenant":"fast","seq":0,"load":1.0}"#;
                tx.send(daemon.handle(tick)).unwrap();
            });
            let reply = rx.recv_timeout(Duration::from_secs(2));
            drop(held);
            let reply = reply.expect("`fast`'s tick waited on a scrape blocked by `slow`");
            assert!(reply.contains("\"ok\":true"), "{reply}");
            assert!(scrape.join().unwrap().contains("\"ok\":true"));
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
