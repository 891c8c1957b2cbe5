//! Primary/replica replication for the serve daemon.
//!
//! The paper's DP is deterministic — a property every layer since the
//! kernel work is property-tested on, bit for bit — so the daemon is a
//! textbook replicated state machine: ship the *inputs* (the per-tenant
//! WAL records, with their end-to-end FNV-1a frames intact) and the
//! replica reproduces the *outputs* by applying them through the
//! identical tenant step path. Replication is **pull-based** over the
//! same line-JSON protocol production traffic uses: the replica sends
//! `repl.sync` with how many ticks it holds per tenant, the primary
//! answers with the missing frames, its latest durable-snapshot
//! coverage (`snap_k`), and a ring of periodic state fingerprints.
//!
//! **Divergence detection.** Every `fingerprint_every` accepted ticks
//! the daemon records a fingerprint of its committed state: spec, `k`,
//! and the rolling digests of the accepted loads and (when the
//! degradation ladder is off) the committed decisions — O(1) at any age
//! (layout 2, `crate::state`). The digests cover the load and
//! decision streams as they were folded, tick by tick; a later
//! in-memory flip of an old load is not seen by the next fingerprint,
//! but by whoever reads the history again (recovery's digest check, or
//! a fresh replica). The replica records its own fingerprints at its own
//! cadence and compares the primary's entry at `k` with its own entry
//! at `k` (computing one from scratch for a `k` it did not record).
//! Layout-2 entries travel under the reply key `fps2`; older builds
//! sent layout 1 under `fps`. Each build reads only its own key, so in
//! a mixed-version pair, whichever side is upgraded first, frames keep
//! replicating and no fingerprint is checked until both sides run the
//! same layout. A mismatch — a bit flip, a non-deterministic code path —
//! quarantines the tenant on the replica with
//! [`crate::tenant::QuarantineReason::Divergence`], so a diverged
//! replica can be promoted but will never serve the divergent plan.
//! Two things are deliberately *outside* the fingerprint: shared-pool
//! counters (aggregated across co-tenants, so they depend on
//! cross-tenant interleaving, not on this tenant's state) and — when
//! the ladder is armed — committed decisions (rung descent follows
//! wall-clock overruns, so a faithful replica may legitimately
//! differ; the load stream is still covered bit-exactly).
//!
//! **Bounded replies.** One reply ships at most [`SYNC_FRAME_CAP`]
//! bytes of frames, so a fresh replica of a large, old primary catches
//! up over several syncs. The cap is shared max-min fairly among the
//! tenants that lag: none gets more than it is missing, and what small
//! backlogs leave over is split among the larger ones, so a tenant far
//! behind takes at most its share and never starves the others. Every
//! lagging tenant ships at least one tick, so catch-up always
//! progresses; a reply passes the cap only when more tenants lag than
//! one tick each fits under it. A tenant the replica can never apply —
//! one it quarantined as diverged, which no revival clears — is named
//! in the request's `stuck` list and gets no share and no frames. Every
//! reply still reports each tenant's full tick count, so the lag in
//! `/readyz` stays right, and the replica loop syncs again at once
//! while a tenant that applied cleanly still lags. A primary that does
//! not know `stuck` ignores it, and a replica that does not send it is
//! answered as before.
//!
//! **Failover.** The replica counts consecutive failed syncs; once the
//! count crosses the lease threshold the primary is presumed dead and
//! [`Daemon::promote`] flips the role Replica → Promoting → Primary.
//! The lease is deterministic in sync attempts (wall-clock enters only
//! through the sync interval), which is what lets the chaos suite kill
//! the primary at every tick offset and reproduce the exact failover
//! from the seed alone.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::client::{Client, ClientOptions};
use crate::daemon::{lock_clean, Daemon};
use crate::json::{self, Json};
use crate::state::state_fingerprint;
use crate::tenant::{Fingerprint, QuarantineReason, TenantState};
use crate::wal::{self, WalRecord, WalScan, WalTail};

/// Frame bytes one sync reply ships at most, shared among the tenants
/// that lag.
pub const SYNC_FRAME_CAP: usize = 1 << 20;

/// Bytes of one framed tick: length, tag + seq + load, checksum.
const TICK_FRAME_LEN: usize = 4 + 17 + 8;

/// Split `cap` bytes among backlogs of `needs[i]` bytes max-min fairly:
/// no backlog gets more than it needs, and what the small ones leave
/// over is split evenly among the larger ones.
pub(crate) fn fair_shares(needs: &[usize], cap: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..needs.len()).collect();
    order.sort_by_key(|&i| needs[i]);
    let mut shares = vec![0; needs.len()];
    let mut left = cap;
    for (served, &i) in order.iter().enumerate() {
        shares[i] = needs[i].min(left / (needs.len() - served));
        left -= shares[i];
    }
    shares
}

fn register_frame(st: &TenantState) -> Vec<u8> {
    wal::frame(&WalRecord::Register(st.spec.clone()))
}

/// Bytes of the frames a replica holding `base` of `st`'s ticks is
/// missing.
fn backlog_bytes(st: &TenantState, base: u64) -> usize {
    let ticks = (st.accepted() as u64 - base) as usize * TICK_FRAME_LEN;
    if base == 0 {
        ticks + register_frame(st).len()
    } else {
        ticks
    }
}

/// The WAL frames of `st` a replica holding `base` ticks is missing,
/// within `share` bytes — except the first missing tick, which always
/// ships (with the registration, to a replica that has nothing).
pub(crate) fn missing_frames(st: &TenantState, base: u64, share: usize) -> Vec<u8> {
    let mut frames = if base == 0 { register_frame(st) } else { Vec::new() };
    for seq in base..st.accepted() as u64 {
        if seq > base && frames.len() + TICK_FRAME_LEN > share {
            break;
        }
        frames.extend(wal::frame(&WalRecord::Tick { seq, load: st.instance.load(seq as usize) }));
    }
    frames
}

/// A fingerprint ring entry as a sync reply carries it (under `fps2`).
pub(crate) fn fingerprint_json(f: &Fingerprint) -> Json {
    json::obj(vec![
        ("k", json::n(f.k as f64)),
        ("fp", json::s(format!("{:016x}", f.fp))),
        ("full", Json::Bool(f.full)),
    ])
}

/// A sync reply's fingerprint entry; `None` for a malformed one, which
/// a replica skips.
pub(crate) fn parse_fingerprint(v: &Json) -> Option<Fingerprint> {
    Some(Fingerprint {
        k: v.get("k").and_then(Json::as_u64)?,
        fp: u64::from_str_radix(v.get("fp").and_then(Json::as_str)?, 16).ok()?,
        full: v.get("full").and_then(Json::as_bool).unwrap_or(false),
    })
}

/// The daemon's replication role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes, serves `repl.sync`.
    Primary,
    /// Applies the primary's stream; rejects writes with `not_primary`.
    Replica,
    /// Mid-failover: the lease expired and promotion is running.
    Promoting,
}

impl Role {
    /// Stable wire/metrics name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Replica => "replica",
            Role::Promoting => "promoting",
        }
    }

    /// Atomic-storage encoding.
    #[must_use]
    pub fn to_u8(self) -> u8 {
        match self {
            Role::Primary => 0,
            Role::Replica => 1,
            Role::Promoting => 2,
        }
    }

    /// Inverse of [`Role::to_u8`]; unknown values read as `Primary`
    /// (the single-node default).
    #[must_use]
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => Role::Replica,
            2 => Role::Promoting,
            _ => Role::Primary,
        }
    }
}

/// The daemon's replication surface: failover, the primary's
/// `repl.sync` answer, and the replica's apply path.
impl Daemon {
    /// Replica → Primary failover: seal what we have, flip the role,
    /// start accepting writes. The committed prefix was applied through
    /// the identical step path, so every tenant resumes bit-identically
    /// with zero accepted-tick loss.
    pub fn promote(&self) {
        self.set_role(Role::Promoting);
        self.snapshot_all();
        self.counters.failovers.fetch_add(1, Ordering::Relaxed);
        self.repl_lag.store(0, Ordering::Relaxed);
        self.set_role(Role::Primary);
    }

    /// Accepted-tick counts per tenant, sorted by name — what a replica
    /// reports as `have` in `repl.sync`.
    #[must_use]
    pub fn replication_have(&self) -> Vec<(String, u64)> {
        self.slots()
            .into_iter()
            .map(|(name, slot)| (name, lock_clean(&slot.state).accepted() as u64))
            .collect()
    }

    /// Tenants quarantined here as diverged, sorted by name — what a
    /// replica reports as `stuck` in `repl.sync`. No revival clears that
    /// reason, so frames shipped for them could never apply.
    pub(crate) fn replication_stuck(&self) -> Vec<String> {
        self.slots()
            .into_iter()
            .filter(|(_, slot)| {
                lock_clean(&slot.state)
                    .quarantine
                    .as_ref()
                    .is_some_and(|q| q.reason == QuarantineReason::Divergence)
            })
            .map(|(name, _)| name)
            .collect()
    }

    /// Replication lag gauge (accepted ticks behind the primary after
    /// the latest applied sync).
    #[must_use]
    pub fn repl_lag_ticks(&self) -> u64 {
        self.repl_lag.load(Ordering::Relaxed)
    }

    /// Chaos hook: flip one bit of the tenant's rolling load digest —
    /// state every later fingerprint covers — so the next fingerprint
    /// check must trip. Gated on `allow_fault_hooks`; returns whether a
    /// bit was flipped (not before the tenant's first accepted tick).
    pub fn inject_divergence(&self, name: &str) -> bool {
        if !self.options().allow_fault_hooks {
            return false;
        }
        let slot = {
            let tenants = lock_clean(&self.tenants);
            tenants.get(name).cloned()
        };
        let Some(slot) = slot else { return false };
        let mut st = lock_clean(&slot.state);
        if st.accepted() == 0 {
            return false;
        }
        st.digest.loads ^= 1 << 30;
        true
    }

    /// The primary's answer to `repl.sync`: per non-quarantined tenant,
    /// the WAL frames the replica is missing (hex, FNV-1a framing
    /// intact end-to-end) within its share of [`SYNC_FRAME_CAP`]
    /// bytes, the tenant's tick count, the durable-snapshot horizon,
    /// and the recent fingerprint ring. The replica's `stuck` tenants
    /// get everything but frames.
    pub(crate) fn sync_reply(
        &self,
        replica: &str,
        have: &[(String, u64)],
        stuck: &[String],
    ) -> String {
        self.sync_reply_capped(replica, have, stuck, SYNC_FRAME_CAP)
    }

    /// [`Daemon::sync_reply`] with `cap` bytes of frames shared among
    /// the lagging tenants that are not `stuck` (see [`fair_shares`],
    /// [`missing_frames`]).
    pub(crate) fn sync_reply_capped(
        &self,
        replica: &str,
        have: &[(String, u64)],
        stuck: &[String],
        cap: usize,
    ) -> String {
        self.counters.repl_syncs.fetch_add(1, Ordering::Relaxed);
        let have: HashMap<&str, u64> = have.iter().map(|(t, n)| (t.as_str(), *n)).collect();
        let stuck: HashSet<&str> = stuck.iter().map(String::as_str).collect();
        let slots = self.slots();
        let base = |name: &str, st: &TenantState| {
            have.get(name).copied().unwrap_or(0).min(st.accepted() as u64)
        };
        // Size every backlog first, so the cap is shared fairly.
        let needs: Vec<usize> = slots
            .iter()
            .map(|(name, slot)| {
                let st = lock_clean(&slot.state);
                if st.quarantine.is_some() || stuck.contains(name.as_str()) {
                    0
                } else {
                    backlog_bytes(&st, base(name, &st))
                }
            })
            .collect();
        let shares = fair_shares(&needs, cap);
        let mut tenant_objs: Vec<(String, Json)> = Vec::new();
        for ((name, slot), share) in slots.into_iter().zip(shares) {
            let st = lock_clean(&slot.state);
            // Quarantined state never replicates: the replica keeps its
            // own (healthy or older) view instead of inheriting faults.
            if st.quarantine.is_some() {
                continue;
            }
            let total = st.accepted() as u64;
            let frames = if stuck.contains(name.as_str()) {
                Vec::new()
            } else {
                missing_frames(&st, base(&name, &st), share)
            };
            let fps = st.fingerprints.iter().map(fingerprint_json).collect();
            tenant_objs.push((
                name,
                json::obj(vec![
                    ("ticks", json::n(total as f64)),
                    ("snap_k", json::n(st.last_snapshot_k as f64)),
                    ("frames", json::s(to_hex(&frames))),
                    ("fps2", Json::Arr(fps)),
                ]),
            ));
        }
        json::obj(vec![
            ("ok", Json::Bool(true)),
            ("role", json::s(self.role().as_str())),
            ("replica", json::s(replica)),
            ("tenants", json::obj_owned(tenant_objs)),
        ])
        .to_line()
    }

    /// Apply one primary sync reply on this (replica) daemon. Frames
    /// ride through [`wal::scan`] so transit corruption is rejected by
    /// the same FNV-1a framing that guards the on-disk log, ticks apply
    /// through `Daemon::tick_core` — the identical path a live tick
    /// takes — and every unchecked fingerprint at or below our tick
    /// count is recomputed and compared. Per-tenant failures land in
    /// the report; only an unusable reply errors out.
    pub fn apply_sync(&self, reply: &str) -> Result<ApplyReport, String> {
        let value = json::parse(reply).map_err(|e| format!("sync reply is not JSON: {e}"))?;
        if value.get("ok").and_then(Json::as_bool) != Some(true) {
            let code = value.get("error").and_then(Json::as_str).unwrap_or("unknown");
            return Err(format!("primary refused sync: {code}"));
        }
        let tenants = match value.get("tenants") {
            Some(Json::Obj(members)) => members.clone(),
            _ => return Err("sync reply lacks a tenants object".into()),
        };
        let mut report = ApplyReport::default();
        for (name, body) in &tenants {
            report.tenants += 1;
            let applied = self.apply_tenant_sync(name, body, &mut report);
            // Every tenant's backlog counts, also that of a tenant whose
            // apply failed or that is quarantined; that part is stuck.
            if let Some(primary_ticks) = body.get("ticks").and_then(Json::as_u64) {
                let (accepted, quarantined) = self.progress(name);
                let behind = primary_ticks.saturating_sub(accepted);
                report.lag += behind;
                if applied.is_err() || quarantined {
                    report.stuck_lag += behind;
                }
            }
            if let Err(e) = applied {
                report.errors.push(format!("{name}: {e}"));
            }
        }
        self.repl_lag.store(report.lag, Ordering::Relaxed);
        Ok(report)
    }

    /// Ticks tenant `name` has accepted here and whether it is
    /// quarantined (0 and `false` when it is not registered).
    fn progress(&self, name: &str) -> (u64, bool) {
        let slot = lock_clean(&self.tenants).get(name).cloned();
        slot.map_or((0, false), |slot| {
            let st = lock_clean(&slot.state);
            (st.accepted() as u64, st.quarantine.is_some())
        })
    }

    fn apply_tenant_sync(
        &self,
        name: &str,
        body: &Json,
        report: &mut ApplyReport,
    ) -> Result<(), String> {
        body.get("ticks").and_then(Json::as_u64).ok_or("tenant body lacks ticks")?;
        let frames_hex = body.get("frames").and_then(Json::as_str).unwrap_or("");
        let bytes = from_hex(frames_hex).ok_or("frames are not valid hex")?;
        let WalScan { records, tail, .. } = wal::scan(&bytes);
        if !matches!(tail, WalTail::Clean) {
            // A bit flipped in transit: reject the whole batch before
            // anything reaches the step path; the next sync re-ships.
            self.counters.repl_frame_rejects.fetch_add(1, Ordering::Relaxed);
            return Err("frame batch failed its FNV-1a integrity check".into());
        }
        for record in records {
            match record {
                WalRecord::Register(spec) => {
                    self.do_register(name, spec).map_err(|(_, detail)| detail)?;
                }
                WalRecord::Tick { seq, load } => {
                    let slot = {
                        let tenants = lock_clean(&self.tenants);
                        tenants.get(name).cloned()
                    };
                    let Some(slot) = slot else {
                        return Err(format!("tick {seq} for an unregistered tenant"));
                    };
                    let mut st = lock_clean(&slot.state);
                    match self.tick_core(&mut st, name, seq, load) {
                        Ok((_, replayed)) => {
                            if !replayed {
                                report.applied += 1;
                                self.counters.repl_applied.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err((_, detail)) => return Err(detail),
                    }
                }
            }
        }
        let slot = {
            let tenants = lock_clean(&self.tenants);
            tenants.get(name).cloned()
        };
        // Not registered here (the reply carried no registration for
        // it): nothing to cross-check, all of it is lag.
        let Some(slot) = slot else { return Ok(()) };
        let mut st = lock_clean(&slot.state);
        if st.quarantine.is_some() {
            return Ok(());
        }
        // Cross-check the primary's fingerprints against our own state
        // — every k we have reached and not yet checked. Only `fps2`
        // holds this layout; an older primary's `fps` ring is not read.
        if let Some(Json::Arr(fps)) = body.get("fps2") {
            for Fingerprint { k, fp: theirs, full } in fps.iter().filter_map(parse_fingerprint) {
                if k == 0 || k <= st.fp_checked || k > st.accepted() as u64 {
                    continue;
                }
                if full && st.decisions.len() < k as usize {
                    continue; // undecided suffix; the next sync re-checks
                }
                // Our own entry at k, if we recorded one; from scratch
                // over the in-memory prefix otherwise.
                let recorded = st.fingerprints.iter().find(|f| f.k == k && f.full == full);
                let ours = recorded.map_or_else(
                    || {
                        let k = k as usize;
                        let decisions = full.then(|| &st.decisions.configs()[..k]);
                        state_fingerprint(&st.spec, &st.instance.loads()[..k], decisions)
                    },
                    |f| f.fp,
                );
                st.fp_checked = k;
                report.fp_checks += 1;
                self.counters.fingerprint_checks.fetch_add(1, Ordering::Relaxed);
                if ours != theirs {
                    report.fp_mismatches += 1;
                    self.counters.fingerprint_mismatches.fetch_add(1, Ordering::Relaxed);
                    let detail = format!(
                        "state fingerprint at k={k} is {ours:016x}, primary says {theirs:016x}"
                    );
                    self.quarantine(&mut st, name, QuarantineReason::Divergence, detail.clone());
                    return Err(detail);
                }
            }
        }
        // The primary's durable horizon advanced past ours: seal our
        // own snapshot (which also compacts our sealed segments).
        if let Some(snap_k) = body.get("snap_k").and_then(Json::as_u64) {
            if snap_k > st.last_snapshot_k as u64
                && st.decisions.len() == st.accepted()
                && st.accepted() as u64 >= snap_k
            {
                self.write_snapshot(&mut st, name);
            }
        }
        Ok(())
    }
}

/// Lowercase hex of `bytes` — how WAL frames ride inside a JSON line
/// without losing their end-to-end FNV-1a framing.
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
    out
}

/// Decode lowercase/uppercase hex; `None` on odd length or a non-hex
/// byte (a structured rejection, never a panic).
#[must_use]
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    fn nibble(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Some(out)
}

/// What one applied sync did on the replica.
#[derive(Clone, Debug, Default)]
pub struct ApplyReport {
    /// Tenants the reply carried.
    pub tenants: usize,
    /// Fresh ticks applied through the step path.
    pub applied: u64,
    /// Fingerprints checked against locally recomputed ones.
    pub fp_checks: u64,
    /// Fingerprint mismatches (each quarantines its tenant).
    pub fp_mismatches: u64,
    /// Accepted-tick lag vs the primary after this apply (0 when fully
    /// caught up), over every tenant the reply carried.
    pub lag: u64,
    /// The part of `lag` held by tenants this apply could not advance:
    /// their apply failed or they are quarantined.
    pub stuck_lag: u64,
    /// Per-tenant structured failures (frame integrity, apply errors);
    /// the rest of the reply is still applied.
    pub errors: Vec<String>,
}

impl ApplyReport {
    /// Whether the replica should sync again at once instead of waiting
    /// for its interval: this sync made progress and a tenant that
    /// applies cleanly still lags (a capped reply left it behind). A
    /// backlog held only by stuck tenants waits.
    #[must_use]
    pub fn catch_up_now(&self) -> bool {
        self.applied > 0 && self.lag > self.stuck_lag
    }
}

/// Options for a [`Replicator`].
#[derive(Clone, Debug)]
pub struct ReplicaOptions {
    /// Self-chosen identifier echoed by the primary (logs/metrics).
    pub replica_id: String,
    /// Consecutive failed syncs before the lease is considered expired
    /// and the replica promotes itself.
    pub lease_failures: u32,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        Self { replica_id: "replica".into(), lease_failures: 5 }
    }
}

/// The replica-side sync driver. Transport-agnostic: the chaos suite
/// drives it with an in-process closure over the primary's
/// [`Daemon::handle`] (injecting drop/partition/delay/reorder faults
/// deterministically), and `rsz serve --replica-of` drives it with a
/// [`Client`] over TCP — the logic in between is identical.
pub struct Replicator {
    daemon: Arc<Daemon>,
    options: ReplicaOptions,
    consecutive_failures: u32,
    /// Successful syncs.
    pub syncs: u64,
    /// Failed syncs (transport or apply).
    pub failures: u64,
}

impl Replicator {
    /// A replicator applying into `daemon` (which should be in
    /// [`Role::Replica`]).
    #[must_use]
    pub fn new(daemon: Arc<Daemon>, options: ReplicaOptions) -> Self {
        Self { daemon, options, consecutive_failures: 0, syncs: 0, failures: 0 }
    }

    /// The `repl.sync` request line for the daemon's current holdings,
    /// naming its `stuck` tenants when it has any.
    #[must_use]
    pub fn sync_request(&self) -> String {
        let have = self
            .daemon
            .replication_have()
            .into_iter()
            .map(|(tenant, n)| (tenant, json::n(n as f64)))
            .collect();
        let mut fields = vec![
            ("op", json::s("repl.sync")),
            ("replica", json::s(&self.options.replica_id)),
            ("have", json::obj_owned(have)),
        ];
        let stuck = self.daemon.replication_stuck();
        if !stuck.is_empty() {
            fields.push(("stuck", Json::Arr(stuck.iter().map(json::s).collect())));
        }
        json::obj(fields).to_line()
    }

    /// One pull-apply round trip. `transport` carries the request line
    /// to the primary and returns its reply line; any transport or
    /// apply failure counts against the lease.
    pub fn sync_once(
        &mut self,
        transport: &mut dyn FnMut(&str) -> Result<String, String>,
    ) -> Result<ApplyReport, String> {
        let request = self.sync_request();
        let outcome = transport(&request).and_then(|reply| self.daemon.apply_sync(&reply));
        match outcome {
            Ok(report) => {
                self.consecutive_failures = 0;
                self.syncs += 1;
                Ok(report)
            }
            Err(e) => {
                self.consecutive_failures += 1;
                self.failures += 1;
                Err(e)
            }
        }
    }

    /// Failed syncs since the last success.
    #[must_use]
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Whether the primary's lease has expired.
    #[must_use]
    pub fn lease_expired(&self) -> bool {
        self.consecutive_failures >= self.options.lease_failures
    }

    /// Promote the daemon if the lease expired and it is still a
    /// replica. Returns whether a promotion happened.
    pub fn maybe_promote(&mut self) -> bool {
        if self.lease_expired() && self.daemon.role() == Role::Replica {
            self.daemon.promote();
            return true;
        }
        false
    }
}

/// The TCP replica loop behind `rsz serve --replica-of`: pull from
/// `primary` every `interval` until the daemon shuts down or promotes
/// itself after the lease expires. Returns whether this replica ended
/// up promoted.
pub fn run_replica(
    daemon: &Arc<Daemon>,
    primary: &str,
    interval: Duration,
    options: ReplicaOptions,
) -> bool {
    let mut client = Client::new(
        primary,
        ClientOptions {
            timeout: interval.max(Duration::from_millis(250)),
            max_attempts: 1,
            ..ClientOptions::default()
        },
    );
    let mut replicator = Replicator::new(Arc::clone(daemon), options);
    while !daemon.shutdown_requested() && daemon.role() == Role::Replica {
        let mut transport =
            |line: &str| client.round_trip(line).map(|v| v.to_line()).map_err(|e| e.to_string());
        let report = replicator.sync_once(&mut transport);
        if replicator.maybe_promote() {
            return true;
        }
        if !report.is_ok_and(|r| r.catch_up_now()) {
            std::thread::sleep(interval);
        }
    }
    daemon.role() != Role::Replica
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::ServeOptions;
    use crate::protocol::Request;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rsz-repl-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn options(dir: &std::path::Path) -> ServeOptions {
        ServeOptions { state_dir: dir.to_path_buf(), ..ServeOptions::default() }
    }

    /// Tick every tenant of `daemon` through `loads`.
    fn feed(daemon: &Daemon, tenants: &[&str], loads: impl Iterator<Item = f64> + Clone) {
        for name in tenants {
            let reg = format!(
                r#"{{"op":"register","tenant":"{name}","fleet":"cpu-gpu:2,1","algo":"b"}}"#
            );
            assert!(daemon.handle(&reg).contains("\"ok\":true"));
            for (seq, load) in loads.clone().enumerate() {
                let line =
                    format!(r#"{{"op":"tick","tenant":"{name}","seq":{seq},"load":{load}}}"#);
                assert!(daemon.handle(&line).contains("\"ok\":true"));
            }
        }
    }

    /// Bytes of frames a sync reply ships, over all its tenants.
    fn frame_bytes(reply: &str) -> usize {
        let v = json::parse(reply).unwrap();
        let Some(Json::Obj(tenants)) = v.get("tenants") else { panic!("{reply}") };
        tenants.iter().map(|(_, t)| t.get("frames").and_then(Json::as_str).unwrap().len() / 2).sum()
    }

    #[test]
    fn capped_sync_replies_catch_a_fresh_replica_up_bit_identically() {
        let (pdir, rdir) = (tmp_dir("cap-p"), tmp_dir("cap-r"));
        let primary = Daemon::new(options(&pdir)).unwrap();
        feed(&primary, &["x", "y", "z"], (0..120).map(|t| f64::from(t % 7) * 0.4));
        let replica = Daemon::new(options(&rdir)).unwrap();
        replica.set_role(Role::Replica);
        let cap = 1000;
        let mut syncs = 0;
        let mut checks = 0;
        loop {
            let reply = primary.sync_reply_capped("r", &replica.replication_have(), &[], cap);
            let shipped = frame_bytes(&reply);
            assert!(shipped <= cap, "sync {syncs} shipped {shipped} bytes of frames");
            let v = json::parse(&reply).unwrap();
            let Some(Json::Obj(tenants)) = v.get("tenants") else { panic!("{reply}") };
            for (_, t) in tenants {
                assert_eq!(t.get("ticks").and_then(Json::as_u64), Some(120), "the primary's total");
            }
            let report = replica.apply_sync(&reply).unwrap();
            assert!(report.errors.is_empty(), "{:?}", report.errors);
            assert_eq!(report.fp_mismatches, 0);
            checks += report.fp_checks;
            syncs += 1;
            let ready = json::parse(&replica.handle("GET /readyz")).unwrap();
            assert_eq!(ready.get("repl_lag_ticks").and_then(Json::as_u64), Some(report.lag));
            if report.lag == 0 {
                break;
            }
            assert!(syncs < 100, "catch-up makes progress");
        }
        assert!(syncs > 3, "3 × 120 ticks cannot fit one capped reply ({syncs} syncs)");
        assert!(checks > 0, "fingerprints were cross-checked on the way");
        assert_eq!(replica.tenant_states(), primary.tenant_states());
        // A cap below one tick still ships one per tenant, so catch-up
        // progresses.
        let third = Daemon::new(options(&tmp_dir("cap-t"))).unwrap();
        third.set_role(Role::Replica);
        let report = third.apply_sync(&primary.sync_reply_capped("t", &[], &[], 1)).unwrap();
        assert_eq!(report.applied, 3);
        for dir in [pdir, rdir, tmp_dir("cap-t")] {
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        for bytes in [vec![], vec![0u8], vec![0xde, 0xad, 0xbe, 0xef], (0..=255).collect()] {
            assert_eq!(from_hex(&to_hex(&bytes)).as_deref(), Some(&bytes[..]));
        }
        assert_eq!(from_hex("abc"), None, "odd length");
        assert_eq!(from_hex("zz"), None, "non-hex digit");
        assert_eq!(from_hex("ABCD"), from_hex("abcd"), "case-insensitive");
    }

    /// A tenant the replica can never apply — quarantined as diverged —
    /// is named in the replica's `stuck` list and gets no frames at all,
    /// so the tenants sorted after it catch up and no apply fails. Its
    /// backlog is reported as lag, but it never makes the replica loop
    /// re-sync without waiting. A request without `stuck` (an older
    /// replica) is answered as before: `a` gets its fair share.
    #[test]
    fn a_tenant_that_never_applies_does_not_starve_the_others() {
        let (pdir, rdir) = (tmp_dir("stuck-p"), tmp_dir("stuck-r"));
        let primary = Daemon::new(options(&pdir)).unwrap();
        feed(&primary, &["a", "b", "c"], (0..8).map(|t| f64::from(t % 5) * 0.5));
        let replica = Arc::new(Daemon::new(options(&rdir)).unwrap());
        replica.set_role(Role::Replica);
        let replicator = Replicator::new(Arc::clone(&replica), ReplicaOptions::default());
        assert_eq!(replica.apply_sync(&primary.sync_reply("r", &[], &[])).unwrap().lag, 0);
        {
            let slot = lock_clean(&replica.tenants).get("a").cloned().unwrap();
            let mut st = lock_clean(&slot.state);
            replica.quarantine(&mut st, "a", QuarantineReason::Divergence, "diverged".into());
        }
        // `a`'s backlog alone is several caps; `b` and `c` lag too.
        let cap = 1000;
        let tick = |name: &str, seqs: std::ops::Range<u32>| {
            for seq in seqs {
                let load = f64::from(seq % 5) * 0.5;
                let line =
                    format!(r#"{{"op":"tick","tenant":"{name}","seq":{seq},"load":{load}}}"#);
                assert!(primary.handle(&line).contains("\"ok\":true"));
            }
        };
        tick("a", 8..400);
        tick("b", 8..60);
        tick("c", 8..60);
        // `a` stays 392 ticks behind for good, and every report counts it.
        let stuck = 400 - 8;
        let mut syncs = 0;
        // One round trip as the replicator asks for it, through the
        // request parser the daemon runs.
        let sync = || {
            let Request::ReplSync { have, stuck, .. } =
                crate::protocol::parse_request(&replicator.sync_request()).unwrap()
            else {
                panic!("not a repl.sync request")
            };
            assert_eq!(stuck, ["a"]);
            let reply = primary.sync_reply_capped("r", &have, &stuck, cap);
            let shipped = frame_bytes(&reply);
            assert!(shipped <= cap, "a sync shipped {shipped} bytes of frames");
            let v = json::parse(&reply).unwrap();
            let a = v.get("tenants").and_then(|t| t.get("a")).expect("`a` is still reported");
            assert_eq!(a.get("frames").and_then(Json::as_str), Some(""), "frames for `a`");
            assert_eq!(a.get("ticks").and_then(Json::as_u64), Some(400));
            let report = replica.apply_sync(&reply).unwrap();
            assert!(report.errors.is_empty(), "{:?}", report.errors);
            report
        };
        loop {
            let report = sync();
            assert_eq!(report.stuck_lag, stuck, "`a`'s backlog is missing from {report:?}");
            syncs += 1;
            // Re-sync at once exactly while `b` or `c` still lag.
            assert_eq!(report.catch_up_now(), report.lag > stuck, "{report:?}");
            if report.lag == stuck {
                break;
            }
            assert!(syncs < 20, "`b` and `c` must not be starved by `a`");
        }
        let states =
            |d: &Daemon| d.tenant_states().into_iter().filter(|s| s.0 != "a").collect::<Vec<_>>();
        assert_eq!(states(&replica), states(&primary));
        // Live traffic on `b` between syncs: the next sync applies it and
        // leaves only `a` behind, so the replica loop waits for its
        // interval instead of pulling again at once.
        tick("b", 60..70);
        let report = sync();
        assert_eq!((report.applied, report.lag, report.stuck_lag), (10, stuck, stuck));
        assert!(!report.catch_up_now(), "{report:?}");
        // A sync that applies nothing waits too, and still reports `a`.
        let report = sync();
        assert_eq!((report.applied, report.lag), (0, stuck));
        assert!(!report.catch_up_now(), "{report:?}");
        let ready = json::parse(&replica.handle("GET /readyz")).unwrap();
        assert_eq!(ready.get("repl_lag_ticks").and_then(Json::as_u64), Some(stuck));
        assert_eq!(ready.get("quarantined").and_then(Json::as_u64), Some(1), "{ready:?}");
        // A request without `stuck`: `a` gets its share again, and the
        // replica throws it away with one apply error.
        let reply = primary.sync_reply_capped("r", &replica.replication_have(), &[], cap);
        let v = json::parse(&reply).unwrap();
        let a = v.get("tenants").and_then(|t| t.get("a")).unwrap();
        assert_ne!(a.get("frames").and_then(Json::as_str), Some(""));
        let report = replica.apply_sync(&reply).unwrap();
        assert_eq!(report.errors.len(), 1, "only `a` fails: {:?}", report.errors);
        assert_eq!((report.lag, report.stuck_lag), (stuck, stuck));
        for dir in [pdir, rdir] {
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn fingerprint_entries_round_trip() {
        let f = Fingerprint { k: 16, fp: 0x6f5b_41b2_0aba_6a87, full: true };
        assert_eq!(parse_fingerprint(&fingerprint_json(&f)), Some(f));
        let malformed = json::parse(r#"{"k":16,"fp":"not hex","full":true}"#).unwrap();
        assert_eq!(parse_fingerprint(&malformed), None);
    }

    #[test]
    fn fair_shares_never_exceed_a_need_and_split_the_rest() {
        assert_eq!(fair_shares(&[100, 10, 1000, 0], 400), vec![100, 10, 290, 0]);
        assert_eq!(fair_shares(&[500, 500, 500], 400), vec![133, 133, 134]);
        assert_eq!(fair_shares(&[50, 60], 400), vec![50, 60]);
        assert!(fair_shares(&[], 400).is_empty());
        let tick = wal::frame(&WalRecord::Tick { seq: u64::MAX, load: -0.0 });
        assert_eq!(tick.len(), TICK_FRAME_LEN);
    }

    #[test]
    fn roles_round_trip_their_wire_forms() {
        for role in [Role::Primary, Role::Replica, Role::Promoting] {
            assert_eq!(Role::from_u8(role.to_u8()), role);
            assert!(!role.as_str().is_empty());
        }
        assert_eq!(Role::from_u8(99), Role::Primary);
    }
}
