//! The serve workloads: a closed loop with one in-process caller
//! of [`Daemon::handle`], the entry point the TCP server and replica
//! apply both use.
//!
//! One *round* starts a fresh daemon over an empty state directory,
//! registers every tenant and sends each its first tick (set-up: the
//! controllers are built lazily on that tick), then times the remaining
//! ticks round-robin with a `GET /metrics` scrape every
//! [`ServePlan::scrape_every`] ticks, and finally drops the daemon
//! (kill -9) and times a read-only restart over the same directory.
//! Replies are checked after the timed phase, never inside it. Every
//! set-up and round gets a directory of its own, so no phase pays for
//! deleting an earlier one's files.

use std::path::Path;
use std::time::{Duration, Instant};

use rsz_core::Instance;
use rsz_online::OnlineAlgorithm;
use rsz_serve::json::{self, Json};
use rsz_serve::protocol::parse_request;
use rsz_serve::{build_controller, Daemon, Request, ServeOptions, TenantSpec};

use crate::calibrate::Calibration;
use crate::gen::ServePlan;
use crate::process_cpu_s;
use crate::report::Checks;
use crate::stats::{median, quantile};

/// Daemon options of both serve workloads: the defaults (flush to the
/// OS on every append, `fsync` off) over `dir`.
#[must_use]
pub fn options(dir: &Path) -> ServeOptions {
    ServeOptions { state_dir: dir.to_path_buf(), ..ServeOptions::default() }
}

/// Hooks into the round, called outside every timed interval except
/// that the tick hook receives the tick's own span. The end-to-end
/// command passes [`Untraced`]; the traced run re-times the layers here.
pub trait Observer {
    /// One timed tick of `tenant` (an index into the plan) at `seq`: the
    /// request line, the reply, and when `Daemon::handle` started and
    /// returned.
    fn tick(&mut self, _daemon: &Daemon, _tick: Tick<'_>) {}
    /// The restart over the dropped daemon's directory finished after
    /// `elapsed`.
    fn restarted(&mut self, _daemon: &Daemon, _elapsed: Duration) {}
}

/// One timed tick, as [`Observer::tick`] sees it.
pub struct Tick<'a> {
    /// Tenant index into [`ServePlan::tenants`].
    pub tenant: usize,
    /// Slot.
    pub seq: usize,
    /// The request line.
    pub line: &'a str,
    /// The daemon's reply.
    pub reply: &'a str,
    /// When `Daemon::handle` was called.
    pub begin: Instant,
    /// When it returned.
    pub end: Instant,
}

/// The end-to-end command's observer: no hooks.
pub struct Untraced;

impl Observer for Untraced {}

/// What one round measured: summaries only, so a run's memory does not
/// grow with the number of rounds it fits into `--seconds`.
#[derive(Debug, Default)]
pub struct Round {
    /// Daemon start + registration + every tenant's first tick.
    pub setup_s: f64,
    /// Median time inside `Daemon::handle` per timed tick.
    pub tick_p50_s: f64,
    /// p99 (nearest rank) of the same.
    pub tick_p99_s: f64,
    /// Median tick in the last tenth of the timed phase ÷ in its first
    /// tenth. Ticks go out slot-major, so these are the oldest and the
    /// youngest slots of every tenant.
    pub tick_growth: f64,
    /// Timed ticks.
    pub ticks: usize,
    /// Wall time of the timed tick phase, scrapes included.
    pub phase_s: f64,
    /// CPU time of the timed tick phase, scrapes included.
    pub phase_cpu_s: f64,
    /// Mean CPU time of the calibration passes run through the phase.
    pub pass_s: f64,
    /// Fresh decisions in the timed phase.
    pub decisions: usize,
    /// Median time per `GET /metrics`.
    pub scrape_s: f64,
    /// Scrapes timed.
    pub scrapes: usize,
    /// Time of the restart until every tenant is back.
    pub recovery_s: f64,
    /// The last scrape, parsed.
    pub metrics: Option<Json>,
}

/// Every tenant's expected decisions, from a direct run of the same
/// spec's [`build_controller`] controller over its trace.
pub struct Reference {
    decisions: Vec<Vec<Vec<u64>>>,
}

impl Reference {
    /// Run every tenant's controller directly, slot by slot over its
    /// revealed prefix, as the daemon does.
    pub fn new(plan: &ServePlan) -> Result<Self, String> {
        let mut decisions = Vec::with_capacity(plan.tenants.len());
        for tenant in &plan.tenants {
            let spec = match parse_request(&tenant.register) {
                Ok(Request::Register { spec, .. }) => spec,
                other => return Err(format!("{}: bad register line: {other:?}", tenant.name)),
            };
            decisions.push(direct_run(&spec, &tenant.loads)?);
        }
        Ok(Self { decisions })
    }

    /// Expected configuration of `tenant` at `seq`.
    #[must_use]
    pub fn config(&self, tenant: usize, seq: usize) -> &[u64] {
        &self.decisions[tenant][seq]
    }
}

fn prefix(spec: &TenantSpec, loads: &[f64]) -> Result<Instance, String> {
    Instance::builder()
        .server_types(spec.server_types()?)
        .loads(loads.to_vec())
        .build()
        .map_err(|e| e.to_string())
}

fn direct_run(spec: &TenantSpec, loads: &[f64]) -> Result<Vec<Vec<u64>>, String> {
    let mut controller = build_controller(spec, &prefix(spec, &loads[..1])?, spec.grid.mode())?;
    (0..loads.len())
        .map(|t| {
            let instance = prefix(spec, &loads[..=t])?;
            let config = controller.decide(&instance, t);
            Ok(config.counts().iter().map(|&c| u64::from(c)).collect())
        })
        .collect()
}

/// A tick reply's `(seq, config, replayed)`, if it is `ok:true`.
fn decision(reply: &str) -> Option<(u64, Vec<u64>, bool)> {
    let v = json::parse(reply).ok()?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    let seq = v.get("seq").and_then(Json::as_u64)?;
    let config = match v.get("config") {
        Some(Json::Arr(items)) => items.iter().map(Json::as_u64).collect::<Option<Vec<u64>>>()?,
        _ => return None,
    };
    Some((seq, config, v.get("replayed").and_then(Json::as_bool)?))
}

fn check_tick(
    checks: &mut Checks,
    reference: &Reference,
    plan: &ServePlan,
    (tenant, seq): (usize, usize),
    reply: &str,
    replayed: bool,
) {
    let want = reference.config(tenant, seq);
    let ok = decision(reply)
        .is_some_and(|(s, config, r)| s == seq as u64 && r == replayed && config == want);
    checks.check(ok, || {
        format!(
            "{} seq {seq}: want {want:?} (replayed {replayed}), got {reply}",
            plan.tenants[tenant].name
        )
    });
}

/// Flush the state directory's filesystem, so write-back queued by
/// earlier phases does not land inside the next timed one.
pub fn settle(dir: &Path) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn syncfs(fd: i32) -> i32;
    }
    if let Ok(handle) = std::fs::File::open(dir) {
        // SAFETY: `handle` owns an open descriptor for the whole call.
        unsafe { syncfs(handle.as_raw_fd()) };
    }
}

/// Set-up: start a daemon over the fresh directory `dir`, register every
/// tenant and send each its first tick. Returns the daemon and the
/// elapsed seconds; the replies are checked after the clock stops.
pub fn setup(
    plan: &ServePlan,
    reference: &Reference,
    dir: &Path,
    checks: &mut Checks,
) -> (Daemon, f64) {
    let tenants = &plan.tenants;
    let first: Vec<String> = tenants.iter().map(|t| t.tick_line(0)).collect();
    std::fs::create_dir_all(dir).expect("the state directory is writable");
    settle(dir);
    let start = Instant::now();
    let daemon = Daemon::new(options(dir)).expect("the state directory is writable");
    let registered: Vec<String> = tenants.iter().map(|t| daemon.handle(&t.register)).collect();
    let first_replies: Vec<String> = first.iter().map(|line| daemon.handle(line)).collect();
    let secs = start.elapsed().as_secs_f64();
    for (i, reply) in registered.iter().enumerate() {
        checks.check(reply.contains("\"ok\":true"), || {
            format!("register {}: {reply}", tenants[i].name)
        });
    }
    for (i, reply) in first_replies.iter().enumerate() {
        check_tick(checks, reference, plan, (i, 0), reply, false);
    }
    (daemon, secs)
}

/// Run one round in the fresh directory `dir`. A calibration pass runs
/// before the timed phase, after every scrape and at its end; the phase's
/// times leave the passes out.
pub fn round(
    plan: &ServePlan,
    reference: &Reference,
    dir: &Path,
    checks: &mut Checks,
    calibration: &mut Calibration,
    observer: &mut impl Observer,
) -> Round {
    let tenants = &plan.tenants;
    let lines: Vec<(usize, usize, String)> = (1..plan.horizon)
        .flat_map(|seq| (0..tenants.len()).map(move |i| (i, seq)))
        .map(|(i, seq)| (i, seq, tenants[i].tick_line(seq)))
        .collect();
    let mut out = Round::default();
    let (daemon, setup_s) = setup(plan, reference, dir, checks);
    out.setup_s = setup_s;

    let mut replies = Vec::with_capacity(lines.len());
    let mut scrapes = Vec::new();
    let mut tick_s = Vec::with_capacity(lines.len());
    let mut scrape_s = Vec::new();
    let mut passes = Vec::new();
    settle(dir);
    passes.push(calibration.pass_cpu_s());
    let mut block = (Instant::now(), process_cpu_s());
    for (n, (i, seq, line)) in lines.iter().enumerate() {
        let begin = Instant::now();
        let reply = daemon.handle(line);
        let end = Instant::now();
        tick_s.push((end - begin).as_secs_f64());
        observer.tick(&daemon, Tick { tenant: *i, seq: *seq, line, reply: &reply, begin, end });
        replies.push(reply);
        if (n + 1) % plan.scrape_every == 0 || n + 1 == lines.len() {
            if n + 1 < lines.len() {
                let begin = Instant::now();
                scrapes.push(daemon.handle("GET /metrics"));
                scrape_s.push(begin.elapsed().as_secs_f64());
            }
            out.phase_s += block.0.elapsed().as_secs_f64();
            out.phase_cpu_s += process_cpu_s() - block.1;
            passes.push(calibration.pass_cpu_s());
            block = (Instant::now(), process_cpu_s());
        }
    }
    out.pass_s = passes.iter().sum::<f64>() / passes.len() as f64;
    out.decisions = lines.len();

    let begin = Instant::now();
    let scrape = daemon.handle("GET /metrics");
    scrape_s.push(begin.elapsed().as_secs_f64());
    out.metrics = json::parse(&scrape).ok();
    checks.check(out.metrics.is_some(), || format!("final scrape: {scrape:.200}"));
    for scrape in &scrapes {
        checks.check(scrape.starts_with("{\"ok\":true"), || format!("scrape: {scrape:.200}"));
    }
    for ((i, seq, _), reply) in lines.iter().zip(&replies) {
        check_tick(checks, reference, plan, (*i, *seq), reply, false);
    }
    drop(daemon);
    out.tick_p50_s = quantile(&tick_s, 0.5);
    out.tick_p99_s = quantile(&tick_s, 0.99);
    let tenth = tick_s.len() / 10;
    out.tick_growth = median(&tick_s[tick_s.len() - tenth..]) / median(&tick_s[..tenth]);
    out.ticks = tick_s.len();
    out.scrape_s = median(&scrape_s);
    out.scrapes = scrape_s.len();

    settle(dir);
    let begin = Instant::now();
    let daemon = Daemon::new(options(dir)).expect("the state directory is readable");
    let elapsed = begin.elapsed();
    out.recovery_s = elapsed.as_secs_f64();
    let recovered = daemon.counters.recovered.load(std::sync::atomic::Ordering::Relaxed);
    checks.check(recovered as usize == tenants.len(), || {
        format!("restart recovered {recovered} of {} tenants", tenants.len())
    });
    let last = plan.horizon - 1;
    for (i, tenant) in tenants.iter().enumerate() {
        let reply = daemon.handle(&tenant.tick_line(last));
        check_tick(checks, reference, plan, (i, last), &reply, true);
    }
    observer.restarted(&daemon, elapsed);
    out
}
