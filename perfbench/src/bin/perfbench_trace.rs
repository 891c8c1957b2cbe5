//! Traced run: the metrics listed under `per_layer` in `BENCHMARK.json`.
//!
//! Spans are recorded from the benchmark's own files only, kept in
//! memory and written as JSON lines at exit (`--spans FILE`). Each has a
//! name, start and end (ns since the run began), a parent, and a request
//! id (`tenant/seq`, or the solve).
//!
//! * Serve workloads: one untraced round (for `trace.overhead` and
//!   `daemon.tick_growth`), then one traced round. The parent span is
//!   the call into `Daemon::handle`; child spans are the benchmark's own
//!   calls, on the same inputs, into the public functions the tick path
//!   is built from (parse, WAL append, prefix-instance build, decide,
//!   `push_latency`, reply), at the daemon's cadences: every tick, every
//!   `snapshot_every` decisions (`save_run`, `list_segments`) and every
//!   `fingerprint_every` ticks (`state_fingerprint`).
//! * Offline: the exact and `(1+ε)` solves are parents; a forwarding
//!   oracle counts and times every `GtOracle` call beneath them, and the
//!   coarse pass and the checkpointed recovery are re-run as their own
//!   solves for their statistics.
//!
//! A layer a workload does not exercise reports 0.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use perfbench::calibrate::Calibration;
use perfbench::cli::{self, Args};
use perfbench::gen::{self, ServePlan};
use perfbench::offline::{self, EPSILON};
use perfbench::process_cpu_s;
use perfbench::report::{self, Checks, Metric};
use perfbench::serve::{self, Observer, Reference, Tick, Untraced};
use perfbench::stats::median;
use rsz_core::{Config, GtOracle, Instance, Schedule, ServerType, SlotEval};
use rsz_dispatch::Dispatcher;
use rsz_offline::approx::{approximate_opts, approximate_with_mode};
use rsz_offline::{
    shared_pool, solve, solve_refined, solve_with_stats, DpOptions, GridMode, RefineOptions,
    SharedSlotPool,
};
use rsz_online::{restore_run, save_run, LatencyProfile, OnlineAlgorithm, Rung};
use rsz_serve::json::Json;
use rsz_serve::protocol::{decision_line, parse_request};
use rsz_serve::tenant::TenantCounters;
use rsz_serve::wal::{self, WalRecord, WalWriter};
use rsz_serve::{build_controller, state_fingerprint, BoxController, Daemon, Request, TenantSpec};

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
const LAYERS: &[(&str, &str)] = &[
    ("daemon.handle_us", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.reply_us", "us"),
    ("wal.append_us", "us"),
    ("core.instance_build_us", "us"),
    ("online.decide_us", "us"),
    ("engine.pool_hit_rate", "ratio"),
    ("engine.pricings", "count"),
    ("engine.pool_hits", "count"),
    ("tenant.push_latency_us", "us"),
    ("online.save_run_us", "us"),
    ("daemon.snapshot_bytes", "bytes"),
    ("replication.fingerprint_us", "us"),
    ("wal.list_segments_us", "us"),
    ("wal.dir_entries", "count"),
    ("daemon.snapshots", "count"),
    ("daemon.segments_sealed", "count"),
    ("daemon.segments_compacted", "count"),
    ("daemon.recover_per_tenant_us", "us"),
    ("wal.scan_us", "us"),
    ("online.restore_run_us", "us"),
    ("online.latency_quantile_us", "us"),
    ("daemon.tick_growth", "ratio"),
    ("dispatch.oracle_calls", "count"),
    ("dispatch.oracle_s", "s"),
    ("dp.self_s", "s"),
    ("refine.coarse_s", "s"),
    ("refine.rounds", "count"),
    ("refine.expansions", "count"),
    ("refine.band_fraction", "ratio"),
    ("pipeline.checkpoints", "count"),
    ("pipeline.peak_live_tables", "count"),
    ("kernels.cells", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

fn main() {
    let args = cli::parse().unwrap_or_else(|e| {
        eprintln!("perfbench_trace: {e}");
        exit(2)
    });
    let cpu = perfbench::pin_to_one_cpu();
    eprintln!(
        "perfbench_trace: pinned to CPU {cpu:?}, available parallelism {:?}",
        std::thread::available_parallelism()
    );
    let mut rec = Recorder::new();
    let mut checks = Checks::default();
    let values = match args.workload.as_str() {
        "serve_long_horizon" => serve_trace(
            &args,
            &gen::serve_long_horizon(args.seed, args.size),
            &mut rec,
            &mut checks,
        ),
        "serve_fanout" => {
            serve_trace(&args, &gen::serve_fanout(args.seed, args.size), &mut rec, &mut checks)
        }
        "offline_plan" => offline_trace(&args, &mut rec, &mut checks),
        other => {
            eprintln!("perfbench_trace: unknown workload `{other}`");
            exit(2)
        }
    };
    if let Some(path) = &args.spans {
        if let Err(e) = rec.write(path) {
            eprintln!("perfbench_trace: writing {}: {e}", path.display());
        }
    }
    let metrics: Vec<Metric> = LAYERS
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = values.get(name).copied().unwrap_or((0.0, 0));
            Metric::new(name, unit, value, samples)
        })
        .collect();
    exit(report::finish(&args.workload, checks, &metrics, false))
}

/// Metric values with their sample counts, by name.
type Values = HashMap<&'static str, (f64, usize)>;

/// The median in µs; a layer with no samples keeps its 0.
fn put_median_us(values: &mut Values, name: &'static str, seconds: &[f64]) {
    if !seconds.is_empty() {
        values.insert(name, (median(seconds) * 1e6, seconds.len()));
    }
}

// ---------------------------------------------------------------- spans

/// One span. `request` is `(group, index)`: a tenant index and seq for
/// serve ticks, a solve id for the planner.
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    request: (String, u64),
}

/// In-memory span store; span ids are indices.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn record(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        request: (String, u64),
    ) -> usize {
        self.spans.push(Span { name, start, end, parent, request });
        self.spans.len() - 1
    }

    /// Time `f` as a child of `parent`, sharing its request id.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let request = self.spans[parent].request.clone();
        self.record(name, (start, end), Some(parent), request);
        out
    }

    /// Durations (seconds) of every span called `name`.
    fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Σ child durations ÷ Σ durations of the spans called `parent`.
    fn coverage(&self, parent: &str) -> f64 {
        let mut parents = 0.0;
        let mut children = 0.0;
        for s in &self.spans {
            let d = (s.end - s.start).as_secs_f64();
            if s.name == parent {
                parents += d;
            } else if s.parent.is_some_and(|p| self.spans[p].name == parent) {
                children += d;
            }
        }
        children / parents
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":"{}/{}"}}"#,
                s.name,
                ns(s.start),
                ns(s.end),
                s.request.0,
                s.request.1,
            )?;
        }
        out.flush()
    }
}

// ---------------------------------------------------------------- serve

/// The benchmark's own copy of one tenant's tick path.
struct TenantTrace {
    name: String,
    spec: TenantSpec,
    types: Vec<ServerType>,
    loads: Vec<f64>,
    decisions: Vec<Config>,
    controller: BoxController,
    wal: WalWriter,
    counters: TenantCounters,
    fresh: usize,
    saved: Option<(usize, Vec<u8>)>,
}

/// The traced round's observer.
struct ServeTrace<'a> {
    rec: &'a mut Recorder,
    checks: Checks,
    dir: PathBuf,
    tenants: Vec<TenantTrace>,
    snapshot_every: usize,
    fingerprint_every: usize,
    scrape_every: usize,
    ticks: usize,
    push_full: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    dir_entries: Vec<f64>,
    recover_per_tenant: Vec<f64>,
}

fn prefix(types: &[ServerType], loads: &[f64]) -> Instance {
    Instance::builder()
        .server_types(types.iter().cloned())
        .loads(loads.to_vec())
        .build()
        .expect("accepted loads fit the fleet")
}

impl<'a> ServeTrace<'a> {
    /// Mirror every tenant up to its first decision (the set-up part),
    /// with its WAL under `wal_dir` and one shared pool per pool key.
    fn new(plan: &ServePlan, dir: &Path, wal_dir: &Path, rec: &'a mut Recorder) -> Self {
        std::fs::create_dir_all(wal_dir).expect("the state directory is writable");
        let defaults = serve::options(dir);
        let mut pools: HashMap<String, SharedSlotPool> = HashMap::new();
        let tenants = plan
            .tenants
            .iter()
            .map(|t| {
                let Ok(Request::Register { spec, .. }) = parse_request(&t.register) else {
                    panic!("{}: the register line parses", t.name)
                };
                let types = spec.server_types().expect("preset fleets parse");
                let first = prefix(&types, &t.loads[..1]);
                let mut controller =
                    build_controller(&spec, &first, spec.grid.mode()).expect("spec builds");
                if spec.engine {
                    let pool = pools
                        .entry(spec.pool_key())
                        .or_insert_with(|| shared_pool(&first, defaults.pool_capacity))
                        .clone();
                    controller.share_pool(pool);
                }
                let mut wal =
                    WalWriter::open(&wal::wal_path(wal_dir, &t.name), false).expect("WAL opens");
                wal.append(&WalRecord::Register(spec.clone())).expect("WAL appends");
                wal.append(&WalRecord::Tick { seq: 0, load: t.loads[0] }).expect("WAL appends");
                let decisions = vec![controller.decide(&first, 0)];
                TenantTrace {
                    name: t.name.clone(),
                    spec,
                    types,
                    loads: t.loads[..1].to_vec(),
                    decisions,
                    controller,
                    wal,
                    counters: TenantCounters::default(),
                    fresh: 1,
                    saved: None,
                }
            })
            .collect();
        Self {
            rec,
            checks: Checks::default(),
            dir: dir.to_path_buf(),
            tenants,
            snapshot_every: defaults.snapshot_every,
            fingerprint_every: defaults.fingerprint_every,
            scrape_every: plan.scrape_every,
            ticks: 0,
            push_full: Vec::new(),
            snapshot_bytes: Vec::new(),
            dir_entries: Vec::new(),
            recover_per_tenant: Vec::new(),
        }
    }
}

impl Observer for ServeTrace<'_> {
    fn tick(&mut self, _daemon: &Daemon, tick: Tick<'_>) {
        let Self { rec, checks, dir, tenants, .. } = self;
        let tt = &mut tenants[tick.tenant];
        let parent = rec.record(
            "daemon.handle",
            (tick.begin, tick.end),
            None,
            (tt.name.clone(), tick.seq as u64),
        );
        let load = match rec.time("protocol.parse", parent, || parse_request(tick.line)) {
            Ok(Request::Tick { load, .. }) => load,
            other => {
                checks.check(false, || format!("tick line parsed as {other:?}"));
                return;
            }
        };
        let appended = rec.time("wal.append", parent, || {
            tt.wal.append(&WalRecord::Tick { seq: tick.seq as u64, load })
        });
        checks.check(appended.is_ok(), || format!("WAL append: {appended:?}"));
        tt.loads.push(load);
        let instance = rec.time("core.instance_build", parent, || {
            Instance::builder()
                .server_types(tt.types.iter().cloned())
                .loads(tt.loads.clone())
                .build()
        });
        let Ok(instance) = instance else {
            checks.check(false, || format!("{}: prefix instance rejected", tt.name));
            return;
        };
        let config =
            rec.time("online.decide", parent, || tt.controller.decide(&instance, tick.seq));
        let full = tt.counters.latencies.len() == 4096;
        let handle_s = (tick.end - tick.begin).as_secs_f64();
        let begin = Instant::now();
        tt.counters.push_latency(handle_s);
        let end = Instant::now();
        rec.record(
            "tenant.push_latency",
            (begin, end),
            Some(parent),
            (tt.name.clone(), tick.seq as u64),
        );
        if full {
            self.push_full.push((end - begin).as_secs_f64());
        }
        let reply = rec.time("protocol.reply", parent, || {
            decision_line(tick.seq as u64, &config, Rung::Exact, false)
        });
        checks.check(reply == tick.reply, || {
            format!("{}: own decision {reply} vs daemon {}", tt.name, tick.reply)
        });
        tt.decisions.push(config);
        tt.fresh += 1;
        if tt.fresh >= self.snapshot_every {
            tt.fresh = 0;
            let committed = Schedule::new(tt.decisions.clone());
            let bytes = rec.time("online.save_run", parent, || {
                save_run(&tt.controller, &instance, &committed)
            });
            tt.saved = Some((tt.loads.len(), bytes));
            if let Ok(meta) = std::fs::metadata(wal::snap_path(dir, &tt.name)) {
                self.snapshot_bytes.push(meta.len() as f64);
            }
            rec.time("wal.list_segments", parent, || wal::list_segments(dir, &tt.name));
            self.dir_entries.push(std::fs::read_dir(&*dir).map_or(0, Iterator::count) as f64);
        }
        if tt.loads.len() % self.fingerprint_every == 0 {
            rec.time("replication.fingerprint", parent, || {
                state_fingerprint(&tt.spec, &tt.loads, Some(&tt.decisions))
            });
        }
        self.ticks += 1;
        if self.ticks.is_multiple_of(self.scrape_every) {
            // What `/metrics` does for every tenant on each scrape.
            for t in tenants.iter() {
                let begin = Instant::now();
                std::hint::black_box(
                    LatencyProfile::new(t.counters.latencies.clone()).quantile(0.5),
                );
                rec.record(
                    "online.latency_quantile",
                    (begin, Instant::now()),
                    Some(parent),
                    (t.name.clone(), 0),
                );
            }
        }
    }

    fn restarted(&mut self, daemon: &Daemon, elapsed: Duration) {
        let end = Instant::now();
        let recovered = daemon.counters.recovered.load(Ordering::Relaxed);
        self.recover_per_tenant.push(elapsed.as_secs_f64() / recovered.max(1) as f64);
        let root =
            self.rec.record("daemon.restart", (end - elapsed, end), None, ("restart".into(), 0));
        for tt in &mut self.tenants {
            let path = wal::wal_path(&self.dir, &tt.name);
            let scan = self
                .rec
                .time("wal.scan", root, || wal::read_file(&path).map(|bytes| wal::scan(&bytes)));
            self.checks.check(scan.is_ok_and(|s| !s.records.is_empty()), || {
                format!("{}: WAL scan", tt.name)
            });
            let Some((k, bytes)) = &tt.saved else { continue };
            let instance = prefix(&tt.types, &tt.loads[..*k]);
            let mut fresh =
                build_controller(&tt.spec, &instance, tt.spec.grid.mode()).expect("spec builds");
            let restored = self
                .rec
                .time("online.restore_run", root, || restore_run(&mut fresh, &instance, bytes));
            self.checks.check(restored.is_ok_and(|c| c.len() == *k), || {
                format!("{}: restore_run", tt.name)
            });
        }
    }
}

fn serve_trace(args: &Args, plan: &ServePlan, rec: &mut Recorder, checks: &mut Checks) -> Values {
    let reference = Reference::new(plan).unwrap_or_else(|e| {
        eprintln!("perfbench_trace: {e}");
        exit(2)
    });
    let mut calibration = Calibration::new();
    let untraced = serve::round(
        plan,
        &reference,
        &args.state_dir.join("untraced"),
        checks,
        &mut calibration,
        &mut Untraced,
    );
    let dir = args.state_dir.join("traced");
    let mut trace = ServeTrace::new(plan, &dir, &args.state_dir.join("trace-wal"), rec);
    let traced = serve::round(plan, &reference, &dir, checks, &mut calibration, &mut trace);
    let ServeTrace {
        checks: own, push_full, snapshot_bytes, dir_entries, recover_per_tenant, ..
    } = trace;
    checks.merge(own);

    let mut values = Values::new();
    for name in [
        "daemon.handle",
        "protocol.parse",
        "protocol.reply",
        "wal.append",
        "core.instance_build",
        "online.decide",
        "online.save_run",
        "replication.fingerprint",
        "wal.list_segments",
        "wal.scan",
        "online.restore_run",
        "online.latency_quantile",
    ] {
        let key: &'static str =
            LAYERS.iter().find(|(n, _)| n.strip_suffix("_us") == Some(name)).expect("listed").0;
        put_median_us(&mut values, key, &rec.seconds(name));
    }
    let pushes = if push_full.is_empty() { rec.seconds("tenant.push_latency") } else { push_full };
    put_median_us(&mut values, "tenant.push_latency_us", &pushes);
    put_median_us(&mut values, "daemon.recover_per_tenant_us", &recover_per_tenant);
    if !snapshot_bytes.is_empty() {
        values.insert("daemon.snapshot_bytes", (median(&snapshot_bytes), snapshot_bytes.len()));
        values.insert("wal.dir_entries", (median(&dir_entries), dir_entries.len()));
    }

    let scraped = traced.metrics.as_ref();
    let counter =
        |key: &str| scraped.and_then(|m| m.get(key)).and_then(Json::as_f64).unwrap_or(0.0);
    values.insert("engine.pool_hit_rate", (counter("pool_hit_rate"), 1));
    for (name, key) in [
        ("daemon.snapshots", "snapshots"),
        ("daemon.segments_sealed", "segments_sealed"),
        ("daemon.segments_compacted", "segments_compacted"),
    ] {
        values.insert(name, (counter(key), 1));
    }
    let per_tenant = |key: &str| match scraped.and_then(|m| m.get("tenants")) {
        Some(Json::Obj(tenants)) => {
            tenants.iter().filter_map(|(_, t)| t.get(key).and_then(Json::as_f64)).sum()
        }
        _ => 0.0,
    };
    values.insert("engine.pricings", (per_tenant("pool_pricings"), 1));
    values.insert("engine.pool_hits", (per_tenant("pool_hits"), 1));

    values.insert("daemon.tick_growth", (untraced.tick_growth, untraced.ticks / 5));
    let handles = rec.seconds("daemon.handle");
    values.insert("trace.coverage", (rec.coverage("daemon.handle"), handles.len()));
    values.insert("trace.overhead", (median(&handles) / untraced.tick_p50_s, handles.len()));
    values
}

// -------------------------------------------------------------- offline

/// A `GtOracle` that forwards every trait method to a `Dispatcher`,
/// counting and timing each call, including the evaluations of the
/// `SlotEval`s it hands out.
struct CountingOracle {
    inner: Dispatcher,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CountingOracle {
    fn new() -> Self {
        Self { inner: Dispatcher::new(), calls: AtomicU64::new(0), nanos: AtomicU64::new(0) }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn totals(&self) -> (u64, f64) {
        (self.calls.load(Ordering::Relaxed), self.nanos.load(Ordering::Relaxed) as f64 * 1e-9)
    }
}

struct CountingEval<'a> {
    inner: Box<dyn SlotEval + 'a>,
    oracle: &'a CountingOracle,
}

impl SlotEval for CountingEval<'_> {
    fn eval(&mut self, x: &[u32]) -> f64 {
        let inner = &mut self.inner;
        self.oracle.timed(|| inner.eval(x))
    }
}

impl GtOracle for CountingOracle {
    fn g(&self, instance: &Instance, t: usize, x: &[u32]) -> f64 {
        self.timed(|| self.inner.g(instance, t, x))
    }

    fn g_scaled(
        &self,
        instance: &Instance,
        t: usize,
        x: &[u32],
        lambda: f64,
        cost_scale: f64,
    ) -> f64 {
        self.timed(|| self.inner.g_scaled(instance, t, x, lambda, cost_scale))
    }

    fn slot_eval<'a>(
        &'a self,
        instance: &'a Instance,
        t: usize,
        lambda: f64,
        cost_scale: f64,
    ) -> Box<dyn SlotEval + 'a> {
        let inner = self.timed(|| self.inner.slot_eval(instance, t, lambda, cost_scale));
        Box::new(CountingEval { inner, oracle: self })
    }

    fn slot_sweep<'a>(
        &'a self,
        instance: &'a Instance,
        t: usize,
        lambda: f64,
        cost_scale: f64,
    ) -> Box<dyn SlotEval + 'a> {
        let inner = self.timed(|| self.inner.slot_sweep(instance, t, lambda, cost_scale));
        Box::new(CountingEval { inner, oracle: self })
    }

    fn is_memoizing(&self) -> bool {
        self.inner.is_memoizing()
    }
}

/// Time `f` as a root span of solve `id`; also returns the CPU seconds
/// it took across all solver threads.
fn root<T>(
    rec: &mut Recorder,
    name: &'static str,
    id: &str,
    f: impl FnOnce() -> T,
) -> (T, usize, f64) {
    let cpu = process_cpu_s();
    let start = Instant::now();
    let out = f();
    let span = rec.record(name, (start, Instant::now()), None, (id.to_owned(), 0));
    (out, span, process_cpu_s() - cpu)
}

fn span_s(rec: &Recorder, id: usize) -> f64 {
    (rec.spans[id].end - rec.spans[id].start).as_secs_f64()
}

/// Record the oracle's accumulated time as one child span of `parent`
/// (per-call spans would outnumber everything else by millions).
fn oracle_span(rec: &mut Recorder, parent: usize, oracle: &CountingOracle) {
    let start = rec.spans[parent].start;
    let request = rec.spans[parent].request.clone();
    rec.record(
        "dispatch.oracle",
        (start, start + Duration::from_secs_f64(oracle.totals().1)),
        Some(parent),
        request,
    );
}

fn offline_trace(args: &Args, rec: &mut Recorder, checks: &mut Checks) -> Values {
    let (types, loads) = gen::offline_plan(args.seed, args.size);
    let (instance, _) = offline::setup(&types, &loads);

    let (plain, untraced, _) = root(rec, "dp.solve.untraced", "exact", || {
        solve(&instance, &Dispatcher::new(), offline::exact_options())
    });
    let exact_oracle = CountingOracle::new();
    let ((exact, refine), exact_span, exact_cpu) = root(rec, "dp.solve", "exact", || {
        solve_refined(&instance, &exact_oracle, offline::exact_options())
    });
    oracle_span(rec, exact_span, &exact_oracle);
    checks.check(exact.cost.to_bits() == plain.cost.to_bits(), || {
        format!("traced exact cost {} differs from untraced {}", exact.cost, plain.cost)
    });
    let coarse_grid = GridMode::Gamma(RefineOptions::exact().coarse_gamma);
    let (_, coarse, _) = root(rec, "refine.coarse", "coarse", || {
        approximate_with_mode(&instance, &Dispatcher::new(), coarse_grid, offline::approx_options())
    });

    let approx_oracle = CountingOracle::new();
    let (approx, approx_span, approx_cpu) = root(rec, "dp.approx_solve", "approx", || {
        approximate_opts(&instance, &approx_oracle, EPSILON, offline::approx_options())
    });
    oracle_span(rec, approx_span, &approx_oracle);
    let approx_grid =
        DpOptions { grid: GridMode::for_epsilon(EPSILON), ..offline::approx_options() };
    let (result, recovery) = rec.time("pipeline.solve_with_stats", approx_span, || {
        solve_with_stats(&instance, &Dispatcher::new(), approx_grid)
    });
    checks.check(result.cost.to_bits() == approx.result.cost.to_bits(), || {
        format!("checkpointed approx cost {} differs from {}", result.cost, approx.result.cost)
    });
    checks.check(exact.cost <= approx.result.cost * (1.0 + 1e-8), || "approx below OPT".into());

    let (exact_calls, exact_oracle_s) = exact_oracle.totals();
    let (approx_calls, approx_oracle_s) = approx_oracle.totals();
    // The solvers price on worker threads, so oracle time (summed over
    // threads) is set against the solves' CPU time, not their wall time.
    let solves_cpu = exact_cpu + approx_cpu;
    let oracle_s = exact_oracle_s + approx_oracle_s;
    let cells = refine.band_cells as f64 + (approx.grid_cells * instance.horizon()) as f64;
    let mut values = Values::new();
    for (name, value) in [
        ("dispatch.oracle_calls", (exact_calls + approx_calls) as f64),
        ("dispatch.oracle_s", oracle_s),
        ("dp.self_s", solves_cpu - oracle_s),
        ("refine.coarse_s", span_s(rec, coarse)),
        ("refine.rounds", refine.rounds as f64),
        ("refine.expansions", refine.expansions as f64),
        ("refine.band_fraction", refine.band_fraction()),
        ("engine.pricings", refine.engine.pricings as f64),
        ("engine.pool_hits", refine.engine.pool_hits as f64),
        ("pipeline.checkpoints", recovery.checkpoints as f64),
        ("pipeline.peak_live_tables", recovery.peak_live_tables as f64),
        ("kernels.cells", cells),
        ("trace.coverage", oracle_s / solves_cpu),
        ("trace.overhead", span_s(rec, exact_span) / span_s(rec, untraced)),
    ] {
        values.insert(name, (value, 1));
    }
    values
}
