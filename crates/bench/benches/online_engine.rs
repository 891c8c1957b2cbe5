//! `online_engine` — whole-run benchmark of the online decision engine
//! (allocation-free prefix stepping + dense priced-slot reuse + sub-slot
//! replay), the one pricing path of every online controller.
//!
//! Scenarios:
//!
//! * **Algorithm C, time-varying costs** (the reference): electricity
//!   prices make every slot's `g_t` unique, and the idle/switching ratio
//!   pushes the sub-slot refinement to `ñ_t ≈ 8` — exactly where the
//!   engine's per-slot pool collapses `ñ_t` full-grid pricings into one.
//! * **Algorithm A, tiled diurnal** (d = 2, time-independent): recurring
//!   λ values make later days pure pool hits.
//! * **Algorithm C, d = 3 diurnal** (time-independent): engine behaviour
//!   on a wider fleet.
//!
//! Gates, every mode: Algorithm C prices each original slot exactly
//! once (`pricings == horizon`) and its sub-slot replays hit the pool,
//! and the tiled days of Algorithm A are answered from the pool.
//! Timings are informational. Results land in
//! `results/online_engine.json` and, as the trajectory record the CI
//! uploads, `BENCH_online.json`.

use std::fmt::Write as _;
use std::time::Instant;

use rsz_bench::harness::{tiled_diurnal, timestamp, write_records};
use rsz_core::{CostModel, CostSpec, Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::EngineStats;
use rsz_online::algo_a::{AOptions, AlgorithmA};
use rsz_online::algo_c::{AlgorithmC, COptions};
use rsz_online::runner::{run_instrumented, LatencyProfile, OnlineAlgorithm};

/// The reference Algorithm C workload: time-dependent prices (so the
/// pool partitions by slot and only the sub-slot replay can win) with
/// idle costs sized for `ñ_t ≈ (d/ε)·l/β ≈ 8` at ε = 0.25.
fn c_reference(quick: bool) -> Instance {
    let horizon = if quick { 48 } else { 192 };
    let m = 8;
    let prices: Vec<f64> = (0..horizon)
        .map(|t| 1.0 + 0.8 * ((t % 24) as f64 / 24.0 * std::f64::consts::TAU).sin().abs())
        .collect();
    let cap = 2.0 * f64::from(m);
    Instance::builder()
        .server_type(ServerType::with_spec(
            "cpu",
            m,
            6.0,
            1.0,
            CostSpec::scaled(CostModel::linear(1.5, 1.0), prices.clone()),
        ))
        .server_type(ServerType::with_spec(
            "gpu",
            m,
            8.0,
            1.0,
            CostSpec::scaled(CostModel::power(1.2, 0.5, 2.0), prices),
        ))
        .loads(tiled_diurnal(horizon, 0.1 * cap, 0.55 * cap))
        .build()
        .expect("reference instance feasible")
}

fn a_diurnal(quick: bool) -> Instance {
    let horizon = if quick { 96 } else { 360 };
    let m = if quick { 10 } else { 16 };
    let cap = 2.0 * f64::from(m);
    Instance::builder()
        .server_type(ServerType::new("cpu", m, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
        .server_type(ServerType::new("gpu", m, 4.0, 1.0, CostModel::power(1.0, 0.5, 2.0)))
        .loads(tiled_diurnal(horizon, 0.1 * cap, 0.6 * cap))
        .build()
        .expect("diurnal instance feasible")
}

fn c_d3_diurnal(quick: bool) -> Instance {
    let horizon = if quick { 48 } else { 120 };
    let m = 6;
    let cap = 3.0 * f64::from(m);
    Instance::builder()
        .server_type(ServerType::new("small", m, 3.0, 1.0, CostModel::linear(0.8, 1.0)))
        .server_type(ServerType::new("mid", m, 4.0, 1.0, CostModel::power(0.8, 0.5, 2.0)))
        .server_type(ServerType::new("big", m, 6.0, 1.0, CostModel::quadratic(1.0, 0.5, 0.3)))
        .loads(tiled_diurnal(horizon, 0.1 * cap, 0.5 * cap))
        .build()
        .expect("d=3 instance feasible")
}

struct Timed {
    profile: LatencyProfile,
    secs: f64,
}

/// Time `build`'s controller over `iterations` whole runs, keeping the
/// best wall clock (fresh controller per iteration — online state must
/// not leak across runs). The controller of the *last* iteration is
/// handed to `inspect` so callers can pull engine counters off the
/// concrete type; the profile also comes from that iteration (every
/// iteration is deterministic, only the clock varies).
fn time_runs<A: OnlineAlgorithm>(
    instance: &Instance,
    iterations: usize,
    mut build: impl FnMut() -> A,
    mut inspect: impl FnMut(&A),
) -> Timed {
    let oracle = Dispatcher::new();
    let mut best = f64::INFINITY;
    let mut profile = None;
    for _ in 0..iterations {
        let mut algo = build();
        let start = Instant::now();
        let (_, run_profile) = run_instrumented(instance, &mut algo, &oracle);
        best = best.min(start.elapsed().as_secs_f64());
        inspect(&algo);
        profile = Some(run_profile);
    }
    Timed { profile: profile.expect("at least one iteration"), secs: best }
}

struct Row {
    name: &'static str,
    d: usize,
    horizon: usize,
    engine_ms: f64,
    engine_p50_us: f64,
    engine_p99_us: f64,
    pricings: u64,
    pool_hits: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let iterations = 3;

    let mut rows: Vec<Row> = Vec::new();

    // --- Algorithm C, time-varying reference ---
    {
        let inst = c_reference(quick);
        let opts = COptions { epsilon: 0.25, ..Default::default() };
        let build = || AlgorithmC::new(&inst, Dispatcher::new(), opts);
        let mut stats = None;
        let engine = time_runs(&inst, iterations, build, |c| stats = Some(c.engine_stats()));
        let stats = stats.expect("at least one iteration");
        assert_eq!(
            stats.pricings,
            inst.horizon() as u64,
            "Algorithm C must price each original slot exactly once"
        );
        assert!(stats.pool_hits > 0, "sub-slot replay must hit the pool");
        rows.push(report("algo_c_time_varying", &inst, &engine, stats));
    }

    // --- Algorithm A, tiled diurnal ---
    {
        let inst = a_diurnal(quick);
        let build = || AlgorithmA::new(&inst, Dispatcher::new(), AOptions::default());
        let mut stats = None;
        let engine = time_runs(&inst, iterations, build, |a| stats = Some(a.engine_stats()));
        let stats = stats.expect("at least one iteration");
        assert!(
            stats.pool_hits > stats.pricings,
            "tiled days must be answered from the pool: {stats:?}"
        );
        rows.push(report("algo_a_diurnal", &inst, &engine, stats));
    }

    // --- Algorithm C, d = 3 time-independent ---
    {
        let inst = c_d3_diurnal(quick);
        let opts = COptions { epsilon: 0.5, ..Default::default() };
        let build = || AlgorithmC::new(&inst, Dispatcher::new(), opts);
        let mut stats = None;
        let engine = time_runs(&inst, iterations, build, |c| stats = Some(c.engine_stats()));
        let stats = stats.expect("at least one iteration");
        rows.push(report("algo_c_d3_diurnal", &inst, &engine, stats));
    }

    let timestamp = timestamp();
    let mut runs = String::new();
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            runs,
            "    {{\n      \"scenario\": \"{}\",\n      \"d\": {},\n      \"horizon\": {},\n      \"engine_ms\": {:.3},\n      \"engine_p50_us\": {:.2},\n      \"engine_p99_us\": {:.2},\n      \"pricings\": {},\n      \"pool_hits\": {}\n    }}{}",
            r.name,
            r.d,
            r.horizon,
            r.engine_ms,
            r.engine_p50_us,
            r.engine_p99_us,
            r.pricings,
            r.pool_hits,
            if i + 1 < rows.len() { ",\n" } else { "\n" },
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"online_engine\",\n  \"quick\": {quick},\n  \"timestamp\": {timestamp},\n  \"runs\": [\n{runs}  ]\n}}\n",
    );

    write_records("online_engine", &json, &["results/online_engine.json", "BENCH_online.json"]);
}

fn report(name: &'static str, inst: &Instance, engine: &Timed, stats: EngineStats) -> Row {
    let (p50, _, p99, _, _) = engine.profile.summary_us();
    println!(
        "bench: online_engine/{name:<22} {:>9.2} ms  (p50 {p50:.0} µs, p99 {p99:.0} µs, {} pricings / {} hits)",
        engine.secs * 1e3,
        stats.pricings,
        stats.pool_hits,
    );
    Row {
        name,
        d: inst.num_types(),
        horizon: inst.horizon(),
        engine_ms: engine.secs * 1e3,
        engine_p50_us: p50,
        engine_p99_us: p99,
        pricings: stats.pricings,
        pool_hits: stats.pool_hits,
    }
}
