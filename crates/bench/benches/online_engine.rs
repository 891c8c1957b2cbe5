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
//! Timings are informational: `engine_ms` is the median of five whole
//! runs (one under `--quick`), with its IQR. Results land in
//! `results/online_engine.json` and, as the trajectory record the CI
//! uploads, `BENCH_online.json`.

use rsz_bench::harness::{tiled_diurnal, Bench, Row};
use rsz_core::{CostModel, CostSpec, Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::EngineStats;
use rsz_online::algo_a::{AOptions, AlgorithmA};
use rsz_online::algo_c::{AlgorithmC, COptions};
use rsz_online::runner::{run_instrumented, OnlineAlgorithm};

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

/// Time whole runs of `build`'s controller, a fresh one per run (online
/// state must not leak across runs), and add the scenario's row. The
/// profile and the engine counters come from the last run: every run is
/// deterministic, only the clock varies.
fn measure<A: OnlineAlgorithm>(
    bench: &mut Bench,
    name: &str,
    instance: &Instance,
    mut build: impl FnMut() -> A,
    engine_stats: impl Fn(&A) -> EngineStats,
) -> EngineStats {
    let oracle = Dispatcher::new();
    let ((algo, profile), [engine]) = bench.repeat(|laps| {
        let mut algo = build();
        let (_, profile) = laps.time(|| run_instrumented(instance, &mut algo, &oracle));
        (algo, profile)
    });
    let stats = engine_stats(&algo);
    let (p50, _, p99, _, _) = profile.summary_us();
    bench.row(
        Row::new(name)
            .field("d", instance.num_types())
            .field("horizon", instance.horizon())
            .ms("engine_ms", engine)
            .field("engine_p50_us", format!("{p50:.2}"))
            .field("engine_p99_us", format!("{p99:.2}"))
            .field("pricings", stats.pricings)
            .field("pool_hits", stats.pool_hits),
    );
    stats
}

fn main() {
    let mut bench = Bench::from_args("online_engine");

    // --- Algorithm C, time-varying reference ---
    let inst = c_reference(bench.quick);
    let opts = COptions { epsilon: 0.25, ..Default::default() };
    let build = || AlgorithmC::new(&inst, Dispatcher::new(), opts);
    let stats = measure(&mut bench, "algo_c_time_varying", &inst, build, AlgorithmC::engine_stats);
    assert_eq!(
        stats.pricings,
        inst.horizon() as u64,
        "Algorithm C must price each original slot exactly once"
    );
    assert!(stats.pool_hits > 0, "sub-slot replay must hit the pool");

    // --- Algorithm A, tiled diurnal ---
    let inst = a_diurnal(bench.quick);
    let build = || AlgorithmA::new(&inst, Dispatcher::new(), AOptions::default());
    let stats = measure(&mut bench, "algo_a_diurnal", &inst, build, AlgorithmA::engine_stats);
    assert!(
        stats.pool_hits > stats.pricings,
        "tiled days must be answered from the pool: {stats:?}"
    );

    // --- Algorithm C, d = 3 time-independent ---
    let inst = c_d3_diurnal(bench.quick);
    let opts = COptions { epsilon: 0.5, ..Default::default() };
    let build = || AlgorithmC::new(&inst, Dispatcher::new(), opts);
    measure(&mut bench, "algo_c_d3_diurnal", &inst, build, AlgorithmC::engine_stats);

    bench.finish(&[], &["results/online_engine.json", "BENCH_online.json"]);
}
