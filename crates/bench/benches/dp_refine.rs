//! `dp_refine` — end-to-end benchmark of the coarse-to-fine corridor
//! solver (`rsz_offline::refine`) against the PR-3 slot-batched
//! pipeline.
//!
//! Both sides run the same pipeline pricing machinery; the refined side
//! additionally solves a cheap `Γ(γ₀)` coarse pass, lifts the coarse
//! trajectory to per-slot fine-grid bands, and runs the DP on band
//! cells only (expansion fixpoint guarding exactness). The win is
//! structural — per-slot work drops from grid volume to band volume —
//! and grows with fleet size and dimension, so the gated scenario is
//! the d = 3 large-fleet one (m = (64, 64, 64)), where the full grid
//! has 65³ ≈ 275 k cells per slot.
//!
//! Scenarios: tiled-diurnal d = 3 large fleet (gated ≥ 3×), a bursty
//! MMPP d = 3 trace with few exact load repeats, and a time-varying
//! electricity-price d = 2 workload (no slot sharing anywhere — every
//! slot prices fresh, so banding is the only lever). Every scenario
//! gates cost parity ≤ 1e-9 and schedule equality between the refined
//! and the unrestricted pipeline solve; the wall-clock gate, on the
//! ratio of the two medians of five solves, applies in full (non
//! `--quick`) mode only.
//!
//! Results land in `results/dp_refine.json` and, as the trajectory
//! record the CI uploads, `BENCH_refine.json` at the workspace root.

use rsz_bench::harness::{tiled_diurnal, Bench, Row};
use rsz_core::{CostModel, CostSpec, Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::dp::{solve, DpOptions};
use rsz_offline::refine::{solve_refined, RefineOptions};
use rsz_workloads::stochastic;

struct Scenario {
    name: &'static str,
    instance: Instance,
    /// Only the d = 3 large-fleet scenario carries the speedup gate.
    gated: bool,
}

fn scenarios(quick: bool) -> Vec<Scenario> {
    let (large_m, large_t) = if quick { (24, 24) } else { (64, 64) };
    let cap = 6.0 * f64::from(large_m); // three types, capacities 1/2/3
    let d3_large = Instance::builder()
        .server_type(ServerType::new("small", large_m, 2.0, 1.0, CostModel::linear(0.4, 1.0)))
        .server_type(ServerType::new("mid", large_m, 3.0, 2.0, CostModel::power(0.8, 0.5, 2.0)))
        .server_type(ServerType::new("big", large_m, 5.0, 3.0, CostModel::quadratic(1.0, 0.5, 0.2)))
        .loads(tiled_diurnal(large_t, 0.08 * cap, 0.6 * cap))
        .build()
        .expect("d=3 large-fleet instance feasible");

    let (bursty_m, bursty_t) = if quick { (12, 24) } else { (32, 48) };
    let bcap = 6.0 * f64::from(bursty_m);
    let d3_bursty = Instance::builder()
        .server_type(ServerType::new("small", bursty_m, 1.5, 1.0, CostModel::linear(0.6, 1.1)))
        .server_type(ServerType::new("mid", bursty_m, 3.0, 2.0, CostModel::power(0.7, 0.4, 2.0)))
        .server_type(ServerType::new("big", bursty_m, 4.5, 3.0, CostModel::linear(1.2, 0.7)))
        .loads(
            stochastic::mmpp(bursty_t, 0.08 * bcap, 0.5 * bcap, 0.06, 0.25, 1.0, 11)
                .capped(0.85 * bcap)
                .into_values(),
        )
        .build()
        .expect("d=3 bursty instance feasible");

    let (td_m, td_t) = if quick { (24, 48) } else { (64, 96) };
    let tcap = 3.0 * f64::from(td_m);
    let prices: Vec<f64> = (0..td_t).map(|t| 0.6 + 0.4 * ((t % 24) as f64 / 23.0)).collect();
    let d2_time_varying = Instance::builder()
        .server_type(ServerType::new("flat", td_m, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
        .server_type(ServerType::with_spec(
            "priced",
            td_m,
            3.0,
            2.0,
            CostSpec::scaled(CostModel::power(0.8, 0.5, 2.0), prices),
        ))
        .loads(tiled_diurnal(td_t, 0.1 * tcap, 0.55 * tcap))
        .build()
        .expect("time-varying instance feasible");

    vec![
        Scenario { name: "d3_large_fleet_diurnal", instance: d3_large, gated: true },
        Scenario { name: "d3_bursty_mmpp", instance: d3_bursty, gated: false },
        Scenario { name: "d2_time_varying_costs", instance: d2_time_varying, gated: false },
    ]
}

fn main() {
    let mut bench = Bench::from_args("dp_refine");
    let mut d3_speedup = None;
    for sc in scenarios(bench.quick) {
        let inst = &sc.instance;
        // Baseline: the PR-3 slot-batched pipeline, unrestricted grid.
        let pipeline_opts = DpOptions::pipelined();
        // This PR: the same pipeline under the corridor solver.
        let refine_opts =
            DpOptions { refine: Some(RefineOptions::exact()), ..DpOptions::pipelined() };

        // Warm-up (page in code paths), then timed runs.
        let _ = solve(inst, &Dispatcher::new(), DpOptions::pipelined());
        let (baseline, pipeline) = bench.time(|| solve(inst, &Dispatcher::new(), pipeline_opts));
        let ((refined, stats), refine) =
            bench.time(|| solve_refined(inst, &Dispatcher::new(), refine_opts));

        let speedup = pipeline.median / refine.median;
        let cost_gap_rel = (baseline.cost - refined.cost).abs() / baseline.cost.abs().max(1.0);
        let schedules_equal = baseline.schedule == refined.schedule;
        bench.row(
            Row::new(sc.name)
                .field("d", inst.num_types())
                .field("horizon", inst.horizon())
                .ms("pipeline_ms", pipeline)
                .ms("refine_ms", refine)
                .num("speedup", speedup)
                .field("cost_gap_rel", format!("{cost_gap_rel:.3e}"))
                .field("schedules_equal", schedules_equal)
                .field("rounds", stats.rounds)
                .field("expansions", stats.expansions)
                .field("fell_back", stats.fell_back)
                .field("band_cells", stats.band_cells)
                .field("fine_cells", stats.fine_cells)
                .field("band_fraction", format!("{:.4}", stats.band_fraction()))
                .field("pricings", stats.engine.pricings)
                .field("pool_hits", stats.engine.pool_hits)
                .field("slice_hits", stats.engine.slice_hits),
        );

        // Correctness gates (always enforced).
        assert!(
            cost_gap_rel <= 1e-9,
            "{}: refined/pipeline cost gap {cost_gap_rel:e} above 1e-9",
            sc.name
        );
        assert!(schedules_equal, "{}: corridor refinement changed the schedule", sc.name);
        // Performance gate: d = 3 large fleet, full mode only.
        if sc.gated {
            assert!(
                bench.quick || speedup >= 3.0,
                "{}: corridor speedup {speedup:.2}x below the 3x gate",
                sc.name
            );
            d3_speedup = Some(speedup);
        }
    }
    bench.finish(
        &[("d3_speedup", format!("{:.3}", d3_speedup.expect("the gated scenario ran")))],
        &["results/dp_refine.json", "BENCH_refine.json"],
    );
}
