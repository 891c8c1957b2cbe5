//! `dp_pipeline` — end-to-end offline-solve benchmark of the
//! slot-batched pricing pipeline (warm-started KKT row sweeps +
//! time-independent slot de-duplication + checkpointed backtracking),
//! the one path behind `dp::solve`.
//!
//! Scenarios: the reference tiled-diurnal workload (d = 2,
//! m = (40, 40), T = 2000), a bursty MMPP trace with few exact load
//! repeats, a time-dependent electricity-price workload (no slot
//! sharing anywhere), and a d = 3 fleet. Every scenario gates on the
//! schedule being feasible and on `objective::evaluate` of the schedule
//! matching the reported cost to a relative 1e-9. Timings are
//! informational: `pipeline_ms` is the median of five solves, with its
//! IQR; `--quick` shrinks horizons and solves once, for the CI smoke.
//!
//! Results land in `results/dp_pipeline.json` and, as the trajectory
//! record the CI uploads, `BENCH_dp.json` at the workspace root.

use rsz_bench::harness::{tiled_diurnal, Bench, Row};
use rsz_core::objective::evaluate;
use rsz_core::{CostModel, CostSpec, Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::dp::{solve_with_stats, DpOptions};
use rsz_workloads::stochastic;

struct Scenario {
    name: &'static str,
    instance: Instance,
}

fn scenarios(quick: bool) -> Vec<Scenario> {
    let reference_t = if quick { 240 } else { 2000 };
    let (m_ref, base, amp) = if quick { (16, 3.0, 20.0) } else { (40, 6.0, 55.0) };
    let reference = Instance::builder()
        .server_type(ServerType::new("cpu", m_ref, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
        .server_type(ServerType::new("gpu", m_ref, 4.0, 1.0, CostModel::power(1.0, 0.5, 2.0)))
        .loads(tiled_diurnal(reference_t, base, amp))
        .build()
        .expect("reference instance feasible");

    let bursty_t = if quick { 96 } else { 600 };
    let bursty_m = if quick { 10 } else { 24 };
    let cap = 2.0 * f64::from(bursty_m);
    let bursty = Instance::builder()
        .server_type(ServerType::new("old", bursty_m, 1.5, 1.0, CostModel::linear(0.8, 1.2)))
        .server_type(ServerType::new("new", bursty_m, 3.0, 1.0, CostModel::power(0.6, 0.4, 2.0)))
        .loads(
            stochastic::mmpp(bursty_t, 0.1 * cap, 0.6 * cap, 0.06, 0.25, 1.0, 7)
                .capped(0.9 * cap)
                .into_values(),
        )
        .build()
        .expect("bursty instance feasible");

    let td_t = if quick { 96 } else { 480 };
    let td_m = if quick { 10 } else { 20 };
    let prices: Vec<f64> = (0..td_t).map(|t| 0.6 + 0.4 * ((t % 24) as f64 / 23.0)).collect();
    let td_cap = 2.0 * f64::from(td_m);
    let time_dependent = Instance::builder()
        .server_type(ServerType::new("flat", td_m, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
        .server_type(ServerType::with_spec(
            "priced",
            td_m,
            3.0,
            1.0,
            CostSpec::scaled(CostModel::power(0.8, 0.5, 2.0), prices),
        ))
        .loads(tiled_diurnal(td_t, 0.1 * td_cap, 0.55 * td_cap))
        .build()
        .expect("time-dependent instance feasible");

    let d3_t = if quick { 72 } else { 400 };
    let d3_m = if quick { 6 } else { 12 };
    let d3_cap = 3.0 * f64::from(d3_m);
    let three_types = Instance::builder()
        .server_type(ServerType::new("small", d3_m, 1.0, 1.0, CostModel::linear(0.4, 1.0)))
        .server_type(ServerType::new("mid", d3_m, 2.0, 1.0, CostModel::power(0.8, 0.5, 2.0)))
        .server_type(ServerType::new("big", d3_m, 4.0, 1.0, CostModel::quadratic(1.0, 0.5, 0.3)))
        .loads(tiled_diurnal(d3_t, 0.1 * d3_cap, 0.5 * d3_cap))
        .build()
        .expect("d=3 instance feasible");

    vec![
        Scenario { name: "diurnal_reference", instance: reference },
        Scenario { name: "bursty_mmpp", instance: bursty },
        Scenario { name: "time_dependent_costs", instance: time_dependent },
        Scenario { name: "three_types", instance: three_types },
    ]
}

fn main() {
    let mut bench = Bench::from_args("dp_pipeline");
    for sc in scenarios(bench.quick) {
        let inst = &sc.instance;
        let opts = DpOptions::pipelined();
        let oracle = Dispatcher::new();

        // Warm-up (page in code paths), then timed runs.
        let _ = solve_with_stats(inst, &oracle, opts);
        let ((res, stats), pipeline) = bench.time(|| solve_with_stats(inst, &oracle, opts));

        // Correctness gates (always enforced).
        if let Err(e) = res.schedule.check_feasible(inst) {
            panic!("{}: infeasible schedule: {e}", sc.name);
        }
        let evaluated = evaluate(inst, &res.schedule, &oracle).total();
        let eval_gap_rel = (evaluated - res.cost).abs() / res.cost.abs().max(1.0);
        assert!(
            eval_gap_rel <= 1e-9,
            "{}: evaluated schedule cost {evaluated} vs reported {} (gap {eval_gap_rel:e})",
            sc.name,
            res.cost
        );

        bench.row(
            Row::new(sc.name)
                .field("d", inst.num_types())
                .field("horizon", inst.horizon())
                .ms("pipeline_ms", pipeline)
                .field("cost", format!("{:.6}", res.cost))
                .field("eval_gap_rel", format!("{eval_gap_rel:.3e}"))
                .field("segment_len", stats.segment_len)
                .field("checkpoints", stats.checkpoints)
                .field("peak_live_tables", stats.peak_live_tables)
                .field("pooled_pricing_tables", stats.pooled_pricing_tables),
        );
    }
    bench.finish(&[], &["results/dp_pipeline.json", "BENCH_dp.json"]);
}
