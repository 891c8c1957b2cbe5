//! `robustness` — cost and latency of the fault-tolerance machinery:
//! what checkpointing, restarting, and degrading actually cost.
//!
//! Scenarios:
//!
//! * **snapshot_overhead** — Algorithm C with
//!   snapshot-every-8 against the same run without snapshots: overhead
//!   per decision, snapshot size. Gated on bit-identical schedules.
//! * **restart_resume** — kill the run at T/2, restore from the last
//!   snapshot, finish: resumed wall-clock vs a from-scratch rerun, with
//!   schedule parity gated.
//! * **degradation_ladder** — a zero-deadline [`GracefulDegrader`]
//!   (exact → coarse → hold in three decisions) against the exact run:
//!   cost ratio of degraded service and the per-decision latency of the
//!   hold rung. Gated on every rung being exercised.
//! * **eviction_storm** — runs with a capacity-1 priced-slot
//!   pool against the default pool: slowdown under constant re-pricing.
//!   Gated on identical decisions.
//!
//! Each timing is the median of five rounds, with its IQR, and every
//! ratio is taken between medians; one round runs every path once, so
//! the paths alternate. Results land in `results/robustness.json` and,
//! as the trajectory record the CI uploads, `BENCH_robust.json`.

use std::time::Duration;

use rsz_bench::harness::{tiled_diurnal, Bench, Row};
use rsz_core::{CostModel, CostSpec, Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::GridMode;
use rsz_online::algo_a::AOptions;
use rsz_online::algo_c::{AlgorithmC, COptions};
use rsz_online::degrade::{DegradeOptions, GracefulDegrader};
use rsz_online::runner::{run, OnlineAlgorithm};
use rsz_online::{restore_run, run_checkpointed, save_run};

fn workload(quick: bool) -> Instance {
    let horizon = if quick { 48 } else { 192 };
    let m = 8;
    let prices: Vec<f64> = (0..horizon)
        .map(|t| 1.0 + 0.6 * ((t % 24) as f64 / 24.0 * std::f64::consts::TAU).sin().abs())
        .collect();
    let cap = 2.0 * f64::from(m);
    let loads = tiled_diurnal(horizon, 0.1 * cap, 0.55 * cap);
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
        .loads(loads)
        .build()
        .expect("robustness workload feasible")
}

fn algo(inst: &Instance, base: AOptions) -> AlgorithmC<Dispatcher> {
    AlgorithmC::new(inst, Dispatcher::new(), COptions { epsilon: 0.25, base, ..Default::default() })
}

fn main() {
    let mut bench = Bench::from_args("robustness");
    let inst = workload(bench.quick);
    let oracle = Dispatcher::new();
    let horizon = inst.horizon();

    // Each round runs every path once, so whatever the machine does over
    // the rounds falls on every path, and every ratio, alike.
    let ((base_algo, baseline, snaps, restored_at, degraded, stats), laps) = bench.repeat(|laps| {
        // Baseline: uninterrupted engine run.
        let mut base_algo = algo(&inst, AOptions::default());
        let baseline = laps.time(|| run(&inst, &mut base_algo, &oracle));

        // snapshot_overhead: the same run, checkpointed every 8 slots.
        let mut snaps: Vec<Vec<u8>> = Vec::new();
        let mut snap_algo = algo(&inst, AOptions::default());
        let (snapped, _) = laps
            .time(|| {
                run_checkpointed(&inst, &mut snap_algo, &oracle, None, Some(8), |b| {
                    snaps.push(b.to_vec());
                })
            })
            .expect("checkpointed run");
        assert_eq!(snapped.schedule, baseline.schedule, "snapshotting changed the schedule");
        assert!(!snaps.is_empty(), "snapshot-every-8 must emit snapshots");

        // restart_resume: restore from the mid-horizon snapshot, finish.
        let mid = &snaps[snaps.len() / 2];
        let mut resumed_algo = algo(&inst, AOptions::default());
        let (schedule, restored_at) = laps.time(|| {
            let mut schedule =
                restore_run(&mut resumed_algo, &inst, mid).expect("mid-horizon snapshot restores");
            let restored_at = schedule.len();
            for t in restored_at..horizon {
                schedule.push(OnlineAlgorithm::decide(&mut resumed_algo, &inst, t));
            }
            (schedule, restored_at)
        });
        assert_eq!(schedule, baseline.schedule, "resumed schedule diverged");

        // degradation_ladder: zero deadline walks every rung.
        let mut degrader = GracefulDegrader::new(
            algo(&inst, AOptions::default()),
            |i: &Instance, g: GridMode| algo(i, AOptions { grid: g, ..AOptions::default() }),
            DegradeOptions { deadline: Some(Duration::ZERO), ..Default::default() },
        );
        let degraded = laps.time(|| run(&inst, &mut degrader, &oracle));
        degraded.schedule.check_feasible(&inst).expect("held schedule feasible");
        let stats = degrader.stats().clone();
        assert_eq!(stats.exact, 1, "zero deadline grants exactly one exact decision");
        assert_eq!(stats.coarse, 1, "one coarse decision before the hold rung");
        assert_eq!(stats.hold, horizon as u64 - 2, "hold is terminal");

        // eviction_storm: capacity-1 pool vs the default pool.
        let mut storm_algo =
            algo(&inst, AOptions { pool_capacity: Some(1), ..AOptions::default() });
        let stormy = laps.time(|| run(&inst, &mut storm_algo, &oracle));
        assert_eq!(stormy.schedule, baseline.schedule, "eviction storm changed decisions");
        (base_algo, baseline, snaps, restored_at, degraded, stats)
    });
    let [calm, snapshotting, resume, ladder, storm] = laps;

    let snap_bytes = snaps.last().map_or(0, Vec::len);
    let overhead_pct = 100.0 * (snapshotting.median - calm.median).max(0.0) / calm.median;
    bench.row(
        Row::new("snapshot_overhead")
            .ms("baseline_ms", calm)
            .ms("snapshotting_ms", snapshotting)
            .num("overhead_pct", overhead_pct)
            .field("snapshots", snaps.len())
            .field("snapshot_bytes", snap_bytes),
    );
    bench.row(
        Row::new("restart_resume")
            .field("restored_slots", restored_at)
            .field("resumed_slots", horizon - restored_at)
            .ms("resume_ms", resume)
            .ms("rerun_ms", calm)
            .num("restart_win", calm.median / resume.median),
    );
    let hold_cost_ratio = degraded.cost() / baseline.cost();
    bench.row(
        Row::new("degradation_ladder")
            .field("exact", stats.exact)
            .field("coarse", stats.coarse)
            .field("hold", stats.hold)
            .field("saturated", stats.saturated)
            .ms("ladder_ms", ladder)
            .num("hold_cost_ratio", hold_cost_ratio),
    );
    bench.row(
        Row::new("eviction_storm")
            .ms("calm_ms", calm)
            .ms("storm_ms", storm)
            .num("slowdown", storm.median / calm.median),
    );

    // One mid-run snapshot must also round-trip through disk bytes.
    let probe = save_run(&base_algo, &inst, &baseline.schedule);
    assert!(!probe.is_empty());

    bench.finish(
        &[
            ("horizon", horizon.to_string()),
            ("snapshot_bytes", snap_bytes.to_string()),
            ("hold_cost_ratio", format!("{hold_cost_ratio:.3}")),
        ],
        &["results/robustness.json", "BENCH_robust.json"],
    );
}
