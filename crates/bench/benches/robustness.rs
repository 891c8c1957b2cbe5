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
//! Results land in `results/robustness.json` and, as the trajectory
//! record the CI uploads, `BENCH_robust.json`.

use std::time::{Duration, Instant};

use rsz_bench::harness::{num, render_rows, tiled_diurnal, timestamp, write_records, Row};
use rsz_core::{CostModel, CostSpec, Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::GridMode;
use rsz_online::algo_a::AOptions;
use rsz_online::algo_c::{AlgorithmC, COptions};
use rsz_online::degrade::{DegradeOptions, GracefulDegrader};
use rsz_online::runner::run;
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
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let inst = workload(quick);
    let oracle = Dispatcher::new();
    let horizon = inst.horizon();
    let mut rows: Vec<Row> = Vec::new();

    // Baseline: uninterrupted engine run.
    let mut base_algo = algo(&inst, AOptions::default());
    let clock = Instant::now();
    let baseline = run(&inst, &mut base_algo, &oracle);
    let baseline_secs = clock.elapsed().as_secs_f64();

    // --- snapshot_overhead ---
    let mut snaps: Vec<Vec<u8>> = Vec::new();
    let mut snap_algo = algo(&inst, AOptions::default());
    let clock = Instant::now();
    let (snapped, _) =
        run_checkpointed(&inst, &mut snap_algo, &oracle, None, Some(8), |b| snaps.push(b.to_vec()))
            .expect("checkpointed run");
    let snapped_secs = clock.elapsed().as_secs_f64();
    assert_eq!(snapped.schedule, baseline.schedule, "snapshotting changed the schedule");
    assert!(!snaps.is_empty(), "snapshot-every-8 must emit snapshots");
    let snap_bytes = snaps.last().map_or(0, Vec::len);
    let overhead_pct = 100.0 * (snapped_secs - baseline_secs).max(0.0) / baseline_secs.max(1e-12);
    rows.push(Row {
        name: "snapshot_overhead".into(),
        fields: vec![
            ("baseline_ms".into(), num(baseline_secs * 1e3)),
            ("snapshotting_ms".into(), num(snapped_secs * 1e3)),
            ("overhead_pct".into(), num(overhead_pct)),
            ("snapshots".into(), snaps.len().to_string()),
            ("snapshot_bytes".into(), snap_bytes.to_string()),
        ],
    });

    // --- restart_resume: restore from the mid-horizon snapshot ---
    let mid = snaps[snaps.len() / 2].clone();
    let mut resumed_algo = algo(&inst, AOptions::default());
    let clock = Instant::now();
    let committed =
        restore_run(&mut resumed_algo, &inst, &mid).expect("mid-horizon snapshot restores");
    let mut schedule = committed;
    let restored_at = schedule.len();
    for t in restored_at..horizon {
        schedule.push(rsz_online::runner::OnlineAlgorithm::decide(&mut resumed_algo, &inst, t));
    }
    let resume_secs = clock.elapsed().as_secs_f64();
    assert_eq!(schedule, baseline.schedule, "resumed schedule diverged");
    rows.push(Row {
        name: "restart_resume".into(),
        fields: vec![
            ("restored_slots".into(), restored_at.to_string()),
            ("resumed_slots".into(), (horizon - restored_at).to_string()),
            ("resume_ms".into(), num(resume_secs * 1e3)),
            ("rerun_ms".into(), num(baseline_secs * 1e3)),
            ("restart_win".into(), num(baseline_secs / resume_secs.max(1e-12))),
        ],
    });

    // --- degradation_ladder: zero deadline walks every rung ---
    let ladder_opts = DegradeOptions { deadline: Some(Duration::ZERO), ..Default::default() };
    let mut degrader = GracefulDegrader::new(
        algo(&inst, AOptions::default()),
        |i: &Instance, g: GridMode| algo(i, AOptions { grid: g, ..AOptions::default() }),
        ladder_opts,
    );
    let clock = Instant::now();
    let degraded = run(&inst, &mut degrader, &oracle);
    let degraded_secs = clock.elapsed().as_secs_f64();
    degraded.schedule.check_feasible(&inst).expect("held schedule feasible");
    let stats = degrader.stats();
    assert_eq!(stats.exact, 1, "zero deadline grants exactly one exact decision");
    assert_eq!(stats.coarse, 1, "one coarse decision before the hold rung");
    assert_eq!(stats.hold, horizon as u64 - 2, "hold is terminal");
    let hold_cost_ratio = degraded.cost() / baseline.cost();
    rows.push(Row {
        name: "degradation_ladder".into(),
        fields: vec![
            ("exact".into(), stats.exact.to_string()),
            ("coarse".into(), stats.coarse.to_string()),
            ("hold".into(), stats.hold.to_string()),
            ("saturated".into(), stats.saturated.to_string()),
            ("ladder_ms".into(), num(degraded_secs * 1e3)),
            ("hold_cost_ratio".into(), num(hold_cost_ratio)),
        ],
    });

    // --- eviction_storm: capacity-1 pool vs the default pool ---
    let mut storm_algo = algo(&inst, AOptions { pool_capacity: Some(1), ..AOptions::default() });
    let clock = Instant::now();
    let stormy = run(&inst, &mut storm_algo, &oracle);
    let storm_secs = clock.elapsed().as_secs_f64();
    assert_eq!(stormy.schedule, baseline.schedule, "eviction storm changed decisions");
    rows.push(Row {
        name: "eviction_storm".into(),
        fields: vec![
            ("calm_ms".into(), num(baseline_secs * 1e3)),
            ("storm_ms".into(), num(storm_secs * 1e3)),
            ("slowdown".into(), num(storm_secs / baseline_secs.max(1e-12))),
        ],
    });

    // Console summary.
    for r in &rows {
        let fields: Vec<String> = r.fields.iter().map(|(k, v)| format!("{k} {v}")).collect();
        println!("bench: robustness/{:<20} ... {}", r.name, fields.join(" | "));
    }

    // One mid-run snapshot must also round-trip through disk bytes.
    let probe = save_run(&base_algo, &inst, &baseline.schedule);
    assert!(!probe.is_empty());

    let timestamp = timestamp();
    let runs = render_rows(&rows);
    let json = format!(
        "{{\n  \"bench\": \"robustness\",\n  \"quick\": {quick},\n  \"timestamp\": {timestamp},\n  \"horizon\": {horizon},\n  \"snapshot_bytes\": {snap_bytes},\n  \"hold_cost_ratio\": {},\n  \"runs\": [\n{runs}  ]\n}}\n",
        num(hold_cost_ratio),
    );

    write_records("robustness", &json, quick, &["results/robustness.json", "BENCH_robust.json"]);
}
