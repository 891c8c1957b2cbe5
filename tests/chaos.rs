//! Chaos suite: every shipping controller, driven through the seeded
//! fault matrix, must never panic, never emit an infeasible schedule,
//! and degrade *boundedly* — while checkpoint/restore stays
//! bit-identical and corrupted snapshots fail structurally.
//!
//! The fault classes come from `rsz_workloads::faultinject` (poisoned
//! traces, truncation, eviction storms, snapshot corruption) and
//! `rsz_workloads::events` (machine failures/returns, price shocks,
//! flash crowds, trace gaps). Set `CHAOS_QUICK=1` to run a quick
//! subset of the seed matrix; CI runs all of it.

use std::time::Duration;

use heterogeneous_rightsizing::offline::{shared_pool, RefineOptions, SnapshotError};
use heterogeneous_rightsizing::online::algo_a::{AOptions, AlgorithmA};
use heterogeneous_rightsizing::online::algo_b::AlgorithmB;
use heterogeneous_rightsizing::online::algo_c::{AlgorithmC, COptions};
use heterogeneous_rightsizing::online::runner::{run, OnlineAlgorithm};
use heterogeneous_rightsizing::online::{
    restore_run, save_run, Checkpoint, Controller, DegradeOptions, GracefulDegrader,
    LazyCapacityProvisioning, RecedingHorizon,
};
use heterogeneous_rightsizing::prelude::*;
use heterogeneous_rightsizing::workloads::events::{apply, CapacityEvent, GapPolicy};
use heterogeneous_rightsizing::workloads::{faultinject, io};

/// The seeded fault matrix: a quick CI subset or the full sweep.
fn seeds() -> Vec<u64> {
    if std::env::var_os("CHAOS_QUICK").is_some() {
        vec![7, 42]
    } else {
        vec![7, 21, 42, 99, 123, 2024]
    }
}

const HORIZON: usize = 16;

/// A deterministic base trace, peak 5.5 — strictly inside both fleets'
/// capacity so fault-free runs never saturate.
fn base_loads(horizon: usize) -> Vec<f64> {
    (0..horizon)
        .map(|t| {
            let phase = t as f64 / 8.0 * std::f64::consts::TAU;
            2.75 + 2.25 * phase.sin() + 0.5 * ((t % 3) as f64 - 1.0).abs()
        })
        .collect()
}

/// Heterogeneous two-type fleet, total capacity 3·1 + 2·2 = 7.
fn hetero(loads: Vec<f64>) -> Instance {
    Instance::builder()
        .server_type(ServerType::new("s", 3, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
        .server_type(ServerType::new("f", 2, 5.0, 2.0, CostModel::constant(1.2)))
        .loads(loads)
        .build()
        .unwrap()
}

/// Homogeneous fleet for LCP, total capacity 8.
fn homog(loads: Vec<f64>) -> Instance {
    Instance::builder()
        .server_type(ServerType::new("m", 8, 3.0, 1.0, CostModel::linear(0.5, 1.0)))
        .loads(loads)
        .build()
        .unwrap()
}

/// Run one controller, assert the schedule is feasible and the cost
/// finite, return the cost.
fn run_checked(instance: &Instance, algo: &mut dyn OnlineAlgorithm, label: &str) -> f64 {
    let oracle = Dispatcher::new();
    let r = run(instance, algo, &oracle);
    r.schedule
        .check_feasible(instance)
        .unwrap_or_else(|e| panic!("{label}: infeasible schedule: {e}"));
    assert!(r.cost().is_finite(), "{label}: non-finite cost {}", r.cost());
    r.cost()
}

/// Drive the full algorithm matrix (A/B/C, RHC × refine on the
/// heterogeneous instance; LCP on the homogeneous one) and
/// return every run's cost, keyed by configuration. Algorithm A is
/// skipped on time-dependent instances (price shocks push the costs out
/// of its Section 2 model — B/C territory by design, not a fault).
fn run_matrix(het: &Instance, hom: &Instance, label: &str) -> Vec<(String, f64)> {
    let oracle = Dispatcher::new();
    let mut costs = Vec::new();
    let opts = AOptions::default();
    if het.is_time_independent() {
        let mut a = AlgorithmA::new(het, oracle, opts);
        costs.push(("a".into(), run_checked(het, &mut a, &format!("{label}/a"))));
    }
    let mut b = AlgorithmB::new(het, oracle, opts);
    costs.push(("b".into(), run_checked(het, &mut b, &format!("{label}/b"))));
    let mut c =
        AlgorithmC::new(het, oracle, COptions { epsilon: 0.5, base: opts, ..Default::default() });
    costs.push(("c".into(), run_checked(het, &mut c, &format!("{label}/c"))));
    let mut l = LazyCapacityProvisioning::with_options(hom, oracle, opts.dp_options());
    costs.push(("lcp".into(), run_checked(hom, &mut l, &format!("{label}/lcp"))));
    for refine in [None, Some(RefineOptions::exact())] {
        let dp = DpOptions { refine, ..DpOptions::default() };
        let mut rhc = RecedingHorizon::new(oracle, 4).with_options(dp);
        let tag = if refine.is_some() { "rhc/refine" } else { "rhc" };
        costs.push((tag.into(), run_checked(het, &mut rhc, &format!("{label}/{tag}"))));
    }
    costs
}

#[test]
fn fault_matrix_no_panics_and_bounded_degradation() {
    let clean_costs =
        run_matrix(&hetero(base_loads(HORIZON)), &homog(base_loads(HORIZON)), "clean");
    for seed in seeds() {
        let plan = faultinject::plan(seed, HORIZON);

        // Poisoned raw feed round-trips through file ingestion: strict
        // rejects it, interpolate repairs every poisoned slot.
        let poisoned = plan.poison(&base_loads(HORIZON));
        let path = std::env::temp_dir().join(format!("rsz-chaos-{seed}.csv"));
        let body: String = poisoned.iter().map(|v| format!("{v}\n")).collect();
        std::fs::write(&path, body).unwrap();
        assert!(
            matches!(
                io::read_trace_with(&path, io::RepairPolicy::Strict),
                Err(io::TraceError::BadValue { .. })
            ),
            "seed {seed}: strict ingestion accepted poisoned loads"
        );
        let (trace, report) = io::read_trace_with(&path, io::RepairPolicy::Interpolate).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.repairs.len(), plan.poisoned.len(), "seed {seed}");
        assert!(trace.values().iter().all(|v| v.is_finite() && *v >= 0.0), "seed {seed}");

        // Truncated feed: the horizon shrinks, everything still runs.
        let cut = plan.truncate(&trace.clone().into_values());
        assert!(!cut.is_empty() && cut.len() < HORIZON, "seed {seed}");

        // Capacity events on top of the repaired full-length trace.
        let events = [
            CapacityEvent::MachineFailure { t: HORIZON / 4, j: 0, count: 1 },
            CapacityEvent::MachineReturn { t: HORIZON / 2, j: 0, count: 1 },
            CapacityEvent::PriceShock { t: HORIZON / 3, duration: 3, factor: 1.5 },
            CapacityEvent::FlashCrowd { t: HORIZON / 2, duration: 2, factor: 1.4 },
            CapacityEvent::TraceGap { t: 2, duration: 2, policy: GapPolicy::HoldLast },
        ];
        let het = apply(&hetero(trace.clone().into_values()), &events).unwrap();
        let hom = apply(&homog(trace.clone().into_values()), &events).unwrap();

        let faulty = run_matrix(&het.instance, &hom.instance, &format!("seed {seed}"));
        // Bounded degradation: a 1.5× price shock plus a 1.4× flash
        // crowd over sub-windows cannot blow costs past a small
        // constant of the clean run's.
        for (key, f) in &faulty {
            let (_, c) = clean_costs
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("seed {seed}: no clean baseline for {key}"));
            assert!(*f <= 10.0 * c + 10.0, "seed {seed}/{key}: cost {f} vs clean {c}");
        }

        // The truncated trace runs the matrix too (no cost baseline —
        // the horizon differs; the point is zero panics, feasibility).
        if cut.len() >= 2 {
            run_matrix(&hetero(cut.clone()), &homog(cut), &format!("seed {seed}/cut"));
        }
    }
}

/// Snapshot mid-run, restore into a fresh controller, finish, and
/// demand bit-identity with the uninterrupted run; then corrupt the
/// snapshot bytes and demand a structured [`SnapshotError`].
fn parity<A, F>(instance: &Instance, mut fresh: F, label: &str)
where
    A: OnlineAlgorithm + Checkpoint,
    F: FnMut() -> A,
{
    let oracle = Dispatcher::new();
    let mut clean = fresh();
    let want = run(instance, &mut clean, &oracle);

    let cut = instance.horizon() / 2;
    let mut first = fresh();
    let mut committed = Schedule::empty();
    for t in 0..cut {
        committed.push(first.decide(instance, t));
    }
    let snap = save_run(&first, instance, &committed);

    let mut resumed = fresh();
    let mut schedule = restore_run(&mut resumed, instance, &snap)
        .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    assert_eq!(schedule.len(), cut, "{label}");
    for t in cut..instance.horizon() {
        schedule.push(resumed.decide(instance, t));
    }
    assert_eq!(schedule, want.schedule, "{label}: resumed schedule diverged");

    // Every seeded bit flip must surface as an error — never a panic,
    // never a silent restore into garbage state.
    for seed in seeds() {
        let plan = faultinject::plan(seed, instance.horizon());
        let mut bytes = snap.clone();
        plan.corrupt(&mut bytes);
        let mut victim = fresh();
        let err: Result<Schedule, SnapshotError> = restore_run(&mut victim, instance, &bytes);
        assert!(err.is_err(), "{label}: corrupted snapshot restored (seed {seed})");
    }
}

#[test]
fn restart_resume_parity_across_the_matrix() {
    let het = hetero(base_loads(HORIZON));
    let hom = homog(base_loads(HORIZON));
    let oracle = Dispatcher::new();
    let opts = AOptions::default();
    parity(&het, || AlgorithmA::new(&het, oracle, opts), "a");
    parity(&het, || AlgorithmB::new(&het, oracle, opts), "b");
    parity(
        &het,
        || {
            AlgorithmC::new(
                &het,
                oracle,
                COptions { epsilon: 0.5, base: opts, ..Default::default() },
            )
        },
        "c",
    );
    parity(&hom, || LazyCapacityProvisioning::with_options(&hom, oracle, opts.dp_options()), "lcp");
    for refine in [None, Some(RefineOptions::exact())] {
        let dp = DpOptions { refine, ..DpOptions::default() };
        parity(
            &het,
            || RecedingHorizon::new(oracle, 4).with_options(dp),
            if refine.is_some() { "rhc/refine" } else { "rhc" },
        );
    }
}

/// Assert the zero-deadline ladder walked every rung: one exact
/// decision, one coarse, hold for the rest — and the held schedule is
/// still feasible.
fn assert_full_ladder<A, F>(instance: &Instance, inner: A, factory: F, label: &str)
where
    A: OnlineAlgorithm,
    F: FnMut(&Instance, GridMode) -> A,
{
    let oracle = Dispatcher::new();
    let opts = DegradeOptions { deadline: Some(Duration::ZERO), ..Default::default() };
    let mut degrader = GracefulDegrader::new(inner, factory, opts);
    let r = run(instance, &mut degrader, &oracle);
    r.schedule
        .check_feasible(instance)
        .unwrap_or_else(|e| panic!("{label}: held schedule infeasible: {e}"));
    let s = degrader.stats();
    let t = instance.horizon() as u64;
    assert_eq!((s.exact, s.coarse, s.hold), (1, 1, t - 2), "{label}: rung counters");
    assert_eq!(s.decisions(), t, "{label}: decision count");
}

#[test]
fn zero_deadline_ladder_exercises_every_rung_for_every_algorithm() {
    let het = hetero(base_loads(12));
    let hom = homog(base_loads(12));
    let oracle = Dispatcher::new();
    assert_full_ladder(
        &het,
        AlgorithmA::new(&het, oracle, AOptions::default()),
        |i, g| AlgorithmA::new(i, oracle, AOptions { grid: g }),
        "a",
    );
    assert_full_ladder(
        &het,
        AlgorithmB::new(&het, oracle, AOptions::default()),
        |i, g| AlgorithmB::new(i, oracle, AOptions { grid: g }),
        "b",
    );
    assert_full_ladder(
        &het,
        AlgorithmC::new(&het, oracle, COptions::default()),
        |i, g| {
            AlgorithmC::new(
                i,
                oracle,
                COptions { base: AOptions { grid: g }, ..COptions::default() },
            )
        },
        "c",
    );
    assert_full_ladder(
        &hom,
        LazyCapacityProvisioning::new(&hom, oracle),
        |i, g| {
            LazyCapacityProvisioning::with_options(
                i,
                oracle,
                DpOptions { grid: g, ..DpOptions::default() },
            )
        },
        "lcp",
    );
    assert_full_ladder(
        &het,
        RecedingHorizon::new(oracle, 4),
        |_, g| {
            RecedingHorizon::new(oracle, 4)
                .with_options(DpOptions { grid: g, ..DpOptions::default() })
        },
        "rhc",
    );
}

#[test]
fn eviction_storm_never_changes_decisions() {
    let het = hetero(base_loads(HORIZON));
    let hom = homog(base_loads(HORIZON));
    let oracle = Dispatcher::new();
    for seed in seeds() {
        let plan = faultinject::plan(seed, HORIZON);
        // The storm: a pool of one or two slots in place of the default.
        let storm = |inst: &Instance| shared_pool(inst, plan.pool_capacity);
        let calm = AOptions::default();

        let mut a1 = AlgorithmA::new(&het, oracle, calm);
        a1.share_pool(storm(&het));
        let mut a2 = AlgorithmA::new(&het, oracle, calm);
        let stormy = run(&het, &mut a1, &oracle);
        let smooth = run(&het, &mut a2, &oracle);
        assert_eq!(stormy.schedule, smooth.schedule, "seed {seed}: a");
        assert_eq!(stormy.cost().to_bits(), smooth.cost().to_bits(), "seed {seed}: a");

        let mut c1 = AlgorithmC::new(&het, oracle, COptions::default());
        c1.share_pool(storm(&het));
        let mut c2 = AlgorithmC::new(&het, oracle, COptions::default());
        let stormy = run(&het, &mut c1, &oracle);
        let smooth = run(&het, &mut c2, &oracle);
        assert_eq!(stormy.schedule, smooth.schedule, "seed {seed}: c");

        let mut l1 = LazyCapacityProvisioning::with_options(&hom, oracle, calm.dp_options());
        l1.share_pool(storm(&hom));
        let mut l2 = LazyCapacityProvisioning::with_options(&hom, oracle, calm.dp_options());
        let stormy = run(&hom, &mut l1, &oracle);
        let smooth = run(&hom, &mut l2, &oracle);
        assert_eq!(stormy.schedule, smooth.schedule, "seed {seed}: lcp");

        // RHC pools per window internally: its bound is a window option.
        let storm_dp = DpOptions { pool_capacity: Some(plan.pool_capacity), ..calm.dp_options() };
        let mut r1 = RecedingHorizon::new(oracle, 4).with_options(storm_dp);
        let mut r2 = RecedingHorizon::new(oracle, 4).with_options(calm.dp_options());
        let stormy = run(&het, &mut r1, &oracle);
        let smooth = run(&het, &mut r2, &oracle);
        assert_eq!(stormy.schedule, smooth.schedule, "seed {seed}: rhc");
    }
}
