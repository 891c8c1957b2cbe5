//! End-to-end integration tests spanning all crates: scenarios flow
//! through workload generation → dispatch → offline/online solvers, and
//! every theorem-level bound holds on the way.

use heterogeneous_rightsizing::offline::dp::{solve, solve_cost_only, DpOptions};
use heterogeneous_rightsizing::offline::{approximate, brute, graph, GridMode};
use heterogeneous_rightsizing::online::algo_a::{AOptions, AlgorithmA};
use heterogeneous_rightsizing::online::algo_b::{c_constant, AlgorithmB};
use heterogeneous_rightsizing::online::algo_c::{AlgorithmC, COptions};
use heterogeneous_rightsizing::online::baselines::{AllOn, Myopic};
use heterogeneous_rightsizing::online::runner::{run, OnlineAlgorithm};
use heterogeneous_rightsizing::prelude::*;
use heterogeneous_rightsizing::workloads::scenario;

#[test]
fn diurnal_scenario_full_pipeline() {
    let inst = scenario::diurnal_cpu_gpu(5, 2, 2, 12, 11);
    let oracle = Dispatcher::new();
    let d = inst.num_types() as f64;

    let opt = solve(&inst, &oracle, DpOptions::default());
    opt.schedule.check_feasible(&inst).unwrap();

    // The graph construction agrees with the DP.
    let g = graph::solve(&inst, &oracle, GridMode::Full);
    assert!((g.cost - opt.cost).abs() < 1e-9);

    // Both online algorithms hold their bounds.
    let mut a = AlgorithmA::new(&inst, oracle, AOptions::default());
    let run_a = run(&inst, &mut a, &oracle);
    run_a.schedule.check_feasible(&inst).unwrap();
    assert!(run_a.cost() <= (2.0 * d + 1.0) * opt.cost + 1e-9);

    let mut b = AlgorithmB::new(&inst, oracle, AOptions::default());
    let run_b = run(&inst, &mut b, &oracle);
    run_b.schedule.check_feasible(&inst).unwrap();
    assert!(run_b.cost() <= (2.0 * d + 1.0 + c_constant(&inst)) * opt.cost + 1e-9);

    // The clairvoyant optimum can't be beaten by anything.
    for algo in [&run_a, &run_b] {
        assert!(algo.cost() + 1e-9 >= opt.cost);
    }
}

#[test]
fn electricity_scenario_time_dependent_pipeline() {
    let inst = scenario::electricity_market(6, 36, 12, 23);
    assert!(!inst.is_time_independent());
    let oracle = Dispatcher::new();
    let d = inst.num_types() as f64;
    let opt = solve_cost_only(&inst, &oracle, DpOptions::default());

    let mut b = AlgorithmB::new(&inst, oracle, AOptions::default());
    let run_b = run(&inst, &mut b, &oracle);
    assert!(run_b.cost() <= (2.0 * d + 1.0 + c_constant(&inst)) * opt + 1e-9);

    for eps in [0.5, 1.0] {
        let mut c = AlgorithmC::new(&inst, oracle, COptions { epsilon: eps, ..Default::default() });
        let run_c = run(&inst, &mut c, &oracle);
        run_c.schedule.check_feasible(&inst).unwrap();
        assert!(
            run_c.cost() <= (2.0 * d + 1.0 + eps) * opt + 1e-9,
            "eps={eps}: {} > {}",
            run_c.cost(),
            (2.0 * d + 1.0 + eps) * opt
        );
        assert!(c.realized_c() <= eps + 1e-12);
    }
}

#[test]
fn expansion_scenario_time_varying_sizes() {
    let inst = scenario::expansion(24);
    assert!(inst.has_time_varying_counts());
    let oracle = Dispatcher::new();

    let exact = solve(&inst, &oracle, DpOptions::default());
    exact.schedule.check_feasible(&inst).unwrap();
    for (t, cfg) in exact.schedule.iter() {
        for j in 0..inst.num_types() {
            assert!(cfg.count(j) <= inst.server_count(t, j));
        }
    }
    let apx = approximate(&inst, &oracle, 0.5);
    apx.result.schedule.check_feasible(&inst).unwrap();
    assert!(apx.result.cost <= 1.5 * exact.cost + 1e-9);
    assert!(apx.result.cost + 1e-9 >= exact.cost);
}

#[test]
fn bursty_scenario_baselines_never_beat_opt() {
    let inst = scenario::bursty_old_new(3, 3, 24, 5);
    let oracle = Dispatcher::new();
    let opt = solve_cost_only(&inst, &oracle, DpOptions::default());
    let mut algos: Vec<Box<dyn OnlineAlgorithm>> = vec![
        Box::new(AllOn),
        Box::new(Myopic::new(oracle, false)),
        Box::new(Myopic::new(oracle, true)),
        Box::new(AlgorithmA::new(&inst, oracle, AOptions::default())),
    ];
    for algo in algos.iter_mut() {
        let outcome = run(&inst, algo.as_mut(), &oracle);
        outcome.schedule.check_feasible(&inst).unwrap();
        assert!(outcome.cost() + 1e-9 >= opt, "{} beat the clairvoyant optimum", outcome.name);
    }
}

#[test]
fn brute_force_agrees_on_tiny_scenario() {
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 2, 1.5, 1.0, CostModel::linear(0.5, 1.0)))
        .server_type(ServerType::new("b", 1, 3.0, 2.0, CostModel::power(0.8, 0.4, 2.0)))
        .loads(vec![1.0, 3.0, 0.5, 2.0])
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    let dp = solve(&inst, &oracle, DpOptions::default());
    let bf = brute::solve(&inst, &oracle);
    assert!((dp.cost - bf.cost).abs() < 1e-9);
}

#[test]
fn cost_breakdown_consistency_across_crates() {
    let inst = scenario::adversarial_probe(2, 20, 3);
    let oracle = Dispatcher::new();
    let opt = solve(&inst, &oracle, DpOptions::default());
    let bd = heterogeneous_rightsizing::core::objective::evaluate(&inst, &opt.schedule, &oracle);
    assert!((bd.total() - opt.cost).abs() < 1e-9);
    let slots =
        heterogeneous_rightsizing::core::objective::per_slot_costs(&inst, &opt.schedule, &oracle);
    let sum: f64 = slots.iter().map(|s| s.operating + s.switching).sum();
    assert!((sum - opt.cost).abs() < 1e-8);
}
