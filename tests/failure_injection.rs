//! Failure injection: malformed inputs must produce errors, not panics
//! or silent nonsense; boundary conditions must be handled exactly.

use heterogeneous_rightsizing::core::InstanceError;
use heterogeneous_rightsizing::offline::dp::{solve, solve_cost_only, DpOptions};
use heterogeneous_rightsizing::offline::{brute, GridMode};
use heterogeneous_rightsizing::online::algo_a::{AOptions, AlgorithmA};
use heterogeneous_rightsizing::online::runner::run;
use heterogeneous_rightsizing::prelude::*;
use std::sync::Arc;

#[test]
fn negative_load_rejected() {
    let err = Instance::builder()
        .server_type(ServerType::new("a", 1, 1.0, 1.0, CostModel::constant(1.0)))
        .loads(vec![1.0, -0.1])
        .build();
    assert!(matches!(err, Err(InstanceError::BadLoad { t: 1, .. })));
}

#[test]
fn nan_load_rejected() {
    let err = Instance::builder()
        .server_type(ServerType::new("a", 1, 1.0, 1.0, CostModel::constant(1.0)))
        .loads(vec![f64::NAN])
        .build();
    assert!(matches!(err, Err(InstanceError::BadLoad { .. })));
}

#[test]
fn zero_capacity_rejected() {
    let err = Instance::builder()
        .server_type(ServerType::new("a", 1, 1.0, 0.0, CostModel::constant(1.0)))
        .loads(vec![0.0])
        .build();
    assert!(matches!(err, Err(InstanceError::BadServerType { .. })));
}

#[test]
fn negative_switching_cost_rejected() {
    let err = Instance::builder()
        .server_type(ServerType::new("a", 1, -1.0, 1.0, CostModel::constant(1.0)))
        .loads(vec![0.0])
        .build();
    assert!(matches!(err, Err(InstanceError::BadServerType { .. })));
}

#[test]
fn decreasing_custom_cost_rejected() {
    #[derive(Debug)]
    struct Decreasing;
    impl heterogeneous_rightsizing::core::CostFunction for Decreasing {
        fn eval(&self, z: f64) -> f64 {
            (10.0 - z).max(0.0)
        }
    }
    let err = Instance::builder()
        .server_type(ServerType::new("a", 1, 1.0, 4.0, CostModel::Custom(Arc::new(Decreasing))))
        .loads(vec![1.0])
        .build();
    assert!(matches!(err, Err(InstanceError::NonConvexCost { .. })));
}

#[test]
fn nan_producing_custom_cost_rejected() {
    #[derive(Debug)]
    struct Nanny;
    impl heterogeneous_rightsizing::core::CostFunction for Nanny {
        fn eval(&self, z: f64) -> f64 {
            if z > 0.5 {
                f64::NAN
            } else {
                z
            }
        }
    }
    let err = Instance::builder()
        .server_type(ServerType::new("a", 1, 1.0, 1.0, CostModel::Custom(Arc::new(Nanny))))
        .loads(vec![0.5])
        .build();
    assert!(matches!(err, Err(InstanceError::NonConvexCost { .. })));
}

#[test]
fn load_exactly_at_capacity_is_feasible_everywhere() {
    // Boundary: λ_t = total capacity exactly. Builder, DP, online and
    // dispatch must all accept it without floating-point drama.
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 3, 1.0, 1.0, CostModel::linear(0.5, 1.0)))
        .server_type(ServerType::new("b", 2, 2.0, 1.5, CostModel::linear(0.5, 2.0)))
        .loads(vec![6.0, 6.0, 6.0])
        .build()
        .expect("exact-capacity loads are feasible");
    let oracle = Dispatcher::new();
    let opt = solve(&inst, &oracle, DpOptions::default());
    assert!(opt.cost.is_finite());
    assert_eq!(opt.schedule.config(0).counts(), &[3, 2]);
    let mut a = AlgorithmA::new(&inst, oracle, AOptions::default());
    let online = run(&inst, &mut a, &oracle);
    assert!(online.cost().is_finite());
}

#[test]
fn single_server_single_slot_minimal_instance() {
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 1, 1.0, 1.0, CostModel::constant(1.0)))
        .loads(vec![1.0])
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    assert!((solve_cost_only(&inst, &oracle, DpOptions::default()) - 2.0).abs() < 1e-12);
    let bf = brute::solve(&inst, &oracle);
    assert!((bf.cost - 2.0).abs() < 1e-12);
}

#[test]
fn huge_switching_cost_never_overflows() {
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 2, 1e12, 1.0, CostModel::constant(1e-9)))
        .loads(vec![1.0, 0.0, 2.0])
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    let opt = solve(&inst, &oracle, DpOptions::default());
    assert!(opt.cost.is_finite());
    // With β enormous, a power-down (which forces a later re-power-up)
    // is never worth it: active counts are non-decreasing.
    let mut prev = 0;
    for (_, cfg) in opt.schedule.iter() {
        assert!(cfg.count(0) >= prev, "OPT powered down despite β = 1e12");
        prev = cfg.count(0);
    }
    // And the total switching cost is exactly 2 β (each server once).
    assert!((opt.schedule.switching_cost(&inst) - 2e12).abs() < 1.0);
}

#[test]
fn zero_switching_zero_idle_degenerate() {
    // Everything free except load-dependent power: OPT = load tracking.
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 4, 0.0, 1.0, CostModel::linear(0.0, 1.0)))
        .loads(vec![1.0, 3.0, 2.0])
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    let opt = solve(&inst, &oracle, DpOptions::default());
    // cost = Σ λ_t (rate 1, idle 0, switching 0)
    assert!((opt.cost - 6.0).abs() < 1e-9);
}

#[test]
fn gamma_grid_on_tiny_fleet_is_total() {
    // m = 1: the γ-grid must be {0, 1} for every γ; solvers agree.
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 1, 1.0, 2.0, CostModel::linear(0.5, 1.0)))
        .loads(vec![1.0, 0.0, 2.0])
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    let exact = solve_cost_only(&inst, &oracle, DpOptions::default());
    for gamma in [1.001, 1.5, 100.0] {
        let apx = solve_cost_only(
            &inst,
            &oracle,
            DpOptions { grid: GridMode::Gamma(gamma), threads: Some(1), ..DpOptions::default() },
        );
        assert!((apx - exact).abs() < 1e-12, "gamma={gamma}");
    }
}

#[test]
fn schedule_with_wrong_dimensions_rejected() {
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 2, 1.0, 1.0, CostModel::constant(1.0)))
        .loads(vec![1.0, 1.0])
        .build()
        .unwrap();
    let bad = Schedule::from_counts(vec![vec![1, 1], vec![1, 1]]); // d=2 vs 1
    assert!(matches!(bad.check_feasible(&inst), Err(InstanceError::ScheduleShapeMismatch { .. })));
}

#[test]
fn dispatch_handles_degenerate_scales() {
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 2, 1.0, 1.0, CostModel::power(1.0, 1.0, 3.0)))
        .loads(vec![1.0])
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    // zero volume, zero scale, capacity-exact volume
    assert_eq!(oracle.g_value(&inst, 0, &[0], 0.0, 1.0), 0.0);
    assert_eq!(oracle.g_value(&inst, 0, &[2], 1.0, 0.0), 0.0);
    assert!(oracle.g_value(&inst, 0, &[2], 2.0, 1.0).is_finite());
    assert!(oracle.g_value(&inst, 0, &[2], 2.0 + 1e-6, 1.0).is_infinite());
}
