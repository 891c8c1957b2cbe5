//! Theorem-level bound checks across instance families — the "does the
//! reproduction actually satisfy the paper's guarantees" test file.
//!
//! Complements the per-crate property tests with hand-picked structured
//! families: ski-rental boundary cases, degenerate costs, and the exact
//! special cases the paper calls out.

use heterogeneous_rightsizing::offline::dp::{solve, solve_cost_only, DpOptions};
use heterogeneous_rightsizing::offline::GridMode;
use heterogeneous_rightsizing::online::algo_a::{AOptions, AlgorithmA};
use heterogeneous_rightsizing::online::algo_b::{c_constant, AlgorithmB};
use heterogeneous_rightsizing::online::lcp::LazyCapacityProvisioning;
use heterogeneous_rightsizing::online::runner::run;
use heterogeneous_rightsizing::prelude::*;

fn ratio_a(inst: &Instance) -> f64 {
    let oracle = Dispatcher::new();
    let mut a = AlgorithmA::new(inst, oracle, AOptions::default());
    let online = run(inst, &mut a, &oracle);
    online.schedule.check_feasible(inst).unwrap();
    let opt = solve_cost_only(inst, &oracle, DpOptions::default());
    online.ratio_vs(opt)
}

#[test]
fn ski_rental_boundary_beta_equals_idle_times_gap() {
    // Gap exactly equals t̄: the keep-vs-kill decision is a tie; both
    // the algorithm and OPT remain well-defined, bound holds.
    for gap in 1..6usize {
        let beta = gap as f64; // idle = 1 → t̄ = gap
        let mut loads = vec![1.0];
        loads.extend(std::iter::repeat_n(0.0, gap));
        loads.push(1.0);
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 1, beta, 1.0, CostModel::constant(1.0)))
            .loads(loads)
            .build()
            .unwrap();
        let r = ratio_a(&inst);
        assert!(r <= 3.0 + 1e-9, "gap={gap}: ratio {r} > 3");
    }
}

#[test]
fn single_slot_instances() {
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 3, 5.0, 1.0, CostModel::linear(1.0, 1.0)))
        .server_type(ServerType::new("b", 1, 1.0, 4.0, CostModel::constant(2.0)))
        .loads(vec![3.0])
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    let opt = solve(&inst, &oracle, DpOptions::default());
    // One slot: the online algorithm must equal the prefix optimum.
    let mut a = AlgorithmA::new(&inst, oracle, AOptions::default());
    let online = run(&inst, &mut a, &oracle);
    assert!((online.cost() - opt.cost).abs() < 1e-9);
}

#[test]
fn zero_load_everywhere_costs_nothing() {
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 3, 5.0, 1.0, CostModel::linear(1.0, 1.0)))
        .loads(vec![0.0; 6])
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    let opt = solve(&inst, &oracle, DpOptions::default());
    assert_eq!(opt.cost, 0.0);
    let mut a = AlgorithmA::new(&inst, oracle, AOptions::default());
    let online = run(&inst, &mut a, &oracle);
    assert_eq!(online.cost(), 0.0, "no demand → no servers → no cost");
}

#[test]
fn free_switching_makes_online_near_optimal_per_slot() {
    // β = 0: A powers servers up/down freely; schedule must stay within
    // the trivially valid 2d+1 bound and is usually near per-slot optimal.
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 4, 0.0, 1.0, CostModel::linear(0.5, 1.0)))
        .loads(vec![1.0, 4.0, 0.0, 2.0, 3.0])
        .build()
        .unwrap();
    let r = ratio_a(&inst);
    assert!(r <= 3.0 + 1e-9, "ratio {r}");
}

#[test]
fn zero_idle_cost_servers_never_retire() {
    // f(0) = 0: keeping a server on is free; t̄ = ∞. A powers up
    // monotonically; bound still holds because OPT also never pays idle.
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::linear(0.0, 1.0)))
        .loads(vec![1.0, 3.0, 0.0, 0.0, 2.0, 0.0, 3.0])
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    let mut a = AlgorithmA::new(&inst, oracle, AOptions::default());
    assert_eq!(a.runtime(0), None);
    let online = run(&inst, &mut a, &oracle);
    // counts never decrease
    let mut prev = 0;
    for (_, cfg) in online.schedule.iter() {
        assert!(cfg.count(0) >= prev);
        prev = cfg.count(0);
    }
    let opt = solve_cost_only(&inst, &oracle, DpOptions::default());
    assert!(online.cost() <= 3.0 * opt + 1e-9);
}

#[test]
fn inefficient_server_types_are_handled() {
    // Type b is strictly worse (higher β AND higher idle AND same
    // capacity): excluded by the CIAC'21 paper, explicitly allowed here
    // (Section 2 closing remark).
    let inst = Instance::builder()
        .server_type(ServerType::new("good", 2, 1.0, 1.0, CostModel::constant(1.0)))
        .server_type(ServerType::new("bad", 2, 5.0, 1.0, CostModel::constant(3.0)))
        .loads(vec![2.0, 4.0, 1.0, 3.0])
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    let mut a = AlgorithmA::new(&inst, oracle, AOptions::default());
    let online = run(&inst, &mut a, &oracle);
    online.schedule.check_feasible(&inst).unwrap();
    let opt = solve_cost_only(&inst, &oracle, DpOptions::default());
    assert!(online.cost() <= 5.0 * opt + 1e-9); // 2d+1 = 5
}

#[test]
fn lcp_matches_dp_on_monotone_loads() {
    // Monotone increasing loads: no power-down ever helps, LCP and OPT
    // both just track the water level.
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 6, 2.0, 1.0, CostModel::constant(1.0)))
        .loads(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    let mut lcp = LazyCapacityProvisioning::new(&inst, oracle);
    let online = run(&inst, &mut lcp, &oracle);
    let opt = solve_cost_only(&inst, &oracle, DpOptions::default());
    assert!((online.cost() - opt).abs() < 1e-9, "{} vs {opt}", online.cost());
}

#[test]
fn theorem_13_with_extreme_price_swings() {
    // 100× price spikes: c(I) is large, the bound degrades gracefully
    // and still holds.
    let price: Vec<f64> = (0..12).map(|t| if t % 4 == 3 { 10.0 } else { 0.1 }).collect();
    let inst = Instance::builder()
        .server_type(ServerType::with_spec(
            "a",
            3,
            2.0,
            1.0,
            CostSpec::scaled(CostModel::constant(1.0), price),
        ))
        .loads(vec![1.0, 2.0, 0.0, 3.0, 1.0, 0.0, 2.0, 0.0, 1.0, 3.0, 0.0, 2.0])
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    let mut b = AlgorithmB::new(&inst, oracle, AOptions::default());
    let online = run(&inst, &mut b, &oracle);
    online.schedule.check_feasible(&inst).unwrap();
    let opt = solve_cost_only(&inst, &oracle, DpOptions::default());
    let bound = (2.0 + 1.0 + c_constant(&inst)) * opt;
    assert!(online.cost() <= bound + 1e-9);
    assert!(c_constant(&inst) >= 4.9, "c(I) should be large here");
}

#[test]
fn gamma_grid_contains_fleet_bound_always() {
    // The γ-grid must always contain 0 and m, otherwise peak loads or
    // empty valleys become infeasible.
    for m in [1u32, 2, 3, 10, 127, 1 << 20] {
        for gamma in [1.01, 1.5, 2.0, 10.0] {
            let levels = GridMode::Gamma(gamma).levels(m);
            assert_eq!(*levels.first().unwrap(), 0);
            assert_eq!(*levels.last().unwrap(), m);
        }
    }
}

#[test]
fn approximation_exact_when_grid_covers_everything() {
    // m small enough that M^γ = M: the "approximation" must be exact.
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 2, 1.0, 1.0, CostModel::linear(0.5, 1.0)))
        .loads(vec![1.0, 2.0, 0.0, 1.0])
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    let exact = solve_cost_only(&inst, &oracle, DpOptions::default());
    let apx = solve_cost_only(
        &inst,
        &oracle,
        DpOptions { grid: GridMode::Gamma(1.9), threads: Some(1), ..DpOptions::default() },
    );
    assert!((exact - apx).abs() < 1e-12, "M^γ ⊇ {{0,1,2}} = M here");
}
