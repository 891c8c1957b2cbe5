//! Cross-validation of all offline solvers on richer instance families
//! than the unit tests cover: piecewise-linear and power costs,
//! time-varying fleets, γ-grids, and the corridor witness.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rsz_core::cost::PiecewiseLinearCost;
use rsz_core::{CostModel, Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::dp::{solve, solve_cost_only, DpOptions};
use rsz_offline::rounding::{corridor_invariant_holds, corridor_schedule};
use rsz_offline::{brute, graph, relax, GridMode};

fn random_cost(rng: &mut StdRng) -> CostModel {
    match rng.gen_range(0..4) {
        0 => CostModel::constant(rng.gen_range(0.2..2.0)),
        1 => CostModel::linear(rng.gen_range(0.0..1.5), rng.gen_range(0.0..2.0)),
        2 => CostModel::power(
            rng.gen_range(0.0..1.0),
            rng.gen_range(0.1..1.5),
            rng.gen_range(1.0..3.0),
        ),
        _ => {
            // Random convex piecewise-linear curve with increasing slopes.
            let idle = rng.gen_range(0.0..1.0);
            let mut slope = rng.gen_range(0.1..1.0);
            let mut points = vec![(0.0, idle)];
            let mut z = 0.0;
            let mut c = idle;
            for _ in 0..rng.gen_range(1..4) {
                let dz = rng.gen_range(0.3..1.5);
                z += dz;
                c += slope * dz;
                points.push((z, c));
                slope += rng.gen_range(0.0..1.0);
            }
            CostModel::PiecewiseLinear(PiecewiseLinearCost::new(&points))
        }
    }
}

fn random_instance(rng: &mut StdRng, time_varying_m: bool) -> Instance {
    let d = rng.gen_range(1..=2);
    let horizon = rng.gen_range(2..=5);
    let types: Vec<ServerType> = (0..d)
        .map(|j| {
            ServerType::new(
                format!("t{j}"),
                rng.gen_range(1..=2),
                rng.gen_range(0.0..3.0),
                rng.gen_range(0.5..2.5),
                random_cost(rng),
            )
        })
        .collect();
    let mut builder = Instance::builder().server_types(types.clone());
    let counts: Option<Vec<Vec<u32>>> = if time_varying_m {
        Some(
            (0..horizon)
                .map(|_| types.iter().map(|ty| rng.gen_range(1..=ty.count)).collect())
                .collect(),
        )
    } else {
        None
    };
    let loads: Vec<f64> = (0..horizon)
        .map(|t| {
            let cap: f64 = match &counts {
                Some(m) => m[t].iter().zip(&types).map(|(&c, ty)| f64::from(c) * ty.capacity).sum(),
                None => types.iter().map(ServerType::fleet_capacity).sum(),
            };
            rng.gen_range(0.0..cap)
        })
        .collect();
    builder = builder.loads(loads);
    if let Some(m) = counts {
        builder = builder.counts_over_time(m);
    }
    builder.build().expect("random instances are feasible by construction")
}

#[test]
fn dp_graph_brute_agree_on_mixed_costs() {
    let mut rng = StdRng::seed_from_u64(2024);
    let oracle = Dispatcher::new();
    for trial in 0..40 {
        let inst = random_instance(&mut rng, false);
        let dp = solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        let g = graph::solve(&inst, &oracle, GridMode::Full);
        let bf = brute::solve(&inst, &oracle);
        assert!(
            (dp.cost - g.cost).abs() < 1e-7 * dp.cost.abs().max(1.0),
            "trial {trial}: dp {} vs graph {}",
            dp.cost,
            g.cost
        );
        assert!(
            (dp.cost - bf.cost).abs() < 1e-7 * dp.cost.abs().max(1.0),
            "trial {trial}: dp {} vs brute {}",
            dp.cost,
            bf.cost
        );
    }
}

#[test]
fn dp_equals_brute_with_time_varying_fleets() {
    let mut rng = StdRng::seed_from_u64(77);
    let oracle = Dispatcher::new();
    for trial in 0..25 {
        let inst = random_instance(&mut rng, true);
        let dp = solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        let bf = brute::solve(&inst, &oracle);
        assert!(
            (dp.cost - bf.cost).abs() < 1e-7 * dp.cost.abs().max(1.0),
            "trial {trial}: dp {} vs brute {}",
            dp.cost,
            bf.cost
        );
        dp.schedule.check_feasible(&inst).unwrap();
    }
}

#[test]
fn corridor_witness_bounds_hold_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(31);
    let oracle = Dispatcher::new();
    for _ in 0..15 {
        let m = rng.gen_range(4..=12);
        let horizon = rng.gen_range(3..=8);
        let inst = Instance::builder()
            .server_type(ServerType::new(
                "a",
                m,
                rng.gen_range(0.5..3.0),
                1.0,
                CostModel::linear(rng.gen_range(0.1..1.0), rng.gen_range(0.0..1.5)),
            ))
            .loads((0..horizon).map(|_| rng.gen_range(0.0..f64::from(m))).collect::<Vec<_>>())
            .build()
            .unwrap();
        let opt = solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        for gamma in [1.2, 1.7, 2.5] {
            let w = corridor_schedule(&inst, &opt.schedule, gamma);
            assert!(corridor_invariant_holds(&inst, &opt.schedule, &w, gamma));
            w.check_feasible(&inst).unwrap();
            let wc = rsz_core::objective::evaluate(&inst, &w, &oracle).total();
            assert!(wc <= (2.0 * gamma - 1.0) * opt.cost + 1e-9);
            // The γ-grid DP beats its witness.
            let gdp = solve_cost_only(
                &inst,
                &oracle,
                DpOptions {
                    grid: GridMode::Gamma(gamma),
                    threads: Some(1),
                    ..DpOptions::default()
                },
            );
            assert!(gdp <= wc + 1e-9);
        }
    }
}

#[test]
fn subdivision_bounds_bracket_discrete_optimum() {
    let mut rng = StdRng::seed_from_u64(5);
    let oracle = Dispatcher::new();
    let opts = DpOptions { threads: Some(1), ..Default::default() };
    for _ in 0..10 {
        let inst = random_instance(&mut rng, false);
        let discrete = solve_cost_only(&inst, &oracle, opts);
        let lb2 = relax::fractional_lower_bound(&inst, &oracle, 2, opts);
        let lb4 = relax::fractional_lower_bound(&inst, &oracle, 4, opts);
        assert!(lb4 <= lb2 + 1e-9, "finer granularity must not cost more");
        assert!(lb2 <= discrete + 1e-9, "relaxation must lower-bound the discrete optimum");
    }
}
