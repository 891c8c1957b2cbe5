//! The online decision engine (in-place stepping, dense priced-slot
//! reuse, sub-slot replay) against the paper's §4.1 graph formulation:
//! after every step of Algorithms A, B and LCP, the prefix solver's
//! optimum equals [`graph::solve`] on the revealed prefix (static
//! fleets, Full and Γ(1.5) grids, relative `1e-9`). Also: corridor-
//! banded RHC windows commit the plain window DP's schedule, and
//! Algorithm C prices each original slot exactly once and keeps the
//! right running sub-slot total and maximum.

use proptest::prelude::*;
use rsz_core::{CostModel, CostSpec, Instance, Schedule, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::dp::DpOptions;
use rsz_offline::{graph, GridMode};
use rsz_online::algo_a::{AOptions, AlgorithmA};
use rsz_online::algo_b::AlgorithmB;
use rsz_online::algo_c::{AlgorithmC, COptions};
use rsz_online::runner::{run, OnlineAlgorithm};
use rsz_online::{restore_run, save_run, Controller, LazyCapacityProvisioning, RecedingHorizon};

#[derive(Clone, Debug)]
struct Spec {
    d: usize,
    counts: Vec<u32>,
    betas: Vec<f64>,
    idles: Vec<f64>,
    load_fracs: Vec<f64>,
    price: Vec<f64>,
}

fn spec_strategy(max_d: usize, max_t: usize) -> impl Strategy<Value = Spec> {
    (1..=max_d).prop_flat_map(move |d| {
        (
            prop::collection::vec(1u32..=3, d..=d),
            prop::collection::vec(0.1..4.0_f64, d..=d),
            prop::collection::vec(0.1..2.0_f64, d..=d),
            prop::collection::vec(0.0..1.0_f64, 2..=max_t),
            prop::collection::vec(0.2..2.5_f64, max_t..=max_t),
        )
            .prop_map(move |(counts, betas, idles, load_fracs, price)| Spec {
                d,
                counts,
                betas,
                idles,
                load_fracs,
                price,
            })
    })
}

fn time_independent(spec: &Spec) -> Instance {
    let types: Vec<ServerType> = (0..spec.d)
        .map(|j| {
            ServerType::new(
                format!("t{j}"),
                spec.counts[j],
                spec.betas[j],
                1.0 + j as f64,
                CostModel::linear(spec.idles[j], 0.5),
            )
        })
        .collect();
    let cap: f64 = types.iter().map(ServerType::fleet_capacity).sum();
    Instance::builder()
        .server_types(types)
        .loads(spec.load_fracs.iter().map(|f| f * cap).collect::<Vec<_>>())
        .build()
        .expect("feasible by construction")
}

fn time_dependent(spec: &Spec) -> Instance {
    let horizon = spec.load_fracs.len();
    let types: Vec<ServerType> = (0..spec.d)
        .map(|j| {
            ServerType::with_spec(
                format!("t{j}"),
                spec.counts[j],
                spec.betas[j],
                1.0 + j as f64,
                CostSpec::scaled(
                    CostModel::linear(spec.idles[j], 0.5),
                    spec.price[..horizon].to_vec(),
                ),
            )
        })
        .collect();
    let cap: f64 = types.iter().map(ServerType::fleet_capacity).sum();
    Instance::builder()
        .server_types(types)
        .loads(spec.load_fracs.iter().map(|f| f * cap).collect::<Vec<_>>())
        .build()
        .expect("feasible by construction")
}

/// After every step `t`, `step(t)` (decide slot `t`, return the prefix
/// solver's optimum) must equal the graph formulation's optimum of the
/// revealed prefix `I_{t+1}` over the same grid.
fn assert_prefix_optimal(
    inst: &Instance,
    grid: GridMode,
    label: &str,
    mut step: impl FnMut(usize) -> f64,
) {
    let oracle = Dispatcher::new();
    for t in 0..inst.horizon() {
        let got = step(t);
        let want = graph::solve(&inst.truncated(t + 1), &oracle, grid).cost;
        assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
            "{label} {grid:?} t={t}: prefix optimum {got} vs graph {want}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Algorithms A (time-independent), B (time-dependent) and LCP
    /// (d = 1) track the prefix optimum of the graph formulation on
    /// both grids.
    #[test]
    fn prefix_optimum_matches_the_graph_formulation(spec in spec_strategy(2, 7)) {
        let oracle = Dispatcher::new();
        for grid in [GridMode::Full, GridMode::Gamma(1.5)] {
            let opts = AOptions { grid };
            let ti = time_independent(&spec);
            let mut a = AlgorithmA::new(&ti, oracle, opts);
            assert_prefix_optimal(&ti, grid, "A", |t| {
                a.decide(&ti, t);
                a.prefix_opt_cost()
            });

            let td = time_dependent(&spec);
            let mut b = AlgorithmB::new(&td, oracle, opts);
            assert_prefix_optimal(&td, grid, "B", |t| {
                b.decide(&td, t);
                b.core().prefix().prefix_opt_cost()
            });

            if spec.d == 1 {
                let mut l = LazyCapacityProvisioning::with_options(&ti, oracle, opts.dp_options());
                assert_prefix_optimal(&ti, grid, "LCP", |t| {
                    l.decide(&ti, t);
                    l.prefix().prefix_opt_cost()
                });
            }
        }
    }

    /// RHC with corridor-banded windows (`DpOptions::refine`) commits
    /// exactly the plain window DP's schedule, over both grids, on
    /// time-independent and time-dependent costs alike.
    #[test]
    fn rhc_schedules_invariant_under_refine(spec in spec_strategy(2, 7), window in 1usize..5) {
        use rsz_offline::refine::RefineOptions;
        let oracle = Dispatcher::new();
        for inst in [time_independent(&spec), time_dependent(&spec)] {
            for target in [GridMode::Full, GridMode::Gamma(1.5)] {
                let plain_opts = DpOptions { grid: target, ..DpOptions::default() };
                let refined_opts = DpOptions {
                    refine: Some(RefineOptions::exact().with_target(target)),
                    ..plain_opts
                };
                let mut a = RecedingHorizon::new(oracle, window).with_options(plain_opts);
                let mut b = RecedingHorizon::new(oracle, window).with_options(refined_opts);
                let plain = run(&inst, &mut a, &oracle).schedule;
                let refined = run(&inst, &mut b, &oracle).schedule;
                prop_assert_eq!(
                    &plain, &refined,
                    "w={} target={:?}: banded windows changed the schedule",
                    window, target
                );
            }
        }
    }

    /// Algorithm C keeps only the running total and maximum of ñ_t:
    /// they equal the sum and the maximum of the per-slot counts older
    /// builds logged, also across a checkpoint restore mid-run.
    #[test]
    fn algorithm_c_subslot_total_and_max_match_the_per_slot_counts(
        spec in spec_strategy(2, 7),
        eps in 0.05..1.0_f64,
    ) {
        let inst = time_dependent(&spec);
        let oracle = Dispatcher::new();
        let options = COptions { epsilon: eps, ..Default::default() };
        let mut first = AlgorithmC::new(&inst, oracle, options);
        let cut = inst.horizon() / 2;
        let mut log = Vec::new();
        let mut committed = Schedule::empty();
        for t in 0..cut {
            log.push(first.subslots_for(&inst, t));
            committed.push(first.decide(&inst, t));
        }
        let mut c = AlgorithmC::new(&inst, oracle, options);
        restore_run(&mut c, &inst, &save_run(&first, &inst, &committed)).unwrap();
        for t in cut..inst.horizon() {
            log.push(c.subslots_for(&inst, t));
            c.decide(&inst, t);
        }
        prop_assert_eq!(c.subslots_total(), log.iter().sum::<usize>());
        prop_assert_eq!(c.subslots_max(), log.iter().copied().max().unwrap_or(0));
    }

    /// Algorithm C prices each original slot exactly once, whatever ñ_t
    /// the refinement picks.
    #[test]
    fn algorithm_c_prices_each_slot_once(spec in spec_strategy(2, 7), eps in 0.1..1.0_f64) {
        let inst = time_dependent(&spec);
        let oracle = Dispatcher::new();
        let mut c =
            AlgorithmC::new(&inst, oracle, COptions { epsilon: eps, ..Default::default() });
        let _ = run(&inst, &mut c, &oracle);
        let subslots = c.subslots_total();
        let stats = c.engine_stats().expect("C prices through its prefix solver");
        prop_assert_eq!(
            stats.pricings,
            inst.horizon() as u64,
            "pricings must equal original slots (ñ total = {})", subslots
        );
        prop_assert_eq!(stats.pool_hits, (subslots - inst.horizon()) as u64);
    }
}
