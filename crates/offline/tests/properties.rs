//! Property-based tests for the offline solvers.
//!
//! The central invariants: the distance-transform DP equals both the
//! naive transform and the independent graph implementation; DP values
//! lower-bound every explicitly enumerated schedule; γ-grids keep their
//! guarantee.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use rsz_core::{CostModel, CostSpec, Instance, Schedule, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::dp::{solve, solve_cost_only, DpOptions};
use rsz_offline::table::Table;
use rsz_offline::transform::{arrival_transform, arrival_transform_naive};
use rsz_offline::{brute, graph, GridMode};

#[derive(Clone, Debug)]
struct InstSpec {
    counts: Vec<u32>,
    betas: Vec<f64>,
    idles: Vec<f64>,
    rates: Vec<f64>,
    load_fracs: Vec<f64>,
}

fn inst_strategy(max_d: usize, max_m: u32, max_t: usize) -> impl Strategy<Value = InstSpec> {
    (1..=max_d).prop_flat_map(move |d| {
        (
            prop::collection::vec(1..=max_m, d..=d),
            prop::collection::vec(0.0..4.0_f64, d..=d),
            prop::collection::vec(0.1..2.0_f64, d..=d),
            prop::collection::vec(0.0..2.0_f64, d..=d),
            prop::collection::vec(0.0..1.0_f64, 1..=max_t),
        )
            .prop_map(|(counts, betas, idles, rates, load_fracs)| InstSpec {
                counts,
                betas,
                idles,
                rates,
                load_fracs,
            })
    })
}

fn build(spec: &InstSpec) -> Instance {
    let types: Vec<ServerType> = (0..spec.counts.len())
        .map(|j| {
            ServerType::new(
                format!("t{j}"),
                spec.counts[j],
                spec.betas[j],
                1.0,
                CostModel::linear(spec.idles[j], spec.rates[j]),
            )
        })
        .collect();
    let cap: f64 = types.iter().map(ServerType::fleet_capacity).sum();
    let loads: Vec<f64> = spec.load_fracs.iter().map(|f| f * cap).collect();
    Instance::builder()
        .server_types(types)
        .loads(loads)
        .build()
        .expect("spec instances are feasible")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scan transform equals the naive O(n²) transform on random tables
    /// with random (different) source and target grids.
    #[test]
    fn transform_equals_naive(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = rng.gen_range(1..=3);
        let rand_levels = |rng: &mut StdRng| -> Vec<Vec<u32>> {
            (0..d)
                .map(|_| {
                    let m = rng.gen_range(0..=5);
                    let mut v: Vec<u32> = (0..=m).filter(|_| rng.gen_bool(0.6)).collect();
                    if v.is_empty() {
                        v.push(0);
                    }
                    v
                })
                .collect()
        };
        let from = rand_levels(&mut rng);
        let to = rand_levels(&mut rng);
        let betas: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..3.0)).collect();
        let mut table = Table::new(from, 0.0);
        for v in table.values_mut() {
            *v = if rng.gen_bool(0.15) { f64::INFINITY } else { rng.gen_range(0.0..9.0) };
        }
        let fast = arrival_transform(&table, &to, &betas);
        let naive = arrival_transform_naive(&table, &to, &betas);
        for i in 0..fast.len() {
            let (a, b) = (fast.values()[i], naive.values()[i]);
            prop_assert!(a == b || (a - b).abs() < 1e-9, "cell {i}: {a} vs {b}");
        }
    }

    /// The DP value lower-bounds the cost of any random feasible
    /// schedule (DP optimality, tested from below).
    #[test]
    fn dp_lower_bounds_random_schedules(spec in inst_strategy(2, 3, 5), seed in 0u64..1_000) {
        let inst = build(&spec);
        let oracle = Dispatcher::new();
        let opt = solve_cost_only(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..5 {
            // Random feasible schedule: for each slot pick counts that
            // cover the load.
            let mut steps = Vec::new();
            for t in 0..inst.horizon() {
                let mut counts: Vec<u32> =
                    (0..inst.num_types()).map(|j| rng.gen_range(0..=inst.server_count(t, j))).collect();
                // raise until feasible
                let mut cap: f64 = counts
                    .iter()
                    .enumerate()
                    .map(|(j, &c)| f64::from(c) * inst.capacity(j))
                    .sum();
                let mut j = 0usize;
                while cap < inst.load(t) {
                    if counts[j] < inst.server_count(t, j) {
                        counts[j] += 1;
                        cap += inst.capacity(j);
                    }
                    j = (j + 1) % inst.num_types();
                }
                steps.push(rsz_core::Config::new(counts));
            }
            let sched = Schedule::new(steps);
            prop_assert!(sched.is_feasible(&inst));
            let cost = rsz_core::objective::evaluate(&inst, &sched, &oracle).total();
            prop_assert!(opt <= cost + 1e-9, "DP {opt} above random schedule {cost}");
        }
    }

    /// DP == independent graph implementation == brute enumeration on
    /// tiny instances.
    #[test]
    fn dp_graph_brute_agree(spec in inst_strategy(2, 2, 4)) {
        let inst = build(&spec);
        let oracle = Dispatcher::new();
        let dp = solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        let g = graph::solve(&inst, &oracle, GridMode::Full);
        let bf = brute::solve(&inst, &oracle);
        prop_assert!((dp.cost - g.cost).abs() < 1e-9, "dp {} vs graph {}", dp.cost, g.cost);
        prop_assert!((dp.cost - bf.cost).abs() < 1e-9, "dp {} vs brute {}", dp.cost, bf.cost);
        // And the recovered schedule prices to the DP value.
        let priced = rsz_core::objective::evaluate(&inst, &dp.schedule, &oracle).total();
        prop_assert!((priced - dp.cost).abs() < 1e-9);
    }

    /// γ-grid optimum is sandwiched: exact ≤ γ-DP ≤ (2γ−1)·exact.
    #[test]
    fn gamma_guarantee(spec in inst_strategy(1, 12, 6), gamma in 1.1..3.0_f64) {
        let inst = build(&spec);
        let oracle = Dispatcher::new();
        let exact = solve_cost_only(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        let apx = solve_cost_only(
            &inst,
            &oracle,
            DpOptions { grid: GridMode::Gamma(gamma), threads: Some(1), ..DpOptions::default() },
        );
        prop_assert!(apx + 1e-9 >= exact);
        prop_assert!(
            apx <= (2.0 * gamma - 1.0) * exact + 1e-9,
            "γ={gamma}: {apx} > {} · {exact}",
            2.0 * gamma - 1.0
        );
    }

    /// Monotonicity in the workload: removing the last slot never
    /// increases the optimal cost.
    #[test]
    fn prefix_costs_monotone(spec in inst_strategy(2, 3, 6)) {
        let inst = build(&spec);
        let oracle = Dispatcher::new();
        let opts = DpOptions { threads: Some(1), ..Default::default() };
        let mut prev = 0.0;
        for t in 1..=inst.horizon() {
            let c = solve_cost_only(&inst.truncated(t), &oracle, opts);
            prop_assert!(c + 1e-9 >= prev, "prefix cost decreased: {c} < {prev}");
            prev = c;
        }
    }
}

/// Acceptance gate for the checkpointed recovery: on a `T = 1024`
/// instance the solver must never hold more than `O(√T)` tables alive —
/// checkpoints plus one replayed segment (plus its pricing batch) —
/// while still recovering exactly the schedule the fully materialized
/// `O(T)`-table recovery produces.
#[test]
fn recovery_memory_is_sqrt_t_on_long_horizons() {
    use rsz_offline::dp::solve_with_stats;
    use rsz_offline::RecoveryMode;
    let horizon = 1024;
    // Time-dependent prices disable the time-independent pricing pool,
    // so the accounting below is pure checkpoints + segment replay.
    let prices: Vec<f64> = (0..horizon).map(|t| 0.8 + 0.05 * ((t % 11) as f64)).collect();
    let inst = Instance::builder()
        .server_type(ServerType::with_spec(
            "a",
            3,
            2.0,
            2.0,
            CostSpec::scaled(CostModel::power(1.0, 0.5, 2.0), prices),
        ))
        .loads((0..horizon).map(|t| 1.0 + ((t * 5) % 6) as f64 * 0.8).collect::<Vec<f64>>())
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    // Checkpointing is forced: under Auto this non-poolable instance
    // would (correctly) record backtrack pointers instead of paying the
    // replay — the machinery under test here is the checkpointed
    // recovery itself.
    let opts =
        DpOptions { threads: Some(1), recovery: RecoveryMode::Checkpointed, ..Default::default() };
    let (res, stats) = solve_with_stats(&inst, &oracle, opts);
    assert_eq!(stats.horizon, horizon);
    assert_eq!(stats.segment_len, 32, "⌈√1024⌉");
    assert_eq!(stats.checkpoints, 32);
    assert_eq!(stats.pooled_pricing_tables, 0, "time-dependent: no pool");
    // Checkpoints (≤ √T) + one replayed segment (≤ √T OPT tables) + the
    // segment's pricing batch (≤ √T) + rolling state — far below the T
    // tables full materialization holds.
    let bound = 3 * stats.segment_len + 8;
    assert!(
        stats.peak_live_tables <= bound,
        "peak {} tables exceeds O(√T) bound {bound}",
        stats.peak_live_tables
    );
    assert!(stats.peak_live_tables < horizon / 4, "not meaningfully below O(T)");
    // And the recovered schedule matches the O(T)-memory reference.
    let (full, _) = solve_with_stats(
        &inst,
        &oracle,
        DpOptions { recovery: RecoveryMode::Materialized, ..opts },
    );
    assert_eq!(full.schedule, res.schedule);
    assert_eq!(full.cost.to_bits(), res.cost.to_bits());
}
