//! Consistency relations between the online algorithms that the paper
//! implies but never states as test cases:
//!
//! * A and B differ only in the power-down rule; on time-independent
//!   costs their runtimes differ by at most one slot, so their costs
//!   stay within each other's proven envelopes.
//! * C with `ñ_t ≡ 1` is exactly B.
//! * Actuating any algorithm's schedule reproduces its counts.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rsz_core::{CostModel, CostSpec, Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::dp::{solve_cost_only, DpOptions};
use rsz_online::actuation::{actuate, replay_matches, DownPolicy};
use rsz_online::algo_a::{AOptions, AlgorithmA};
use rsz_online::algo_b::AlgorithmB;
use rsz_online::algo_c::{AlgorithmC, COptions};
use rsz_online::runner::run;

fn random_time_independent(rng: &mut StdRng) -> Instance {
    let d = rng.gen_range(1..=2);
    let horizon = rng.gen_range(4..=10);
    let types: Vec<ServerType> = (0..d)
        .map(|j| {
            ServerType::new(
                format!("t{j}"),
                rng.gen_range(1..=3),
                rng.gen_range(0.5..4.0),
                1.0 + j as f64,
                CostModel::linear(rng.gen_range(0.2..1.5), rng.gen_range(0.0..1.0)),
            )
        })
        .collect();
    let cap: f64 = types.iter().map(ServerType::fleet_capacity).sum();
    Instance::builder()
        .server_types(types)
        .loads((0..horizon).map(|_| rng.gen_range(0.0..cap)).collect::<Vec<_>>())
        .build()
        .unwrap()
}

#[test]
fn a_and_b_both_within_their_bounds_on_time_independent_costs() {
    let mut rng = StdRng::seed_from_u64(404);
    let oracle = Dispatcher::new();
    for _ in 0..10 {
        let inst = random_time_independent(&mut rng);
        let d = inst.num_types() as f64;
        let opt =
            solve_cost_only(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        let run_a = {
            let mut a = AlgorithmA::new(&inst, oracle, AOptions::default());
            run(&inst, &mut a, &oracle)
        };
        let run_b = {
            let mut b = AlgorithmB::new(&inst, oracle, AOptions::default());
            run(&inst, &mut b, &oracle)
        };
        // Time-independent costs make B a variant of A whose runtime is
        // ⌊β/l⌋+1 instead of ⌈β/l⌉ — both satisfy Theorem 13's envelope
        // (c(I) = l/β per type).
        let c: f64 =
            (0..inst.num_types()).map(|j| inst.idle_cost(0, j) / inst.switching_cost(j)).sum();
        for r in [&run_a, &run_b] {
            assert!(
                r.cost() <= (2.0 * d + 1.0 + c) * opt + 1e-6,
                "{}: {} > {}",
                r.name,
                r.cost(),
                (2.0 * d + 1.0 + c) * opt
            );
        }
    }
}

#[test]
fn c_with_single_subslots_equals_b() {
    // Large ε forces ñ_t = 1 everywhere, making C's refined instance the
    // original — its schedule must equal B's exactly.
    let mut rng = StdRng::seed_from_u64(808);
    let oracle = Dispatcher::new();
    for _ in 0..6 {
        let d = rng.gen_range(1..=2);
        let horizon = rng.gen_range(4..=8);
        let price: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.3..1.2)).collect();
        let types: Vec<ServerType> = (0..d)
            .map(|j| {
                ServerType::with_spec(
                    format!("t{j}"),
                    rng.gen_range(1..=2),
                    // β large relative to idle so d/ε·l/β < 1
                    rng.gen_range(5.0..9.0),
                    1.0,
                    CostSpec::scaled(CostModel::constant(1.0), price.clone()),
                )
            })
            .collect();
        let cap: f64 = types.iter().map(ServerType::fleet_capacity).sum();
        let inst = Instance::builder()
            .server_types(types)
            .loads((0..horizon).map(|_| rng.gen_range(0.0..cap)).collect::<Vec<_>>())
            .build()
            .unwrap();
        let mut c = AlgorithmC::new(&inst, oracle, COptions { epsilon: 2.0, ..Default::default() });
        // Verify the premise: every slot uses exactly one sub-slot.
        for t in 0..inst.horizon() {
            assert_eq!(c.subslots_for(&inst, t), 1, "premise: ñ_t = 1");
        }
        let run_c = run(&inst, &mut c, &oracle);
        let mut b = AlgorithmB::new(&inst, oracle, AOptions::default());
        let run_b = run(&inst, &mut b, &oracle);
        assert_eq!(run_c.schedule, run_b.schedule, "C with ñ≡1 must equal B");
    }
}

#[test]
fn actuation_realizes_every_algorithms_schedule() {
    let mut rng = StdRng::seed_from_u64(99);
    let oracle = Dispatcher::new();
    let inst = random_time_independent(&mut rng);
    let schedules = vec![
        {
            let mut a = AlgorithmA::new(&inst, oracle, AOptions::default());
            run(&inst, &mut a, &oracle).schedule
        },
        {
            let mut b = AlgorithmB::new(&inst, oracle, AOptions::default());
            run(&inst, &mut b, &oracle).schedule
        },
    ];
    for sched in schedules {
        for policy in [DownPolicy::Lifo, DownPolicy::Fifo] {
            let plan = actuate(&inst, &sched, policy);
            assert!(replay_matches(&inst, &sched, &plan));
        }
    }
}

#[test]
fn prefix_backend_gamma_never_undercuts_opt() {
    // Sanity: no configuration of Algorithm A can beat the clairvoyant
    // optimum, whatever backend it runs on.
    let mut rng = StdRng::seed_from_u64(123);
    let oracle = Dispatcher::new();
    for _ in 0..6 {
        let inst = random_time_independent(&mut rng);
        let opt =
            solve_cost_only(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        for grid in [
            rsz_offline::GridMode::Full,
            rsz_offline::GridMode::Gamma(1.5),
            rsz_offline::GridMode::Gamma(3.0),
        ] {
            let mut a = AlgorithmA::new(&inst, oracle, AOptions { grid });
            let r = run(&inst, &mut a, &oracle);
            r.schedule.check_feasible(&inst).unwrap();
            assert!(r.cost() + 1e-9 >= opt, "{grid:?} beat OPT");
        }
    }
}
