//! Property-based tests of the coarse-to-fine corridor solver
//! (`rsz_offline::refine`).
//!
//! The contract under test:
//!
//! * **Exactness** — refined-exact solves recover schedules *identical*
//!   to unrestricted full-grid solves (costs within the documented
//!   `1e-9` relative sweep tolerance), across both cost shapes and both
//!   fine-grid targets (`Full` and `Γ`).
//! * **Termination** — the band-expansion fixpoint finishes within
//!   `max_rounds` banded rounds plus at most one full-grid fallback
//!   round, and stays exact even when `max_rounds = 1` forces the
//!   fallback immediately.
//! * **The `(1+ε)` early-stop guarantee** — one coarse pass plus one
//!   banded pass costs at most `(2γ₀−1)·OPT = (1+ε)·OPT` (Theorems
//!   16/21), never beats the exact optimum, and never exceeds the
//!   coarse solve it was lifted from.

use proptest::prelude::*;
use rsz_core::{CostModel, CostSpec, Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::dp::{solve, DpOptions};
use rsz_offline::refine::{solve_refined, RefineOptions};
use rsz_offline::GridMode;

#[derive(Clone, Debug)]
struct Spec {
    counts: Vec<u32>,
    betas: Vec<f64>,
    idles: Vec<f64>,
    rates: Vec<f64>,
    load_fracs: Vec<f64>,
    price: Vec<f64>,
}

fn spec_strategy(max_d: usize, max_m: u32, max_t: usize) -> impl Strategy<Value = Spec> {
    (1..=max_d).prop_flat_map(move |d| {
        (
            prop::collection::vec(2..=max_m, d..=d),
            prop::collection::vec(0.1..4.0_f64, d..=d),
            prop::collection::vec(0.1..2.0_f64, d..=d),
            prop::collection::vec(0.0..2.0_f64, d..=d),
            prop::collection::vec(0.0..1.0_f64, 2..=max_t),
            prop::collection::vec(0.25..2.5_f64, max_t..=max_t),
        )
            .prop_map(|(counts, betas, idles, rates, load_fracs, price)| Spec {
                counts,
                betas,
                idles,
                rates,
                load_fracs,
                price,
            })
    })
}

fn build(spec: &Spec, time_dependent: bool) -> Instance {
    let horizon = spec.load_fracs.len();
    let types: Vec<ServerType> = (0..spec.counts.len())
        .map(|j| {
            let base = CostModel::linear(spec.idles[j], spec.rates[j]);
            if time_dependent {
                ServerType::with_spec(
                    format!("t{j}"),
                    spec.counts[j],
                    spec.betas[j],
                    1.0,
                    CostSpec::scaled(base, spec.price[..horizon].to_vec()),
                )
            } else {
                ServerType::new(format!("t{j}"), spec.counts[j], spec.betas[j], 1.0, base)
            }
        })
        .collect();
    let cap: f64 = types.iter().map(ServerType::fleet_capacity).sum();
    Instance::builder()
        .server_types(types)
        .loads(spec.load_fracs.iter().map(|f| f * cap).collect::<Vec<f64>>())
        .build()
        .expect("spec instances are feasible")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Refined-exact solves are schedule-identical to unrestricted
    /// solves across {Full, Γ(1.5)} fine targets × both cost shapes.
    #[test]
    fn refined_exact_matches_unrestricted(
        spec in spec_strategy(2, 14, 8),
        time_dependent in prop_oneof![Just(false), Just(true)],
    ) {
        let inst = build(&spec, time_dependent);
        let oracle = Dispatcher::new();
        for target in [GridMode::Full, GridMode::Gamma(1.5)] {
            let base = DpOptions { threads: Some(1), grid: target, ..DpOptions::default() };
            let refined_opts = DpOptions {
                refine: Some(RefineOptions::exact().with_target(target)),
                ..base
            };
            let (want, got) = (solve(&inst, &oracle, base), solve(&inst, &oracle, refined_opts));
            prop_assert_eq!(
                &want.schedule, &got.schedule,
                "target {:?} td={}: schedules diverged",
                target, time_dependent
            );
            prop_assert!(
                (want.cost - got.cost).abs() <= 1e-9 * want.cost.abs().max(1.0),
                "cost gap: {} vs {}", want.cost, got.cost
            );
        }
    }

    /// The expansion fixpoint terminates within `max_rounds` banded
    /// rounds (+ 1 fallback round), whatever the coarse gamma; and a
    /// `max_rounds = 1` budget still returns the exact schedule via the
    /// fallback.
    #[test]
    fn expansion_terminates_within_max_rounds(
        spec in spec_strategy(2, 12, 6),
        gamma in 1.1..4.0_f64,
        max_rounds in 1usize..6,
    ) {
        let inst = build(&spec, false);
        let oracle = Dispatcher::new();
        let base = DpOptions { threads: Some(1), ..DpOptions::default() };
        let refine = RefineOptions { max_rounds, ..RefineOptions::exact().with_gamma(gamma) };
        let opts = DpOptions { refine: Some(refine), ..base };
        let (got, stats) = solve_refined(&inst, &oracle, opts);
        prop_assert!(
            stats.rounds <= max_rounds + 2,
            "rounds {} exceeded budget {} (+ verification + fallback)", stats.rounds, max_rounds
        );
        let want = solve(&inst, &oracle, base);
        prop_assert_eq!(&want.schedule, &got.schedule, "gamma={}: fixpoint lost exactness", gamma);
    }

    /// `(1+ε)` early-stop: exact ≤ refined ≤ min(coarse, (2γ₀−1)·exact).
    #[test]
    fn epsilon_mode_within_corridor_factor_of_exact(
        spec in spec_strategy(2, 14, 6),
        eps in 0.2..2.0_f64,
    ) {
        let inst = build(&spec, false);
        let oracle = Dispatcher::new();
        let base = DpOptions { threads: Some(1), ..DpOptions::default() };
        let exact = solve(&inst, &oracle, base);
        let refine = RefineOptions::epsilon(eps);
        let factor = refine.corridor_factor(); // 2γ₀ − 1 = 1 + ε
        let (got, stats) = solve_refined(&inst, &oracle, DpOptions { refine: Some(refine), ..base });
        prop_assert!(stats.early_stopped);
        prop_assert_eq!(stats.rounds, 1, "early-stop must not expand");
        prop_assert!(got.cost + 1e-9 >= exact.cost, "cannot beat exact: {} vs {}", got.cost, exact.cost);
        prop_assert!(
            got.cost <= factor * exact.cost + 1e-9,
            "corridor-factor guarantee: {} vs {}·{}", got.cost, factor, exact.cost
        );
        prop_assert!(
            got.cost <= stats.coarse_cost + 1e-9,
            "banded refinement must not lose to its own coarse solve: {} vs {}",
            got.cost, stats.coarse_cost
        );
        got.schedule.check_feasible(&inst).unwrap();
    }
}
