//! The analysis witness `X'` of Theorem 16 (Equation 18, Figure 5).
//!
//! Given an optimal schedule `X*`, the proof constructs a grid-restricted
//! schedule `X'` that "lazily" tracks `X*` inside the corridor
//! `[x*_t, (2γ−1)·x*_t]`:
//!
//! ```text
//! x'_t = xmin                   if x'_{t−1} ≤ x*_t          (too low → jump up)
//!        x'_{t−1}               if x*_t < x'_{t−1} ≤ (2γ−1)·x*_t   (in corridor → stay)
//!        xmax                   if (2γ−1)·x*_t < x'_{t−1}   (too high → drop)
//! xmin = min{ x ∈ M^γ : x ≥ x*_t },  xmax = max{ x ∈ M^γ : x ≤ (2γ−1)·x*_t }
//! ```
//!
//! `X'` is not what the solver outputs (the DP optimizes over the grid
//! directly and can only be better) — it exists so the experiment suite
//! can *exhibit* the constructive proof and verify Lemmas 19/20 cost
//! bounds empirically; see the `fig5_gamma_rounding` experiment.

use rsz_core::util::ABS_TOL;
use rsz_core::{Config, Instance, Schedule};

use crate::grid::{level_at_least, level_at_most, GridMode};

/// Construct the corridor schedule `X'` from an (optimal) schedule `X*`.
///
/// Every per-type count of the result lies on the γ-grid of its slot and
/// satisfies the invariant `x*_{t,j} ≤ x'_{t,j} ≤ (2γ−1)·x*_{t,j}`
/// (Equation 19), capped at the fleet size.
#[must_use]
pub fn corridor_schedule(instance: &Instance, optimal: &Schedule, gamma: f64) -> Schedule {
    assert!(gamma > 1.0, "gamma must exceed 1");
    let d = instance.num_types();
    let mode = GridMode::Gamma(gamma);
    let factor = 2.0 * gamma - 1.0;
    let mut steps: Vec<Config> = Vec::with_capacity(optimal.len());
    let mut prev = vec![0u32; d];
    for (t, xstar) in optimal.iter() {
        let mut cur = vec![0u32; d];
        for j in 0..d {
            let m = instance.server_count(t, j);
            let levels = mode.levels(m);
            let star = xstar.count(j);
            // Upper corridor bound (2γ−1)·x*, capped at the fleet size.
            let hi_f = factor * f64::from(star);
            let hi = if hi_f >= f64::from(m) { m } else { hi_f.floor() as u32 };
            let p = prev[j];
            cur[j] = if p <= star {
                level_at_least(&levels, star).expect("m on grid, star ≤ m")
            } else if f64::from(p) <= hi_f {
                p
            } else {
                level_at_most(&levels, hi).expect("0 on grid")
            };
        }
        prev.clone_from(&cur);
        steps.push(Config::new(cur));
    }
    Schedule::new(steps)
}

/// Check the corridor invariant (Equation 19) for a witness schedule.
#[must_use]
pub fn corridor_invariant_holds(
    instance: &Instance,
    optimal: &Schedule,
    witness: &Schedule,
    gamma: f64,
) -> bool {
    let factor = 2.0 * gamma - 1.0;
    optimal.iter().all(|(t, xstar)| {
        (0..instance.num_types()).all(|j| {
            let star = xstar.count(j);
            let w = witness.count(t, j);
            let m = instance.server_count(t, j);
            let hi = (factor * f64::from(star)).min(f64::from(m));
            w >= star && f64::from(w) <= hi + ABS_TOL
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{solve, DpOptions};
    use rsz_core::{CostModel, ServerType};
    use rsz_dispatch::Dispatcher;

    fn instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 10, 2.0, 1.0, CostModel::linear(0.4, 1.0)))
            .loads(vec![2.0, 7.0, 10.0, 3.0, 1.0, 6.0, 9.0, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn witness_is_feasible_and_in_corridor() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let opt = solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        for gamma in [1.25, 1.5, 2.0] {
            let w = corridor_schedule(&inst, &opt.schedule, gamma);
            w.check_feasible(&inst).unwrap();
            assert!(corridor_invariant_holds(&inst, &opt.schedule, &w, gamma));
        }
    }

    #[test]
    fn witness_cost_within_theorem_16_bound() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let opt = solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        for gamma in [1.25, 1.5, 2.0] {
            let w = corridor_schedule(&inst, &opt.schedule, gamma);
            let bd = rsz_core::objective::evaluate(&inst, &w, &oracle);
            let bound = (2.0 * gamma - 1.0) * opt.cost;
            assert!(
                bd.total() <= bound + 1e-9,
                "gamma={gamma}: witness {} vs bound {bound}",
                bd.total()
            );
        }
    }

    #[test]
    fn witness_counts_lie_on_grid() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let opt = solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        let gamma = 2.0;
        let levels = GridMode::Gamma(gamma).levels(10);
        let w = corridor_schedule(&inst, &opt.schedule, gamma);
        for (_, cfg) in w.iter() {
            assert!(levels.contains(&cfg.count(0)), "{cfg:?} off grid {levels:?}");
        }
    }

    #[test]
    fn zero_optimal_forces_zero_witness() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 5, 1.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![2.0, 0.0, 0.0])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let opt = solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        // OPT drops to zero servers in the zero-load tail (β=1 < idle 2·1).
        assert_eq!(opt.schedule.count(2, 0), 0);
        let w = corridor_schedule(&inst, &opt.schedule, 2.0);
        assert_eq!(w.count(2, 0), 0, "corridor collapses to 0 when x* = 0");
    }
}
