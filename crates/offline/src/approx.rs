//! The `(1+ε)`-approximation (Section 4.2, Theorems 16 & 21).
//!
//! Setting `γ = 1 + ε/2` and optimizing exactly over the reduced grid
//! `M^γ = Π_j M^γ_j` yields a schedule of cost at most `(2γ−1)·OPT =
//! (1+ε)·OPT`. Each `M^γ_j` has `O(log_γ m_j)` levels, so the DP runs in
//! `O(T · ε^{-d} · Π_j log m_j)` — polynomial for constant `d`.

use rsz_core::{GtOracle, Instance};

use crate::dp::{solve, DpOptions, DpResult};
use crate::grid::GridMode;
use crate::refine::RefineOptions;

/// Result of an approximate solve, carrying the proven guarantee.
#[derive(Clone, Debug)]
pub struct ApproxResult {
    /// The computed schedule and its cost.
    pub result: DpResult,
    /// The γ used for the grid.
    pub gamma: f64,
    /// The proven factor `2γ − 1` relative to the true optimum.
    pub guarantee: f64,
    /// Total number of grid cells per slot (`Π_j |M^γ_j|`) at slot 0,
    /// for reporting grid compression.
    pub grid_cells: usize,
}

/// Compute a `(1+ε)`-approximately optimal schedule.
///
/// # Panics
/// Panics if `epsilon ≤ 0`.
#[must_use]
pub fn approximate(
    instance: &Instance,
    oracle: &(impl GtOracle + Sync),
    epsilon: f64,
) -> ApproxResult {
    approximate_opts(instance, oracle, epsilon, DpOptions::default())
}

/// [`approximate`] with full solver options (explicit thread counts,
/// corridor refinement); `options.grid` is overridden by the ε-derived
/// γ-grid.
#[must_use]
pub fn approximate_opts(
    instance: &Instance,
    oracle: &(impl GtOracle + Sync),
    epsilon: f64,
    options: DpOptions,
) -> ApproxResult {
    let grid = GridMode::for_epsilon(epsilon);
    approximate_with_mode(instance, oracle, grid, options)
}

/// Approximate with an explicit grid mode (e.g. a direct `γ`).
///
/// Composes with the corridor solver: when `options.refine` is set, the
/// refinement's fine target is re-pointed at this γ-grid **and forced
/// into exact mode**, so the solve runs coarse-to-fine *onto the
/// reduced grid*, is schedule-identical to the unrestricted γ-grid DP,
/// and the reported `guarantee` stays truthful. (An epsilon early-stop
/// on a γ-grid target would carry neither factor: the coarse trajectory
/// need not lie on the reduced grid, so the Theorem-21 argument does
/// not compose — hence the override.)
#[must_use]
pub fn approximate_with_mode(
    instance: &Instance,
    oracle: &(impl GtOracle + Sync),
    grid: GridMode,
    options: DpOptions,
) -> ApproxResult {
    let gamma = match grid {
        GridMode::Full => 1.0,
        GridMode::Gamma(g) => g,
    };
    let grid_cells =
        (0..instance.num_types()).map(|j| grid.levels(instance.server_count(0, j)).len()).product();
    let refine = options.refine.map(|r| RefineOptions { epsilon: None, ..r.with_target(grid) });
    let result = solve(instance, oracle, DpOptions { grid, refine, ..options });
    ApproxResult { result, gamma, guarantee: grid.approximation_factor(), grid_cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::solve as dp_solve;
    use rsz_core::{CostModel, ServerType};
    use rsz_dispatch::Dispatcher;

    #[test]
    fn guarantee_holds_on_random_instances() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let oracle = Dispatcher::new();
        for _ in 0..10 {
            let m = rng.gen_range(5..=20);
            let inst = Instance::builder()
                .server_type(ServerType::new(
                    "a",
                    m,
                    rng.gen_range(0.5..5.0),
                    1.0,
                    CostModel::linear(rng.gen_range(0.1..1.0), rng.gen_range(0.0..2.0)),
                ))
                .loads((0..8).map(|_| rng.gen_range(0.0..f64::from(m))).collect::<Vec<f64>>())
                .build()
                .unwrap();
            for eps in [0.5, 1.0, 2.0] {
                let exact =
                    dp_solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
                let approx = approximate(&inst, &oracle, eps);
                assert!(approx.result.cost + 1e-9 >= exact.cost);
                assert!(
                    approx.result.cost <= (1.0 + eps) * exact.cost + 1e-9,
                    "eps={eps}: {} vs (1+eps)·{}",
                    approx.result.cost,
                    exact.cost
                );
                assert!((approx.guarantee - (1.0 + eps)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn grid_cells_shrink_with_larger_epsilon() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 4096, 1.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![1.0])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let tight = approximate(&inst, &oracle, 0.1);
        let loose = approximate(&inst, &oracle, 2.0);
        assert!(loose.grid_cells < tight.grid_cells);
        assert!(tight.grid_cells < 4097, "reduced grid must beat the full grid");
    }
}
