//! Exact greedy dispatch for affine (constant/linear) cost functions.
//!
//! When every arm's marginal cost is a constant `r_j` (constant costs have
//! `r_j = 0`, affine costs `r_j = scale·rate_j`), the optimal allocation is
//! a water-filling by rate: sort arms by `r_j` ascending and fill each to
//! capacity until the volume is exhausted. Idle costs `x_j·f_j(0)` are paid
//! regardless of the allocation and added at the end.

use crate::arms::Arm;
use crate::solution::{DispatchSolution, Workspace};

/// Solve the dispatch problem assuming [`Arm::is_affine`] for every arm
/// and `0 < lambda ≤ Σ cap_j`.
#[must_use]
pub fn solve(arms: &[Arm<'_>], lambda: f64) -> DispatchSolution {
    let mut ws = Workspace::default();
    let cost = solve_in(arms, lambda, &mut ws);
    ws.into_solution(cost)
}

/// [`solve`] into `ws.volumes`, returning the cost.
pub(crate) fn solve_in(arms: &[Arm<'_>], lambda: f64, ws: &mut Workspace) -> f64 {
    debug_assert!(arms.iter().all(Arm::is_affine));
    ws.reset(arms.len());
    // Order arm indices by marginal rate (cheapest first).
    let order = &mut ws.order;
    order.clear();
    order.extend(0..arms.len());
    order.sort_by(|&a, &b| {
        arms[a].affine_rate().partial_cmp(&arms[b].affine_rate()).expect("rates are finite")
    });

    let mut remaining = lambda;
    let mut cost: f64 = arms.iter().map(Arm::idle_total).sum();
    for &i in order.iter() {
        if remaining <= 0.0 {
            break;
        }
        let take = remaining.min(arms[i].cap());
        ws.volumes[i] = take;
        cost += take * arms[i].affine_rate();
        remaining -= take;
    }
    if remaining > 1e-9 * lambda.max(1.0) {
        // Caller guarantees feasibility; guard anyway.
        return f64::INFINITY;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arms::collect;
    use rsz_core::{CostModel, Instance, ServerType};

    fn instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("cheap", 2, 1.0, 2.0, CostModel::linear(1.0, 1.0)))
            .server_type(ServerType::new("pricey", 2, 1.0, 2.0, CostModel::linear(0.5, 4.0)))
            .server_type(ServerType::new("free", 1, 1.0, 1.0, CostModel::constant(2.0)))
            .loads(vec![5.0])
            .build()
            .unwrap()
    }

    #[test]
    fn fills_cheapest_rate_first() {
        let inst = instance();
        let arms = collect(&inst, 0, &[2, 2, 1]);
        let sol = solve(&arms, 5.0);
        // rates: cheap=1, pricey=4, free(constant)=0.
        // Fill free first (cap 1), then cheap (cap 4), then pricey 0 left... 5-1-4=0
        assert_eq!(sol.volumes, vec![4.0, 0.0, 1.0]);
        // idle: 2·1 + 2·0.5 + 1·2 = 5 ; load: 4·1 + 0 + 1·0 = 4
        assert!((sol.cost - 9.0).abs() < 1e-12);
    }

    #[test]
    fn spills_to_expensive_arm_when_needed() {
        let inst = instance();
        let arms = collect(&inst, 0, &[2, 2, 0]);
        let sol = solve(&arms, 5.0);
        assert_eq!(sol.volumes, vec![4.0, 1.0]);
        // idle 2+1=3, load 4·1 + 1·4 = 8
        assert!((sol.cost - 11.0).abs() < 1e-12);
    }

    #[test]
    fn exact_capacity_boundary() {
        let inst = instance();
        let arms = collect(&inst, 0, &[2, 2, 1]);
        let sol = solve(&arms, 9.0); // = total capacity
        assert!(sol.is_feasible());
        let total: f64 = sol.volumes.iter().sum();
        assert!((total - 9.0).abs() < 1e-12);
    }
}
