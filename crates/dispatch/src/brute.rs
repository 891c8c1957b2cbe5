//! Dense grid-search dispatch oracle — test reference only.
//!
//! Enumerates allocations on a regular grid over the capped simplex and
//! returns the best one found. Exponential in the number of arms; meant
//! for cross-checking the [`crate::kkt`] water-fill on tiny problems, not
//! for production use.

use crate::arms::Arm;
use crate::solution::DispatchSolution;
use rsz_core::util::{exceeds_capacity, DISPATCH_NOISE};

/// Grid-search the dispatch problem with `steps` grid points per arm.
///
/// The returned cost is an upper bound on the true optimum that converges
/// as `steps → ∞`; with convex costs the gap is `O(1/steps)`.
#[must_use]
pub fn solve(arms: &[Arm<'_>], lambda: f64, steps: usize) -> DispatchSolution {
    let total_cap: f64 = arms.iter().map(Arm::cap).sum();
    if exceeds_capacity(lambda, total_cap) {
        return DispatchSolution::infeasible(arms.len());
    }
    let lambda = lambda.min(total_cap);
    let mut best = DispatchSolution::infeasible(arms.len());
    let mut current = vec![0.0; arms.len()];
    recurse(arms, lambda, steps, 0, &mut current, &mut best);
    best
}

fn recurse(
    arms: &[Arm<'_>],
    remaining: f64,
    steps: usize,
    i: usize,
    current: &mut Vec<f64>,
    best: &mut DispatchSolution,
) {
    if i == arms.len() - 1 {
        // Last arm takes the remainder if it fits.
        if !exceeds_capacity(remaining, arms[i].cap()) {
            current[i] = remaining.min(arms[i].cap());
            let cost: f64 = current.iter().zip(arms).map(|(&y, a)| a.phi(y)).sum();
            if cost < best.cost {
                *best = DispatchSolution::new(cost, current.clone());
            }
        }
        return;
    }
    let cap = arms[i].cap().min(remaining);
    // Downstream capacity lower-bounds what this arm must absorb.
    let downstream: f64 = arms[i + 1..].iter().map(Arm::cap).sum();
    let min_take = (remaining - downstream).max(0.0);
    for s in 0..=steps {
        let y = min_take + (cap - min_take) * s as f64 / steps as f64;
        if y > cap + DISPATCH_NOISE {
            break;
        }
        current[i] = y;
        recurse(arms, remaining - y, steps, i + 1, current, best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arms::collect;
    use rsz_core::{CostModel, Instance, ServerType};

    #[test]
    fn matches_kkt_on_smooth_problem() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 2, 1.0, 3.0, CostModel::power(1.0, 1.0, 2.0)))
            .server_type(ServerType::new("b", 1, 1.0, 5.0, CostModel::power(0.5, 3.0, 2.0)))
            .loads(vec![4.0])
            .build()
            .unwrap();
        let arms = collect(&inst, 0, &[2, 1]);
        let brute = solve(&arms, 4.0, 4000);
        let kkt = crate::Dispatcher::new().solve_arms(&arms, 4.0);
        assert!((brute.cost - kkt.cost).abs() < 1e-3, "brute {} vs kkt {}", brute.cost, kkt.cost);
        assert!(kkt.cost <= brute.cost + 1e-9, "kkt must not exceed the grid optimum");
    }

    #[test]
    fn infeasible_when_over_capacity() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 1, 1.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![1.0])
            .build()
            .unwrap();
        let arms = collect(&inst, 0, &[1]);
        assert!(!solve(&arms, 2.0, 10).is_feasible());
    }
}
