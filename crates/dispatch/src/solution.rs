//! Dispatch solver output.

/// Result of a dispatch solve: the optimal operating cost and the volume
/// routed to each *arm* (types with zero active servers are not arms;
/// [`crate::Arm::type_index`] maps an arm back to its type).
#[derive(Clone, Debug, PartialEq)]
pub struct DispatchSolution {
    /// Optimal operating cost `g_t(x)`; `f64::INFINITY` when infeasible.
    pub cost: f64,
    /// Volume `y_j` routed to each arm, aligned with the arm list.
    pub volumes: Vec<f64>,
}

impl DispatchSolution {
    /// A feasible solution.
    #[must_use]
    pub fn new(cost: f64, volumes: Vec<f64>) -> Self {
        Self { cost, volumes }
    }

    /// The infeasible solution (capacity insufficient for the volume).
    #[must_use]
    pub fn infeasible(num_arms: usize) -> Self {
        Self { cost: f64::INFINITY, volumes: vec![0.0; num_arms] }
    }

    /// `true` if the configuration could serve the load.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.cost.is_finite()
    }
}

/// Reusable buffers of a dispatch solve: a slot context keeps one, so it
/// stops allocating once they have grown to the slot's arm count.
#[derive(Clone, Debug, Default)]
pub(crate) struct Workspace {
    /// The solve's output: volume per arm.
    pub(crate) volumes: Vec<f64>,
    /// Per-arm marginal interval `[Φ'(0), Φ'(cap)]`.
    pub(crate) interval: Vec<(f64, f64)>,
    /// Per-arm volume at the lower end of a price bracket, sized by the
    /// bracketed secant, the one step that needs it.
    pub(crate) y_lo: Vec<f64>,
    /// Sorted breakpoint prices.
    pub(crate) prices: Vec<f64>,
    /// Arms the residual pass gave up on.
    pub(crate) parked: Vec<bool>,
}

impl Workspace {
    /// Zero the volumes and size the intervals for `n` arms.
    pub(crate) fn reset(&mut self, n: usize) {
        self.volumes.clear();
        self.volumes.resize(n, 0.0);
        self.interval.resize(n, (0.0, 0.0));
    }

    /// The solution of a solve that returned `cost`.
    pub(crate) fn into_solution(self, cost: f64) -> DispatchSolution {
        if cost.is_finite() {
            DispatchSolution::new(cost, self.volumes)
        } else {
            DispatchSolution::infeasible(self.volumes.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasibility_flag() {
        assert!(DispatchSolution::new(1.0, vec![]).is_feasible());
        assert!(!DispatchSolution::infeasible(2).is_feasible());
    }
}
