//! # rsz-dispatch — solving the per-slot operating cost `g_t(x)`
//!
//! Equation (1) of the paper defines the operating cost of a configuration
//! `x` as a minimization over all ways to split the arriving volume `λ_t`
//! across server types:
//!
//! ```text
//! g_t(x) = min_{z ∈ Z} Σ_j  x_j · f_{t,j}(λ_t z_j / x_j),   Z = simplex
//! ```
//!
//! By the paper's Lemma 2 (Jensen), load assigned to a type is optimally
//! spread evenly over that type's active servers, so the problem reduces to
//! a **separable convex resource-allocation problem** over absolute volumes
//! `y_j = λ_t z_j`:
//!
//! ```text
//! min Σ_j Φ_j(y_j)   s.t.  Σ_j y_j = λ_t,  0 ≤ y_j ≤ x_j·z^max_j,
//! Φ_j(y) = x_j · f_{t,j}(y / x_j)
//! ```
//!
//! Three solvers are provided:
//!
//! * [`greedy`] — exact closed form when every cost is constant or affine
//!   (fill the cheapest marginal rate first). This covers the
//!   load-independent special case of the paper and the classic
//!   energy-proportional model.
//! * [`kkt`] — marginal-cost equalization for arbitrary convex costs: an
//!   exact water-fill over the arms' marginal-price breakpoints, closed
//!   form when one arm is interior to the segment that reaches `λ` and a
//!   bracketed secant when several are.
//! * [`brute`] — a dense grid-search oracle, used by the test suite to
//!   cross-check the other two.
//!
//! [`Dispatcher`] picks the right solver per call and implements
//! [`rsz_core::GtOracle`], which is how the offline DP and the online
//! algorithms price configurations; [`SlotDispatcher`] is the
//! allocation-free per-slot context DP workers solve through. Every
//! pricing path returns exactly [`Dispatcher::g_value`]'s bits. Repeated
//! `g_t` work is shared one level up, by the offline pipeline's pricing
//! pool and the online engine's priced-slot pool.

#![warn(missing_docs)]

pub mod arms;
pub mod brute;
pub mod greedy;
pub mod kkt;
pub mod solution;

pub use arms::{Arm, SlotArms};
pub use solution::DispatchSolution;

use rsz_core::util::exceeds_capacity;
use rsz_core::{GtOracle, Instance, SlotEval};
use solution::Workspace;

/// Facade solver for `g_t(x)`: validates feasibility, picks the fastest
/// applicable algorithm and returns costs/allocations.
///
/// Cheap to construct and `Copy`; share freely across threads.
#[derive(Clone, Copy, Debug)]
pub struct Dispatcher {
    /// Relative tolerance of the iterative steps: the in-segment secant
    /// of [`kkt`] and the price inversion of costs without a closed-form
    /// `deriv_inv`. The returned cost is accurate to roughly this order.
    pub tol: f64,
    /// Iteration cap for each of those loops.
    pub max_iter: usize,
}

impl Default for Dispatcher {
    fn default() -> Self {
        Self { tol: 1e-10, max_iter: 200 }
    }
}

impl Dispatcher {
    /// A dispatcher with default tolerances.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Solve the dispatch problem for configuration `x` at slot `t`,
    /// returning the optimal volumes as well as the cost.
    #[must_use]
    pub fn solve(&self, instance: &Instance, t: usize, x: &[u32]) -> DispatchSolution {
        let arms = arms::collect(instance, t, x);
        self.solve_arms(&arms, instance.load(t))
    }

    /// Solve with explicit arms and volume — the low-level entry point.
    #[must_use]
    pub fn solve_arms(&self, arms: &[Arm<'_>], lambda: f64) -> DispatchSolution {
        let mut ws = Workspace::default();
        let cost = self.solve_in(arms, lambda, &mut ws);
        ws.into_solution(cost)
    }

    /// The preamble every dispatch entry point shares (feasibility slack,
    /// λ clamp, idle-only and affine paths), solving into `ws`.
    fn solve_in(&self, arms: &[Arm<'_>], lambda: f64, ws: &mut Workspace) -> f64 {
        debug_assert!(lambda >= 0.0);
        let total_cap: f64 = arms.iter().map(Arm::cap).sum();
        if exceeds_capacity(lambda, total_cap) {
            ws.reset(arms.len());
            return f64::INFINITY;
        }
        let lambda = lambda.min(total_cap);
        if lambda == 0.0 {
            // Idle-only: every active server still pays f(0).
            ws.reset(arms.len());
            return arms.iter().map(Arm::idle_total).sum();
        }
        if arms.iter().all(Arm::is_affine) {
            greedy::solve_in(arms, lambda, ws)
        } else {
            kkt::solve_in(arms, lambda, self.tol, self.max_iter, ws)
        }
    }

    /// The optimal cost only (no allocation vector) — what the DP needs.
    #[must_use]
    pub fn g_value(
        &self,
        instance: &Instance,
        t: usize,
        x: &[u32],
        lambda: f64,
        scale: f64,
    ) -> f64 {
        let arms = arms::collect(instance, t, x);
        self.value_in(&arms, lambda, scale, &mut Workspace::default())
    }

    /// Cost of a pre-assembled arm list — shared by [`Dispatcher::g_value`]
    /// and the buffer-reusing [`SlotDispatcher`] so both produce
    /// bit-identical results.
    fn value_in(&self, arms: &[Arm<'_>], lambda: f64, scale: f64, ws: &mut Workspace) -> f64 {
        if scale == 0.0 {
            // Zero-scaled slots cost nothing but must still be feasible.
            let total_cap: f64 = arms.iter().map(Arm::cap).sum();
            return if exceeds_capacity(lambda, total_cap) { f64::INFINITY } else { 0.0 };
        }
        // A uniform positive scale does not change the argmin, so solve the
        // unscaled problem and scale the optimum.
        scale * self.solve_in(arms, lambda, ws)
    }

    /// Open a buffer-reusing evaluator for slot `t` of `instance`: the
    /// slot's arm templates are captured once and every
    /// [`SlotDispatcher::eval_config`] assembles its arm list and solves
    /// into the same scratch buffers (no per-configuration allocation).
    #[must_use]
    pub fn slot_dispatcher<'a>(
        &self,
        instance: &'a Instance,
        t: usize,
        lambda: f64,
        cost_scale: f64,
    ) -> SlotDispatcher<'a> {
        let arms = SlotArms::new(instance, t);
        let scratch = Vec::with_capacity(arms.num_types());
        SlotDispatcher {
            dispatcher: *self,
            arms,
            lambda,
            cost_scale,
            scratch,
            ws: Workspace::default(),
        }
    }
}

/// A [`Dispatcher`] scoped to one `(slot, λ, cost_scale)` triple: prices
/// many configurations of the same slot through one reused arm buffer.
/// Created by [`Dispatcher::slot_dispatcher`]; this is what DP workers
/// hold per thread (it is deliberately not `Sync`).
#[derive(Clone, Debug)]
pub struct SlotDispatcher<'a> {
    dispatcher: Dispatcher,
    arms: SlotArms<'a>,
    lambda: f64,
    cost_scale: f64,
    scratch: Vec<Arm<'a>>,
    ws: Workspace,
}

impl SlotDispatcher<'_> {
    /// `g` of configuration `x` at this slot — bit-identical to
    /// [`Dispatcher::g_value`] on the same inputs, whatever was priced
    /// before it.
    pub fn eval_config(&mut self, x: &[u32]) -> f64 {
        self.arms.fill_into(x, &mut self.scratch);
        self.dispatcher.value_in(&self.scratch, self.lambda, self.cost_scale, &mut self.ws)
    }
}

impl SlotEval for SlotDispatcher<'_> {
    fn eval(&mut self, x: &[u32]) -> f64 {
        self.eval_config(x)
    }
}

impl GtOracle for Dispatcher {
    fn g(&self, instance: &Instance, t: usize, x: &[u32]) -> f64 {
        self.g_value(instance, t, x, instance.load(t), 1.0)
    }

    fn g_scaled(
        &self,
        instance: &Instance,
        t: usize,
        x: &[u32],
        lambda: f64,
        cost_scale: f64,
    ) -> f64 {
        self.g_value(instance, t, x, lambda, cost_scale)
    }

    fn slot_eval<'a>(
        &'a self,
        instance: &'a Instance,
        t: usize,
        lambda: f64,
        cost_scale: f64,
    ) -> Box<dyn SlotEval + 'a> {
        Box::new(self.slot_dispatcher(instance, t, lambda, cost_scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsz_core::{CostModel, ServerType};

    fn instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("lin", 4, 1.0, 1.0, CostModel::linear(1.0, 2.0)))
            .server_type(ServerType::new("pow", 2, 1.0, 4.0, CostModel::power(2.0, 1.0, 2.0)))
            .loads(vec![0.0, 3.0, 12.0])
            .build()
            .unwrap()
    }

    #[test]
    fn zero_load_charges_idle_only() {
        let inst = instance();
        let d = Dispatcher::new();
        let sol = d.solve(&inst, 0, &[2, 1]);
        assert!((sol.cost - (2.0 * 1.0 + 1.0 * 2.0)).abs() < 1e-9);
        assert_eq!(sol.volumes, vec![0.0, 0.0]);
    }

    #[test]
    fn zero_config_zero_load_is_free() {
        let inst = instance();
        let d = Dispatcher::new();
        assert_eq!(d.g(&inst, 0, &[0, 0]), 0.0);
    }

    #[test]
    fn insufficient_capacity_is_infinite() {
        let inst = instance();
        let d = Dispatcher::new();
        // capacity 4·1 + 1·4 = 8 < 12
        assert!(d.g(&inst, 2, &[4, 1]).is_infinite());
        assert!(d.g(&inst, 2, &[4, 0]).is_infinite());
        assert!(d.g(&inst, 2, &[0, 0]).is_infinite());
    }

    #[test]
    fn full_capacity_is_feasible() {
        let inst = instance();
        let d = Dispatcher::new();
        // exactly 12 = 4·1 + 2·4
        let g = d.g(&inst, 2, &[4, 2]);
        assert!(g.is_finite());
    }

    #[test]
    fn slot_dispatcher_matches_g_value_bitwise() {
        let inst = instance();
        let d = Dispatcher::new();
        for (t, lambda, scale) in [(0, 0.0, 1.0), (1, 3.0, 1.0), (1, 3.0, 0.25), (2, 12.0, 0.0)] {
            let mut slot = d.slot_dispatcher(&inst, t, lambda, scale);
            for x in [[0u32, 0], [4, 0], [2, 1], [4, 2]] {
                let fast = slot.eval_config(&x);
                let slow = d.g_value(&inst, t, &x, lambda, scale);
                assert_eq!(fast.to_bits(), slow.to_bits(), "t={t} λ={lambda} s={scale} x={x:?}");
            }
        }
    }

    #[test]
    fn scaled_is_scale_times_unscaled() {
        let inst = instance();
        let d = Dispatcher::new();
        let g1 = d.g_value(&inst, 1, &[2, 1], 3.0, 1.0);
        let g2 = d.g_value(&inst, 1, &[2, 1], 3.0, 0.25);
        assert!((g2 - 0.25 * g1).abs() < 1e-9);
        assert_eq!(d.g_value(&inst, 1, &[2, 1], 3.0, 0.0), 0.0);
        assert!(d.g_value(&inst, 2, &[0, 0], 12.0, 0.0).is_infinite());
    }
}
