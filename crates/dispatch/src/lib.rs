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
//! One solver prices every cell:
//!
//! * [`kkt`] — marginal-cost equalization: an exact water-fill over the
//!   arms' marginal-price breakpoints, closed form when one arm is
//!   interior to the segment that reaches `λ` and a bracketed secant when
//!   several are. Constant and affine costs (the paper's load-independent
//!   case and the energy-proportional model) never have an interior arm,
//!   so their cells end in the closed-form share at one breakpoint.
//! * [`brute`] — a dense grid-search oracle, used by the test suite to
//!   cross-check it.
//!
//! [`Dispatcher`] implements [`rsz_core::GtOracle`], which is how the
//! offline DP and the online algorithms price configurations;
//! [`SlotDispatcher`] is the allocation-free per-slot context DP workers
//! solve through; it memoizes, for its slot, each breakpoint's inverse
//! derivative per type and each `(type, count)`'s marginal and cost ends.
//! Every pricing path returns exactly [`Dispatcher::g_value`]'s bits.
//! Repeated `g_t` work of whole slots is shared one level up, by the
//! offline pipeline's pricing pool and the online engine's priced-slot
//! pool.

#![warn(missing_docs)]

pub mod arms;
pub mod brute;
pub mod kkt;
mod memo;
pub mod solution;

pub use arms::{Arm, SlotArms};
pub use solution::DispatchSolution;

use memo::{Memo, SlotMemo};
use rsz_core::util::exceeds_capacity;
use rsz_core::{GtOracle, Instance, SlotEval};
use solution::Workspace;

/// Facade solver for `g_t(x)`: checks feasibility, solves the breakpoint
/// water-fill and returns costs/allocations. Its tolerances are the
/// dispatch constants of `rsz_core::util`.
///
/// Stateless and `Copy`; share freely across threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dispatcher;

impl Dispatcher {
    /// A dispatcher.
    #[must_use]
    pub fn new() -> Self {
        Self
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
        let cost = solve_in(arms, lambda, &mut ws, Memo::none());
        ws.into_solution(cost)
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
        value_in(&arms, lambda, scale, &mut Workspace::default(), Memo::none())
    }

    /// Open a buffer-reusing evaluator for slot `t` of `instance`: the
    /// slot's arm templates are captured once and every
    /// [`SlotDispatcher::eval_config`] assembles its arm list and solves
    /// into the same scratch buffers (no per-configuration allocation),
    /// reading and filling the slot's memos (see [`SlotDispatcher`]).
    #[must_use]
    pub fn slot_dispatcher<'a>(
        &self,
        instance: &'a Instance,
        t: usize,
        lambda: f64,
        cost_scale: f64,
    ) -> SlotDispatcher<'a> {
        let arms = SlotArms::new(instance, t);
        let d = arms.num_types();
        let max_count = (0..d).map(|j| instance.server_count(t, j)).max().unwrap_or(0);
        SlotDispatcher {
            arms,
            lambda,
            cost_scale,
            scratch: Vec::with_capacity(d),
            ws: Workspace::default(),
            memo: SlotMemo::new(d, max_count),
        }
    }
}

/// The preamble every dispatch entry point shares (feasibility slack,
/// λ clamp, idle-only cells), solving into `ws` through `memo`.
fn solve_in(arms: &[Arm<'_>], lambda: f64, ws: &mut Workspace, memo: Memo<'_>) -> f64 {
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
    kkt::solve_in(arms, lambda, ws, memo)
}

/// Cost of a pre-assembled arm list — shared by [`Dispatcher::g_value`]
/// and the buffer-reusing [`SlotDispatcher`] so both produce
/// bit-identical results.
fn value_in(arms: &[Arm<'_>], lambda: f64, scale: f64, ws: &mut Workspace, memo: Memo<'_>) -> f64 {
    if scale == 0.0 {
        // Zero-scaled slots cost nothing but must still be feasible.
        let total_cap: f64 = arms.iter().map(Arm::cap).sum();
        return if exceeds_capacity(lambda, total_cap) { f64::INFINITY } else { 0.0 };
    }
    // A uniform positive scale does not change the argmin, so solve the
    // unscaled problem and scale the optimum.
    scale * solve_in(arms, lambda, ws, memo)
}

/// A [`Dispatcher`] scoped to one `(slot, λ, cost_scale)` triple: prices
/// many configurations of the same slot through one reused arm buffer.
/// Created by [`Dispatcher::slot_dispatcher`]; this is what DP workers
/// hold per thread (it is deliberately not `Sync`).
///
/// It keeps two memos for the slot: each type's per-server load
/// `f_j'⁻¹(ν)` at every breakpoint price, and `Φ'(0)`, `Φ'(cap)`, `Φ(0)`
/// and `Φ(cap)` per `(type, count)`. They are filled on first use by the
/// calls a one-shot solve makes, so values keep
/// [`Dispatcher::g_value`]'s bits.
#[derive(Clone, Debug)]
pub struct SlotDispatcher<'a> {
    arms: SlotArms<'a>,
    lambda: f64,
    cost_scale: f64,
    scratch: Vec<Arm<'a>>,
    ws: Workspace,
    memo: SlotMemo,
}

impl SlotDispatcher<'_> {
    /// `g` of configuration `x` at this slot — bit-identical to
    /// [`Dispatcher::g_value`] on the same inputs, whatever was priced
    /// before it.
    pub fn eval_config(&mut self, x: &[u32]) -> f64 {
        self.arms.fill_into(x, &mut self.scratch);
        let memo = Memo::of(&mut self.memo);
        value_in(&self.scratch, self.lambda, self.cost_scale, &mut self.ws, memo)
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

    /// Affine rates 1 (`cheap`) and 4 (`pricey`) beside a constant
    /// (rate 0) type.
    fn affine_instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("cheap", 2, 1.0, 2.0, CostModel::linear(1.0, 1.0)))
            .server_type(ServerType::new("pricey", 2, 1.0, 2.0, CostModel::linear(0.5, 4.0)))
            .server_type(ServerType::new("free", 1, 1.0, 1.0, CostModel::constant(2.0)))
            .loads(vec![5.0])
            .build()
            .unwrap()
    }

    #[test]
    fn affine_cell_fills_cheapest_rate_first() {
        let inst = affine_instance();
        let arms = arms::collect(&inst, 0, &[2, 2, 1]);
        let sol = Dispatcher::new().solve_arms(&arms, 5.0);
        // Rates 0 (free), 1 (cheap), 4 (pricey): free and cheap fill to
        // capacity, 5 − 1 − 4 = 0 is left for pricey.
        assert_eq!(sol.volumes, vec![4.0, 0.0, 1.0]);
        // idle: 2·1 + 2·0.5 + 1·2 = 5 ; load: 4·1 + 0 + 1·0 = 4
        assert!((sol.cost - 9.0).abs() < 1e-12);
    }

    #[test]
    fn affine_cell_spills_to_expensive_arm_when_needed() {
        let inst = affine_instance();
        let arms = arms::collect(&inst, 0, &[2, 2, 0]);
        let sol = Dispatcher::new().solve_arms(&arms, 5.0);
        assert_eq!(sol.volumes, vec![4.0, 1.0]);
        // idle 2+1=3, load 4·1 + 1·4 = 8
        assert!((sol.cost - 11.0).abs() < 1e-12);
    }

    #[test]
    fn affine_cell_at_exact_capacity() {
        let inst = affine_instance();
        let arms = arms::collect(&inst, 0, &[2, 2, 1]);
        let sol = Dispatcher::new().solve_arms(&arms, 9.0); // = total capacity
        assert!(sol.is_feasible());
        let total: f64 = sol.volumes.iter().sum();
        assert!((total - 9.0).abs() < 1e-12);
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
