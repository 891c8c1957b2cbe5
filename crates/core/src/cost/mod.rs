//! Convex per-server operating-cost functions `f_{t,j}`.
//!
//! The paper requires each `f_{t,j} : [0, z^max_j] → ℝ≥0` to be convex,
//! increasing and non-negative. `f(0)` is the **idle** operating cost — the
//! power an active but unloaded server draws — which drives the ski-rental
//! style power-down rules of the online algorithms.
//!
//! Built-in shapes (all standard in the right-sizing literature):
//!
//! | variant | formula | models |
//! |---|---|---|
//! | [`ConstantCost`]  | `f(z) = c` | load-independent power (the CIAC'21 special case) |
//! | [`LinearCost`]    | `f(z) = idle + rate·z` | energy ∝ utilization |
//! | [`PowerCost`]     | `f(z) = idle + coef·z^α` | super-linear CPU voltage scaling (α ≈ 2–3) |
//! | [`QuadraticCost`] | `f(z) = idle + a·z + b·z²` | linear + congestion penalty |
//! | [`PiecewiseLinearCost`] | convex piecewise linear | empirical power curves |
//!
//! Arbitrary user-defined functions plug in through [`CostFunction`] and
//! `CostModel::Custom`.
//!
//! Time dependence is expressed by [`CostSpec`]: a single model for all
//! slots, a per-slot scaling profile (electricity prices), or fully
//! per-slot models. [`CostRef`] is the cheap per-slot view handed to
//! solvers.

mod constant;
mod linear;
mod piecewise;
mod power;
mod quadratic;
mod spec;

pub use constant::ConstantCost;
pub use linear::LinearCost;
pub use piecewise::PiecewiseLinearCost;
pub use power::PowerCost;
pub use quadratic::QuadraticCost;
pub use spec::CostSpec;

use std::sync::Arc;

/// A convex, increasing, non-negative per-server operating-cost function.
///
/// Implementors must guarantee convexity and monotonicity on `[0, ∞)`;
/// [`crate::instance::Instance::validate`] spot-checks both by sampling.
pub trait CostFunction: Send + Sync + std::fmt::Debug {
    /// Operating cost of a single server running at load `z ≥ 0` for one
    /// time slot.
    fn eval(&self, z: f64) -> f64;

    /// Derivative `f'(z)`. The default uses central finite differences,
    /// which is adequate for the dispatch solver's bisections; exact
    /// implementations speed up dispatch considerably.
    fn deriv(&self, z: f64) -> f64 {
        let h = (z.abs() * crate::util::FD_REL_STEP).max(crate::util::FD_MIN_STEP);
        let lo = (z - h).max(0.0);
        (self.eval(z + h) - self.eval(lo)) / (z + h - lo)
    }

    /// Inverse of the derivative: the load `z ≥ 0` with `f'(z) = slope`,
    /// if a closed form exists. Used by the KKT dispatch fast path.
    ///
    /// Return `None` (the default) to fall back to bisection. If the
    /// derivative never reaches `slope`, return the boundary value (`0.0`
    /// when `slope` is below `f'(0)`, a large value when above the
    /// supremum).
    fn deriv_inv(&self, _slope: f64) -> Option<f64> {
        None
    }
}

/// A concrete cost-function shape. An enum rather than a bare trait object
/// so the built-in shapes dispatch statically in the DP hot loops, while
/// [`CostModel::Custom`] keeps the model open for extension.
#[derive(Clone, Debug)]
pub enum CostModel {
    /// Load-independent cost `f(z) = c`.
    Constant(ConstantCost),
    /// Affine cost `f(z) = idle + rate·z`.
    Linear(LinearCost),
    /// Power-law cost `f(z) = idle + coef·z^alpha`, `alpha ≥ 1`.
    Power(PowerCost),
    /// Quadratic cost `f(z) = idle + a·z + b·z²`.
    Quadratic(QuadraticCost),
    /// Convex piecewise-linear cost through given breakpoints.
    PiecewiseLinear(PiecewiseLinearCost),
    /// User-supplied convex increasing function.
    Custom(Arc<dyn CostFunction>),
}

impl CostModel {
    /// Evaluate the cost at load `z`.
    #[inline]
    #[must_use]
    pub fn eval(&self, z: f64) -> f64 {
        match self {
            CostModel::Constant(c) => c.eval(z),
            CostModel::Linear(c) => c.eval(z),
            CostModel::Power(c) => c.eval(z),
            CostModel::Quadratic(c) => c.eval(z),
            CostModel::PiecewiseLinear(c) => c.eval(z),
            CostModel::Custom(c) => c.eval(z),
        }
    }

    /// Derivative at load `z`.
    #[inline]
    #[must_use]
    pub fn deriv(&self, z: f64) -> f64 {
        match self {
            CostModel::Constant(c) => c.deriv(z),
            CostModel::Linear(c) => c.deriv(z),
            CostModel::Power(c) => c.deriv(z),
            CostModel::Quadratic(c) => c.deriv(z),
            CostModel::PiecewiseLinear(c) => c.deriv(z),
            CostModel::Custom(c) => c.deriv(z),
        }
    }

    /// Inverse derivative, if the shape has a closed form.
    #[inline]
    #[must_use]
    pub fn deriv_inv(&self, slope: f64) -> Option<f64> {
        match self {
            CostModel::Constant(c) => c.deriv_inv(slope),
            CostModel::Linear(c) => c.deriv_inv(slope),
            CostModel::Power(c) => c.deriv_inv(slope),
            CostModel::Quadratic(c) => c.deriv_inv(slope),
            CostModel::PiecewiseLinear(c) => c.deriv_inv(slope),
            CostModel::Custom(c) => c.deriv_inv(slope),
        }
    }

    /// Idle operating cost `f(0)` — the paper's `l_{t,j}` before scaling.
    #[inline]
    #[must_use]
    pub fn idle(&self) -> f64 {
        self.eval(0.0)
    }

    /// `true` if the cost does not depend on the load at all, which lets
    /// dispatch and DP skip the simplex optimization entirely.
    #[must_use]
    pub fn is_load_independent(&self) -> bool {
        matches!(self, CostModel::Constant(_))
    }

    /// Convenience constructor: load-independent cost.
    #[must_use]
    pub fn constant(cost: f64) -> Self {
        CostModel::Constant(ConstantCost::new(cost))
    }

    /// Convenience constructor: affine cost `idle + rate·z`.
    #[must_use]
    pub fn linear(idle: f64, rate: f64) -> Self {
        CostModel::Linear(LinearCost::new(idle, rate))
    }

    /// Convenience constructor: power-law cost `idle + coef·z^alpha`.
    #[must_use]
    pub fn power(idle: f64, coef: f64, alpha: f64) -> Self {
        CostModel::Power(PowerCost::new(idle, coef, alpha))
    }

    /// Convenience constructor: quadratic cost `idle + a·z + b·z²`.
    #[must_use]
    pub fn quadratic(idle: f64, a: f64, b: f64) -> Self {
        CostModel::Quadratic(QuadraticCost::new(idle, a, b))
    }
}

/// A per-slot view of a cost function: a base model times a non-negative
/// scale factor. Scaling by `s` preserves convexity/monotonicity and models
/// both electricity-price profiles and the sub-slot refinement of
/// Algorithm C (where slot `t` is split into `ñ_t` pieces costing
/// `f_{t,j}/ñ_t` each).
#[derive(Clone, Copy, Debug)]
pub struct CostRef<'a> {
    model: &'a CostModel,
    scale: f64,
}

impl<'a> CostRef<'a> {
    /// View `model` scaled by `scale ≥ 0`.
    #[must_use]
    pub fn new(model: &'a CostModel, scale: f64) -> Self {
        debug_assert!(scale >= 0.0, "cost scale must be non-negative");
        Self { model, scale }
    }

    /// The underlying unscaled model.
    #[must_use]
    pub fn model(&self) -> &'a CostModel {
        self.model
    }

    /// The scale factor applied to the base model.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Scaled evaluation `scale · f(z)`.
    #[inline]
    #[must_use]
    pub fn eval(&self, z: f64) -> f64 {
        self.scale * self.model.eval(z)
    }

    /// Scaled derivative `scale · f'(z)`.
    #[inline]
    #[must_use]
    pub fn deriv(&self, z: f64) -> f64 {
        self.scale * self.model.deriv(z)
    }

    /// Inverse of the scaled derivative.
    #[inline]
    #[must_use]
    pub fn deriv_inv(&self, slope: f64) -> Option<f64> {
        if self.scale == 0.0 {
            // Zero-scaled cost is identically zero; any load is optimal.
            return Some(f64::INFINITY);
        }
        self.model.deriv_inv(slope / self.scale)
    }

    /// Scaled idle cost `scale · f(0)` — the paper's `l_{t,j}`.
    #[inline]
    #[must_use]
    pub fn idle(&self) -> f64 {
        self.scale * self.model.idle()
    }

    /// Whether the scaled model is load independent.
    #[must_use]
    pub fn is_load_independent(&self) -> bool {
        self.scale == 0.0 || self.model.is_load_independent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::approx_eq;

    #[test]
    fn cost_model_dispatches_to_shape() {
        let m = CostModel::linear(1.0, 2.0);
        assert!(approx_eq(m.eval(0.0), 1.0));
        assert!(approx_eq(m.eval(2.0), 5.0));
        assert!(approx_eq(m.idle(), 1.0));
        assert!(approx_eq(m.deriv(1.0), 2.0));
    }

    #[test]
    fn cost_ref_scales_everything() {
        let m = CostModel::linear(1.0, 2.0);
        let r = CostRef::new(&m, 0.5);
        assert!(approx_eq(r.eval(2.0), 2.5));
        assert!(approx_eq(r.idle(), 0.5));
        assert!(approx_eq(r.deriv(1.0), 1.0));
    }

    #[test]
    fn zero_scale_is_load_independent() {
        let m = CostModel::power(1.0, 3.0, 2.0);
        let r = CostRef::new(&m, 0.0);
        assert!(r.is_load_independent());
        assert_eq!(r.eval(10.0), 0.0);
    }

    #[test]
    fn custom_cost_function_works_through_enum() {
        #[derive(Debug)]
        struct Cubic;
        impl CostFunction for Cubic {
            fn eval(&self, z: f64) -> f64 {
                1.0 + z * z * z
            }
        }
        let m = CostModel::Custom(Arc::new(Cubic));
        assert!(approx_eq(m.eval(2.0), 9.0));
        // default finite-difference derivative: 3 z² = 12 at z=2
        assert!((m.deriv(2.0) - 12.0).abs() < 1e-3);
        assert!(m.deriv_inv(1.0).is_none());
    }
}
