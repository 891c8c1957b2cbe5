//! Power-law operating cost — super-linear CPU voltage/frequency scaling.

use super::CostFunction;
use crate::util::LINEAR_EXPONENT_TOL;

/// `f(z) = idle + coef·z^alpha` with `alpha ≥ 1`.
///
/// Models dynamic voltage/frequency scaling: sustaining higher load
/// requires higher frequency and super-linearly higher voltage, so the
/// power draw grows like `z^α` with `α ≈ 2–3` in practice (Wierman et al.,
/// INFOCOM 2009). `alpha = 1` degenerates to [`super::LinearCost`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerCost {
    idle: f64,
    coef: f64,
    alpha: f64,
}

impl PowerCost {
    /// Power-law cost with intercept `idle ≥ 0`, coefficient `coef ≥ 0` and
    /// exponent `alpha ≥ 1` (required for convexity).
    ///
    /// # Panics
    /// Panics if any parameter is out of range or not finite.
    #[must_use]
    pub fn new(idle: f64, coef: f64, alpha: f64) -> Self {
        assert!(idle.is_finite() && idle >= 0.0, "idle cost must be finite and ≥ 0");
        assert!(coef.is_finite() && coef >= 0.0, "coefficient must be finite and ≥ 0");
        assert!(alpha.is_finite() && alpha >= 1.0, "exponent must be ≥ 1 for convexity");
        Self { idle, coef, alpha }
    }

    /// Idle cost `f(0)`.
    #[must_use]
    pub fn idle_cost(&self) -> f64 {
        self.idle
    }

    /// Load coefficient.
    #[must_use]
    pub fn coef(&self) -> f64 {
        self.coef
    }

    /// Exponent `α`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl CostFunction for PowerCost {
    fn eval(&self, z: f64) -> f64 {
        self.idle + self.coef * z.powf(self.alpha)
    }

    fn deriv(&self, z: f64) -> f64 {
        if self.coef == 0.0 {
            return 0.0;
        }
        self.coef * self.alpha * z.powf(self.alpha - 1.0)
    }

    fn deriv_inv(&self, slope: f64) -> Option<f64> {
        if self.coef == 0.0 {
            return Some(if slope >= 0.0 { f64::INFINITY } else { 0.0 });
        }
        if slope <= 0.0 {
            return Some(0.0);
        }
        if (self.alpha - 1.0).abs() < LINEAR_EXPONENT_TOL {
            // Linear: constant derivative `coef`.
            return Some(if slope >= self.coef { f64::INFINITY } else { 0.0 });
        }
        // f'(z) = coef·α·z^(α−1) = slope  ⇒  z = (slope / (coef·α))^(1/(α−1))
        Some((slope / (self.coef * self.alpha)).powf(1.0 / (self.alpha - 1.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::approx_eq;

    #[test]
    fn quadratic_case() {
        let f = PowerCost::new(1.0, 2.0, 2.0);
        assert!(approx_eq(f.eval(0.0), 1.0));
        assert!(approx_eq(f.eval(3.0), 19.0));
        assert!(approx_eq(f.deriv(3.0), 12.0));
    }

    #[test]
    fn deriv_inv_round_trips() {
        let f = PowerCost::new(0.5, 1.5, 3.0);
        for z in [0.1, 0.7, 2.0, 5.0] {
            let slope = f.deriv(z);
            let back = f.deriv_inv(slope).unwrap();
            assert!(approx_eq(back, z), "z={z} back={back}");
        }
    }

    #[test]
    fn deriv_inv_zero_slope() {
        let f = PowerCost::new(0.0, 1.0, 2.0);
        assert_eq!(f.deriv_inv(0.0), Some(0.0));
    }

    #[test]
    fn alpha_one_behaves_linear() {
        let f = PowerCost::new(1.0, 2.0, 1.0);
        assert!(approx_eq(f.eval(3.0), 7.0));
        assert_eq!(f.deriv_inv(1.0), Some(0.0));
        assert_eq!(f.deriv_inv(2.0), Some(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn rejects_concave_exponent() {
        let _ = PowerCost::new(0.0, 1.0, 0.5);
    }
}
