//! Small numeric helpers shared across the workspace.
//!
//! Costs are `f64` throughout; infeasible configurations carry cost
//! `f64::INFINITY`. Comparisons between independently computed costs must
//! tolerate floating-point noise, so every cross-check in tests and
//! experiments goes through the helpers in this module.

/// Default relative tolerance for cost comparisons.
pub const REL_TOL: f64 = 1e-9;
/// Default absolute tolerance for cost comparisons.
pub const ABS_TOL: f64 = 1e-9;

/// Feasibility slack: capacity `cap` serves a load up to
/// `cap·(1 + FEASIBILITY_SLACK) + FEASIBILITY_SLACK`, so loads carrying
/// float noise from trace arithmetic are not rejected by one layer after
/// another accepted them.
pub const FEASIBILITY_SLACK: f64 = 1e-12;

/// Saturation: a load at least its fleet's whole capacity less this
/// share of `max(capacity, 1)` saturates the fleet, and the
/// degradation ladder records the slot as saturated.
pub const SATURATION_TOL: f64 = 1e-9;

/// Tie-break: a candidate value within this share of `max(|min|, 1)`
/// above the minimum counts as tied with it. The offline kernels' argmin,
/// LCP's corridor of optimal final states and Algorithm C's choice among
/// its sub-slot states all use it, so a last-bit difference between two
/// ways of computing a value never decides between them.
pub const TIE_EPS: f64 = 1e-9;

/// Dispatch/KKT convergence: relative tolerance of the dispatch solver's
/// iterative steps — the in-segment secant of the breakpoint water-fill
/// and the price inversion of costs without a closed-form `deriv_inv`.
/// A dispatch cost is accurate to roughly this order.
pub const DISPATCH_TOL: f64 = 1e-10;
/// Iteration cap of each of the [`DISPATCH_TOL`] loops.
pub const DISPATCH_MAX_ITER: usize = 200;
/// Dispatch volume noise: a residual `|λ − Σy|` within this share of
/// `max(λ, 1)` is left in place, and the brute-force oracle's grid may
/// overshoot an arm's capacity by this much.
pub const DISPATCH_NOISE: f64 = 1e-12;
/// A residual above this share of `max(λ, 1)` is macroscopic (the
/// saturation fallback's deficit) and moves in chunks, not in one piece.
pub const DISPATCH_MACRO_RESIDUAL: f64 = 1e-6;
/// A residual move below this share of the residual no longer advances
/// it at `f64` precision, so the arm it was offered to is parked.
pub const DISPATCH_STALL: f64 = 1e-15;
/// The saturation fallback serves `λ` only if it placed all of it but
/// this share of `max(λ, 1)`.
pub const DISPATCH_SHORTFALL: f64 = 1e-9;

/// Finite differences: the default `CostFunction::deriv` differences a
/// cost over a step of this share of `|z|` on each side of `z`, ...
pub const FD_REL_STEP: f64 = 1e-6;
/// ... and never over a step shorter than this, so the quotient stays
/// defined near `z = 0`.
pub const FD_MIN_STEP: f64 = 1e-9;

/// Breakpoint noise of a piecewise-linear cost: two sample loads closer
/// than this are one load, a sample within this of the chord between
/// its hull neighbours leaves the lower convex envelope, and a segment's
/// slope may fall this far below its predecessor's and still count as
/// convex.
pub const BREAKPOINT_TOL: f64 = 1e-12;

/// A power-law cost whose exponent is within this of 1 is linear, and
/// its derivative is inverted as a constant.
pub const LINEAR_EXPONENT_TOL: f64 = 1e-12;

/// Instance validation samples every cost function: a sample may fall
/// this share of `max(|f|, 1)` below the one before it and still count
/// as non-decreasing, ...
pub const MONOTONE_SAMPLE_TOL: f64 = 1e-9;
/// ... and a midpoint may rise this share of `max(|chord|, 1)` above
/// the chord between its neighbours and still count as convex.
pub const CONVEX_SAMPLE_TOL: f64 = 1e-7;

/// Box–Muller's first uniform draw is at least this, so its logarithm
/// stays finite.
pub const BOX_MULLER_MIN_U: f64 = 1e-12;

/// `true` if `load` exceeds `capacity` by more than the
/// [`FEASIBILITY_SLACK`] — the one feasibility test shared by the
/// dispatch oracle (which prices such a configuration `f64::INFINITY`),
/// `Schedule::check_feasible` and `Config::can_serve` (behind
/// `Instance::is_admissible` and the brute-force oracle).
#[inline]
#[must_use]
pub fn exceeds_capacity(load: f64, capacity: f64) -> bool {
    load > capacity * (1.0 + FEASIBILITY_SLACK) + FEASIBILITY_SLACK
}

/// `true` if `a` and `b` are equal up to the default tolerances.
///
/// Infinities compare equal to themselves, which matters when comparing
/// infeasible-configuration costs produced by different code paths.
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    approx_eq_tol(a, b, REL_TOL, ABS_TOL)
}

/// `true` if `a` and `b` are equal up to the given tolerances.
#[must_use]
pub fn approx_eq_tol(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    if a == b {
        return true; // covers equal infinities and exact hits
    }
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    let diff = (a - b).abs();
    diff <= abs || diff <= rel * a.abs().max(b.abs())
}

/// `true` if `a ≤ b` up to the default tolerances (i.e. `a` is not
/// significantly greater than `b`).
#[must_use]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b || approx_eq(a, b)
}

/// `true` if `a ≥ b` up to the default tolerances.
#[must_use]
pub fn approx_ge(a: f64, b: f64) -> bool {
    b <= a || approx_eq(a, b)
}

/// Numerically careful sum of a slice (Neumaier's variant of Kahan
/// summation). The DP tables accumulate costs over thousands of slots, so
/// plain summation noise would leak into oracle comparisons.
#[must_use]
pub fn stable_sum(values: &[f64]) -> f64 {
    let mut sum = 0.0_f64;
    let mut comp = 0.0_f64; // running compensation
    for &v in values {
        let t = sum + v;
        if sum.abs() >= v.abs() {
            comp += (sum - t) + v;
        } else {
            comp += (v - t) + sum;
        }
        sum = t;
    }
    sum + comp
}

/// Positive part `(x)^+ = max(x, 0)` for switching-cost expressions.
#[inline]
#[must_use]
pub fn pos(x: f64) -> f64 {
    x.max(0.0)
}

/// Positive difference of two `u32` counts as `f64`: `(a − b)^+`.
#[inline]
#[must_use]
pub fn pos_diff(a: u32, b: u32) -> f64 {
    a.saturating_sub(b) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0));
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.001));
        assert!(approx_eq(0.0, 1e-12));
    }

    #[test]
    fn approx_eq_infinities() {
        assert!(approx_eq(f64::INFINITY, f64::INFINITY));
        assert!(!approx_eq(f64::INFINITY, 1.0));
        assert!(!approx_eq(f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn approx_le_ge() {
        assert!(approx_le(1.0, 2.0));
        assert!(approx_le(2.0, 2.0 - 1e-13));
        assert!(!approx_le(2.1, 2.0));
        assert!(approx_ge(2.0, 1.0));
        assert!(approx_ge(1.0, 1.0 + 1e-13));
    }

    #[test]
    fn stable_sum_matches_naive_on_small_input() {
        let v = [1.0, 2.0, 3.5];
        assert_eq!(stable_sum(&v), 6.5);
    }

    #[test]
    fn stable_sum_is_more_accurate_than_naive() {
        // 1 + 2^-60 repeated: naive sum drops the tiny addend entirely.
        let mut v = vec![1.0];
        let tiny = (2.0_f64).powi(-60);
        v.extend(std::iter::repeat_n(tiny, 1 << 16));
        let expected = 1.0 + tiny * (1 << 16) as f64;
        let got = stable_sum(&v);
        assert!(approx_eq_tol(got, expected, 1e-15, 0.0), "{got} vs {expected}");
    }

    #[test]
    fn pos_helpers() {
        assert_eq!(pos(3.0), 3.0);
        assert_eq!(pos(-3.0), 0.0);
        assert_eq!(pos_diff(5, 3), 2.0);
        assert_eq!(pos_diff(3, 5), 0.0);
    }
}
