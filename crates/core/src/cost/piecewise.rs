//! Convex piecewise-linear operating cost — empirical power curves.

use super::CostFunction;
use crate::util::BREAKPOINT_TOL;

/// A convex, increasing piecewise-linear function through breakpoints
/// `(z_0, c_0), …, (z_k, c_k)` with `z_0 = 0`, extended linearly beyond the
/// last breakpoint with the final segment's slope.
///
/// This is how measured server power curves (e.g. SPECpower data) enter
/// the model: sample the curve, take the convex lower envelope, feed the
/// breakpoints in.
#[derive(Clone, Debug, PartialEq)]
pub struct PiecewiseLinearCost {
    /// Breakpoint loads, strictly increasing, starting at 0.
    zs: Vec<f64>,
    /// Costs at the breakpoints, non-decreasing, convex.
    cs: Vec<f64>,
    /// Segment slopes, `slopes[i]` applies on `[zs[i], zs[i+1])`.
    slopes: Vec<f64>,
}

impl PiecewiseLinearCost {
    /// Build from breakpoints `(z, cost)`.
    ///
    /// # Panics
    /// Panics unless there are ≥ 2 points, the first load is `0`, loads are
    /// strictly increasing, costs are non-negative and non-decreasing, and
    /// the induced slopes are non-decreasing (convexity).
    #[must_use]
    pub fn new(points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two breakpoints");
        assert!(points[0].0 == 0.0, "first breakpoint must be at load 0");
        let mut zs = Vec::with_capacity(points.len());
        let mut cs = Vec::with_capacity(points.len());
        for &(z, c) in points {
            assert!(z.is_finite() && c.is_finite(), "breakpoints must be finite");
            assert!(c >= 0.0, "costs must be non-negative");
            if let Some(&prev) = zs.last() {
                assert!(z > prev, "breakpoint loads must be strictly increasing");
            }
            if let Some(&prev) = cs.last() {
                assert!(c >= prev, "cost must be non-decreasing (increasing function)");
            }
            zs.push(z);
            cs.push(c);
        }
        let mut slopes = Vec::with_capacity(zs.len() - 1);
        for i in 0..zs.len() - 1 {
            let s = (cs[i + 1] - cs[i]) / (zs[i + 1] - zs[i]);
            if let Some(&prev) = slopes.last() {
                assert!(
                    s >= prev - BREAKPOINT_TOL,
                    "slopes must be non-decreasing for convexity (segment {i}: {s} < {prev})"
                );
            }
            slopes.push(s);
        }
        Self { zs, cs, slopes }
    }

    /// The breakpoints this function interpolates.
    pub fn breakpoints(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.zs.iter().copied().zip(self.cs.iter().copied())
    }

    /// Build from *measured* samples by taking their lower convex
    /// envelope — the way empirical power curves (e.g. SPECpower load
    /// steps) enter the model without hand-massaging: samples that sit
    /// above the envelope (measurement noise, thermal throttling
    /// artifacts) are dropped automatically.
    ///
    /// Samples are sorted by load; duplicates keep the cheapest cost; a
    /// sample at load 0 is required (idle power must be measured). The
    /// result is also forced non-decreasing by clipping costs from below
    /// at the running maximum before the envelope is taken.
    ///
    /// # Panics
    /// Panics if fewer than 2 distinct loads remain or no sample has
    /// load 0.
    #[must_use]
    pub fn convex_envelope(samples: &[(f64, f64)]) -> Self {
        let mut pts: Vec<(f64, f64)> = samples
            .iter()
            .copied()
            .filter(|(z, c)| z.is_finite() && c.is_finite() && *z >= 0.0 && *c >= 0.0)
            .collect();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite loads"));
        // Deduplicate loads, keeping the cheapest measurement.
        pts.dedup_by(|next, prev| {
            if (next.0 - prev.0).abs() < BREAKPOINT_TOL {
                prev.1 = prev.1.min(next.1);
                true
            } else {
                false
            }
        });
        assert!(pts.len() >= 2, "need at least two distinct sample loads");
        assert!(pts[0].0 == 0.0, "a load-0 (idle) sample is required");
        // Lower convex hull (Andrew's monotone chain on the lower side):
        // drops samples above any chord (noise/throttling artifacts).
        let mut hull: Vec<(f64, f64)> = Vec::with_capacity(pts.len());
        for p in pts {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // b above segment a→p ⇒ b is not on the lower envelope.
                let cross = (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0);
                if cross <= BREAKPOINT_TOL {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(p);
        }
        // Monotonize: dips below the running maximum (sub-idle noise) are
        // clipped up. For a convex sequence this preserves convexity: the
        // clipped prefix is flat (slope 0) and the first unclipped
        // segment's slope only shrinks toward it.
        let mut running = 0.0_f64;
        for p in &mut hull {
            running = running.max(p.1);
            p.1 = running;
        }
        Self::new(&hull)
    }

    /// Index of the segment containing load `z` (last segment if beyond).
    fn segment(&self, z: f64) -> usize {
        // zs is short (empirical curves have a handful of points), so a
        // linear scan beats binary search in practice.
        let mut i = 0;
        while i + 1 < self.slopes.len() && z >= self.zs[i + 1] {
            i += 1;
        }
        i
    }
}

impl CostFunction for PiecewiseLinearCost {
    fn eval(&self, z: f64) -> f64 {
        let i = self.segment(z);
        self.cs[i] + self.slopes[i] * (z - self.zs[i])
    }

    fn deriv(&self, z: f64) -> f64 {
        // Right derivative at breakpoints, consistent with the dispatch
        // solver's sup-based willing volume `y(ν) = sup { y : Φ'(y) ≤ ν }`.
        self.slopes[self.segment(z)]
    }

    fn deriv_inv(&self, slope: f64) -> Option<f64> {
        // Largest z whose right-derivative is ≤ slope: scan segments.
        if self.slopes.is_empty() || slope < self.slopes[0] {
            return Some(0.0);
        }
        let last = *self.slopes.last().unwrap();
        if slope >= last {
            return Some(f64::INFINITY);
        }
        // First segment whose slope exceeds `slope`: optimal load is its
        // left endpoint.
        for (i, &s) in self.slopes.iter().enumerate() {
            if s > slope {
                return Some(self.zs[i]);
            }
        }
        Some(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::approx_eq;

    fn curve() -> PiecewiseLinearCost {
        // idle 1.0, then slopes 1, 2, 4
        PiecewiseLinearCost::new(&[(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (3.0, 8.0)])
    }

    #[test]
    fn interpolates_breakpoints() {
        let f = curve();
        assert!(approx_eq(f.eval(0.0), 1.0));
        assert!(approx_eq(f.eval(1.0), 2.0));
        assert!(approx_eq(f.eval(2.0), 4.0));
        assert!(approx_eq(f.eval(3.0), 8.0));
    }

    #[test]
    fn interpolates_between_and_extends_beyond() {
        let f = curve();
        assert!(approx_eq(f.eval(0.5), 1.5));
        assert!(approx_eq(f.eval(2.5), 6.0));
        assert!(approx_eq(f.eval(4.0), 12.0)); // extends with slope 4
    }

    #[test]
    fn right_derivative() {
        let f = curve();
        assert!(approx_eq(f.deriv(0.0), 1.0));
        assert!(approx_eq(f.deriv(1.0), 2.0));
        assert!(approx_eq(f.deriv(2.5), 4.0));
    }

    #[test]
    fn deriv_inv_picks_segment_boundaries() {
        let f = curve();
        assert_eq!(f.deriv_inv(0.5), Some(0.0));
        assert_eq!(f.deriv_inv(1.5), Some(1.0));
        assert_eq!(f.deriv_inv(3.0), Some(2.0));
        assert_eq!(f.deriv_inv(4.0), Some(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "slopes must be non-decreasing")]
    fn rejects_concave_points() {
        let _ = PiecewiseLinearCost::new(&[(0.0, 0.0), (1.0, 2.0), (2.0, 3.0)]);
    }

    #[test]
    fn envelope_drops_outliers_above() {
        // A noisy middle sample above the chord is discarded.
        let f = PiecewiseLinearCost::convex_envelope(&[
            (0.0, 1.0),
            (1.0, 9.0), // thermal artifact: way above the 0→2 chord
            (2.0, 3.0),
        ]);
        assert_eq!(f.breakpoints().count(), 2);
        assert!(approx_eq(f.eval(1.0), 2.0)); // interpolated, not 9
    }

    #[test]
    fn envelope_keeps_convex_samples() {
        let f = PiecewiseLinearCost::convex_envelope(&[
            (2.0, 4.0),
            (0.0, 1.0),
            (1.0, 2.0), // below the 0→2 chord (1 + 1.5) → kept
            (3.0, 8.0),
        ]);
        assert_eq!(f.breakpoints().count(), 4);
        assert!(approx_eq(f.eval(1.0), 2.0));
    }

    #[test]
    fn envelope_dedups_and_monotonizes() {
        // Duplicate loads keep the cheaper cost; a dipping sample is
        // raised to the running maximum before hulling.
        let f = PiecewiseLinearCost::convex_envelope(&[
            (0.0, 2.0),
            (0.0, 1.0), // duplicate load, cheaper → wins
            (1.0, 0.5), // dips below idle → clipped up to 1.0
            (2.0, 3.0),
        ]);
        assert!(approx_eq(f.eval(0.0), 1.0));
        // non-decreasing everywhere
        assert!(f.eval(0.5) >= f.eval(0.0) - 1e-12);
        assert!(f.eval(2.0) >= f.eval(1.0));
    }

    #[test]
    #[should_panic(expected = "load-0")]
    fn envelope_requires_idle_sample() {
        let _ = PiecewiseLinearCost::convex_envelope(&[(1.0, 1.0), (2.0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_duplicate_loads() {
        let _ = PiecewiseLinearCost::new(&[(0.0, 0.0), (0.0, 1.0)]);
    }
}
