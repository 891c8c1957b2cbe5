//! Marginal-cost equalization for general convex costs.
//!
//! The KKT conditions of the separable problem say an allocation `y` is
//! optimal iff there is a price `ν` with
//!
//! * `Φ_j'(y_j) = ν` wherever `0 < y_j < cap_j`,
//! * `Φ_j'(0) ≥ ν` wherever `y_j = 0`,
//! * `Φ_j'(cap_j) ≤ ν` wherever `y_j = cap_j`.
//!
//! Define `y_j(ν) = sup { y ≤ cap_j : Φ_j'(y) ≤ ν }` (computed by
//! [`crate::Arm::volume_at_price`]): `0` below arm `j`'s marginal interval
//! `[Φ_j'(0), Φ_j'(cap_j)]`, `cap_j` above it. The total
//! `Y(ν) = Σ_j y_j(ν)` thus changes regime only at the at most `2d`
//! interval ends, the **breakpoints**, and the solver is an exact
//! breakpoint water-fill:
//!
//! 1. Binary-search the sorted breakpoints for the first one, `b`, with
//!    `Y(b) ≥ λ` (`b = ∞` past the highest: some marginal is not finite);
//!    `a` is the one before it. Strictly between them every arm is
//!    saturated, idle, or *interior* (its interval spans the segment).
//! 2. Saturated arms run at capacity. A single interior arm takes the rest
//!    up to its volume at `b` in closed form; several interior arms share
//!    it at the price a bracketed secant (regula falsi with the Illinois
//!    rule) finds inside `[a, b]`, after doubling the price from `a` when
//!    `b = ∞`. Only if that overflows does the saturation fallback place
//!    `λ` by ascending marginal cost.
//! 3. What is left goes to the arms whose interval starts at `b`, in
//!    proportion to their volume there. They all run at marginal cost `b`,
//!    so the split does not change the cost.
//!
//! A constant or affine arm's interval is the single point `Φ'(0) =
//! Φ'(cap)`, so it is never interior. A cell of such arms (the paper's
//! load-independent case, Corollary 9) always ends in step 3: the arms
//! cheaper than `b` saturate and those at `b` split the rest.
//!
//! Within one slot, every cell searches the same few breakpoint prices
//! and its arms repeat the same few `(type, count)` pairs. A slot context
//! hands `solve_in` its memos (`crate::memo`): each type's per-server
//! load `f_j'⁻¹(ν)` at a breakpoint price, computed once per
//! `(type, ν bits)` for the segment search and the volumes at `b`, and
//! `Φ'(0)`, `Φ'(cap)`, `Φ(0)`, `Φ(cap)` per `(type, count)`. The
//! bracketed secant and the fallback price their arbitrary `ν` directly.
//! Both memos are pure functions of their keys, filled by the same calls
//! a one-shot solve (which passes none) makes, so the value of a
//! configuration never depends on what was priced before it.

use crate::arms::Arm;
use crate::memo::Memo;
use crate::solution::Workspace;
use rsz_core::util::{
    exceeds_capacity, DISPATCH_MACRO_RESIDUAL, DISPATCH_MAX_ITER, DISPATCH_NOISE,
    DISPATCH_SHORTFALL, DISPATCH_STALL, DISPATCH_TOL,
};

/// One dispatch problem.
#[derive(Clone, Copy)]
struct Problem<'p> {
    arms: &'p [Arm<'p>],
    lambda: f64,
}

impl Problem<'_> {
    /// `y_j(ν)` of arm `j`, whose marginal interval is `[lo, hi]`;
    /// prices outside the interval cost no [`Arm::volume_at_price`] call,
    /// and those inside it read `memo`'s breakpoint loads.
    fn volume_at(&self, j: usize, (lo, hi): (f64, f64), nu: f64, memo: &mut Memo<'_>) -> f64 {
        if nu < lo {
            0.0
        } else if nu >= hi {
            self.arms[j].cap()
        } else {
            memo.volume_at_price(&self.arms[j], nu)
        }
    }

    /// The willing volume `Y(ν) = Σ_j y_j(ν)`.
    fn willing(&self, interval: &[(f64, f64)], nu: f64, memo: &mut Memo<'_>) -> f64 {
        (0..self.arms.len()).map(|j| self.volume_at(j, interval[j], nu, memo)).sum()
    }
}

/// Solve the dispatch problem with `0 < lambda ≤ Σ cap_j` into
/// `ws.volumes`, returning the cost (`f64::INFINITY` when no allocation
/// within capacity serves `lambda`). `memo` supplies the breakpoint loads
/// and the arms' ends ([`Memo::none`] computes them).
pub(crate) fn solve_in(
    arms: &[Arm<'_>],
    lambda: f64,
    ws: &mut Workspace,
    mut memo: Memo<'_>,
) -> f64 {
    let p = Problem { arms, lambda };
    ws.reset(arms.len());
    ws.prices.clear();
    for (j, arm) in arms.iter().enumerate() {
        let (lo, hi) = memo.interval(arm);
        ws.interval[j] = (lo, hi);
        // An affine arm's interval is a single point: one breakpoint.
        let ends = if hi.to_bits() == lo.to_bits() { &[lo][..] } else { &[lo, hi][..] };
        ws.prices.extend(ends.iter().copied().filter(|p| p.is_finite()));
    }
    ws.prices.sort_unstable_by(f64::total_cmp);
    ws.prices.dedup();
    // Binary search for the first breakpoint `b` with `Y(b) ≥ λ`, keeping
    // `Y` at the breakpoint `a` before it.
    let (mut k, mut end, mut y_a) = (0, ws.prices.len(), 0.0);
    while k < end {
        let mid = (k + end) / 2;
        let y = p.willing(&ws.interval, ws.prices[mid], &mut memo);
        if y < lambda {
            (k, y_a) = (mid + 1, y);
        } else {
            end = mid;
        }
    }
    let b = ws.prices.get(k).copied().unwrap_or(f64::INFINITY);
    let a = if k == 0 { f64::NEG_INFINITY } else { ws.prices[k - 1] };
    // Saturated arms run at capacity, the others take their volume at `b`:
    // `reach` on the interior arms, `top` on those whose interval starts at `b`.
    let (mut rest, mut reach, mut top, mut interior) = (lambda, 0.0, 0.0, (0, 0));
    for (j, arm) in arms.iter().enumerate() {
        let (lo, hi) = ws.interval[j];
        if hi <= a {
            ws.volumes[j] = arm.cap();
            rest -= arm.cap();
        } else {
            ws.volumes[j] = p.volume_at(j, (lo, hi), b, &mut memo);
            if lo >= b {
                top += ws.volumes[j];
            } else {
                reach += ws.volumes[j];
                interior = (interior.0 + 1, j);
            }
        }
    }
    // If λ is met inside the segment, a single interior arm takes the rest
    // in closed form; several share it at the price the secant finds.
    match interior {
        (1, i) if reach > rest => ws.volumes[i] = rest,
        (2.., _) if reach - rest > DISPATCH_TOL * lambda => {
            return illinois(p, (a, y_a - lambda), (b, reach - rest), ws, &mut memo);
        }
        _ => {}
    }
    // The arms flat at `b` share what is left (past capacity, nothing can).
    rest -= reach.min(rest);
    if exceeds_capacity(lambda, lambda - rest + top) {
        return f64::INFINITY;
    }
    let theta = if top > 0.0 { (rest / top).clamp(0.0, 1.0) } else { 0.0 };
    for (v, &(lo, hi)) in ws.volumes.iter_mut().zip(&ws.interval) {
        if hi > a && lo >= b {
            *v *= theta;
        }
    }
    settle(p, ws, &mut memo)
}

/// Several arms interior to the segment between the prices of `lo` and
/// `hi`, each paired with its excess `Y(ν) − λ` (at `hi` the limit from
/// below, without the arms flat there): regula falsi on `Y(ν) = λ`,
/// halving the stale end's excess whenever the same end survives twice
/// (the Illinois rule), until the excess or the bracket is within
/// [`DISPATCH_TOL`].
/// An infinite `hi` is first brought down by doubling the price. These
/// prices are not breakpoints, so they are priced without the memo.
fn illinois(
    p: Problem<'_>,
    mut lo: (f64, f64),
    mut hi: (f64, f64),
    ws: &mut Workspace,
    memo: &mut Memo<'_>,
) -> f64 {
    while hi.0 == f64::INFINITY {
        let nu = 2.0 * lo.0.max(0.5);
        if !nu.is_finite() {
            return saturation_fallback(p, lo.0, ws, memo);
        }
        let f = p.willing(&ws.interval, nu, &mut Memo::none()) - p.lambda;
        *(if f >= 0.0 { &mut hi } else { &mut lo }) = (nu, f);
    }
    let ((mut nu_lo, mut f_lo), (mut nu_hi, mut f_hi)) = (lo, hi);
    let mut side = 0;
    for _ in 0..DISPATCH_MAX_ITER {
        if nu_hi - nu_lo <= DISPATCH_TOL * nu_hi.abs().max(1.0) {
            break;
        }
        let secant = nu_lo - f_lo * (nu_hi - nu_lo) / (f_hi - f_lo);
        let nu = if nu_lo < secant && secant < nu_hi { secant } else { 0.5 * (nu_lo + nu_hi) };
        let f = p.willing(&ws.interval, nu, &mut Memo::none()) - p.lambda;
        if f >= 0.0 {
            (nu_hi, f_hi) = (nu, f);
            f_lo *= if side < 0 { 0.5 } else { 1.0 };
            side = -1;
        } else {
            (nu_lo, f_lo) = (nu, f);
            f_hi *= if side > 0 { 0.5 } else { 1.0 };
            side = 1;
        }
        if f.abs() <= DISPATCH_TOL * p.lambda {
            break;
        }
    }
    finish(p, nu_lo, nu_hi, ws, memo)
}

/// Blend the allocations at the bracket ends `nu_lo < nu_hi`, where
/// `Y(nu_lo) < λ ≤ Y(nu_hi)`, so the volume constraint holds: an arm
/// whose volume is the same at both ends (saturated, idle, or on a kink
/// of a piecewise-linear cost) keeps it exactly. At `nu_hi` an arm whose
/// interval starts there counts with none, as the bracket's excess does.
fn finish(p: Problem<'_>, nu_lo: f64, nu_hi: f64, ws: &mut Workspace, memo: &mut Memo<'_>) -> f64 {
    let Workspace { volumes, interval, y_lo, .. } = ws;
    let direct = &mut Memo::none();
    y_lo.resize(p.arms.len(), 0.0);
    for (j, &ends) in interval.iter().enumerate() {
        volumes[j] = if ends.0 >= nu_hi { 0.0 } else { p.volume_at(j, ends, nu_hi, direct) };
        y_lo[j] = p.volume_at(j, ends, nu_lo, direct);
    }
    let sum_hi: f64 = volumes.iter().sum();
    let sum_lo: f64 = y_lo.iter().sum();
    if sum_hi > sum_lo {
        let theta = ((p.lambda - sum_lo) / (sum_hi - sum_lo)).clamp(0.0, 1.0);
        for (v, &lo) in volumes.iter_mut().zip(y_lo.iter()) {
            *v = lo + theta * (*v - lo);
        }
    }
    settle(p, ws, memo)
}

/// Clamp the volumes into capacity, push any residual onto arms with
/// spare capacity and price the allocation (an arm at `0` or at capacity
/// from `memo`'s ends).
fn settle(p: Problem<'_>, ws: &mut Workspace, memo: &mut Memo<'_>) -> f64 {
    for (v, a) in ws.volumes.iter_mut().zip(p.arms) {
        *v = v.clamp(0.0, a.cap());
    }
    distribute_residual(&mut ws.volumes, p.arms, p.lambda, &mut ws.parked);
    ws.volumes.iter().zip(p.arms).map(|(&y, a)| memo.phi(a, y)).sum()
}

/// No finite price places λ: doubling the price overflowed first. Keep
/// each arm's volume at `nu_max`, the highest price reached, then place
/// the deficit by ascending marginal cost; if even full saturation falls
/// short, report infeasibility instead of an under-allocated "solution".
fn saturation_fallback(
    p: Problem<'_>,
    nu_max: f64,
    ws: &mut Workspace,
    memo: &mut Memo<'_>,
) -> f64 {
    for (v, a) in ws.volumes.iter_mut().zip(p.arms) {
        *v = a.volume_at_price(nu_max);
    }
    let cost = settle(p, ws, memo);
    let placed: f64 = ws.volumes.iter().sum();
    if placed < p.lambda - DISPATCH_SHORTFALL * p.lambda.max(1.0) {
        return f64::INFINITY;
    }
    cost
}

/// Chunks the residual distribution moves per marginal-cost re-check; a
/// coarse water-fill, so tied-marginal arms share large residuals
/// instead of the first one absorbing everything.
const RESIDUAL_CHUNKS: f64 = 32.0;

/// Push any residual `lambda − Σ y` (numerical leftovers, or the whole
/// deficit in the saturation fallback) onto arms with spare capacity so
/// the volume constraint holds to machine precision. Volume moves in
/// **marginal-cost order** — the cheapest `Φ'` absorbs first, the most
/// expensive gives back first — re-evaluated every [`RESIDUAL_CHUNKS`]-th
/// of the residual, so arms with (near-)tied marginals split large
/// residuals. `parked` is scratch space.
fn distribute_residual(vols: &mut [f64], arms: &[Arm<'_>], lambda: f64, parked: &mut Vec<bool>) {
    let total = lambda - vols.iter().sum::<f64>();
    if total.abs() <= DISPATCH_NOISE * lambda.max(1.0) {
        return;
    }
    // Tiny numerical residuals move in one piece; only macroscopic ones
    // (the saturation fallback) pay for the chunked water-fill.
    let chunk = if total.abs() > DISPATCH_MACRO_RESIDUAL * lambda.max(1.0) {
        total.abs() / RESIDUAL_CHUNKS
    } else {
        total.abs()
    };
    // Arms whose remaining headroom is too small to advance `residual`
    // at f64 precision are parked so the loop always terminates.
    parked.clear();
    parked.resize(arms.len(), false);
    let mut residual = total;
    if residual > 0.0 {
        while residual > 0.0 {
            let next = (0..arms.len())
                .filter(|&i| !parked[i] && arms[i].cap() - vols[i] > 0.0)
                .min_by(|&a, &b| arms[a].phi_deriv(vols[a]).total_cmp(&arms[b].phi_deriv(vols[b])));
            let Some(i) = next else { break };
            let spare = arms[i].cap() - vols[i];
            let take = residual.min(spare).min(chunk);
            if take <= residual * DISPATCH_STALL {
                parked[i] = true;
                continue;
            }
            vols[i] += take;
            residual -= take;
        }
    } else {
        while residual < 0.0 {
            let next = (0..arms.len())
                .filter(|&i| !parked[i] && vols[i] > 0.0)
                .max_by(|&a, &b| arms[a].phi_deriv(vols[a]).total_cmp(&arms[b].phi_deriv(vols[b])));
            let Some(i) = next else { break };
            let give = (-residual).min(vols[i]).min(chunk);
            if give <= -residual * DISPATCH_STALL {
                parked[i] = true;
                continue;
            }
            vols[i] -= give;
            residual += give;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arms::collect;
    use crate::{DispatchSolution, Dispatcher};
    use rsz_core::{CostModel, Instance, ServerType};

    /// Every case runs through the dispatcher's one entry point.
    fn solve(arms: &[Arm<'_>], lambda: f64) -> DispatchSolution {
        Dispatcher::new().solve_arms(arms, lambda)
    }

    #[test]
    fn equalizes_marginal_costs_on_smooth_arms() {
        // Two quadratic types; optimum has equal marginal cost.
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 2, 1.0, 10.0, CostModel::power(0.0, 1.0, 2.0)))
            .server_type(ServerType::new("b", 1, 1.0, 10.0, CostModel::power(0.0, 2.0, 2.0)))
            .loads(vec![3.0])
            .build()
            .unwrap();
        let arms = collect(&inst, 0, &[2, 1]);
        let sol = solve(&arms, 3.0);
        let m0 = arms[0].phi_deriv(sol.volumes[0]);
        let m1 = arms[1].phi_deriv(sol.volumes[1]);
        assert!((m0 - m1).abs() < 1e-6, "marginals {m0} vs {m1}");
        let total: f64 = sol.volumes.iter().sum();
        assert!((total - 3.0).abs() < 1e-9);
    }

    #[test]
    fn respects_capacity_saturation() {
        // Cheap arm saturates; remainder flows to expensive arm.
        let inst = Instance::builder()
            .server_type(ServerType::new("small", 1, 1.0, 1.0, CostModel::power(0.0, 1.0, 2.0)))
            .server_type(ServerType::new("big", 1, 1.0, 10.0, CostModel::power(0.0, 10.0, 2.0)))
            .loads(vec![5.0])
            .build()
            .unwrap();
        let arms = collect(&inst, 0, &[1, 1]);
        let sol = solve(&arms, 5.0);
        let total: f64 = sol.volumes.iter().sum();
        assert!((total - 5.0).abs() < 1e-9);
        assert!(sol.volumes[0] <= 1.0 + 1e-9);
        // KKT at saturation: Φ'_small(cap) ≤ ν = Φ'_big(y_big)
        assert!(arms[0].phi_deriv(sol.volumes[0]) <= arms[1].phi_deriv(sol.volumes[1]) + 1e-6);
    }

    #[test]
    fn piecewise_flat_derivative_blend() {
        use rsz_core::cost::PiecewiseLinearCost;
        // Two identical piecewise-linear arms with a long flat-slope
        // segment: many optima; solver must still hit the volume exactly.
        let pwl = CostModel::PiecewiseLinear(PiecewiseLinearCost::new(&[
            (0.0, 1.0),
            (1.0, 2.0),
            (4.0, 5.0), // slope 1 on [1,4]
        ]));
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 1, 1.0, 4.0, pwl.clone()))
            .server_type(ServerType::new("b", 1, 1.0, 4.0, pwl))
            .loads(vec![5.0])
            .build()
            .unwrap();
        let arms = collect(&inst, 0, &[1, 1]);
        let sol = solve(&arms, 5.0);
        let total: f64 = sol.volumes.iter().sum();
        assert!((total - 5.0).abs() < 1e-9, "{:?}", sol.volumes);
        // cost = idle 2 + slope-1 volume (5) = 7 exactly (both slopes 1)
        assert!((sol.cost - 7.0).abs() < 1e-6, "{}", sol.cost);
    }

    /// A convex cost whose derivative overflows every representable
    /// price long before the capacity: `f(z) = coef·z^8` with `coef`
    /// near `f64::MAX`. No `deriv_inv`, so pricing must bisect.
    #[derive(Debug)]
    struct SteepPower {
        coef: f64,
    }
    impl rsz_core::CostFunction for SteepPower {
        fn eval(&self, z: f64) -> f64 {
            self.coef * z.powi(8)
        }
        fn deriv(&self, z: f64) -> f64 {
            8.0 * self.coef * z.powi(7)
        }
    }

    /// Steep *linear* custom cost: `f(z) = rate·z` with an astronomic
    /// rate and no `deriv_inv`, so `Φ'(0)` already exceeds any bracket.
    #[derive(Debug)]
    struct SteepLinear {
        rate: f64,
    }
    impl rsz_core::CostFunction for SteepLinear {
        fn eval(&self, z: f64) -> f64 {
            self.rate * z
        }
        fn deriv(&self, _z: f64) -> f64 {
            self.rate
        }
    }

    #[test]
    fn exhausted_bracket_falls_back_to_saturation() {
        // Regression: the 128-doubling price bracket tops out at 2^128,
        // far below this cost's marginals; the solver used to bisect the
        // invalid bracket and silently return an under-allocated
        // solution. Now it saturates by marginal cost instead.
        use std::sync::Arc;
        let inst = Instance::builder()
            .server_type(ServerType::new(
                "steep",
                1,
                1.0,
                1.0,
                CostModel::Custom(Arc::new(SteepPower { coef: 1e300 })),
            ))
            .loads(vec![0.9])
            .build()
            .unwrap();
        let arms = collect(&inst, 0, &[1]);
        let sol = solve(&arms, 0.9);
        assert!(sol.is_feasible());
        let total: f64 = sol.volumes.iter().sum();
        assert!((total - 0.9).abs() < 1e-9, "under-allocated: {:?}", sol.volumes);
        let expected = arms[0].phi(0.9);
        assert!(
            (sol.cost - expected).abs() <= 1e-9 * expected,
            "cost {} vs forced-allocation cost {expected}",
            sol.cost
        );
        // Demanding more than the capacity must come back at infinite
        // cost, not as a quietly short allocation.
        let past = solve(&arms, 1.5);
        assert!(!past.is_feasible() && past.cost == f64::INFINITY, "{past:?}");
    }

    #[test]
    fn exhausted_bracket_residual_prefers_cheap_arm() {
        // Two bracket-busting arms, the *expensive* one declared first.
        // The old declaration-order residual push landed all volume on
        // it; marginal-cost order must pick the 1e20× cheaper arm, in
        // agreement with the brute-force oracle.
        use std::sync::Arc;
        let inst = Instance::builder()
            .server_type(ServerType::new(
                "pricey",
                1,
                1.0,
                2.0,
                CostModel::Custom(Arc::new(SteepLinear { rate: 1e300 })),
            ))
            .server_type(ServerType::new(
                "cheap",
                1,
                1.0,
                2.0,
                CostModel::Custom(Arc::new(SteepLinear { rate: 1e280 })),
            ))
            .loads(vec![1.5])
            .build()
            .unwrap();
        let arms = collect(&inst, 0, &[1, 1]);
        let sol = solve(&arms, 1.5);
        assert!(sol.is_feasible());
        let total: f64 = sol.volumes.iter().sum();
        assert!((total - 1.5).abs() < 1e-9, "{:?}", sol.volumes);
        assert!(sol.volumes[0] < 1e-9, "volume on the 1e20x pricier arm: {:?}", sol.volumes);
        let oracle = crate::brute::solve(&arms, 1.5, 600);
        assert!(
            sol.cost <= oracle.cost * (1.0 + 1e-9),
            "kkt {} worse than brute {}",
            sol.cost,
            oracle.cost
        );
    }

    #[test]
    fn exhausted_bracket_splits_tied_marginal_arms() {
        // Two *identical* bracket-busting arms: a single greedy pass
        // would park the whole volume on the first one (2^7 times the
        // optimal cost); the chunked water-fill must split near-evenly.
        use std::sync::Arc;
        let inst = Instance::builder()
            .server_type(ServerType::new(
                "a",
                1,
                1.0,
                1.0,
                CostModel::Custom(Arc::new(SteepPower { coef: 1e300 })),
            ))
            .server_type(ServerType::new(
                "b",
                1,
                1.0,
                1.0,
                CostModel::Custom(Arc::new(SteepPower { coef: 1e300 })),
            ))
            .loads(vec![1.0])
            .build()
            .unwrap();
        let arms = collect(&inst, 0, &[1, 1]);
        let sol = solve(&arms, 1.0);
        assert!(sol.is_feasible());
        let total: f64 = sol.volumes.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{:?}", sol.volumes);
        for &y in &sol.volumes {
            assert!((y - 0.5).abs() <= 0.04, "lopsided split {:?}", sol.volumes);
        }
        let oracle = crate::brute::solve(&arms, 1.0, 600);
        assert!(
            sol.cost <= oracle.cost * 1.2,
            "kkt {} far above brute {} (even split)",
            sol.cost,
            oracle.cost
        );
    }

    #[test]
    fn several_interior_arms_share_a_segment_topped_by_a_flat_arm() {
        // Φ' is y on `pow`, 0.5 + y/2 on `quad`, and 1 on `lin`: the
        // breakpoints 0, 0.5, 1, 2.5, 4 put λ = 1.2 in the segment
        // (0.5, 1], with `pow` and `quad` interior and `lin` flat at its
        // top. The secant meets λ at ν = 2.2/3 inside it; `lin` stays
        // idle. At λ = 3 both interior arms reach ν = 1 and `lin` takes
        // the rest.
        let inst = Instance::builder()
            .server_type(ServerType::new("pow", 1, 1.0, 4.0, CostModel::power(0.0, 0.5, 2.0)))
            .server_type(ServerType::new("quad", 1, 1.0, 4.0, CostModel::quadratic(0.0, 0.5, 0.25)))
            .server_type(ServerType::new("lin", 1, 1.0, 2.0, CostModel::linear(0.0, 1.0)))
            .loads(vec![1.2])
            .build()
            .unwrap();
        let arms = collect(&inst, 0, &[1, 1, 1]);
        let nu = 2.2 / 3.0;
        let sol = solve(&arms, 1.2);
        for (got, want) in sol.volumes.iter().zip([nu, 2.0 * (nu - 0.5), 0.0]) {
            assert!((got - want).abs() < 1e-9, "{:?}", sol.volumes);
        }
        let sol = solve(&arms, 3.0);
        for (got, want) in sol.volumes.iter().zip([1.0, 1.0, 1.0]) {
            assert!((got - want).abs() < 1e-9, "{:?}", sol.volumes);
        }
    }

    /// `f(z) = s·(1 − √(1 − z))` on `[0, 1]`: finite, convex and
    /// increasing, with an infinite marginal cost at capacity. No
    /// `deriv_inv`.
    #[derive(Debug)]
    struct Wall(f64);
    impl rsz_core::CostFunction for Wall {
        fn eval(&self, z: f64) -> f64 {
            self.0 * (1.0 - (1.0 - z.min(1.0)).sqrt())
        }
        fn deriv(&self, z: f64) -> f64 {
            0.5 * self.0 / (1.0 - z.min(1.0)).sqrt()
        }
    }

    fn wall(name: &str, s: f64) -> ServerType {
        ServerType::new(name, 1, 1.0, 1.0, CostModel::Custom(std::sync::Arc::new(Wall(s))))
    }

    #[test]
    fn one_infinite_marginal_arm_takes_the_rest_in_closed_form() {
        // The wall's Φ'(cap) is infinite, so the last finite breakpoint
        // (the linear rate 1) only reaches Y(1) = 2 + 0.75 < λ = 2.9. Above
        // it the wall is the only arm with spare capacity: it takes the
        // rest, the linear arms stay saturated.
        let inst = Instance::builder()
            .server_type(wall("wall", 1.0))
            .server_type(ServerType::new("lin", 2, 1.0, 1.0, CostModel::linear(0.5, 1.0)))
            .loads(vec![2.9])
            .build()
            .unwrap();
        let arms = collect(&inst, 0, &[1, 2]);
        let sol = solve(&arms, 2.9);
        assert!(sol.is_feasible());
        assert!((sol.volumes[0] - 0.9).abs() < 1e-9, "{:?}", sol.volumes);
        assert_eq!(sol.volumes[1], 2.0);
        let oracle = crate::brute::solve(&arms, 2.9, 2000);
        assert!(sol.cost <= oracle.cost * (1.0 + 1e-9), "{} vs brute {}", sol.cost, oracle.cost);
        // Past capacity nothing places the volume: the cost is infinite.
        let past = solve(&arms, 3.5);
        assert!(!past.is_feasible() && past.cost == f64::INFINITY, "{past:?}");
    }

    #[test]
    fn several_infinite_marginal_arms_share_the_last_segment() {
        // Walls with Φ'(y) = 0.5/√(1−y) and 1.5/√(1−y) (breakpoints 0.5
        // and 1.5, no finite Φ'(cap)), with and without a saturated linear
        // arm at rate 1 beside them. The walls take 1.6 at the common
        // price ν = 2.5 (2 − 2.5/ν² = 1.6): 0.96 and 0.64, far above the
        // last finite breakpoint.
        let inst = Instance::builder()
            .server_type(wall("w1", 1.0))
            .server_type(wall("w3", 3.0))
            .server_type(ServerType::new("lin", 1, 1.0, 1.0, CostModel::linear(0.0, 1.0)))
            .loads(vec![1.6])
            .build()
            .unwrap();
        for lin in [0, 1] {
            let arms = collect(&inst, 0, &[1, 1, lin]);
            let lambda = 1.6 + f64::from(lin);
            let sol = solve(&arms, lambda);
            for (got, want) in sol.volumes.iter().zip([0.96, 0.64, 1.0]) {
                assert!((got - want).abs() < 1e-9, "lin {lin}: {:?}", sol.volumes);
            }
            let m = [arms[0].phi_deriv(sol.volumes[0]), arms[1].phi_deriv(sol.volumes[1])];
            assert!((m[0] - 2.5).abs() < 1e-6 && (m[1] - 2.5).abs() < 1e-6, "marginals {m:?}");
            let oracle = crate::brute::solve(&arms, lambda, 2000);
            assert!(sol.cost <= oracle.cost * (1.0 + 1e-9), "{} vs {}", sol.cost, oracle.cost);
        }
    }

    #[test]
    fn residual_distribution_follows_marginal_cost_order() {
        // Direct regression on the residual pass: the pricier arm is
        // declared first, so declaration order would mis-place volume.
        let inst = Instance::builder()
            .server_type(ServerType::new("pricey", 1, 1.0, 2.0, CostModel::power(0.0, 5.0, 2.0)))
            .server_type(ServerType::new("cheap", 1, 1.0, 2.0, CostModel::power(0.0, 1.0, 2.0)))
            .loads(vec![1.0])
            .build()
            .unwrap();
        let arms = collect(&inst, 0, &[1, 1]);
        // Positive residual: both arms idle at equal volume, cheap arm
        // has the lower marginal there → it takes the whole top-up.
        let mut vols = vec![0.5, 0.5];
        distribute_residual(&mut vols, &arms, 2.0, &mut Vec::new());
        assert!((vols[0] - 0.5).abs() < 1e-12, "{vols:?}");
        assert!((vols[1] - 1.5).abs() < 1e-12, "{vols:?}");
        // Negative residual: volume is given back by the *most*
        // expensive marginal first.
        let mut vols = vec![1.0, 1.0];
        distribute_residual(&mut vols, &arms, 1.2, &mut Vec::new());
        assert!((vols[0] - 0.2).abs() < 1e-12, "{vols:?}");
        assert!((vols[1] - 1.0).abs() < 1e-12, "{vols:?}");
        // Cross-check the positive case against the dense oracle: with
        // marginals 10y vs 2y the true optimum at λ=2 is y=(1/3, 5/3);
        // the single greedy pass lands within the brute grid's accuracy
        // of that but must never *beat* it by more than the grid gap.
        let greedy_cost: f64 =
            [0.5, 1.5].iter().zip(&arms).map(|(&y, a): (&f64, _)| a.phi(y)).sum();
        let oracle = crate::brute::solve(&arms, 2.0, 2000);
        assert!(oracle.cost <= greedy_cost + 1e-9);
    }

    #[test]
    fn single_arm_forced_allocation() {
        let inst = Instance::builder()
            .server_type(ServerType::new("only", 3, 1.0, 2.0, CostModel::power(1.0, 2.0, 3.0)))
            .loads(vec![4.5])
            .build()
            .unwrap();
        let arms = collect(&inst, 0, &[3]);
        let sol = solve(&arms, 4.5);
        assert!((sol.volumes[0] - 4.5).abs() < 1e-9);
        // cost = 3·(1 + 2·(1.5)³)
        let expected = 3.0 * (1.0 + 2.0 * 1.5_f64.powi(3));
        assert!((sol.cost - expected).abs() < 1e-7);
    }
}
