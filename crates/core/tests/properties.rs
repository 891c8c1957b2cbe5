//! Property-based tests for the core model.

use proptest::prelude::*;
use rsz_core::util::{approx_eq, approx_ge, approx_le, stable_sum};
use std::sync::Arc;

use rsz_core::{Config, CostFunction, CostModel, CostSpec, Instance, ServerType};

fn cost_model_strategy() -> impl Strategy<Value = CostModel> {
    prop_oneof![
        (0.0..5.0_f64).prop_map(CostModel::constant),
        (0.0..5.0_f64, 0.0..5.0_f64).prop_map(|(i, r)| CostModel::linear(i, r)),
        (0.0..5.0_f64, 0.0..3.0_f64, 1.0..3.0_f64).prop_map(|(i, c, a)| CostModel::power(i, c, a)),
        (0.0..5.0_f64, 0.0..3.0_f64, 0.0..2.0_f64)
            .prop_map(|(i, a, b)| CostModel::quadratic(i, a, b)),
    ]
}

/// A concave cost: what a mis-specified `Custom` model looks like.
#[derive(Debug)]
struct Concave;

impl CostFunction for Concave {
    fn eval(&self, z: f64) -> f64 {
        (1.0 + z).sqrt()
    }
}

/// A built-in model, or (one time in six) the concave one.
fn maybe_concave_strategy() -> impl Strategy<Value = CostModel> {
    (0u8..6, cost_model_strategy()).prop_map(|(k, m)| {
        if k == 0 {
            CostModel::Custom(Arc::new(Concave))
        } else {
            m
        }
    })
}

/// Uniform, scaled and per-slot cost specs. The time-dependent ones
/// cover 0–9 slots, so a longer horizon outruns them, and a uniform or
/// per-slot spec may hold a concave model.
fn cost_spec_strategy() -> impl Strategy<Value = CostSpec> {
    prop_oneof![
        maybe_concave_strategy().prop_map(CostSpec::Uniform),
        (cost_model_strategy(), prop::collection::vec(0.0..2.0_f64, 0..10))
            .prop_map(|(model, factors)| CostSpec::scaled(model, factors)),
        prop::collection::vec(maybe_concave_strategy(), 0..10).prop_map(CostSpec::per_slot),
    ]
}

proptest! {
    /// Every built-in cost model is non-negative and non-decreasing.
    #[test]
    fn cost_models_are_increasing(model in cost_model_strategy(), z1 in 0.0..10.0_f64, z2 in 0.0..10.0_f64) {
        let (lo, hi) = if z1 <= z2 { (z1, z2) } else { (z2, z1) };
        prop_assert!(model.eval(lo) >= 0.0);
        prop_assert!(approx_le(model.eval(lo), model.eval(hi)));
    }

    /// Midpoint convexity for every built-in model.
    #[test]
    fn cost_models_are_convex(model in cost_model_strategy(), z1 in 0.0..10.0_f64, z2 in 0.0..10.0_f64) {
        let mid = 0.5 * (z1 + z2);
        let lhs = model.eval(mid);
        let rhs = 0.5 * (model.eval(z1) + model.eval(z2));
        prop_assert!(lhs <= rhs + 1e-9 * rhs.abs().max(1.0), "{lhs} > {rhs}");
    }

    /// The derivative is consistent with finite differences.
    #[test]
    fn derivatives_match_finite_differences(model in cost_model_strategy(), z in 0.1..10.0_f64) {
        let h = 1e-6 * z.max(1.0);
        let fd = (model.eval(z + h) - model.eval(z - h)) / (2.0 * h);
        let an = model.deriv(z);
        prop_assert!((fd - an).abs() <= 1e-3 * an.abs().max(1.0), "fd {fd} vs deriv {an}");
    }

    /// `deriv_inv` (when present) inverts `deriv` up to flat regions:
    /// the returned load's derivative never exceeds the queried slope.
    #[test]
    fn deriv_inv_is_sup_of_sublevel(model in cost_model_strategy(), slope in 0.0..20.0_f64) {
        if let Some(z) = model.deriv_inv(slope) {
            if z.is_finite() && z > 0.0 {
                // Derivative just below z stays ≤ slope.
                let probe = (z - 1e-9 * z.max(1.0)).max(0.0);
                prop_assert!(model.deriv(probe) <= slope + 1e-6);
            }
        }
    }

    /// Switching cost is a quasi-metric: non-negative, zero on the
    /// diagonal, and triangle inequality holds for the power-up metric.
    #[test]
    fn switching_cost_quasi_metric(
        a in prop::collection::vec(0u32..6, 2..4),
        b in prop::collection::vec(0u32..6, 2..4),
        c in prop::collection::vec(0u32..6, 2..4),
        betas in prop::collection::vec(0.0..5.0_f64, 2..4),
    ) {
        let d = a.len().min(b.len()).min(c.len()).min(betas.len());
        let types: Vec<ServerType> = betas[..d]
            .iter()
            .enumerate()
            .map(|(j, &beta)| ServerType::new(format!("t{j}"), 10, beta, 1.0, CostModel::constant(1.0)))
            .collect();
        let ca = Config::new(a[..d].to_vec());
        let cb = Config::new(b[..d].to_vec());
        let cc = Config::new(c[..d].to_vec());
        let sab = ca.switching_cost_to(&cb, &types);
        let sbc = cb.switching_cost_to(&cc, &types);
        let sac = ca.switching_cost_to(&cc, &types);
        prop_assert!(sab >= 0.0);
        prop_assert!(approx_eq(ca.switching_cost_to(&ca, &types), 0.0));
        prop_assert!(approx_le(sac, sab + sbc), "triangle: {sac} > {sab} + {sbc}");
    }

    /// max_with dominates both arguments and is the least upper bound.
    #[test]
    fn config_max_is_least_upper_bound(
        a in prop::collection::vec(0u32..9, 1..5),
        b in prop::collection::vec(0u32..9, 1..5),
    ) {
        let d = a.len().min(b.len());
        let ca = Config::new(a[..d].to_vec());
        let cb = Config::new(b[..d].to_vec());
        let m = ca.max_with(&cb);
        prop_assert!(m.dominates(&ca) && m.dominates(&cb));
        for j in 0..d {
            prop_assert!(m.count(j) == ca.count(j) || m.count(j) == cb.count(j));
        }
    }

    /// stable_sum equals the exact rational sum of small integers.
    #[test]
    fn stable_sum_exact_on_integers(xs in prop::collection::vec(-1000i64..1000, 0..200)) {
        let v: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
        let expected: i64 = xs.iter().sum();
        prop_assert_eq!(stable_sum(&v), expected as f64);
    }

    /// Instance validation accepts feasible random instances and the
    /// accessors agree with the inputs.
    #[test]
    fn builder_roundtrip(
        loads in prop::collection::vec(0.0..3.0_f64, 1..12),
        beta in 0.0..5.0_f64,
        idle in 0.0..3.0_f64,
    ) {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 5, beta, 1.0, CostModel::constant(idle)))
            .loads(loads.clone())
            .build();
        // feasible iff every load ≤ 5.0 (guaranteed by the range)
        let inst = inst.expect("feasible by construction");
        prop_assert_eq!(inst.horizon(), loads.len());
        for (t, &l) in loads.iter().enumerate() {
            prop_assert!(approx_ge(inst.load(t), l) && approx_le(inst.load(t), l));
        }
    }

    /// Revealing loads one at a time through `Instance::push_load`
    /// accepts and rejects exactly as building the same prefix does —
    /// same error, same resulting instance — for static fleets with NaN,
    /// infinite, negative and over-capacity loads mixed in. A rejected
    /// load leaves the instance as it was, and the next push continues
    /// from the accepted prefix.
    #[test]
    fn push_load_accepts_and_rejects_like_build(
        fleet in prop::collection::vec(
            (1u32..5, 0.0..3.0_f64, 0.5..3.0_f64, cost_spec_strategy()),
            1..4,
        ),
        draws in prop::collection::vec((0u8..8, 0.0..1.3_f64), 0..14),
    ) {
        let types: Vec<ServerType> = fleet
            .into_iter()
            .enumerate()
            .map(|(j, (m, beta, zmax, spec))| ServerType::with_spec(format!("t{j}"), m, beta, zmax, spec))
            .collect();
        let cap: f64 = types.iter().map(ServerType::fleet_capacity).sum();
        let mut pushed = Instance::empty(types.clone()).expect("valid types");
        let mut accepted: Vec<f64> = Vec::new();
        for (kind, frac) in draws {
            let load = match kind {
                0 => f64::NAN,
                1 => -0.1 - frac,
                2 => f64::INFINITY,
                _ => frac * cap,
            };
            let mut extended = accepted.clone();
            extended.push(load);
            let built =
                Instance::builder().server_types(types.iter().cloned()).loads(extended).build();
            let checked = pushed.check_next_load(load);
            let result = pushed.push_load(load);
            prop_assert_eq!(format!("{checked:?}"), format!("{result:?}"));
            match built {
                Ok(inst) => {
                    prop_assert!(result.is_ok(), "build accepted {load}, push said {result:?}");
                    accepted.push(load);
                    prop_assert_eq!(format!("{inst:?}"), format!("{pushed:?}"));
                }
                Err(e) => prop_assert_eq!(format!("{:?}", Err::<(), _>(e)), format!("{result:?}")),
            }
            let bits = |v: &[f64]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(pushed.loads()), bits(&accepted));
        }
    }
}
