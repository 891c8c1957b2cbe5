//! The fractional relaxation, via server subdivision.
//!
//! Prior work (Lin et al. 2013, Bansal et al. 2015) studies the
//! *fractional* setting where server counts may be real. This paper is
//! deliberately discrete, but the fractional optimum is still the
//! natural lower bound to measure the **integrality gap** against — and
//! the discrete machinery already built here can compute it to any
//! accuracy: subdividing every server of type `j` into `K` sub-servers
//! with
//!
//! ```text
//! m'_j = K·m_j,   β'_j = β_j/K,   z'^max_j = z^max_j/K,
//! f'_{t,j}(z) = f_{t,j}(K·z)/K
//! ```
//!
//! yields an instance whose integral schedules are exactly the
//! `1/K`-granular fractional schedules of the original, with identical
//! cost semantics. As `K → ∞` the optimum converges (from above) to the
//! fractional optimum; `K = 1` is the original instance.

use std::sync::Arc;

use rsz_core::cost::{CostFunction, CostModel, CostSpec};
use rsz_core::{GtOracle, Instance, ServerType};

use crate::dp::{solve_cost_only, DpOptions};

/// `f'(z) = f(K·z)/K` — one sub-server's share of a server running `K`
/// sub-loads. Convex increasing whenever `f` is.
#[derive(Debug)]
struct SubdividedCost {
    inner: CostModel,
    k: f64,
}

impl CostFunction for SubdividedCost {
    fn eval(&self, z: f64) -> f64 {
        self.inner.eval(self.k * z) / self.k
    }

    fn deriv(&self, z: f64) -> f64 {
        // d/dz [f(kz)/k] = f'(kz)
        self.inner.deriv(self.k * z)
    }

    fn deriv_inv(&self, slope: f64) -> Option<f64> {
        self.inner.deriv_inv(slope).map(|z| z / self.k)
    }
}

fn subdivide_model(model: &CostModel, k: f64) -> CostModel {
    // Closed forms where available keep the dispatch fast paths alive.
    match model {
        CostModel::Constant(c) => CostModel::constant(c.cost() / k),
        CostModel::Linear(l) => CostModel::linear(l.idle_cost() / k, l.rate()),
        CostModel::Power(p) => {
            // (idle + coef·(kz)^α)/k = idle/k + coef·k^{α−1}·z^α
            CostModel::power(p.idle_cost() / k, p.coef() * k.powf(p.alpha() - 1.0), p.alpha())
        }
        CostModel::Quadratic(q) => {
            CostModel::quadratic(q.idle_cost() / k, q.linear_coef(), q.quadratic_coef() * k)
        }
        other => CostModel::Custom(Arc::new(SubdividedCost { inner: other.clone(), k })),
    }
}

fn subdivide_spec(spec: &CostSpec, k: f64) -> CostSpec {
    match spec {
        CostSpec::Uniform(m) => CostSpec::Uniform(subdivide_model(m, k)),
        CostSpec::Scaled { base, factors } => {
            CostSpec::Scaled { base: subdivide_model(base, k), factors: factors.clone() }
        }
        CostSpec::PerSlot(models) => CostSpec::PerSlot(
            models.iter().map(|m| subdivide_model(m, k)).collect::<Vec<_>>().into(),
        ),
    }
}

/// Subdivide every server into `K ≥ 1` sub-servers.
///
/// # Panics
/// Panics if `K = 0` or the result fails validation (cannot happen for a
/// valid input instance).
#[must_use]
pub fn subdivide(instance: &Instance, k: u32) -> Instance {
    assert!(k >= 1, "subdivision factor must be at least 1");
    let kf = f64::from(k);
    let types: Vec<ServerType> = instance
        .types()
        .iter()
        .map(|ty| {
            ServerType::with_spec(
                ty.name.clone(),
                ty.count * k,
                ty.switching_cost / kf,
                ty.capacity / kf,
                subdivide_spec(&ty.cost, kf),
            )
        })
        .collect();
    let mut builder = Instance::builder().server_types(types).loads(instance.loads().to_vec());
    if instance.has_time_varying_counts() {
        let counts: Vec<Vec<u32>> = (0..instance.horizon())
            .map(|t| (0..instance.num_types()).map(|j| instance.server_count(t, j) * k).collect())
            .collect();
        builder = builder.counts_over_time(counts);
    }
    builder.build().expect("subdivision preserves validity")
}

/// A `1/K`-granular fractional lower bound on the optimum: the exact DP
/// value of the `K`-subdivided instance. Decreasing in `K`; equals the
/// discrete optimum at `K = 1`; converges to the fractional optimum.
///
/// Beware the grid: the subdivided instance has `K·m_j` levels per type,
/// so use moderate `K·m` or pass a γ-grid through `options`.
#[must_use]
pub fn fractional_lower_bound(
    instance: &Instance,
    oracle: &(impl GtOracle + Sync),
    k: u32,
    options: DpOptions,
) -> f64 {
    solve_cost_only(&subdivide(instance, k), oracle, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsz_dispatch::Dispatcher;

    fn instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .server_type(ServerType::new("b", 2, 4.0, 2.0, CostModel::power(1.0, 0.5, 2.0)))
            .loads(vec![1.0, 4.0, 0.5, 3.0])
            .build()
            .unwrap()
    }

    #[test]
    fn k1_is_identity_in_cost() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let base =
            solve_cost_only(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        let k1 = fractional_lower_bound(
            &inst,
            &oracle,
            1,
            DpOptions { threads: Some(1), ..Default::default() },
        );
        assert!((base - k1).abs() < 1e-9);
    }

    #[test]
    fn bound_decreases_in_k() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let opts = DpOptions { threads: Some(1), ..Default::default() };
        let mut prev = f64::INFINITY;
        for k in [1u32, 2, 4] {
            let lb = fractional_lower_bound(&inst, &oracle, k, opts);
            assert!(lb <= prev + 1e-9, "K={k}: {lb} > {prev}");
            prev = lb;
        }
    }

    #[test]
    fn subdivided_capacity_preserved() {
        let inst = instance();
        let sub = subdivide(&inst, 4);
        assert_eq!(sub.max_counts(), vec![12, 8]);
        for t in 0..inst.horizon() {
            assert!((sub.max_capacity_at(t) - inst.max_capacity_at(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn subdivided_cost_semantics() {
        // K sub-servers at equal share cost exactly one original server.
        let inst = instance();
        let k = 5u32;
        let sub = subdivide(&inst, k);
        for j in 0..inst.num_types() {
            let orig = inst.cost(0, j);
            let new = sub.cost(0, j);
            for z in [0.0, 0.3, 0.8] {
                let whole = orig.eval(z);
                let split = f64::from(k) * new.eval(z / f64::from(k));
                assert!((whole - split).abs() < 1e-9, "type {j} z={z}: {whole} vs {split}");
            }
        }
    }

    #[test]
    fn custom_wrapper_used_for_piecewise() {
        use rsz_core::cost::PiecewiseLinearCost;
        let pwl = CostModel::PiecewiseLinear(PiecewiseLinearCost::new(&[
            (0.0, 1.0),
            (1.0, 2.0),
            (2.0, 4.0),
        ]));
        let sub = subdivide_model(&pwl, 2.0);
        assert!(matches!(sub, CostModel::Custom(_)));
        // f'(z) = f(2z)/2: at z=0.75 → f(1.5)/2 = 3/2... f(1.5)=3 → 1.5
        assert!((sub.eval(0.75) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn time_varying_counts_subdivided() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 2, 1.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![1.0, 2.0])
            .counts_over_time(vec![vec![1], vec![2]])
            .build()
            .unwrap();
        let sub = subdivide(&inst, 3);
        assert_eq!(sub.server_count(0, 0), 3);
        assert_eq!(sub.server_count(1, 0), 6);
    }
}
