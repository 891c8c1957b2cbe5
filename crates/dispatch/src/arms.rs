//! Dispatch "arms": one per server type with active servers.

use rsz_core::util::{DISPATCH_MAX_ITER, DISPATCH_TOL};
use rsz_core::{CostRef, Instance};

/// One server type as seen by the dispatch solvers: `count` active servers
/// sharing load evenly, a volume capacity, and the slot's cost view.
#[derive(Clone, Copy, Debug)]
pub struct Arm<'a> {
    /// Index of the server type in the instance (for mapping back).
    pub type_index: usize,
    /// Active servers `x_j > 0`.
    pub count: u32,
    /// Per-server capacity `z^max_j`.
    pub zmax: f64,
    /// Cost view `f_{t,j}` for the slot.
    pub cost: CostRef<'a>,
}

impl<'a> Arm<'a> {
    /// Total volume capacity of this arm: `x_j · z^max_j`.
    #[inline]
    #[must_use]
    pub fn cap(&self) -> f64 {
        f64::from(self.count) * self.zmax
    }

    /// Total idle cost when this arm carries no load: `x_j · f_{t,j}(0)`.
    #[inline]
    #[must_use]
    pub fn idle_total(&self) -> f64 {
        f64::from(self.count) * self.cost.idle()
    }

    /// Total cost of routing volume `y ∈ [0, cap]` to this arm:
    /// `Φ_j(y) = x_j · f_{t,j}(y / x_j)`.
    #[inline]
    #[must_use]
    pub fn phi(&self, y: f64) -> f64 {
        let x = f64::from(self.count);
        x * self.cost.eval(y / x)
    }

    /// Marginal cost `Φ_j'(y) = f_{t,j}'(y / x_j)`.
    #[inline]
    #[must_use]
    pub fn phi_deriv(&self, y: f64) -> f64 {
        self.cost.deriv(y / f64::from(self.count))
    }

    /// Largest per-arm volume `y` with marginal cost ≤ `nu`, clamped to
    /// the capacity. Uses the model's closed-form inverse derivative when
    /// available, otherwise bisects to [`DISPATCH_TOL`].
    ///
    /// The closed form gives a per-server load `z`; `x_j·z` moves up one
    /// float when dividing it back by `x_j` would round below `z`, so
    /// [`Arm::phi_deriv`] reads the slope at `z` itself: on a
    /// piecewise-linear kink, the upper one.
    #[must_use]
    pub fn volume_at_price(&self, nu: f64) -> f64 {
        self.volume_at_load(nu, self.cost.deriv_inv(nu))
    }

    /// [`Arm::volume_at_price`] given the model's inverse derivative at
    /// `nu`, `load = f'⁻¹(nu)`: the per-server load depends on the type
    /// and `nu` alone, so a slot context computes it once per breakpoint
    /// and every cell shares this per-arm step.
    #[must_use]
    pub(crate) fn volume_at_load(&self, nu: f64, load: Option<f64>) -> f64 {
        let cap = self.cap();
        if cap == 0.0 {
            return 0.0;
        }
        let x = f64::from(self.count);
        if let Some(z) = load {
            let y = z * x;
            let y = if y / x < z { y.next_up() } else { y };
            return y.clamp(0.0, cap);
        }
        // Bisection for sup { y : Φ'(y) ≤ nu } on [0, cap].
        if self.phi_deriv(0.0) > nu {
            return 0.0;
        }
        if self.phi_deriv(cap) <= nu {
            return cap;
        }
        let (mut lo, mut hi) = (0.0_f64, cap);
        for _ in 0..DISPATCH_MAX_ITER {
            let mid = 0.5 * (lo + hi);
            if self.phi_deriv(mid) <= nu {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo <= DISPATCH_TOL * cap.max(1.0) {
                break;
            }
        }
        lo
    }
}

/// Build the arm list for configuration `x` at slot `t`. Types with zero
/// active servers are skipped (they can carry no volume).
///
/// One-shot convenience over [`SlotArms`] — both go through the same
/// construction path, so their outputs agree bit for bit by design.
#[must_use]
pub fn collect<'a>(instance: &'a Instance, t: usize, x: &[u32]) -> Vec<Arm<'a>> {
    let mut arms = Vec::new();
    SlotArms::new(instance, t).fill_into(x, &mut arms);
    arms
}

/// Per-slot arm templates: the type data ([`Arm::zmax`] and the slot's
/// cost view) shared by *every* configuration priced at slot `t`.
///
/// [`collect`] rebuilds this data and allocates a fresh `Vec` per
/// configuration; a DP step prices thousands of configurations of the
/// same slot, so hoist the templates out once and assemble each arm
/// list into a reusable buffer with [`SlotArms::fill_into`].
#[derive(Clone, Debug)]
pub struct SlotArms<'a> {
    /// One zero-count template per server type, in type order.
    templates: Vec<Arm<'a>>,
}

impl<'a> SlotArms<'a> {
    /// Capture slot `t`'s per-type capacity and cost views.
    #[must_use]
    pub fn new(instance: &'a Instance, t: usize) -> Self {
        let templates = (0..instance.num_types())
            .map(|j| Arm {
                type_index: j,
                count: 0,
                zmax: instance.capacity(j),
                cost: instance.cost(t, j),
            })
            .collect();
        Self { templates }
    }

    /// Number of server types `d`.
    #[must_use]
    pub fn num_types(&self) -> usize {
        self.templates.len()
    }

    /// Assemble the arm list for configuration `x` into `buf` (cleared
    /// first) — exactly [`collect`]'s output, without the allocation.
    pub fn fill_into(&self, x: &[u32], buf: &mut Vec<Arm<'a>>) {
        debug_assert_eq!(x.len(), self.templates.len());
        buf.clear();
        for (tpl, &c) in self.templates.iter().zip(x) {
            if c > 0 {
                buf.push(Arm { count: c, ..*tpl });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsz_core::{CostModel, ServerType};

    fn instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("lin", 4, 1.0, 2.0, CostModel::linear(1.0, 3.0)))
            .server_type(ServerType::new("pow", 2, 1.0, 4.0, CostModel::power(2.0, 1.0, 2.0)))
            .loads(vec![1.0])
            .build()
            .unwrap()
    }

    #[test]
    fn collect_skips_inactive_types() {
        let inst = instance();
        let arms = collect(&inst, 0, &[0, 2]);
        assert_eq!(arms.len(), 1);
        assert_eq!(arms[0].type_index, 1);
        assert_eq!(arms[0].cap(), 8.0);
    }

    #[test]
    fn phi_spreads_load_evenly() {
        let inst = instance();
        let arms = collect(&inst, 0, &[2, 0]);
        let a = &arms[0];
        // Φ(y) = 2 · (1 + 3·(y/2)) = 2 + 3y
        assert!((a.phi(0.0) - 2.0).abs() < 1e-12);
        assert!((a.phi(2.0) - 8.0).abs() < 1e-12);
        assert!((a.phi_deriv(1.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn volume_at_price_power_cost() {
        let inst = instance();
        let arms = collect(&inst, 0, &[0, 2]);
        let a = &arms[0];
        // f(z) = 2 + z², f'(z) = 2z, so f'(z) ≤ nu ⇔ z ≤ nu/2; with 2
        // servers y = 2z = nu.
        let y = a.volume_at_price(3.0);
        assert!((y - 3.0).abs() < 1e-9, "{y}");
        // capped at 8
        assert_eq!(a.volume_at_price(100.0), 8.0);
        // zero below f'(0)=0 → exactly 0 at negative price
        assert_eq!(a.volume_at_price(-1.0), 0.0);
    }

    #[test]
    fn volume_at_price_on_a_kink_reads_the_upper_slope() {
        // `3·z / 3` rounds below this kink `z`: the volume must be the
        // next float up, so the marginal there is the slope above it.
        use rsz_core::cost::PiecewiseLinearCost;
        let z = 0.982_020_966_044_343_3_f64;
        assert!((3.0 * z) / 3.0 < z);
        let pwl = PiecewiseLinearCost::new(&[(0.0, 1.0), (z, 1.0 + 0.5 * z), (2.0, 3.0)]);
        let inst = Instance::builder()
            .server_type(ServerType::new("pwl", 3, 1.0, 2.0, CostModel::PiecewiseLinear(pwl)))
            .loads(vec![1.0])
            .build()
            .unwrap();
        let arm = collect(&inst, 0, &[3])[0];
        let y = arm.volume_at_price(0.644);
        assert_eq!(y, (3.0 * z).next_up());
        assert!(y / 3.0 >= z && arm.phi_deriv(y) > 0.644, "φ'({y}) = {}", arm.phi_deriv(y));
    }

    #[test]
    fn slot_arms_match_collect_for_every_config() {
        let inst = instance();
        let slot = SlotArms::new(&inst, 0);
        assert_eq!(slot.num_types(), 2);
        let mut buf = Vec::new();
        for x in [[0u32, 0], [2, 0], [0, 1], [4, 2]] {
            slot.fill_into(&x, &mut buf);
            let fresh = collect(&inst, 0, &x);
            assert_eq!(buf.len(), fresh.len(), "config {x:?}");
            for (a, b) in buf.iter().zip(&fresh) {
                assert_eq!(a.type_index, b.type_index);
                assert_eq!(a.count, b.count);
                assert_eq!(a.zmax.to_bits(), b.zmax.to_bits());
                assert_eq!(a.cost.scale().to_bits(), b.cost.scale().to_bits());
            }
        }
    }

    #[test]
    fn volume_at_price_bisection_path() {
        // Custom cost without deriv_inv forces the bisection branch.
        use rsz_core::CostFunction;
        #[derive(Debug)]
        struct Quad;
        impl CostFunction for Quad {
            fn eval(&self, z: f64) -> f64 {
                z * z
            }
            fn deriv(&self, z: f64) -> f64 {
                2.0 * z
            }
        }
        let inst = Instance::builder()
            .server_type(ServerType::new(
                "c",
                2,
                1.0,
                4.0,
                CostModel::Custom(std::sync::Arc::new(Quad)),
            ))
            .loads(vec![1.0])
            .build()
            .unwrap();
        let arms = collect(&inst, 0, &[2]);
        let y = arms[0].volume_at_price(3.0);
        assert!((y - 3.0).abs() < 1e-6, "{y}");
    }
}
