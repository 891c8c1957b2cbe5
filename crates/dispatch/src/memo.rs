//! The per-slot memos a pricing context keeps for [`crate::kkt`].
//!
//! Every cell of a slot is a water-fill over the same few breakpoint
//! prices, and its arms come from the same few `(type, count)` pairs.
//! A [`SlotMemo`] keeps what those keys determine:
//!
//! * the **breakpoint memo**: the per-server load `f_j'⁻¹(ν)` of type `j`
//!   at price `ν`, keyed by `(j, ν bits)`. The segment search and the
//!   volumes at `b` read it; the bracketed secant prices its arbitrary
//!   `ν` directly.
//! * the **ends memo**: `Φ'(0)`, `Φ'(cap)`, `Φ(0)` and `Φ(cap)` of `count`
//!   servers of type `j`, keyed by `(j, count)`: `cap / count` need not
//!   round back to `z^max_j`, so the count belongs to the key.
//!
//! Both are pure functions of their keys within one slot (the slot fixes
//! every type's cost view), filled on first use by the same [`Arm`] calls
//! a solve without them makes. So every value keeps
//! [`crate::Dispatcher::g_value`]'s bits, whatever was priced before it.
//! The breakpoint memo is a fixed array inside the context, and a full
//! one computes what it cannot keep. The ends memo is one small
//! direct-mapped buffer, one entry per `(type, count)` up to [`ENDS_MAX`]
//! entries, past which pairs share entries and a collision recomputes:
//! its size, not the fleet's, bounds what opening a context costs. A
//! one-type slot's sweep meets each count once, so it keeps one entry.

use crate::arms::Arm;

/// Most entries of the ends memo (2.5 KiB), a power of two. The full
/// grid of `three_tier(12,12,6)` has 36 pairs and a serve fleet at most
/// 6; a fleet whose types times largest count exceed it maps several
/// pairs to one entry. A cap of 1,024 (40 KiB written per context) made
/// opening a context on `homogeneous:10000`'s 16-cell `Γ(2)` grid 60%
/// dearer than with no memo.
const ENDS_MAX: usize = 64;

/// Slots of the breakpoint memo's open-addressed table.
const LOADS: usize = 16;

/// Entries the breakpoint memo keeps. Past three quarters of the table a
/// load is computed and not kept, so a probe meets a free slot soon.
const LOADS_KEPT: usize = 12;

/// `Φ'(0)`, `Φ'(cap)`, `Φ(0)` and `Φ(cap)` of one `(type, count)`.
#[derive(Clone, Copy, Debug, Default)]
struct Ends {
    /// `type + 1` above bit 32, the count below; 0 marks a free slot.
    key: u64,
    lo: f64,
    hi: f64,
    /// `Φ(0)` and `Φ(cap)`, NaN until first read: an arm that runs
    /// strictly inside its interval never needs them (a NaN cost is
    /// recomputed, to the same bits).
    idle: f64,
    full: f64,
}

/// `f_j'⁻¹(ν)` of one `(type, ν)`.
#[derive(Clone, Copy, Debug, Default)]
struct Load {
    nu: u64,
    z: f64,
    /// `type + 1`; 0 marks a free slot.
    ty: u32,
    /// `false` when the model has no closed form: the volume is then
    /// bisected per cell.
    closed: bool,
}

/// The memos of one slot context (see the module doc).
#[derive(Clone, Debug)]
pub(crate) struct SlotMemo {
    /// Entry of `(j, c)` at `(j·stride + c − 1) mod len`, `len` a power
    /// of two.
    ends: Vec<Ends>,
    stride: usize,
    loads: [Load; LOADS],
    kept: usize,
}

impl SlotMemo {
    /// Empty memos for a slot of `types` server types, each with at most
    /// `max_count` servers.
    pub(crate) fn new(types: usize, max_count: u32) -> Self {
        let stride = max_count as usize;
        // A one-type slot's sweep meets each count once: one entry.
        let pairs = if types < 2 { 1 } else { types.saturating_mul(stride) };
        let len = pairs.min(ENDS_MAX).next_power_of_two();
        Self { ends: vec![Ends::default(); len], stride, loads: [Load::default(); LOADS], kept: 0 }
    }

    /// The ends memo's key for `arm` and the entry it maps to.
    #[inline]
    fn ends_key(&self, arm: &Arm<'_>) -> (u64, usize) {
        let key = ((arm.type_index as u64 + 1) << 32) | u64::from(arm.count);
        let at = arm.type_index * self.stride + arm.count as usize - 1;
        (key, at & (self.ends.len() - 1))
    }

    /// The ends entry of `arm`, its interval computed when the entry
    /// holds another key.
    #[inline]
    fn ends(&mut self, arm: &Arm<'_>) -> &Ends {
        let (key, i) = self.ends_key(arm);
        let slot = &mut self.ends[i];
        if slot.key != key {
            *slot = Ends {
                key,
                lo: arm.phi_deriv(0.0),
                hi: arm.phi_deriv(arm.cap()),
                idle: f64::NAN,
                full: f64::NAN,
            };
        }
        slot
    }

    /// `Φ(y)` of `arm`, kept in its ends entry when `y` is `0` or the
    /// capacity and the entry still holds `arm`'s key.
    #[inline]
    fn end_cost(&mut self, arm: &Arm<'_>, y: f64) -> f64 {
        let (key, i) = self.ends_key(arm);
        let slot = &mut self.ends[i];
        if slot.key != key {
            return arm.phi(y);
        }
        let end = if y.to_bits() == 0 {
            &mut slot.idle
        } else if y.to_bits() == arm.cap().to_bits() {
            &mut slot.full
        } else {
            return arm.phi(y);
        };
        if end.is_nan() {
            *end = arm.phi(y);
        }
        *end
    }

    /// `f'⁻¹(ν)` of `arm`'s type, from the table or computed (and kept
    /// while the table has room).
    fn load(&mut self, arm: &Arm<'_>, nu: f64) -> Option<f64> {
        let (ty, bits) = (arm.type_index as u32 + 1, nu.to_bits());
        let hash = (bits ^ u64::from(ty).rotate_right(8)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut i = (hash >> (64 - LOADS.trailing_zeros())) as usize;
        loop {
            let slot = self.loads[i];
            if slot.ty == ty && slot.nu == bits {
                return slot.closed.then_some(slot.z);
            }
            if slot.ty == 0 {
                break;
            }
            i = (i + 1) % LOADS;
        }
        let z = arm.cost.deriv_inv(nu);
        if self.kept < LOADS_KEPT {
            self.loads[i] = Load { nu: bits, z: z.unwrap_or(0.0), ty, closed: z.is_some() };
            self.kept += 1;
        }
        z
    }
}

/// The memos one solve reads: a slot context's, or none, in which case
/// every value is computed (the one-shot entry points).
pub(crate) struct Memo<'m>(Option<&'m mut SlotMemo>);

impl<'m> Memo<'m> {
    /// No memo: compute every value.
    pub(crate) fn none() -> Self {
        Self(None)
    }

    /// Read and fill `memo`.
    pub(crate) fn of(memo: &'m mut SlotMemo) -> Self {
        Self(Some(memo))
    }

    /// `arm`'s marginal interval `[Φ'(0), Φ'(cap)]`.
    #[inline]
    pub(crate) fn interval(&mut self, arm: &Arm<'_>) -> (f64, f64) {
        match &mut self.0 {
            Some(memo) => {
                let ends = memo.ends(arm);
                (ends.lo, ends.hi)
            }
            None => (arm.phi_deriv(0.0), arm.phi_deriv(arm.cap())),
        }
    }

    /// [`Arm::volume_at_price`] at a breakpoint price `nu`, through the
    /// breakpoint memo.
    #[inline]
    pub(crate) fn volume_at_price(&mut self, arm: &Arm<'_>, nu: f64) -> f64 {
        match &mut self.0 {
            Some(memo) => arm.volume_at_load(nu, memo.load(arm, nu)),
            None => arm.volume_at_price(nu),
        }
    }

    /// [`Arm::phi`], kept in the ends memo at `0` and at capacity.
    #[inline]
    pub(crate) fn phi(&mut self, arm: &Arm<'_>, y: f64) -> f64 {
        match &mut self.0 {
            Some(memo) => memo.end_cost(arm, y),
            None => arm.phi(y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SlotMemo;
    use crate::{Arm, Dispatcher};
    use rsz_core::{CostModel, GtOracle, Instance, ServerType};

    #[test]
    fn arms_of_two_types_sharing_an_ends_entry_keep_their_bits() {
        // Two types of 700 servers have more `(type, count)` pairs than the
        // ends memo has entries, so arms of both types share one.
        let types = vec![
            ServerType::new("pow", 700, 1.0, 1.0, CostModel::power(0.4, 1.0, 2.0)),
            ServerType::new("quad", 700, 1.0, 1.0, CostModel::quadratic(0.6, 0.8, 0.3)),
        ];
        let inst = Instance::builder().server_types(types).loads(vec![0.0]).build().unwrap();
        let memo = SlotMemo::new(2, 700);
        let arm = |type_index, count| Arm {
            type_index,
            count,
            zmax: 1.0,
            cost: inst.cost(0, type_index),
        };
        let entry = |j, c| memo.ends_key(&arm(j, c)).1;
        let shared: Vec<[u32; 2]> = (1..=700)
            .filter_map(|a| (1..=700).find(|&b| entry(0, a) == entry(1, b)).map(|b| [a, b]))
            .step_by(9)
            .collect();
        assert!(shared.len() > 20, "{} configurations share an entry", shared.len());
        let d = Dispatcher::new();
        for x in &shared {
            // At `cap` both arms run full and read their `Φ(cap)`.
            let cap = f64::from(x[0] + x[1]);
            for lambda in [0.2 * cap, 0.6 * cap, cap] {
                let want = d.g_scaled(&inst, 0, x, lambda, 1.0);
                let mut slot = d.slot_dispatcher(&inst, 0, lambda, 1.0);
                for _ in 0..2 {
                    assert_eq!(slot.eval_config(x).to_bits(), want.to_bits(), "x={x:?} λ={lambda}");
                }
            }
        }
    }
}
