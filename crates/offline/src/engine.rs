//! Dense priced slots — the pricing substrate of every solver.
//!
//! A [`PricedSlot`] is the whole grid's **unscaled** operating costs
//! `g_t(·)` laid out exactly like a DP [`Table`], produced by one
//! layout-order sweep through [`GtOracle::slot_sweep`] (with
//! `rsz_dispatch::Dispatcher` every value equals `g_scaled` bit for
//! bit). Folding it into a DP table is a single vectorized
//! `v += scale · g` pass — no per-cell oracle calls, no hash probes.
//!
//! The [`PricedSlotPool`] is the one pool every solver prices through —
//! the offline pipeline's batches, the prefix solver of the online
//! algorithms, the corridor refiner's rounds and RHC's windows. It
//! retains priced slots keyed by `(slot partition, λ bits, grid)`:
//!
//! * **time-independent** instances share one partition, so recurring
//!   load values (tiled diurnal traces, work-weeks) price one period and
//!   replay it for the rest of the horizon;
//! * **time-dependent** instances partition by slot, which is what makes
//!   Algorithm C's sub-slot refinement collapse: all `ñ_t` sub-slots of
//!   an original slot carry the same `(t, λ, grid)` key, so the slot is
//!   priced exactly once however fine the refinement.
//!
//! The grid component of the key packs the slot's per-type fleet sizes
//! into a mixed-radix `u128` (radix `m_j + 1` from the horizon-max
//! counts): for a fixed [`crate::GridMode`] the candidate levels are a
//! pure function of those counts, so equal keys imply equal grids. Key
//! construction allocates nothing, and neither does a pool hit — the
//! steady-state step of [`crate::PrefixDp`] is heap-silent, which the
//! counting-allocator test asserts.
//!
//! Every miss takes one path in three steps: **look up** (at
//! [`PricedSlotPool::capacity`], evict the oldest entry — FIFO: solvers
//! visit slots in order — and take its table when no solver still holds
//! it), **price** outside the pool (one `sweep_into`, with grid-cursor
//! buffers the caller keeps: one set per prefix solver, RHC controller,
//! refine pass and pipeline pricing worker), then **retain**. A
//! [`SharedSlotPool`] is locked for the look-up and the retain only, so
//! its sharers price their misses concurrently. A stream of loads that
//! never repeat (live telemetry) reuses the pool's tables instead of
//! allocating one per slot; only the oracle's own sweep state is
//! allocated per pricing.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rsz_core::{GtOracle, Instance};

pub use crate::grid::CursorBuffers;
use crate::grid::GridCursor;
use crate::table::Table;

pub mod snapshot;

/// Default retention bound of a [`PricedSlotPool`] — enough for a year
/// of hourly slots of distinct λ on a diurnal trace, while bounding the
/// worst case (adversarially unique loads) to `capacity · |grid|` floats.
pub const DEFAULT_POOL_CAP: usize = 512;

/// A slot's unscaled `g_t` values over a candidate grid, in table
/// layout. Shared via [`Arc`] so pool hits and the "last priced slot"
/// handle of [`crate::PrefixDp`] never copy the values.
pub type PricedSlot = Arc<Table>;

/// A [`PricedSlotPool`] behind `Arc<Mutex<…>>`, shared by every solver
/// whose `(slot partition, λ, grid)` keys collide — a multi-tenant
/// owner (the `rsz serve` daemon) hands one pool to all tenants of the
/// same fleet shape so a recurring load prices **once** across the
/// whole tenancy. Sharing is sound because pricing is a pure function
/// of `(instance, oracle, t, λ, grid)`: a shared pool moves hit rates
/// and nothing else. The lock is held to look up and to retain, never
/// while a slot is priced.
pub type SharedSlotPool = Arc<Mutex<PricedSlotPool>>;

/// Build a [`SharedSlotPool`] bound to `instance`'s shape.
#[must_use]
pub fn shared_pool(instance: &Instance, cap: usize) -> SharedSlotPool {
    Arc::new(Mutex::new(PricedSlotPool::with_capacity(instance, cap)))
}

/// Lock a shared pool, recovering from poisoning: a sharer that
/// panicked mid-step (a quarantined tenant) only ever leaves fully
/// inserted entries behind — pricing runs outside the lock and
/// insertions are `HashMap` puts — so the pool state is valid and the
/// survivors keep going.
pub fn lock_shared(pool: &SharedSlotPool) -> MutexGuard<'_, PricedSlotPool> {
    pool.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Effectiveness counters of an engine's pricing path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Slots priced by an actual oracle sweep (pool misses).
    pub pricings: u64,
    /// Steps answered from the pool without any oracle call.
    pub pool_hits: u64,
    /// Banded requests answered by slicing a retained full-grid slot
    /// (no oracle call; counted in `pool_hits` as well).
    pub slice_hits: u64,
    /// Priced slots currently retained.
    pub pooled_slots: usize,
}

impl EngineStats {
    /// Fraction of steps answered from the pool (0 when none yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.pricings + self.pool_hits;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// Key of a retained priced slot. `slot` is 0 for time-independent
/// instances (all slots share one partition) and the slot index
/// otherwise; `grid` packs the slot's fleet sizes mixed-radix; `band`
/// packs the per-dimension position sub-ranges of a banded pricing
/// (`0` = whole grid — a real band always packs nonzero because every
/// range end is ≥ 1). Corridor-banded solvers and full-grid steppers
/// therefore share one pool without ever aliasing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct PoolKey {
    slot: u32,
    lambda: u64,
    grid: u128,
    band: u128,
}

/// A bounded pool of [`PricedSlot`]s for one instance shape.
#[derive(Clone, Debug)]
pub struct PricedSlotPool {
    /// `true` iff every cost is time-independent: all slots share
    /// partition 0.
    slot_shared: bool,
    /// Mixed-radix strides over the horizon-max fleet sizes, plus the
    /// per-type bounds for validity checks against foreign instances.
    strides: Vec<u128>,
    /// Strides for packing band position ranges (radix `m_j + 2` per
    /// endpoint — positions run `0..=m_j+1`); `None` when the product
    /// overflows `u128`, in which case banded requests are priced
    /// without pooling.
    band_strides: Option<Vec<u128>>,
    max_counts: Vec<u32>,
    entries: HashMap<PoolKey, PricedSlot>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<PoolKey>,
    cap: usize,
    pricings: u64,
    hits: u64,
    slice_hits: u64,
}

impl PricedSlotPool {
    /// A pool retaining at most `cap` priced slots (`cap ≥ 1`).
    ///
    /// # Panics
    /// Panics if the fleet-size radix product overflows `u128` (fleets
    /// astronomically beyond any enumerable grid).
    #[must_use]
    pub fn with_capacity(instance: &Instance, cap: usize) -> Self {
        let max_counts = instance.max_counts();
        let d = max_counts.len();
        let mut strides = vec![1u128; d];
        for j in (0..d.saturating_sub(1)).rev() {
            let radix = u128::from(max_counts[j + 1]) + 1;
            strides[j] = strides[j + 1]
                .checked_mul(radix)
                .expect("fleet sizes too large to index into the priced-slot pool");
        }
        // Band packing needs two endpoints per dimension, each < m_j + 2;
        // overflow just disables band pooling (requests still price).
        let band_strides = {
            let mut bs = vec![1u128; d];
            let mut product = Some(1u128);
            for j in (0..d).rev() {
                bs[j] = match product {
                    Some(p) => p,
                    None => break,
                };
                let radix = u128::from(max_counts[j]) + 2;
                product = radix.checked_mul(radix).and_then(|r2| bs[j].checked_mul(r2));
            }
            product.map(|_| bs)
        };
        Self {
            slot_shared: instance.is_time_independent(),
            strides,
            band_strides,
            max_counts,
            entries: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
            pricings: 0,
            hits: 0,
            slice_hits: 0,
        }
    }

    /// The retention bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            pricings: self.pricings,
            pool_hits: self.hits,
            slice_hits: self.slice_hits,
            pooled_slots: self.entries.len(),
        }
    }

    /// Restore the pricing counters of a snapshotted pool onto this
    /// (freshly rebuilt, empty) one. Entries are deliberately **not**
    /// restored: pricing is a pure function of
    /// `(instance, oracle, t, λ, grid)`, so a restored run re-prices on
    /// demand and still produces bit-identical tables — only the
    /// hit-rate accounting carries over.
    pub fn restore_counters(&mut self, pricings: u64, pool_hits: u64, slice_hits: u64) {
        self.pricings = pricings;
        self.hits = pool_hits;
        self.slice_hits = slice_hits;
    }

    /// The pool key of `req`, or `None` when the slot's fleet sizes
    /// exceed the bounds the pool was built with (possible only when a
    /// pool was initialized against a truncated instance of a fleet that
    /// later grows — such slots are priced without pooling rather than
    /// risking key aliasing) or when band packing is unavailable.
    pub(crate) fn key(&self, instance: &Instance, req: &SlotRequest<'_>) -> Option<PoolKey> {
        let t = req.t;
        let mut grid = 0u128;
        for (j, (&stride, &max)) in self.strides.iter().zip(&self.max_counts).enumerate() {
            let m = instance.server_count(t, j);
            if m > max {
                return None;
            }
            grid += u128::from(m) * stride;
        }
        let band = match req.bands {
            None => 0u128,
            Some(ranges) => {
                let bs = self.band_strides.as_ref()?;
                let mut sig = 0u128;
                for (j, (r, &stride)) in ranges.iter().zip(bs).enumerate() {
                    let radix = u128::from(self.max_counts[j]) + 2;
                    if r.end as u128 >= radix {
                        return None;
                    }
                    sig += (r.start as u128 * radix + r.end as u128) * stride;
                }
                sig
            }
        };
        let slot = if self.slot_shared { 0 } else { u32::try_from(t).ok()? };
        Some(PoolKey { slot, lambda: req.lambda.to_bits(), grid, band })
    }

    /// The priced slot for `(t, λ)` over `levels`, from the pool or by
    /// one oracle sweep walked with the caller's `cursor` buffers. Hits
    /// allocate nothing; misses price and retain (evicting the oldest
    /// entry at capacity) and return the fresh slot.
    pub fn get_or_price(
        &mut self,
        instance: &Instance,
        oracle: &(impl GtOracle + ?Sized),
        t: usize,
        lambda: f64,
        levels: &[Vec<u32>],
        cursor: &mut CursorBuffers,
    ) -> PricedSlot {
        self.resolve(instance, oracle, &SlotRequest { t, lambda, levels, bands: None }, cursor)
    }

    /// The priced slot for `(t, λ)` restricted to the per-dimension
    /// position `bands` of `fine_levels` — the banded entry point of the
    /// corridor refiner. Resolution order:
    ///
    /// 1. a retained entry under the same band signature (pure hit);
    /// 2. a retained **full-grid** entry for the same `(t, λ, grid)`,
    ///    answered as a sliced view ([`Table::band_slice`], no oracle
    ///    call) and retained under the band key for next time;
    /// 3. one sweep over just the band cells, retained under the
    ///    band key.
    ///
    /// Full-range bands collapse to [`PricedSlotPool::get_or_price`], so
    /// banded and unbanded callers share entries instead of duplicating
    /// them.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_price_band(
        &mut self,
        instance: &Instance,
        oracle: &(impl GtOracle + ?Sized),
        t: usize,
        lambda: f64,
        fine_levels: &[Vec<u32>],
        bands: &[Range<usize>],
        cursor: &mut CursorBuffers,
    ) -> PricedSlot {
        debug_assert_eq!(bands.len(), fine_levels.len());
        let whole = bands.iter().zip(fine_levels).all(|(b, l)| b.start == 0 && b.end == l.len());
        let req = SlotRequest { t, lambda, levels: fine_levels, bands: (!whole).then_some(bands) };
        self.resolve(instance, oracle, &req, cursor)
    }

    /// The one miss path on a pool this caller holds outright: look up,
    /// price a miss, retain it.
    fn resolve(
        &mut self,
        instance: &Instance,
        oracle: &(impl GtOracle + ?Sized),
        req: &SlotRequest<'_>,
        cursor: &mut CursorBuffers,
    ) -> PricedSlot {
        self.lookup(instance, req).unwrap_or_else(|mut miss| {
            miss.price(instance, oracle, req, cursor);
            self.retain(miss)
        })
    }

    /// Step 1 of a pricing: the retained slot for `req`, or the [`Miss`]
    /// to price it into. A banded request whose full-grid slot is
    /// retained is answered by slicing it. At capacity, a miss evicts
    /// the oldest entry and takes its table when no solver still holds
    /// it, so its pricing allocates no table.
    pub(crate) fn lookup(
        &mut self,
        instance: &Instance,
        req: &SlotRequest<'_>,
    ) -> Result<PricedSlot, Miss> {
        let key = self.key(instance, req);
        if let Some(k) = key {
            if let Some(slot) = self.entries.get(&k) {
                debug_assert!(
                    (0..req.levels.len()).all(|j| slot.all_levels()[j] == req.levels_of(j)),
                    "pool key collision: same key, different grid"
                );
                self.hits += 1;
                return Ok(Arc::clone(slot));
            }
            if let Some(bands) = req.bands {
                let full = SlotRequest { bands: None, ..*req };
                if let Some(full) = self.key(instance, &full).and_then(|fk| self.entries.get(&fk)) {
                    debug_assert_eq!(full.all_levels(), req.levels, "pool key collision");
                    let sliced = Arc::new(full.band_slice(bands));
                    self.hits += 1;
                    self.slice_hits += 1;
                    return Ok(self.insert(k, sliced));
                }
            }
        }
        let evicted = match key {
            Some(_) if self.entries.len() >= self.cap => self.evict_oldest(),
            _ => None,
        };
        let slot = evicted.and_then(|mut slot| Arc::get_mut(&mut slot).is_some().then_some(slot));
        Err(Miss { key, slot: slot.unwrap_or_default() })
    }

    /// Step 3 of a pricing: count it and retain the miss's slot.
    pub(crate) fn retain(&mut self, miss: Miss) -> PricedSlot {
        self.pricings += 1;
        match miss.key {
            Some(key) => self.insert(key, miss.slot),
            None => miss.slot,
        }
    }

    /// Remove the oldest entry, returning its slot.
    fn evict_oldest(&mut self) -> Option<PricedSlot> {
        let oldest = self.order.pop_front()?;
        self.entries.remove(&oldest)
    }

    /// Retain `slot` under `key` with FIFO eviction and return it —
    /// unless another sharer retained `key` since this one looked it up:
    /// then its copy (the same bits, since pricing is pure) is the one
    /// kept and returned.
    fn insert(&mut self, key: PoolKey, slot: PricedSlot) -> PricedSlot {
        match self.entries.entry(key) {
            Entry::Occupied(resident) => Arc::clone(resident.get()),
            Entry::Vacant(vacant) => {
                vacant.insert(Arc::clone(&slot));
                self.order.push_back(key);
                if self.entries.len() > self.cap {
                    self.evict_oldest();
                }
                slot
            }
        }
    }
}

/// One slot a solver prices: slot `t` at volume `lambda` over the
/// candidate `levels`, cut to the per-dimension position `bands` when
/// given.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SlotRequest<'a> {
    pub(crate) t: usize,
    pub(crate) lambda: f64,
    pub(crate) levels: &'a [Vec<u32>],
    pub(crate) bands: Option<&'a [Range<usize>]>,
}

impl<'a> SlotRequest<'a> {
    /// The levels priced along dimension `j`.
    fn levels_of(&self, j: usize) -> &'a [u32] {
        match self.bands {
            Some(bands) => &self.levels[j][bands[j].clone()],
            None => &self.levels[j],
        }
    }
}

/// A pool miss: the key its slot is retained under (`None`: priced
/// without pooling) and the table it is priced into, which no one else
/// holds. [`Miss::default`] is a miss outside any pool.
#[derive(Debug, Default)]
pub(crate) struct Miss {
    key: Option<PoolKey>,
    slot: PricedSlot,
}

impl Miss {
    /// Step 2 of a pricing, outside the pool: shape the miss's table to
    /// `req`'s levels and price it with the caller's `cursor` buffers.
    pub(crate) fn price(
        &mut self,
        instance: &Instance,
        oracle: &(impl GtOracle + ?Sized),
        req: &SlotRequest<'_>,
        cursor: &mut CursorBuffers,
    ) {
        let table = Arc::get_mut(&mut self.slot).expect("a miss's table is its own");
        table.reset_shape(req.levels.len(), |j| req.levels_of(j), f64::INFINITY);
        sweep_into(table, cursor, instance, oracle, req.t, req.lambda);
    }

    /// The priced slot, for a miss outside any pool.
    pub(crate) fn into_slot(self) -> PricedSlot {
        self.slot
    }
}

/// Write slot `t`'s unscaled `g_t` at `lambda` into every cell of
/// `table`, as one layout-order sweep through [`GtOracle::slot_sweep`]
/// that walks the grid with `cursor`'s buffers. The one pricing loop of
/// every solver.
pub(crate) fn sweep_into(
    table: &mut Table,
    cursor: &mut CursorBuffers,
    instance: &Instance,
    oracle: &(impl GtOracle + ?Sized),
    t: usize,
    lambda: f64,
) {
    let (levels, values) = table.levels_and_values_mut();
    let mut sweep = oracle.slot_sweep(instance, t, lambda, 1.0);
    let mut walk = GridCursor::reusing(levels, 0, std::mem::take(cursor));
    for v in values {
        *v = sweep.eval(walk.counts());
        walk.advance();
    }
    *cursor = walk.into_buffers();
}

/// Fold a priced slot into a DP table in place:
/// `table[x] += scale · g[x]`, with cells the pricing found infeasible
/// (`g = ∞`) forced to `∞` whatever the scale. The grids must match.
/// Runs through the [`crate::kernels::axpy_fold`] kernel.
///
/// # Panics
/// Panics if the value lengths differ.
pub fn add_priced(table: &mut Table, priced: &Table, scale: f64) {
    assert_eq!(table.len(), priced.len(), "priced slot grid mismatch");
    crate::kernels::axpy_fold(table.values_mut(), priced.values(), scale);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsz_core::{CostModel, CostSpec, ServerType};
    use rsz_dispatch::Dispatcher;

    fn ti_instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .server_type(ServerType::new("b", 2, 4.0, 2.0, CostModel::constant(1.2)))
            .loads(vec![1.0, 4.0, 1.0, 4.0, 1.0])
            .build()
            .unwrap()
    }

    fn td_instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::with_spec(
                "priced",
                3,
                2.0,
                2.0,
                CostSpec::scaled(CostModel::power(1.0, 0.5, 2.0), vec![1.0, 2.0, 1.0, 2.0]),
            ))
            .loads(vec![2.0, 4.0, 2.0, 4.0])
            .build()
            .unwrap()
    }

    /// A fresh table priced through the pool's sweep.
    fn price_slot(
        inst: &Instance,
        oracle: &Dispatcher,
        t: usize,
        lambda: f64,
        levels: &[Vec<u32>],
    ) -> Table {
        let mut table = Table::new(levels.to_vec(), f64::INFINITY);
        sweep_into(&mut table, &mut CursorBuffers::default(), inst, oracle, t, lambda);
        table
    }

    fn full_levels(inst: &Instance, t: usize) -> Vec<Vec<u32>> {
        (0..inst.num_types())
            .map(|j| crate::GridMode::Full.levels(inst.server_count(t, j)))
            .collect()
    }

    #[test]
    fn priced_slot_matches_oracle_values() {
        let inst = ti_instance();
        let oracle = Dispatcher::new();
        let levels = full_levels(&inst, 0);
        let priced = price_slot(&inst, &oracle, 0, inst.load(0), &levels);
        for (i, cfg) in priced.iter_configs() {
            let want = oracle.g(&inst, 0, cfg.counts());
            let got = priced.values()[i];
            assert_eq!(got.to_bits(), want.to_bits(), "cell {i}: {got} vs {want}");
        }
    }

    #[test]
    fn time_independent_pool_shares_recurring_loads() {
        let inst = ti_instance();
        let oracle = Dispatcher::new();
        let mut pool = PricedSlotPool::with_capacity(&inst, DEFAULT_POOL_CAP);
        let cursor = &mut CursorBuffers::default();
        for t in 0..inst.horizon() {
            let levels = full_levels(&inst, t);
            let _ = pool.get_or_price(&inst, &oracle, t, inst.load(t), &levels, cursor);
        }
        let stats = pool.stats();
        assert_eq!(stats.pricings, 2, "two distinct load values");
        assert_eq!(stats.pool_hits, 3);
        assert_eq!(stats.pooled_slots, 2);
        assert!((stats.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn time_dependent_pool_partitions_by_slot() {
        let inst = td_instance();
        let oracle = Dispatcher::new();
        let mut pool = PricedSlotPool::with_capacity(&inst, DEFAULT_POOL_CAP);
        let cursor = &mut CursorBuffers::default();
        let levels = full_levels(&inst, 0);
        // Same λ, different slots: must price separately.
        let a = pool.get_or_price(&inst, &oracle, 0, 2.0, &levels, cursor);
        let b = pool.get_or_price(&inst, &oracle, 1, 2.0, &levels, cursor);
        assert_eq!(pool.stats().pricings, 2);
        assert_ne!(a.values()[1].to_bits(), b.values()[1].to_bits(), "prices differ per slot");
        // Re-querying a slot — Algorithm C's sub-slot replay — hits.
        let c = pool.get_or_price(&inst, &oracle, 0, 2.0, &levels, cursor);
        assert_eq!(pool.stats().pool_hits, 1);
        assert!(Arc::ptr_eq(&a, &c), "hit returns the retained slot");
    }

    #[test]
    fn pool_evicts_fifo_at_capacity() {
        let inst = td_instance();
        let oracle = Dispatcher::new();
        let mut pool = PricedSlotPool::with_capacity(&inst, 2);
        let cursor = &mut CursorBuffers::default();
        let levels = full_levels(&inst, 0);
        for t in 0..4 {
            let _ = pool.get_or_price(&inst, &oracle, t, inst.load(t), &levels, cursor);
        }
        assert_eq!(pool.stats().pooled_slots, 2);
        // Slot 0 was evicted; slot 3 is still resident.
        let _ = pool.get_or_price(&inst, &oracle, 3, inst.load(3), &levels, cursor);
        assert_eq!(pool.stats().pool_hits, 1);
        let _ = pool.get_or_price(&inst, &oracle, 0, inst.load(0), &levels, cursor);
        assert_eq!(pool.stats().pricings, 5, "evicted slot re-priced");
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a 1-d grid's band list IS one range
    fn a_miss_at_capacity_reprices_into_the_evicted_table() {
        let inst = td_instance();
        let oracle = Dispatcher::new();
        let mut pool = PricedSlotPool::with_capacity(&inst, 2);
        let cursor = &mut CursorBuffers::default();
        let levels = full_levels(&inst, 0);
        let first =
            Arc::as_ptr(&pool.get_or_price(&inst, &oracle, 0, inst.load(0), &levels, cursor));
        let _ = pool.get_or_price(&inst, &oracle, 1, inst.load(1), &levels, cursor);
        // Slot 2 evicts slot 0, which no one holds: its table is reused,
        // and its values are a fresh pricing's, bit for bit.
        let reused = pool.get_or_price(&inst, &oracle, 2, inst.load(2), &levels, cursor);
        assert_eq!(Arc::as_ptr(&reused), first, "the evicted table is priced into");
        let fresh = price_slot(&inst, &oracle, 2, inst.load(2), &levels);
        assert_eq!(reused.all_levels(), fresh.all_levels());
        let bits = |t: &Table| t.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reused), bits(&fresh));
        // Slot 3 evicts slot 1; a held slot is never written: slot 2 is
        // held here, so when slot 0 evicts it, a fresh table is priced.
        let _ = pool.get_or_price(&inst, &oracle, 3, inst.load(3), &levels, cursor);
        let _ = pool.get_or_price(&inst, &oracle, 0, inst.load(0), &levels, cursor);
        assert_eq!(bits(&reused), bits(&fresh), "a held slot keeps its values");
        // A banded miss reshapes an evicted full-grid table to its band.
        let bands = [1..3usize];
        let banded =
            pool.get_or_price_band(&inst, &oracle, 1, inst.load(1), &levels, &bands, cursor);
        let want = price_slot(&inst, &oracle, 1, inst.load(1), &[levels[0][1..3].to_vec()]);
        assert_eq!(banded.all_levels(), want.all_levels());
        assert_eq!(bits(&banded), bits(&want));
        assert_eq!(pool.stats().pricings, 6);
    }

    #[test]
    fn sharers_that_miss_one_key_keep_one_copy() {
        // Two sharers look the same slot up before either retains it:
        // both miss and price, the second retain keeps the first's copy.
        let inst = ti_instance();
        let oracle = Dispatcher::new();
        let mut pool = PricedSlotPool::with_capacity(&inst, DEFAULT_POOL_CAP);
        let levels = full_levels(&inst, 0);
        let req = SlotRequest { t: 0, lambda: inst.load(0), levels: &levels, bands: None };
        let (Err(mut first), Err(mut second)) =
            (pool.lookup(&inst, &req), pool.lookup(&inst, &req))
        else {
            panic!("an empty pool misses");
        };
        let cursor = &mut CursorBuffers::default();
        first.price(&inst, &oracle, &req, cursor);
        second.price(&inst, &oracle, &req, cursor);
        let kept = pool.retain(first);
        let again = pool.retain(second);
        assert!(Arc::ptr_eq(&kept, &again), "the resident copy is returned");
        let s = pool.stats();
        assert_eq!((s.pricings, s.pool_hits, s.pooled_slots), (2, 0, 1));
        let hit = pool.lookup(&inst, &req).expect("retained");
        assert!(Arc::ptr_eq(&hit, &kept));
    }

    #[test]
    fn banded_requests_slice_retained_full_slots() {
        let inst = ti_instance();
        let oracle = Dispatcher::new();
        let mut pool = PricedSlotPool::with_capacity(&inst, DEFAULT_POOL_CAP);
        let cursor = &mut CursorBuffers::default();
        let levels = full_levels(&inst, 0);
        let full = pool.get_or_price(&inst, &oracle, 0, inst.load(0), &levels, cursor);
        let bands = vec![1..3usize, 0..2usize];
        // First banded request: answered by slicing the retained full
        // pricing — no oracle sweep.
        let sliced =
            pool.get_or_price_band(&inst, &oracle, 0, inst.load(0), &levels, &bands, cursor);
        let s = pool.stats();
        assert_eq!(s.pricings, 1, "slice must not re-price");
        assert_eq!(s.slice_hits, 1);
        assert_eq!(sliced.all_levels(), full.band_slice(&bands).all_levels());
        for (i, (&a, &b)) in
            sliced.values().iter().zip(full.band_slice(&bands).values()).enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "cell {i}");
        }
        // Second identical banded request: a direct hit on the band key.
        let again =
            pool.get_or_price_band(&inst, &oracle, 0, inst.load(0), &levels, &bands, cursor);
        assert!(Arc::ptr_eq(&sliced, &again));
        assert_eq!(pool.stats().slice_hits, 1, "second request is a plain hit");
        // Full-range bands collapse to the unbanded entry.
        let all = vec![0..levels[0].len(), 0..levels[1].len()];
        let whole = pool.get_or_price_band(&inst, &oracle, 0, inst.load(0), &levels, &all, cursor);
        assert!(Arc::ptr_eq(&whole, &full));
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a 1-d grid's band list IS one range
    fn banded_pricing_without_full_entry_sweeps_band_cells_only() {
        let inst = td_instance();
        let oracle = Dispatcher::new();
        let mut pool = PricedSlotPool::with_capacity(&inst, DEFAULT_POOL_CAP);
        let cursor = &mut CursorBuffers::default();
        let levels = full_levels(&inst, 1);
        let bands = vec![2..4usize];
        let banded =
            pool.get_or_price_band(&inst, &oracle, 1, inst.load(1), &levels, &bands, cursor);
        assert_eq!(pool.stats().pricings, 1);
        assert_eq!(banded.len(), 2, "only the band cells were priced");
        assert_eq!(banded.all_levels(), &[vec![2, 3]]);
        // Values equal a full pricing's slice bit for bit: every cell is
        // `g_scaled`'s value whichever grid the sweep walks.
        let full = price_slot(&inst, &oracle, 1, inst.load(1), &levels);
        for (i, (&a, &b)) in
            banded.values().iter().zip(full.band_slice(&bands).values()).enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "cell {i}: {a} vs {b}");
        }
        // Different bands on the same slot key separately — no aliasing.
        let other =
            pool.get_or_price_band(&inst, &oracle, 1, inst.load(1), &levels, &[0..3], cursor);
        assert_eq!(pool.stats().pricings, 2);
        assert_eq!(other.len(), 3);
    }

    #[test]
    fn add_priced_handles_infeasible_cells() {
        let mut table = Table::new(vec![vec![0u32, 1]], 0.0);
        table.values_mut()[0] = f64::INFINITY;
        table.values_mut()[1] = 2.0;
        let mut priced = Table::new(vec![vec![0u32, 1]], 0.0);
        priced.values_mut()[0] = 1.0;
        priced.values_mut()[1] = f64::INFINITY;
        add_priced(&mut table, &priced, 0.5);
        assert!(table.values()[0].is_infinite(), "infinite DP cell stays infinite");
        assert!(table.values()[1].is_infinite(), "infeasible pricing forces infinity");
        let mut t2 = Table::new(vec![vec![0u32, 1]], 1.0);
        let mut p2 = Table::new(vec![vec![0u32, 1]], 3.0);
        p2.values_mut()[1] = 5.0;
        add_priced(&mut t2, &p2, 0.5);
        assert_eq!(t2.values(), &[2.5, 3.5]);
    }
}
