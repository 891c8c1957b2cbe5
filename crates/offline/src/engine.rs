//! Dense priced slots — the pricing substrate of the online decision
//! engine.
//!
//! A [`PricedSlot`] is the whole grid's **unscaled** operating costs
//! `g_t(·)` laid out exactly like a DP [`Table`], produced by one
//! layout-order sweep through [`GtOracle::slot_sweep`], the same path the
//! offline pipeline prices with (with `rsz_dispatch::Dispatcher` every
//! value equals `g_scaled` bit for bit). Once a slot is priced, folding it
//! into a DP table is a single vectorized `v += scale · g` pass — no
//! per-cell oracle calls, no hash probes.
//!
//! The [`PricedSlotPool`] retains priced slots keyed by
//! `(slot partition, λ bits, grid)`:
//!
//! * **time-independent** instances share one partition, so recurring
//!   load values (tiled diurnal traces, work-weeks) price one period and
//!   replay it for the rest of the horizon — the online generalization of
//!   the offline pipeline's `(λ, grid)` pricing-table pool;
//! * **time-dependent** instances partition by slot, which is what makes
//!   Algorithm C's sub-slot refinement collapse: all `ñ_t` sub-slots of
//!   an original slot carry the same `(t, λ, grid)` key, so the slot is
//!   priced exactly once however fine the refinement.
//!
//! The grid component of the key packs the slot's per-type fleet sizes
//! into a mixed-radix `u128` (radix `m_j + 1` from the horizon-max
//! counts): for a fixed
//! [`crate::GridMode`] the candidate levels are a pure function of those
//! counts, so equal keys imply equal grids. Key construction allocates
//! nothing, and neither does a pool hit — the steady-state step of
//! [`crate::PrefixDp`] is heap-silent, which the counting-allocator
//! test asserts.
//!
//! Retention is bounded: at [`PricedSlotPool::capacity`] entries the
//! oldest insertion is evicted (FIFO — online algorithms visit slots in
//! order, so the oldest priced slot is also the least likely to recur).
//! A miss at capacity re-prices into the table it evicts when nothing
//! else holds it, and walks the grid with cursor buffers the pool keeps,
//! so a stream of loads that never repeat (live telemetry) reuses the
//! pool's tables instead of allocating one per slot; only the oracle's
//! own sweep state is allocated per pricing.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rsz_core::{GtOracle, Instance};

use crate::table::{CursorBuffers, GridCursor, Table};

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
/// of `(instance, oracle, t, λ, grid)`: pool contents can change who
/// pays for a pricing, never what any solver decides.
pub type SharedSlotPool = Arc<Mutex<PricedSlotPool>>;

/// Build a [`SharedSlotPool`] bound to `instance`'s shape.
#[must_use]
pub fn shared_pool(instance: &Instance, cap: usize) -> SharedSlotPool {
    Arc::new(Mutex::new(PricedSlotPool::with_capacity(instance, cap)))
}

/// Lock a shared pool, recovering from poisoning: a sharer that
/// panicked mid-step (a quarantined tenant) only ever leaves fully
/// inserted entries behind — pricing is pure and insertions are
/// `HashMap` puts — so the pool state is valid and the survivors keep
/// going.
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
struct PoolKey {
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
    /// The pricing sweep's cursor buffers, reused by every miss.
    cursor: CursorBuffers,
    cap: usize,
    pricings: u64,
    hits: u64,
    slice_hits: u64,
}

impl PricedSlotPool {
    /// A pool bound to `instance`'s shape with the default retention
    /// bound.
    #[must_use]
    pub fn new(instance: &Instance) -> Self {
        Self::with_capacity(instance, DEFAULT_POOL_CAP)
    }

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
            cursor: CursorBuffers::default(),
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

    /// The pool key for slot `t` priced at volume `lambda` over the
    /// optional position `bands`, or `None` when the slot's fleet sizes
    /// exceed the bounds the pool was built with (possible only when a
    /// pool was initialized against a truncated instance of a fleet that
    /// later grows — such slots are priced without pooling rather than
    /// risking key aliasing) or when band packing is unavailable.
    fn key(
        &self,
        instance: &Instance,
        t: usize,
        lambda: f64,
        bands: Option<&[Range<usize>]>,
    ) -> Option<PoolKey> {
        let mut grid = 0u128;
        for (j, (&stride, &max)) in self.strides.iter().zip(&self.max_counts).enumerate() {
            let m = instance.server_count(t, j);
            if m > max {
                return None;
            }
            grid += u128::from(m) * stride;
        }
        let band = match bands {
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
        Some(PoolKey { slot, lambda: lambda.to_bits(), grid, band })
    }

    /// The priced slot for `(t, λ)` over `levels`, from the pool or by
    /// one oracle sweep. Hits allocate nothing; misses price, retain
    /// (evicting the oldest entry at capacity) and return the fresh slot.
    pub fn get_or_price(
        &mut self,
        instance: &Instance,
        oracle: &(impl GtOracle + ?Sized),
        t: usize,
        lambda: f64,
        levels: &[Vec<u32>],
    ) -> PricedSlot {
        let key = self.key(instance, t, lambda, None);
        if let Some(key) = key {
            if let Some(slot) = self.entries.get(&key) {
                debug_assert_eq!(
                    slot.all_levels(),
                    levels,
                    "pool key collision: same key, different grid"
                );
                self.hits += 1;
                return Arc::clone(slot);
            }
        }
        self.price_and_retain(key, instance, oracle, t, lambda, levels.len(), |j| &levels[j])
    }

    /// The priced slot for `(t, λ)` restricted to the per-dimension
    /// position `bands` of `fine_levels` — the banded entry point of the
    /// corridor refiner and RHC's warm-started windows. Resolution
    /// order:
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
    pub fn get_or_price_band(
        &mut self,
        instance: &Instance,
        oracle: &(impl GtOracle + ?Sized),
        t: usize,
        lambda: f64,
        fine_levels: &[Vec<u32>],
        bands: &[Range<usize>],
    ) -> PricedSlot {
        debug_assert_eq!(bands.len(), fine_levels.len());
        if bands.iter().zip(fine_levels).all(|(b, l)| b.start == 0 && b.end == l.len()) {
            return self.get_or_price(instance, oracle, t, lambda, fine_levels);
        }
        let key = self.key(instance, t, lambda, Some(bands));
        if let Some(k) = key {
            if let Some(slot) = self.entries.get(&k) {
                debug_assert!(
                    slot.all_levels()
                        .iter()
                        .zip(bands.iter().zip(fine_levels))
                        .all(|(sl, (b, l))| sl[..] == l[b.start..b.end]),
                    "pool key collision: same band key, different grid"
                );
                self.hits += 1;
                return Arc::clone(slot);
            }
            let full = self.key(instance, t, lambda, None).and_then(|fk| self.entries.get(&fk));
            if let Some(full) = full {
                debug_assert_eq!(full.all_levels(), fine_levels, "pool key collision");
                let sliced = Arc::new(full.band_slice(bands));
                self.hits += 1;
                self.slice_hits += 1;
                self.retain(k, Arc::clone(&sliced));
                return sliced;
            }
        }
        self.price_and_retain(key, instance, oracle, t, lambda, bands.len(), |j| {
            &fine_levels[j][bands[j].clone()]
        })
    }

    /// A miss: price `(t, λ)` over the `d` level lists `level_of` yields
    /// and retain the slot under `key` (when it has one). At capacity the
    /// oldest entry is evicted first, and its table is priced into when
    /// no one else holds it — the same values as a fresh table, with no
    /// allocation beyond what a larger grid needs.
    #[allow(clippy::too_many_arguments)]
    fn price_and_retain<'l>(
        &mut self,
        key: Option<PoolKey>,
        instance: &Instance,
        oracle: &(impl GtOracle + ?Sized),
        t: usize,
        lambda: f64,
        d: usize,
        level_of: impl FnMut(usize) -> &'l [u32],
    ) -> PricedSlot {
        let evicted = match key {
            Some(_) if self.entries.len() >= self.cap => self.evict_oldest(),
            _ => None,
        };
        let mut slot = evicted.unwrap_or_default();
        if Arc::get_mut(&mut slot).is_none() {
            // A solver still holds the evicted table: price a fresh one.
            slot = PricedSlot::default();
        }
        let table = Arc::get_mut(&mut slot).expect("a slot no one else holds");
        table.reset_shape(d, level_of, f64::INFINITY);
        sweep_into(table, &mut self.cursor, instance, oracle, t, lambda);
        self.pricings += 1;
        if let Some(key) = key {
            self.retain(key, Arc::clone(&slot));
        }
        slot
    }

    /// Remove the oldest entry, returning its slot.
    fn evict_oldest(&mut self) -> Option<PricedSlot> {
        let oldest = self.order.pop_front()?;
        self.entries.remove(&oldest)
    }

    /// Insert under FIFO eviction.
    fn retain(&mut self, key: PoolKey, slot: PricedSlot) {
        if self.entries.len() >= self.cap {
            self.evict_oldest();
        }
        self.entries.insert(key, slot);
        self.order.push_back(key);
    }
}

/// Price one slot's **unscaled** `g_t` over `levels` as a single
/// layout-order sweep through [`GtOracle::slot_sweep`] — identical to
/// the offline pipeline's per-table pricing, so a replayed slot repeats
/// its values bit for bit. The pool's misses run the same sweep into a
/// table they reuse; this is its cold case, a fresh table.
#[must_use]
pub fn price_slot(
    instance: &Instance,
    oracle: &(impl GtOracle + ?Sized),
    t: usize,
    lambda: f64,
    levels: &[Vec<u32>],
) -> Table {
    let mut table = Table::default();
    table.reset_shape(levels.len(), |j| &levels[j], f64::INFINITY);
    sweep_into(&mut table, &mut CursorBuffers::default(), instance, oracle, t, lambda);
    table
}

/// Write slot `t`'s unscaled `g_t` at `lambda` into every cell of
/// `table`, as one layout-order sweep through [`GtOracle::slot_sweep`]
/// that walks the grid with `cursor`'s buffers. The one pricing loop of
/// the pool and the offline pipeline.
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
        let mut pool = PricedSlotPool::new(&inst);
        for t in 0..inst.horizon() {
            let levels = full_levels(&inst, t);
            let _ = pool.get_or_price(&inst, &oracle, t, inst.load(t), &levels);
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
        let mut pool = PricedSlotPool::new(&inst);
        let levels = full_levels(&inst, 0);
        // Same λ, different slots: must price separately.
        let a = pool.get_or_price(&inst, &oracle, 0, 2.0, &levels);
        let b = pool.get_or_price(&inst, &oracle, 1, 2.0, &levels);
        assert_eq!(pool.stats().pricings, 2);
        assert_ne!(a.values()[1].to_bits(), b.values()[1].to_bits(), "prices differ per slot");
        // Re-querying a slot — Algorithm C's sub-slot replay — hits.
        let c = pool.get_or_price(&inst, &oracle, 0, 2.0, &levels);
        assert_eq!(pool.stats().pool_hits, 1);
        assert!(Arc::ptr_eq(&a, &c), "hit returns the retained slot");
    }

    #[test]
    fn pool_evicts_fifo_at_capacity() {
        let inst = td_instance();
        let oracle = Dispatcher::new();
        let mut pool = PricedSlotPool::with_capacity(&inst, 2);
        let levels = full_levels(&inst, 0);
        for t in 0..4 {
            let _ = pool.get_or_price(&inst, &oracle, t, inst.load(t), &levels);
        }
        assert_eq!(pool.stats().pooled_slots, 2);
        // Slot 0 was evicted; slot 3 is still resident.
        let _ = pool.get_or_price(&inst, &oracle, 3, inst.load(3), &levels);
        assert_eq!(pool.stats().pool_hits, 1);
        let _ = pool.get_or_price(&inst, &oracle, 0, inst.load(0), &levels);
        assert_eq!(pool.stats().pricings, 5, "evicted slot re-priced");
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a 1-d grid's band list IS one range
    fn a_miss_at_capacity_reprices_into_the_evicted_table() {
        let inst = td_instance();
        let oracle = Dispatcher::new();
        let mut pool = PricedSlotPool::with_capacity(&inst, 2);
        let levels = full_levels(&inst, 0);
        let first = Arc::as_ptr(&pool.get_or_price(&inst, &oracle, 0, inst.load(0), &levels));
        let _ = pool.get_or_price(&inst, &oracle, 1, inst.load(1), &levels);
        // Slot 2 evicts slot 0, which no one holds: its table is reused,
        // and its values are a fresh pricing's, bit for bit.
        let reused = pool.get_or_price(&inst, &oracle, 2, inst.load(2), &levels);
        assert_eq!(Arc::as_ptr(&reused), first, "the evicted table is priced into");
        let fresh = price_slot(&inst, &oracle, 2, inst.load(2), &levels);
        assert_eq!(reused.all_levels(), fresh.all_levels());
        let bits = |t: &Table| t.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reused), bits(&fresh));
        // Slot 3 evicts slot 1; a held slot is never written: slot 2 is
        // held here, so when slot 0 evicts it, a fresh table is priced.
        let _ = pool.get_or_price(&inst, &oracle, 3, inst.load(3), &levels);
        let _ = pool.get_or_price(&inst, &oracle, 0, inst.load(0), &levels);
        assert_eq!(bits(&reused), bits(&fresh), "a held slot keeps its values");
        // A banded miss reshapes an evicted full-grid table to its band.
        let bands = [1..3usize];
        let banded = pool.get_or_price_band(&inst, &oracle, 1, inst.load(1), &levels, &bands);
        let want = price_slot(&inst, &oracle, 1, inst.load(1), &[levels[0][1..3].to_vec()]);
        assert_eq!(banded.all_levels(), want.all_levels());
        assert_eq!(bits(&banded), bits(&want));
        assert_eq!(pool.stats().pricings, 6);
    }

    #[test]
    fn banded_requests_slice_retained_full_slots() {
        let inst = ti_instance();
        let oracle = Dispatcher::new();
        let mut pool = PricedSlotPool::new(&inst);
        let levels = full_levels(&inst, 0);
        let full = pool.get_or_price(&inst, &oracle, 0, inst.load(0), &levels);
        let bands = vec![1..3usize, 0..2usize];
        // First banded request: answered by slicing the retained full
        // pricing — no oracle sweep.
        let sliced = pool.get_or_price_band(&inst, &oracle, 0, inst.load(0), &levels, &bands);
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
        let again = pool.get_or_price_band(&inst, &oracle, 0, inst.load(0), &levels, &bands);
        assert!(Arc::ptr_eq(&sliced, &again));
        assert_eq!(pool.stats().slice_hits, 1, "second request is a plain hit");
        // Full-range bands collapse to the unbanded entry.
        let all = vec![0..levels[0].len(), 0..levels[1].len()];
        let whole = pool.get_or_price_band(&inst, &oracle, 0, inst.load(0), &levels, &all);
        assert!(Arc::ptr_eq(&whole, &full));
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a 1-d grid's band list IS one range
    fn banded_pricing_without_full_entry_sweeps_band_cells_only() {
        let inst = td_instance();
        let oracle = Dispatcher::new();
        let mut pool = PricedSlotPool::new(&inst);
        let levels = full_levels(&inst, 1);
        let bands = vec![2..4usize];
        let banded = pool.get_or_price_band(&inst, &oracle, 1, inst.load(1), &levels, &bands);
        assert_eq!(pool.stats().pricings, 1);
        assert_eq!(banded.len(), 2, "only the band cells were priced");
        assert_eq!(banded.all_levels(), &[vec![2, 3]]);
        // Values match a full pricing's slice to the sweep tolerance.
        let full = price_slot(&inst, &oracle, 1, inst.load(1), &levels);
        for (i, (&a, &b)) in
            banded.values().iter().zip(full.band_slice(&bands).values()).enumerate()
        {
            assert!((a == b) || (a - b).abs() <= 1e-9 * b.abs().max(1.0), "cell {i}: {a} vs {b}");
        }
        // Different bands on the same slot key separately — no aliasing.
        let other = pool.get_or_price_band(&inst, &oracle, 1, inst.load(1), &levels, &[0..3]);
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
