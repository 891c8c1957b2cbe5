//! The slot-batched pricing pipeline and schedule recovery — the one
//! path every offline solve runs.
//!
//! The solver is organized around the observation that `g_t(x)` does
//! not depend on `OPT_{t−1}`:
//!
//! 1. **Pricing pass** — `g_t` is evaluated for whole slots at a time by
//!    a single work-claiming thread pool (no per-slot barrier). Each
//!    slot's table is priced as one layout-order sweep through
//!    [`GtOracle::slot_sweep`] (with `rsz_dispatch::Dispatcher`, every
//!    value equals `g_scaled` bit for bit). For **time-independent**
//!    instances, slots with identical `(λ, grid)` share one pricing table
//!    (tiled diurnal traces price one day, not the horizon), retained in
//!    a bounded first-in-first-out [`PricedSlotPool`] — the pool every
//!    solver prices through, with its one look-up / price / retain miss
//!    path.
//! 2. **Recurrence** — `OPT_t = arrival_transform(OPT_{t−1}) + G_t` is a
//!    cheap, transform-only sequential pass. It keeps each `k`-slot
//!    segment's entry table (`k = ⌈√T⌉` checkpoints) and, when pointers
//!    are recorded, runs the certified transform: for every slot `t ≥ 1`
//!    and every cell of its grid, the flat index of the `grid_{t−1}`
//!    cell the minimum came from (2 bytes on source grids up to 65,536
//!    cells, 4 beyond) and a certificate bit (see [`crate::kernels`]).
//! 3. **Recovery** — from the cheapest cell of the last table, follow
//!    the pointers back while their bits are set; where a bit is clear
//!    (or no pointers were recorded), replay the slot's segment from its
//!    checkpoint and select predecessors with the DP's `TieMin`
//!    tie-break ([`crate::dp`]'s `backtrack_segment`). A set bit names
//!    exactly the cell `TieMin` would pick, so both routes recover the
//!    same schedule, bit for bit.
//!
//! [`crate::dp::RecoveryMode::Materialized`] keeps every slot's table
//! (`O(|grid|·T)` memory) and backtracks once: one value-only pass, the
//! cheapest recovery and the reference the other modes are tested
//! against. [`crate::dp::RecoveryMode::Auto`] does the same on horizons
//! of up to 64 slots, no more tables than the pricing pool may retain.
//! Beyond, it records pointers when a replay would price slots again —
//! the costs vary over time, or the horizon holds more distinct
//! `(λ, grid)` slots than the pool retains — and they fit
//! [`AUTO_POINTER_BUDGET_BYTES`]: the solve then prices each slot once
//! and holds `O(|grid|·√T)` tables plus the pointers. Otherwise it
//! records none and replays every segment; when the pool holds every
//! slot, the replay prices nothing and costs one value-only transform per
//! slot, less than the certified transform (about three value-only ones)
//! would have. [`RecoveryStats`] makes all of it observable.
//!
//! Replayed segments are bit-identical to the forward pass (pricing is
//! per-table deterministic and pooled tables are reused verbatim) — the
//! determinism tests assert this across thread counts and recovery
//! modes.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rsz_core::{Config, GtOracle, Instance, Schedule};

use crate::dp::{backtrack_segment, betas, DpOptions, DpResult, RecoveryMode};
use crate::engine::{CursorBuffers, Miss, PricedSlot, PricedSlotPool, SlotRequest};
use crate::grid::{decode_counts, GridMode};
use crate::kernels::{Certificate, TieOrder, UNCERTIFIED};
use crate::table::Table;
use crate::transform::{
    arrival_transform_certified_inplace, arrival_transform_inplace, TransformScratch,
};

/// Pointer-memory budget of [`crate::dp::RecoveryMode::Auto`]: a solve
/// of more than 64 slots whose replays would price slots again records
/// backtrack pointers when they fit (and then prices each slot once), and
/// otherwise replays every `√T` segment from its checkpoint. The bench
/// rows that record pointers are dp_pipeline's `time_dependent_costs`,
/// dp_refine's `d2_time_varying_costs` coarse pass and perfbench's
/// offline_plan; shorter horizons keep every table and record none. A
/// pointer on a grid of up to 65,536 cells costs 2 bytes plus its
/// certificate bit, so 128 MiB holds about 53,000 slots of offline_plan's
/// 1,183-cell grid.
pub const AUTO_POINTER_BUDGET_BYTES: u64 = 128 << 20;

/// Work and memory accounting of a solve, for tests and reports.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryStats {
    /// Horizon `T` of the solved instance.
    pub horizon: usize,
    /// Segment length `k`: `⌈√T⌉`, or `T` when every table is kept.
    pub segment_len: usize,
    /// Checkpoint tables kept by the forward pass (`⌈T/k⌉`).
    pub checkpoints: usize,
    /// Maximum number of simultaneously live `OPT`/pricing tables across
    /// the forward pass and recovery (excludes the bounded
    /// time-independent pricing pool, reported separately).
    pub peak_live_tables: usize,
    /// Distinct pricing tables retained for time-independent reuse.
    pub pooled_pricing_tables: usize,
    /// Pricing sweeps the solve ran, forward pass and replays together
    /// (slots answered by the pool are not priced again).
    pub priced_slots: usize,
    /// Segments recovery replayed: where a traversed pointer was not
    /// certified, or none were recorded.
    pub replayed_segments: usize,
}

/// Backtrack pointers of a forward pass: for every recorded slot `t ≥ 1`
/// and every cell of its grid, the flat index of the `grid_{t−1}` cell
/// the arrival transform's minimum came from, and its certificate bit.
struct PointerLog {
    /// `u16` indices when every grid has at most 65,536 cells.
    index: PointerIndex,
    /// One certificate bit per recorded cell.
    certified: Vec<u64>,
    /// Start of slot `t`'s cells, for `t = 1 ..= T` (slot `T` is the end).
    starts: Vec<usize>,
}

enum PointerIndex {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl PointerLog {
    /// Room for `cells` pointers of the given width, allocated once.
    fn with_capacity(cells: usize, narrow: bool) -> Self {
        let index = if narrow {
            PointerIndex::Narrow(Vec::with_capacity(cells))
        } else {
            PointerIndex::Wide(Vec::with_capacity(cells))
        };
        Self { index, certified: Vec::with_capacity(cells.div_ceil(64)), starts: vec![0] }
    }

    /// Bytes of `cells` pointers of the given width, with their bits.
    fn bytes(cells: usize, narrow: bool) -> u64 {
        let width = if narrow { 2 } else { 4 };
        (cells as u64).saturating_mul(width).saturating_add(cells.div_ceil(64) as u64 * 8)
    }

    /// Append the next slot's origins: the certified transform's tags,
    /// which `order` names.
    fn push(&mut self, origins: &[f64], order: &TieOrder) {
        let base = *self.starts.last().expect("starts holds slot 1's start");
        let origin = |&tag: &f64| order.origin(tag).unwrap_or(0);
        #[allow(clippy::cast_possible_truncation)]
        match &mut self.index {
            PointerIndex::Narrow(v) => v.extend(origins.iter().map(|t| origin(t) as u16)),
            PointerIndex::Wide(v) => v.extend(origins.iter().map(origin)),
        }
        self.certified.resize((base + origins.len()).div_ceil(64), 0);
        for (i, &tag) in origins.iter().enumerate() {
            if tag != UNCERTIFIED {
                let c = base + i;
                self.certified[c / 64] |= 1 << (c % 64);
            }
        }
        self.starts.push(base + origins.len());
    }

    /// The certified predecessor of cell `idx` of slot `t ≥ 1`: `None`
    /// when its bit is clear.
    fn certified(&self, t: usize, idx: usize) -> Option<usize> {
        let c = self.starts[t - 1] + idx;
        debug_assert!(c < self.starts[t]);
        if self.certified[c / 64] & (1 << (c % 64)) == 0 {
            return None;
        }
        Some(match &self.index {
            PointerIndex::Narrow(v) => usize::from(v[c]),
            PointerIndex::Wide(v) => v[c] as usize,
        })
    }
}

/// Where a run of recurrence steps leaves its trail.
enum Trail<'r> {
    /// Nothing: the forward pass without pointers.
    None,
    /// Every slot's `OPT` table (recovery replays).
    Tables(&'r mut Vec<Table>),
    /// Every slot's backtrack pointers (the forward pass).
    Pointers(&'r mut PointerLog),
}

/// The solver engine: advances `OPT` tables across slot ranges, pricing
/// each range as one batch. One instance lives for the whole solve so
/// the time-independent pricing pool persists across forward and
/// recovery passes.
struct Engine<'a, O> {
    instance: &'a Instance,
    oracle: &'a O,
    options: DpOptions,
    betas: Vec<f64>,
    /// `Some` iff the instance is time-independent, so that slots with
    /// equal `(λ, grid)` share one pricing table.
    pool: Option<PricedSlotPool>,
    /// The candidate grid, hoisted once when fleet sizes are
    /// slot-invariant (`γ`-level recomputation per slot is measurable on
    /// long horizons).
    invariant_levels: Option<Vec<Vec<u32>>>,
    /// Live-table accounting: tables currently held by the engine's
    /// caller (checkpoints, replayed segment) are reported via
    /// `base_live`; the engine adds its own batch-owned tables.
    peak_live: usize,
    /// Ping-pong partner for the in-place recurrence transform; reused
    /// across every step so steady-state stepping never allocates.
    spare: Table,
    /// Transform scratch (suffix buffer + row-vectorized block), shared
    /// by every recurrence step of the solve.
    scratch: TransformScratch,
    /// The certified transform's origins and their ping-pong partner,
    /// with the scratch that carries them.
    origins: (Vec<f64>, Vec<f64>),
    certified_scratch: TransformScratch<f64>,
    /// `TieMin`'s order over the certified step's source grid.
    tie_order: TieOrder,
    /// Pricing sweeps run so far.
    priced: usize,
}

/// Tables the time-independent pricing pool retains for a solve with
/// `segment_len`-slot segments: enough for any trace whose distinct load
/// levels are on the order of the segment length (a tiled diurnal day),
/// while keeping worst-case retention within the √T budget.
fn pool_capacity(segment_len: usize) -> usize {
    (4 * segment_len).max(64)
}

/// Slot `t`'s candidate grid, borrowed when it is hoisted.
fn slot_levels<'l>(
    hoisted: &'l Option<Vec<Vec<u32>>>,
    instance: &Instance,
    grid: GridMode,
    t: usize,
) -> Cow<'l, [Vec<u32>]> {
    match hoisted {
        Some(levels) => Cow::Borrowed(&levels[..]),
        None => {
            (0..instance.num_types()).map(|j| grid.levels(instance.server_count(t, j))).collect()
        }
    }
}

/// A batch slot the pool missed: the slot, its grid and the miss it is
/// priced into.
struct Job<'l> {
    t: usize,
    levels: Cow<'l, [Vec<u32>]>,
    miss: Miss,
}

impl<'a, O: GtOracle + Sync> Engine<'a, O> {
    fn new(instance: &'a Instance, oracle: &'a O, options: DpOptions, segment_len: usize) -> Self {
        let cap = pool_capacity(segment_len);
        let pool =
            instance.is_time_independent().then(|| PricedSlotPool::with_capacity(instance, cap));
        let invariant_levels = (!instance.has_time_varying_counts()).then(|| {
            (0..instance.num_types())
                .map(|j| options.grid.levels(instance.server_count(0, j)))
                .collect()
        });
        Self {
            instance,
            oracle,
            options,
            betas: betas(instance),
            pool,
            invariant_levels,
            peak_live: 0,
            spare: Table::origin(instance.num_types()),
            scratch: TransformScratch::new(),
            origins: (Vec::new(), Vec::new()),
            certified_scratch: TransformScratch::default(),
            tie_order: TieOrder::default(),
            priced: 0,
        }
    }

    /// Slot `t`'s candidate grid.
    fn levels(&self, t: usize) -> Cow<'_, [Vec<u32>]> {
        slot_levels(&self.invariant_levels, self.instance, self.options.grid, t)
    }

    /// Whether replaying a segment would price any of its slots again:
    /// always without the time-independent pool, and with it when the
    /// horizon holds more distinct slots than the pool retains (it evicts
    /// first in, first out, so the replay would miss what it evicted).
    fn replays_reprice(&self) -> bool {
        let Some(pool) = &self.pool else { return true };
        let mut keys = HashSet::new();
        (0..self.instance.horizon()).any(|t| {
            let levels = self.levels(t);
            let req =
                SlotRequest { t, lambda: self.instance.load(t), levels: &levels, bands: None };
            pool.key(self.instance, &req).is_none_or(|key| {
                keys.insert(key);
                keys.len() > pool.capacity()
            })
        })
    }

    /// The pointer log the recovery policy asks for, with room for every
    /// slot `t ≥ 1` reserved up front: under [`RecoveryMode::Auto`] on a
    /// checkpointed horizon, when a replay would price slots again and
    /// the pointers fit [`AUTO_POINTER_BUDGET_BYTES`]; never under the
    /// other modes.
    fn pointer_log(&self) -> Option<PointerLog> {
        if self.options.recovery != RecoveryMode::Auto || !self.replays_reprice() {
            return None;
        }
        let horizon = self.instance.horizon();
        let cells = |t: usize| self.levels(t).iter().map(Vec::len).product::<usize>();
        let (recorded, widest) = if self.invariant_levels.is_some() {
            (cells(0) * (horizon - 1), cells(0))
        } else {
            ((1..horizon).map(cells).sum(), (0..horizon).map(cells).max().unwrap_or(1))
        };
        let narrow = widest <= 1 << 16;
        (PointerLog::bytes(recorded, narrow) <= AUTO_POINTER_BUDGET_BYTES)
            .then(|| PointerLog::with_capacity(recorded, narrow))
    }

    /// The configuration of cell `idx` of slot `t`'s grid.
    fn config_at(&self, t: usize, idx: usize, counts: &mut Vec<u32>) -> Config {
        decode_counts(&self.levels(t), idx, counts);
        Config::new(counts.clone())
    }

    /// Record a live-table high-water mark.
    fn note_live(&mut self, live: usize) {
        self.peak_live = self.peak_live.max(live);
    }

    /// Pricing pass over a batch of slots, through the pool's one miss
    /// path: every slot is looked up (slots of one `(λ, grid)` key
    /// resolve to one table), the misses are priced concurrently by a
    /// work-claiming pool — no per-slot barrier — and then retained.
    /// Each table is one sequential sweep: a slot's priced values must
    /// never depend on batch composition or worker count, or replayed
    /// recovery segments would stop being bit-identical to the forward
    /// pass. Parallelism lives *across* slots.
    ///
    /// Returns the batch's distinct tables and each slot's index into
    /// them.
    fn price_batch(&mut self, range: Range<usize>) -> (Vec<PricedSlot>, Vec<usize>) {
        let (instance, oracle) = (self.instance, self.oracle);
        let mut found: Vec<Result<PricedSlot, Job<'_>>> = Vec::new();
        let mut order = Vec::with_capacity(range.len());
        let mut batch_keys = HashMap::new();
        let mut cells = 0;
        for t in range {
            let levels = slot_levels(&self.invariant_levels, instance, self.options.grid, t);
            let req = SlotRequest { t, lambda: instance.load(t), levels: &levels, bands: None };
            let key = self.pool.as_ref().and_then(|pool| pool.key(instance, &req));
            if let Some(&i) = key.and_then(|k| batch_keys.get(&k)) {
                order.push(i);
                continue;
            }
            if let Some(k) = key {
                batch_keys.insert(k, found.len());
            }
            let lookup =
                self.pool.as_mut().map_or(Err(Miss::default()), |p| p.lookup(instance, &req));
            if lookup.is_err() {
                cells += levels.iter().map(Vec::len).product::<usize>();
            }
            order.push(found.len());
            found.push(lookup.map_err(|miss| Job { t, levels, miss }));
        }

        let jobs: Vec<Mutex<&mut Job<'_>>> =
            found.iter_mut().filter_map(|f| f.as_mut().err()).map(Mutex::new).collect();
        self.priced += jobs.len();
        let price = |job: &mut Job<'_>, cursor: &mut CursorBuffers| {
            let (t, levels) = (job.t, &job.levels);
            let req = SlotRequest { t, lambda: instance.load(t), levels, bands: None };
            job.miss.price(instance, oracle, &req, cursor);
        };
        let threads = self.options.effective_threads(cells).min(jobs.len().max(1));
        if threads <= 1 {
            let cursor = &mut CursorBuffers::default();
            for job in &jobs {
                price(&mut job.lock().expect("poisoned"), cursor);
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        let cursor = &mut CursorBuffers::default();
                        while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                            price(&mut job.lock().expect("poisoned"), cursor);
                        }
                    });
                }
            });
        }
        drop(jobs);

        let tables = found
            .into_iter()
            .map(|f| match (f, self.pool.as_mut()) {
                (Ok(hit), _) => hit,
                (Err(job), Some(pool)) => pool.retain(job.miss),
                (Err(job), None) => job.miss.into_slot(),
            })
            .collect();
        (tables, order)
    }

    /// One recurrence step, in place: arrival transform onto the pricing
    /// table's grid (ping-ponging through the engine's spare table), then
    /// fold in `g_t` via [`crate::kernels::axpy_fold`] at scale 1 — cells
    /// priced infeasible become infinite. With `log`, the transform is the
    /// certified one and the slot's pointers are appended to it. Zero heap
    /// allocation once the engine's buffers reach the grid's high-water
    /// mark (and the log its reserved size).
    fn recurrence_step(&mut self, prev: &mut Table, pricing: &Table, log: Option<&mut PointerLog>) {
        let levels = pricing.all_levels();
        if let Some(log) = log {
            let certificate =
                Certificate::new(prev.values(), prev.all_levels(), levels, &self.betas);
            let order = self.tie_order.for_grid(prev.all_levels());
            let (origins, spare_origins) = &mut self.origins;
            arrival_transform_certified_inplace(
                (prev, origins),
                (&mut self.spare, spare_origins),
                levels,
                &self.betas,
                (certificate, order),
                &mut self.certified_scratch,
            );
            log.push(origins, order);
        } else {
            arrival_transform_inplace(
                prev,
                &mut self.spare,
                levels,
                &self.betas,
                &mut self.scratch,
            );
        }
        crate::kernels::axpy_fold(prev.values_mut(), pricing.values(), 1.0);
    }

    /// Advance `prev` across `range`, leaving `trail` behind: nothing,
    /// every slot's `OPT` table (recovery replays) or every slot's
    /// pointers (slot 0, whose only predecessor is the origin, records
    /// none). `base_live` is the number of tables the caller already
    /// holds, for peak accounting.
    fn run(
        &mut self,
        mut prev: Table,
        range: Range<usize>,
        mut trail: Trail<'_>,
        base_live: usize,
    ) -> Table {
        let start = range.start;
        let (tables, order) = self.price_batch(range);
        // Batch-owned: the tables no pool holds.
        let owned = tables.iter().filter(|t| Arc::strong_count(t) == 1).count();
        self.note_live(base_live + owned + 1);
        for (t, &i) in (start..).zip(&order) {
            match &mut trail {
                Trail::Pointers(log) if t > 0 => {
                    self.recurrence_step(&mut prev, &tables[i], Some(&mut **log));
                }
                _ => self.recurrence_step(&mut prev, &tables[i], None),
            }
            if let Trail::Tables(out) = &mut trail {
                out.push(prev.clone());
                self.note_live(base_live + owned + out.len() + 1);
            }
        }
        prev
    }
}

/// The offline solve: a forward pass that keeps each `k`-slot segment's
/// entry table and, when the recovery policy records them, every slot's
/// backtrack pointers; then recovery from the last table's cheapest cell,
/// following certified pointers and replaying a segment from its
/// checkpoint only where a pointer is not certified or none was recorded
/// (see the module docs). The entry point behind [`crate::dp::solve`]
/// and [`crate::dp::solve_with_stats`].
///
/// # Panics
/// Panics on an empty horizon or an infeasible instance (neither can
/// come out of [`Instance::builder`]).
#[must_use]
pub fn solve_checkpointed(
    instance: &Instance,
    oracle: &(impl GtOracle + Sync),
    options: DpOptions,
) -> (DpResult, RecoveryStats) {
    let horizon = instance.horizon();
    assert!(horizon > 0, "cannot solve an empty horizon");
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let root = ((horizon as f64).sqrt().ceil() as usize).max(1);
    // Auto keeps every table when the horizon has no more slots than the
    // pricing pool may retain tables (up to 64 slots): the solve then
    // holds no more tables than its pool may, and one value-only pass is
    // the cheapest recovery.
    let keep_all = match options.recovery {
        RecoveryMode::Auto => horizon <= pool_capacity(root),
        RecoveryMode::Materialized => true,
        RecoveryMode::Checkpointed => false,
    };
    let k = if keep_all { horizon } else { root };
    let segments: Vec<Range<usize>> =
        (0..horizon.div_ceil(k)).map(|s| s * k..((s + 1) * k).min(horizon)).collect();

    let mut engine = Engine::new(instance, oracle, options, k);
    let mut log = if keep_all { None } else { engine.pointer_log() };

    // Forward: keep each segment's entry table (and the pointers, or
    // every slot's table).
    let mut entries: Vec<Table> = Vec::with_capacity(segments.len());
    let mut kept: Vec<Table> = Vec::new();
    let mut prev = Table::origin(instance.num_types());
    for seg in &segments {
        entries.push(prev.clone());
        let trail = match &mut log {
            Some(log) => Trail::Pointers(log),
            None if keep_all => Trail::Tables(&mut kept),
            None => Trail::None,
        };
        prev = engine.run(prev, seg.clone(), trail, entries.len());
    }
    let checkpoints = entries.len();
    let last = prev.argmin().expect("instance validated as feasible, so OPT_T has a finite cell");
    let cost = prev.values()[last];
    drop(prev);

    // Recovery, back to front: `rev` holds the configurations of slots
    // T−1, T−2, … and `(t, idx)` the earliest one's slot and cell.
    let mut counts = Vec::new();
    let mut rev: Vec<Config> = Vec::with_capacity(horizon);
    let (mut t, mut idx) = (horizon - 1, last);
    rev.push(engine.config_at(t, idx, &mut counts));
    let mut replayed_segments = 0;
    while t > 0 {
        if let Some(p) = log.as_ref().and_then(|log| log.certified(t, idx)) {
            (t, idx) = (t - 1, p);
            rev.push(engine.config_at(t, idx, &mut counts));
            continue;
        }
        // Select the predecessors of the segment holding slot t − 1, up
        // to that slot, with the backtrack's tie-break: over the kept
        // tables, or over the segment replayed from its checkpoint.
        let s = (t - 1) / k;
        let replay;
        let tables = if kept.is_empty() {
            entries.truncate(s + 1);
            let entry = entries.pop().expect("one entry per segment");
            let mut tables: Vec<Table> = Vec::with_capacity(t - s * k);
            engine.run(entry, s * k..t, Trail::Tables(&mut tables), entries.len() + 1);
            replayed_segments += 1;
            replay = tables;
            &replay[..]
        } else {
            &kept[s * k..t]
        };
        let (_, configs) = backtrack_segment(instance, tables, rev.last());
        idx = tables[0].index_of_config(&configs[0]).expect("a selected cell is on its grid");
        rev.extend(configs.into_iter().rev());
        t = s * k;
    }

    rev.reverse();
    debug_assert_eq!(rev.len(), horizon);
    let stats = RecoveryStats {
        horizon,
        segment_len: k,
        checkpoints,
        peak_live_tables: engine.peak_live,
        pooled_pricing_tables: engine.pool.as_ref().map_or(0, |p| p.stats().pooled_slots),
        priced_slots: engine.priced,
        replayed_segments,
    };
    (DpResult { cost, schedule: Schedule::new(rev) }, stats)
}

/// Optimal cost only — rolling recurrence, no checkpoints, no recovery.
#[must_use]
pub fn cost_only(instance: &Instance, oracle: &(impl GtOracle + Sync), options: DpOptions) -> f64 {
    let horizon = instance.horizon();
    let mut prev = Table::origin(instance.num_types());
    if horizon == 0 {
        return prev.min_value();
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let k = ((horizon as f64).sqrt().ceil() as usize).max(1);
    let mut engine = Engine::new(instance, oracle, options, k);
    let mut t = 0;
    while t < horizon {
        let end = (t + k).min(horizon);
        prev = engine.run(prev, t..end, Trail::None, 1);
        t = end;
    }
    prev.min_value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{solve_with_stats, RecoveryMode};
    use rsz_core::{CostModel, CostSpec, ServerType, SlotEval};
    use rsz_dispatch::Dispatcher;

    fn opts() -> DpOptions {
        DpOptions { threads: Some(1), ..DpOptions::default() }
    }

    /// A [`Dispatcher`] that counts the pricing sweeps opened on it.
    #[derive(Default)]
    struct SweepCounter {
        sweeps: AtomicUsize,
    }

    impl GtOracle for SweepCounter {
        fn g(&self, instance: &Instance, t: usize, x: &[u32]) -> f64 {
            Dispatcher::new().g(instance, t, x)
        }

        fn g_scaled(
            &self,
            instance: &Instance,
            t: usize,
            x: &[u32],
            lambda: f64,
            cost_scale: f64,
        ) -> f64 {
            Dispatcher::new().g_scaled(instance, t, x, lambda, cost_scale)
        }

        fn slot_sweep<'a>(
            &'a self,
            instance: &'a Instance,
            t: usize,
            lambda: f64,
            cost_scale: f64,
        ) -> Box<dyn SlotEval + 'a> {
            self.sweeps.fetch_add(1, Ordering::Relaxed);
            self.slot_eval(instance, t, lambda, cost_scale)
        }
    }

    fn diurnal_instance(horizon: usize) -> Instance {
        let loads: Vec<f64> =
            (0..horizon).map(|t| 3.0 + 2.5 * ((t % 8) as f64 - 3.5).abs()).collect();
        Instance::builder()
            .server_type(ServerType::new("cpu", 6, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .server_type(ServerType::new("gpu", 4, 3.0, 2.0, CostModel::power(1.0, 0.5, 2.0)))
            .loads(loads)
            .build()
            .unwrap()
    }

    fn time_dependent_instance(horizon: usize) -> Instance {
        let prices: Vec<f64> = (0..horizon).map(|t| 0.5 + 0.1 * ((t % 5) as f64)).collect();
        Instance::builder()
            .server_type(ServerType::with_spec(
                "priced",
                5,
                2.0,
                2.0,
                CostSpec::scaled(CostModel::power(1.0, 0.5, 2.0), prices),
            ))
            .loads((0..horizon).map(|t| 1.0 + ((t * 3) % 7) as f64).collect::<Vec<f64>>())
            .build()
            .unwrap()
    }

    #[test]
    fn pipeline_matches_the_graph_formulation() {
        for inst in [diurnal_instance(30), time_dependent_instance(23)] {
            let oracle = Dispatcher::new();
            let graph = crate::graph::solve(&inst, &oracle, crate::GridMode::Full);
            let piped = solve_checkpointed(&inst, &oracle, opts()).0;
            assert_eq!(graph.schedule, piped.schedule);
            assert!(
                (graph.cost - piped.cost).abs() <= 1e-9 * graph.cost.abs().max(1.0),
                "cost parity: {} vs {}",
                graph.cost,
                piped.cost
            );
        }
    }

    #[test]
    fn checkpointed_recovery_equals_materialized_recovery() {
        // Not a square; 8-periodic loads, so the pool answers every
        // replay and Auto checkpoints without pointers.
        let inst = diurnal_instance(300);
        let oracle = Dispatcher::new();
        let (full, _) = solve_with_stats(
            &inst,
            &oracle,
            DpOptions { recovery: RecoveryMode::Materialized, ..opts() },
        );
        let (chk, stats) = solve_with_stats(&inst, &oracle, opts());
        assert_eq!(full.schedule, chk.schedule);
        assert_eq!(full.cost.to_bits(), chk.cost.to_bits());
        assert_eq!(stats.horizon, 300);
        assert_eq!(stats.segment_len, 18, "⌈√300⌉");
        assert_eq!(stats.checkpoints, 17);
    }

    #[test]
    fn recovery_mode_overrides_the_auto_cutoff() {
        let inst = diurnal_instance(29);
        let oracle = Dispatcher::new();
        let (_, forced) = solve_with_stats(
            &inst,
            &oracle,
            DpOptions { recovery: RecoveryMode::Checkpointed, ..opts() },
        );
        assert_eq!(forced.segment_len, 6, "⌈√29⌉ despite the short horizon");
        let long = diurnal_instance(300);
        let (_, mat) = solve_with_stats(
            &long,
            &oracle,
            DpOptions { recovery: RecoveryMode::Materialized, ..opts() },
        );
        assert_eq!(mat.checkpoints, 1, "single pass despite the long horizon");
        assert_eq!(mat.segment_len, 300);
    }

    #[test]
    fn short_horizons_skip_checkpointing() {
        // Up to 64 slots Auto keeps every table (no more than the pricing
        // pool may retain) and never replays: every slot is priced
        // exactly once.
        let inst = time_dependent_instance(29);
        let oracle = SweepCounter::default();
        let (res, stats) = solve_with_stats(&inst, &oracle, opts());
        assert_eq!(stats.segment_len, 29);
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(oracle.sweeps.load(Ordering::Relaxed), 29, "one pricing sweep per slot");
        let graph = crate::graph::solve(&inst, &Dispatcher::new(), crate::GridMode::Full);
        assert_eq!(graph.schedule, res.schedule);
    }

    /// `three_tier(4, 4, 2)` under two days of a noisy work-week: the
    /// offline planner's workload at test size, whose loads never repeat.
    fn noisy_three_tier(horizon: usize) -> Instance {
        use rsz_workloads::{fleet, patterns, stochastic};
        let types = fleet::three_tier(4, 4, 2);
        let cap = fleet::total_capacity(&types);
        let week = patterns::work_week(2, horizon / 2, 0.1 * cap, 0.6 * cap, 0.6);
        let noisy = stochastic::with_gaussian_noise(&week, 0.01 * cap, 1).capped(cap);
        Instance::builder()
            .server_types(types)
            .loads(noisy.into_values().into_iter().map(|v| v.max(0.0)).collect::<Vec<f64>>())
            .build()
            .unwrap()
    }

    #[test]
    fn certified_pointers_price_each_noisy_slot_once() {
        let inst = noisy_three_tier(200);
        let oracle = Dispatcher::new();
        let (auto, stats) = solve_with_stats(&inst, &oracle, opts());
        assert_eq!(stats.priced_slots, 200, "one pricing per slot");
        assert_eq!(stats.replayed_segments, 0, "every traversed pointer is certified");
        let (chk, chk_stats) = solve_with_stats(
            &inst,
            &oracle,
            DpOptions { recovery: RecoveryMode::Checkpointed, ..opts() },
        );
        assert_eq!(chk_stats.replayed_segments, chk_stats.checkpoints, "every segment replays");
        assert_eq!(auto.schedule, chk.schedule);
        assert_eq!(auto.cost.to_bits(), chk.cost.to_bits());
    }

    #[test]
    fn pool_covered_replays_record_no_pointers() {
        // Four distinct loads (`|t mod 8 − 3.5|` is symmetric): the pool
        // keeps every priced slot, so a replay prices nothing and Auto
        // checkpoints without pointers.
        let inst = diurnal_instance(100);
        let oracle = Dispatcher::new();
        let (auto, stats) = solve_with_stats(&inst, &oracle, opts());
        assert_eq!(stats.priced_slots, 4, "one pricing per distinct load");
        assert_eq!(stats.replayed_segments, stats.checkpoints, "every segment replays");
        let (full, _) = solve_with_stats(
            &inst,
            &oracle,
            DpOptions { recovery: RecoveryMode::Materialized, ..opts() },
        );
        assert_eq!(auto.schedule, full.schedule);
        assert_eq!(auto.cost.to_bits(), full.cost.to_bits());
    }

    /// Two interchangeable types with constant costs, the second dearer
    /// by `premium`: from one server of either type, the other type's
    /// server is an equally cheap predecessor up to the premium. Both
    /// costs scale by an integer price that changes from slot to slot,
    /// so over 80 slots (more than Auto keeps whole) a replay would price
    /// its slots again and Auto records pointers; integer loads and
    /// prices keep the exact ties exact.
    fn twin_types(premium: f64) -> Instance {
        let loads: Vec<f64> = (0..80).map(|t| f64::from([1, 2, 1, 0, 2, 3, 1][t % 7])).collect();
        let prices: Vec<f64> = (0..80).map(|t| f64::from(1 + t % 2)).collect();
        let twin = |name, cost| {
            let spec = CostSpec::scaled(CostModel::constant(cost), prices.clone());
            ServerType::with_spec(name, 2, 2.0, 1.0, spec)
        };
        Instance::builder()
            .server_type(twin("a", 1.0))
            .server_type(twin("b", 1.0 + premium))
            .loads(loads)
            .build()
            .unwrap()
    }

    #[test]
    fn near_ties_replay_their_segment() {
        // Exact ties are certified as TieMin's own (total, index) choice;
        // a near-tie inside the margin is not, and replays its segment.
        let oracle = Dispatcher::new();
        for (premium, replays) in [(0.0, false), (1e-12, true)] {
            let inst = twin_types(premium);
            let (auto, stats) = solve_with_stats(&inst, &oracle, opts());
            assert_eq!(stats.replayed_segments > 0, replays, "premium {premium}");
            let (chk, _) = solve_with_stats(
                &inst,
                &oracle,
                DpOptions { recovery: RecoveryMode::Checkpointed, ..opts() },
            );
            assert_eq!(auto.schedule, chk.schedule, "premium {premium}");
            assert_eq!(auto.cost.to_bits(), chk.cost.to_bits(), "premium {premium}");
            let graph = crate::graph::solve(&inst, &oracle, crate::GridMode::Full);
            assert_eq!(graph.schedule, auto.schedule, "premium {premium}");
        }
    }

    #[test]
    fn pipeline_cost_only_matches_full_solve() {
        for inst in [diurnal_instance(17), time_dependent_instance(17)] {
            let oracle = Dispatcher::new();
            let full = solve_checkpointed(&inst, &oracle, opts()).0;
            let cheap = cost_only(&inst, &oracle, opts());
            assert!((full.cost - cheap).abs() <= 1e-9 * full.cost.abs().max(1.0));
        }
    }

    #[test]
    fn time_independent_pricing_pool_dedupes_slots() {
        // 8-periodic loads: at most 8 distinct pricing tables however
        // long the horizon.
        let inst = diurnal_instance(64);
        let oracle = Dispatcher::new();
        let (_, stats) = solve_with_stats(&inst, &oracle, opts());
        assert!(
            stats.pooled_pricing_tables <= 8,
            "expected ≤ 8 distinct tables, got {}",
            stats.pooled_pricing_tables
        );
    }

    #[test]
    fn time_dependent_instances_do_not_pool() {
        let inst = time_dependent_instance(20);
        let oracle = Dispatcher::new();
        let (_, stats) = solve_with_stats(&inst, &oracle, opts());
        assert_eq!(stats.pooled_pricing_tables, 0);
    }
}
