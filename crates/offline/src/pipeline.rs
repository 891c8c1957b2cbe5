//! The slot-batched pricing pipeline and checkpointed schedule recovery
//! — the one path every offline solve runs.
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
//!    cheap, transform-only sequential pass.
//! 3. **Checkpointed recovery** — instead of materializing all `T`
//!    tables, the forward pass keeps `⌈T/k⌉` checkpoint tables with
//!    `k = ⌈√T⌉` and backtracking replays one `k`-slot segment at a
//!    time: peak table memory is `O(|grid|·√T)` (checkpoints + one
//!    replayed segment + its pricing batch), which
//!    [`RecoveryStats::peak_live_tables`] makes observable.
//!
//! Replayed segments are bit-identical to the forward pass (pricing is
//! per-table deterministic and pooled tables are reused verbatim), and
//! every selection step shares the DP's `TieMin` epsilon tie-break, so
//! the recovered schedule equals the whole-window backtrack's — the
//! determinism tests assert this across thread counts and recovery
//! modes.

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rsz_core::{Config, GtOracle, Instance, Schedule};

use crate::dp::{backtrack_segment, betas, DpOptions, DpResult};
use crate::engine::{CursorBuffers, Miss, PricedSlot, PricedSlotPool, SlotRequest};
use crate::table::Table;
use crate::transform::{arrival_transform_inplace, TransformScratch};

/// Memory accounting of a checkpointed solve, for tests and reports.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryStats {
    /// Horizon `T` of the solved instance.
    pub horizon: usize,
    /// Segment length `k = ⌈√T⌉`.
    pub segment_len: usize,
    /// Checkpoint tables kept by the forward pass (`⌈T/k⌉`).
    pub checkpoints: usize,
    /// Maximum number of simultaneously live `OPT`/pricing tables across
    /// the forward pass and recovery (excludes the bounded
    /// time-independent pricing pool, reported separately).
    pub peak_live_tables: usize,
    /// Distinct pricing tables retained for time-independent reuse.
    pub pooled_pricing_tables: usize,
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
        // Enough for any trace whose distinct load levels are on the
        // order of the segment length (a tiled diurnal day), while
        // keeping worst-case retention within the √T budget.
        let cap = (4 * segment_len).max(64);
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
        }
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
            // The candidate grid, borrowed when it is hoisted.
            let levels = match &self.invariant_levels {
                Some(levels) => Cow::Borrowed(&levels[..]),
                None => (0..instance.num_types())
                    .map(|j| self.options.grid.levels(instance.server_count(t, j)))
                    .collect(),
            };
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
    /// priced infeasible become infinite. Zero heap
    /// allocation once the engine's buffers reach the grid's high-water
    /// mark.
    fn recurrence_step(&mut self, prev: &mut Table, pricing: &Table) {
        arrival_transform_inplace(
            prev,
            &mut self.spare,
            pricing.all_levels(),
            &self.betas,
            &mut self.scratch,
        );
        crate::kernels::axpy_fold(prev.values_mut(), pricing.values(), 1.0);
    }

    /// Advance `prev` across `range`, optionally materializing every
    /// slot's `OPT` table into `out` (recovery replays). `base_live` is
    /// the number of tables the caller already holds, for peak
    /// accounting.
    fn run(
        &mut self,
        mut prev: Table,
        range: Range<usize>,
        mut out: Option<&mut Vec<Table>>,
        base_live: usize,
    ) -> Table {
        let (tables, order) = self.price_batch(range);
        // Batch-owned: the tables no pool holds.
        let owned = tables.iter().filter(|t| Arc::strong_count(t) == 1).count();
        self.note_live(base_live + owned + 1);
        for &i in &order {
            self.recurrence_step(&mut prev, &tables[i]);
            if let Some(out) = out.as_deref_mut() {
                out.push(prev.clone());
                self.note_live(base_live + owned + out.len() + 1);
            }
        }
        prev
    }
}

/// Under [`crate::dp::RecoveryMode::Auto`], horizons up to this length
/// skip checkpointing and materialize all `OPT` tables directly:
/// recovery replay re-prices every slot (2× dispatch work when nothing
/// caches it), which is only worth paying once `O(|grid|·T)` table
/// memory actually bites. An explicit [`crate::dp::RecoveryMode`]
/// overrides this cutoff in either direction.
pub const CHECKPOINT_MIN_HORIZON: usize = 257;

/// Table-memory budget under which [`crate::dp::RecoveryMode::Auto`]
/// materializes even beyond [`CHECKPOINT_MIN_HORIZON`] when **nothing
/// would make the recovery replay cheap** — the instance's costs are
/// time-dependent (so the pipeline's `(λ, grid)` pricing pool cannot
/// share slots) *and* the oracle does not memoize
/// ([`GtOracle::is_memoizing`]). In that corner, checkpointing would pay
/// the full pricing twice; detecting the non-poolable combination up
/// front materializes instead.
pub const AUTO_MATERIALIZE_BUDGET_BYTES: u64 = 64 << 20;

/// `true` if the Auto policy should materialize the whole horizon for
/// this solve: short horizon, or a non-poolable slot stream (see
/// [`AUTO_MATERIALIZE_BUDGET_BYTES`]) whose tables fit the budget.
fn auto_materializes(
    instance: &Instance,
    oracle: &(impl GtOracle + Sync),
    options: DpOptions,
) -> bool {
    let horizon = instance.horizon();
    if horizon < CHECKPOINT_MIN_HORIZON {
        return true;
    }
    if instance.is_time_independent() || oracle.is_memoizing() {
        return false;
    }
    let max_counts = instance.max_counts();
    let cells: u64 = (0..instance.num_types())
        .map(|j| options.grid.levels(max_counts[j]).len() as u64)
        .product();
    cells.saturating_mul(horizon as u64).saturating_mul(8) <= AUTO_MATERIALIZE_BUDGET_BYTES
}

/// Checkpointed offline solve: forward pass storing `√T` checkpoints,
/// recovery replaying one segment at a time (horizons below
/// [`CHECKPOINT_MIN_HORIZON`] materialize a single full segment with no
/// replay, exactly the classic forward-tables backtrack). The entry
/// point behind [`crate::dp::solve`] and [`crate::dp::solve_with_stats`].
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
    let materialize = match options.recovery {
        crate::dp::RecoveryMode::Materialized => true,
        crate::dp::RecoveryMode::Checkpointed => false,
        crate::dp::RecoveryMode::Auto => auto_materializes(instance, oracle, options),
    };
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let k = if materialize { horizon } else { ((horizon as f64).sqrt().ceil() as usize).max(1) };
    let segments: Vec<Range<usize>> =
        (0..horizon.div_ceil(k)).map(|s| s * k..((s + 1) * k).min(horizon)).collect();

    let mut engine = Engine::new(instance, oracle, options, k);

    // Forward: keep only each segment's *entry* table. The final
    // segment is never advanced here — recovery replays it first, so
    // running it forward would only duplicate its pricing work.
    let mut entries: Vec<Table> = Vec::with_capacity(segments.len());
    let mut prev = Table::origin(instance.num_types());
    for (s, seg) in segments.iter().enumerate() {
        entries.push(prev.clone());
        if s + 1 == segments.len() {
            break;
        }
        let base = entries.len();
        prev = engine.run(prev, seg.clone(), None, base);
    }
    drop(prev);
    let checkpoints = entries.len();

    // Recovery: replay segments back to front, threading the chosen
    // successor configuration across segment boundaries.
    let mut successor: Option<Config> = None;
    let mut cost = f64::INFINITY;
    let mut rev_segments: Vec<Vec<Config>> = Vec::with_capacity(segments.len());
    for seg in segments.iter().rev() {
        let entry = entries.pop().expect("one entry per segment");
        let mut tables: Vec<Table> = Vec::with_capacity(seg.len());
        engine.run(entry, seg.clone(), Some(&mut tables), entries.len() + 1);
        let (seg_cost, configs) = backtrack_segment(instance, &tables, successor.as_ref());
        if let Some(c) = seg_cost {
            cost = c;
        }
        successor = Some(configs[0].clone());
        rev_segments.push(configs);
    }

    let configs: Vec<Config> = rev_segments.into_iter().rev().flatten().collect();
    debug_assert_eq!(configs.len(), horizon);
    let stats = RecoveryStats {
        horizon,
        segment_len: k,
        checkpoints,
        peak_live_tables: engine.peak_live,
        pooled_pricing_tables: engine.pool.as_ref().map_or(0, |p| p.stats().pooled_slots),
    };
    (DpResult { cost, schedule: Schedule::new(configs) }, stats)
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
        prev = engine.run(prev, t..end, None, 1);
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
        let inst = diurnal_instance(300); // not a square, above the cutoff
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
        // Below CHECKPOINT_MIN_HORIZON the solver materializes one full
        // segment and never replays: every slot is priced exactly once.
        let inst = time_dependent_instance(29);
        let oracle = SweepCounter::default();
        let (res, stats) = solve_with_stats(&inst, &oracle, opts());
        assert_eq!(stats.segment_len, 29);
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(oracle.sweeps.load(Ordering::Relaxed), 29, "one pricing sweep per slot");
        let graph = crate::graph::solve(&inst, &Dispatcher::new(), crate::GridMode::Full);
        assert_eq!(graph.schedule, res.schedule);
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
