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
//!    a bounded pool.
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

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rsz_core::{Config, GtOracle, Instance, Schedule};

use crate::dp::{backtrack_segment, betas, DpOptions, DpResult};
use crate::engine::sweep_into;
use crate::table::{CursorBuffers, Table};
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

/// Key identifying a reusable pricing table: exact λ bits plus the
/// slot's candidate grid. Only consulted for time-independent instances,
/// where equal keys imply equal `g_t` tables.
#[derive(Clone, PartialEq, Eq, Hash)]
struct PriceKey {
    lambda: u64,
    levels: Vec<Vec<u32>>,
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
    /// `Some` iff the instance is time-independent: pricing tables
    /// keyed by `(λ, grid)`, capped at `pool_cap`.
    pool: Option<HashMap<PriceKey, Arc<Table>>>,
    pool_cap: usize,
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

impl<'a, O: GtOracle + Sync> Engine<'a, O> {
    fn new(instance: &'a Instance, oracle: &'a O, options: DpOptions, segment_len: usize) -> Self {
        let pool = instance.is_time_independent().then(HashMap::new);
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
            // Enough for any trace whose distinct load levels are on the
            // order of the segment length (a tiled diurnal day), while
            // keeping worst-case retention within the √T budget.
            pool_cap: (4 * segment_len).max(64),
            peak_live: 0,
            spare: Table::origin(instance.num_types()),
            scratch: TransformScratch::new(),
        }
    }

    /// Candidate grid of slot `t` (cloned from the hoisted copy when
    /// fleet sizes are slot-invariant).
    fn levels(&self, t: usize) -> Vec<Vec<u32>> {
        if let Some(levels) = &self.invariant_levels {
            return levels.clone();
        }
        (0..self.instance.num_types())
            .map(|j| self.options.grid.levels(self.instance.server_count(t, j)))
            .collect()
    }

    /// Record a live-table high-water mark.
    fn note_live(&mut self, live: usize) {
        self.peak_live = self.peak_live.max(live);
    }

    /// Price one slot's `g_t` table over `levels` as a single
    /// layout-order sweep. Always one sequential sweep per table: a
    /// slot's priced values must never depend on batch composition or
    /// worker count, or replayed recovery segments would stop being
    /// bit-identical to the forward pass. Parallelism lives *across*
    /// slots.
    fn price_table(&self, t: usize, levels: Vec<Vec<u32>>) -> Table {
        let mut table = Table::new(levels, f64::INFINITY);
        let cursor = &mut CursorBuffers::default();
        sweep_into(&mut table, cursor, self.instance, self.oracle, t, self.instance.load(t));
        table
    }

    /// Pricing pass over a batch of slots: one table per slot, slots
    /// with identical `(λ, grid)` sharing a single table when the
    /// instance is time-independent. Distinct slots are priced
    /// concurrently by a work-claiming pool — no per-slot barrier.
    ///
    /// Returns the per-slot tables plus the number of *batch-owned*
    /// tables among them — freshly solved tables that did not land in
    /// the retained pool (pool-resident tables are accounted separately
    /// in [`RecoveryStats`]; the per-slot entries are `Arc` clones, not
    /// copies).
    fn price_batch(&mut self, range: Range<usize>) -> (Vec<Arc<Table>>, usize) {
        let slots: Vec<usize> = range.collect();
        // Resolve each slot to either a pooled table or a pending job.
        let mut jobs: Vec<(usize, Vec<Vec<u32>>)> = Vec::new();
        let mut job_keys: Vec<Option<PriceKey>> = Vec::new();
        let mut slot_source: Vec<Result<Arc<Table>, usize>> = Vec::with_capacity(slots.len());
        let mut batch_keys: HashMap<PriceKey, usize> = HashMap::new();
        for &t in &slots {
            let levels = self.levels(t);
            let key = self.pool.is_some().then(|| PriceKey {
                lambda: self.instance.load(t).to_bits(),
                levels: levels.clone(),
            });
            if let (Some(pool), Some(k)) = (self.pool.as_ref(), key.as_ref()) {
                if let Some(shared) = pool.get(k) {
                    slot_source.push(Ok(Arc::clone(shared)));
                    continue;
                }
                if let Some(&job) = batch_keys.get(k) {
                    slot_source.push(Err(job));
                    continue;
                }
                batch_keys.insert(k.clone(), jobs.len());
            }
            slot_source.push(Err(jobs.len()));
            job_keys.push(key);
            jobs.push((t, levels));
        }

        let total_cells: usize =
            jobs.iter().map(|(_, l)| l.iter().map(Vec::len).product::<usize>()).sum();
        let threads = self.options.effective_threads(total_cells).min(jobs.len().max(1));
        let solved: Vec<Table> = if threads <= 1 || jobs.len() <= 1 {
            jobs.drain(..).map(|(t, levels)| self.price_table(t, levels)).collect()
        } else {
            let results: Vec<Mutex<Option<Table>>> =
                jobs.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            let next = &next;
            let jobs = &jobs;
            let results_ref = &results;
            let this = &*self;
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((t, levels)) = jobs.get(i) else { break };
                        let table = this.price_table(*t, levels.clone());
                        *results_ref[i].lock().expect("poisoned") = Some(table);
                    });
                }
            });
            results
                .into_iter()
                .map(|m| m.into_inner().expect("poisoned").expect("every job ran"))
                .collect()
        };

        let shared: Vec<Arc<Table>> = solved.into_iter().map(Arc::new).collect();
        let mut pooled = 0usize;
        if let Some(pool) = self.pool.as_mut() {
            for (key, table) in job_keys.iter().zip(&shared) {
                if let Some(key) = key {
                    if pool.len() < self.pool_cap {
                        pool.insert(key.clone(), Arc::clone(table));
                        pooled += 1;
                    }
                }
            }
        }
        let owned = shared.len() - pooled;
        let tables = slot_source
            .into_iter()
            .map(|src| match src {
                Ok(t) => t,
                Err(job) => Arc::clone(&shared[job]),
            })
            .collect();
        (tables, owned)
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
        let (pricing, owned) = self.price_batch(range);
        self.note_live(base_live + owned + 1);
        for priced in &pricing {
            self.recurrence_step(&mut prev, priced);
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
        pooled_pricing_tables: engine.pool.as_ref().map_or(0, HashMap::len),
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
