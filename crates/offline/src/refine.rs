//! Coarse-to-fine corridor refinement of the offline DP (Section 4.2
//! put to work as an accelerator).
//!
//! Every other solve path prices and sweeps the *entire* candidate grid
//! at every slot, so per-slot work scales with `Π_j |V_j|` — the exact
//! algorithm's `O(T·Π m_j)` (Section 4.1) blows up at `d = 3` and large
//! fleets. The corridor solver exploits the paper's own grid-reduction
//! structure to avoid that:
//!
//! 1. **Coarse solve.** Solve on the cheap [`GridMode::Gamma`]`(γ₀)`
//!    grid (`O(log_γ m)` levels per dimension, Theorem 16) with the
//!    regular pipeline. Its trajectory localizes the optimum: the proof
//!    of Theorem 16 constructs a grid schedule inside the corridor
//!    `[x*, (2γ₀−1)·x*]` of any optimum `X*`, so the coarse optimum
//!    tracks the fine optimum to within the corridor factor.
//! 2. **Band lift.** Each coarse count `c_{t,j}` becomes a *band* of
//!    fine-grid positions covering `[c/(2γ₀−1), c·(2γ₀−1)]` (one margin
//!    position added on each side). Bands always contain the coarse
//!    trajectory, so the banded problem is feasible by construction.
//! 3. **Banded DP.** The forward recurrence, pricing, argmin and
//!    backtracking all run on band cells only: per-slot tables are built
//!    over the band slices, so per-slot work scales with *band volume*
//!    instead of grid volume. Pricing goes through a [`PricedSlotPool`]
//!    whose keys carry the band signature — re-solve rounds re-price
//!    only the slots whose bands changed.
//! 4. **Exactness-guarded expansion fixpoint.** Two guards gate
//!    convergence. First, *boundary contact*: if the banded optimum
//!    touches a band edge at any `(t, j)` (other than a physical grid
//!    edge), that band is widened (doubling toward the contacted side)
//!    and the horizon is re-solved — unchanged slots are pool hits.
//!    Second, once no boundary is touched, a *verification pass*
//!    re-solves with every band widened by one position: separable
//!    per-dimension contact alone cannot see improvements that require
//!    a simultaneous move in several dimensions (e.g. swapping load
//!    from one server type to another), but the widened pass can — if
//!    it finds a different schedule, the widened bands are kept and the
//!    fixpoint continues. Only a contact-free solve whose verification
//!    pass reproduces the same schedule is accepted (property-tested
//!    schedule-identical to full-grid solves, costs within the
//!    documented `rsz_core::util::REL_TOL` tolerance). Exhausting
//!    [`RefineOptions::max_rounds`] falls back to one unrestricted
//!    full-grid pass, so the exact mode can never return a sub-optimal
//!    schedule.
//!
//! The **`(1+ε)` early-stop mode** ([`RefineOptions::epsilon`]) skips
//! the fixpoint entirely: because every band contains the coarse
//! trajectory, the first banded solve already costs no more than the
//! coarse solve, which Theorem 16/21 bounds by `(2γ₀−1)·OPT` — with
//! `γ₀ = 1 + ε/2` that is `(1+ε)·OPT`, at one coarse pass plus one
//! banded pass of total cost.
//!
//! The same machinery serves the receding-horizon controller
//! ([`refine_window`]): overlapping windows lift bands from the
//! previous window's trajectory, and the band-keyed pool answers the
//! `w − 1` re-solved slots without re-pricing.

use std::ops::Range;

use rsz_core::{GtOracle, Instance};

use crate::dp::{backtrack_window, betas, DpOptions, DpResult};
use crate::engine::{add_priced, CursorBuffers, EngineStats, PricedSlotPool};
use crate::grid::GridMode;
use crate::table::Table;
use crate::transform::{arrival_transform_scratch, TransformScratch};

/// Options of the corridor solver, threaded through
/// [`DpOptions::refine`].
#[derive(Clone, Copy, Debug)]
pub struct RefineOptions {
    /// `γ₀ > 1` of the coarse grid. Smaller values localize tighter
    /// (narrower bands) at a more expensive coarse solve.
    pub coarse_gamma: f64,
    /// The fine grid the refinement converges onto. This **overrides**
    /// [`DpOptions::grid`] for the fine passes: [`GridMode::Full`]
    /// refines to the exact optimum, [`GridMode::Gamma`] to that γ-grid's
    /// optimum (with its Theorem 16 guarantee).
    pub target: GridMode,
    /// Banded passes before the exact mode falls back to one full-grid
    /// pass (the early-stop mode never expands).
    pub max_rounds: usize,
    /// `Some(ε)`: early-stop after the first banded solve. The result
    /// costs at most `(2·coarse_gamma − 1)` times the fine-grid optimum
    /// (Theorems 16/21); [`RefineOptions::epsilon`] picks
    /// `γ₀ = 1 + ε/2` so that factor is `1 + ε`.
    pub epsilon: Option<f64>,
}

impl Default for RefineOptions {
    fn default() -> Self {
        Self { coarse_gamma: 1.25, target: GridMode::Full, max_rounds: 12, epsilon: None }
    }
}

impl RefineOptions {
    /// Exact refinement onto the full grid (the default).
    #[must_use]
    pub fn exact() -> Self {
        Self::default()
    }

    /// The `(1+ε)` early-stop mode: coarse grid `Γ(1 + ε/2)`, full-grid
    /// bands, no expansion fixpoint.
    ///
    /// # Panics
    /// Panics if `epsilon ≤ 0`.
    #[must_use]
    pub fn epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        Self { coarse_gamma: 1.0 + epsilon / 2.0, epsilon: Some(epsilon), ..Self::default() }
    }

    /// Override the coarse γ₀.
    ///
    /// # Panics
    /// Panics if `gamma ≤ 1`.
    #[must_use]
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        assert!(gamma > 1.0, "coarse gamma must exceed 1");
        self.coarse_gamma = gamma;
        self
    }

    /// Override the fine target grid.
    #[must_use]
    pub fn with_target(mut self, target: GridMode) -> Self {
        self.target = target;
        self
    }

    /// The corridor inflation factor `2γ₀ − 1` used by the band lift.
    #[must_use]
    pub fn corridor_factor(&self) -> f64 {
        2.0 * self.coarse_gamma - 1.0
    }
}

/// Observability of a refined solve, for tests, benches and reports.
#[derive(Clone, Copy, Debug)]
pub struct RefineStats {
    /// Banded passes run (≥ 1; includes verification passes and the
    /// fallback pass).
    pub rounds: usize,
    /// Individual `(t, j)` band expansions applied across all rounds
    /// (verification widenings not included).
    pub expansions: usize,
    /// `true` if the exact mode exhausted `max_rounds` and fell back to
    /// one full-grid pass.
    pub fell_back: bool,
    /// `true` if the `(1+ε)` mode returned after the first banded solve.
    pub early_stopped: bool,
    /// Cost of the coarse `Γ(γ₀)` solve (an upper bound on the result).
    pub coarse_cost: f64,
    /// Total fine-grid cells across the horizon (`Σ_t Π_j |V_{t,j}|`).
    pub fine_cells: u64,
    /// Total band cells of the final bands — the volume one DP pass
    /// actually priced and swept.
    pub band_cells: u64,
    /// Pricing-pool counters (band-keyed; re-solve rounds hit on
    /// unchanged slots).
    pub engine: EngineStats,
}

impl RefineStats {
    /// Fraction of the fine grid the final bands cover.
    #[must_use]
    pub fn band_fraction(&self) -> f64 {
        if self.fine_cells == 0 {
            1.0
        } else {
            self.band_cells as f64 / self.fine_cells as f64
        }
    }
}

/// Per-slot fine-grid levels over a slot range, hoisted to one copy
/// when fleet sizes are slot-invariant. Slots are addressed by their
/// **absolute** index.
pub struct FineGrid {
    /// `levels[0]` serves every slot when `invariant`.
    levels: Vec<Vec<Vec<u32>>>,
    invariant: bool,
    start: usize,
}

impl FineGrid {
    /// Fine levels for the slots of `range` under `mode`.
    #[must_use]
    pub fn new(instance: &Instance, mode: GridMode, range: Range<usize>) -> Self {
        let d = instance.num_types();
        let invariant = !instance.has_time_varying_counts();
        let slots: Vec<usize> = if invariant { vec![range.start] } else { range.clone().collect() };
        let levels = slots
            .iter()
            .map(|&t| (0..d).map(|j| mode.levels(instance.server_count(t, j))).collect())
            .collect();
        Self { levels, invariant, start: range.start }
    }

    /// Levels of absolute slot `t` (must lie in the constructed range).
    #[must_use]
    pub fn at(&self, t: usize) -> &[Vec<u32>] {
        &self.levels[if self.invariant { 0 } else { t - self.start }]
    }
}

/// Result of a banded window fixpoint ([`refine_window`]).
#[derive(Clone, Debug)]
pub struct WindowOutcome {
    /// The window's recovered optimum (identical to an unrestricted
    /// window DP's, up to the sweep tolerance).
    pub result: DpResult,
    /// Banded passes run.
    pub rounds: usize,
    /// Band expansions applied.
    pub expansions: usize,
    /// `true` if `max_rounds` was exhausted and the final pass ran
    /// unrestricted.
    pub fell_back: bool,
    /// `true` if the `(1+ε)` mode returned after the first pass.
    pub early_stopped: bool,
}

/// Solve `instance` with the coarse-to-fine corridor solver. Requires
/// `options.refine` to be set; [`crate::dp::solve`] dispatches here.
///
/// # Panics
/// Panics if `options.refine` is `None`, if `coarse_gamma ≤ 1`, or if
/// the instance is infeasible (cannot happen for instances built through
/// [`Instance::builder`]).
#[must_use]
pub fn solve_refined(
    instance: &Instance,
    oracle: &(impl GtOracle + Sync),
    options: DpOptions,
) -> (DpResult, RefineStats) {
    let refine = options.refine.expect("solve_refined requires DpOptions::refine");
    assert!(refine.coarse_gamma > 1.0, "coarse gamma must exceed 1");
    let horizon = instance.horizon();
    assert!(horizon > 0, "cannot solve an empty horizon");
    let d = instance.num_types();

    // 1. Coarse solve over Γ(γ₀) through the regular pipeline.
    let coarse_opts =
        DpOptions { grid: GridMode::Gamma(refine.coarse_gamma), refine: None, ..options };
    let coarse = crate::pipeline::solve_checkpointed(instance, oracle, coarse_opts).0;

    let fine = FineGrid::new(instance, refine.target, 0..horizon);
    let fine_cells: u64 =
        (0..horizon).map(|t| fine.at(t).iter().map(|l| l.len() as u64).product::<u64>()).sum();

    // 2. Band lift: corridor positions around the coarse trajectory.
    let factor = refine.corridor_factor();
    let mut bands: Vec<Vec<Range<usize>>> = (0..horizon)
        .map(|t| {
            (0..d)
                .map(|j| lift_band(fine.at(t)[j].as_slice(), coarse.schedule.count(t, j), factor))
                .collect()
        })
        .collect();

    // 3. Banded fixpoint. The pool persists across rounds: keys carry
    // the band signature, so only slots whose bands changed re-price.
    let mut pool = PricedSlotPool::with_capacity(instance, (2 * horizon).max(64));
    let start = Table::origin(d);
    let outcome =
        refine_window(instance, oracle, 0..horizon, &start, &fine, &mut bands, &mut pool, &refine);

    let band_cells: u64 =
        bands.iter().map(|row| row.iter().map(|b| (b.end - b.start) as u64).product::<u64>()).sum();
    let stats = RefineStats {
        rounds: outcome.rounds,
        expansions: outcome.expansions,
        fell_back: outcome.fell_back,
        early_stopped: outcome.early_stopped,
        coarse_cost: coarse.cost,
        fine_cells,
        band_cells,
        engine: pool.stats(),
    };
    (outcome.result, stats)
}

/// Run the banded expansion fixpoint over the consecutive slots of
/// `range`, starting the DP from `start` (the predecessor state: the
/// origin table for whole-horizon solves, a point mass at the committed
/// configuration for receding-horizon windows). `bands[o]` holds the
/// position bands of slot `range.start + o` into `fine.at(·)`; they are
/// expanded **in place**, so the caller sees the final corridor.
///
/// Convergence requires both no boundary contact *and* a stable
/// verification pass (see the module docs); `options.max_rounds` bounds
/// the passes, with one unrestricted fallback pass guaranteeing
/// exactness. `options.epsilon` returns after the first feasible pass.
///
/// # Panics
/// Panics if the full fine grid itself is infeasible for some slot
/// (impossible for validated instances).
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn refine_window(
    instance: &Instance,
    oracle: &(impl GtOracle + Sync),
    range: Range<usize>,
    start: &Table,
    fine: &FineGrid,
    bands: &mut [Vec<Range<usize>>],
    pool: &mut PricedSlotPool,
    options: &RefineOptions,
) -> WindowOutcome {
    debug_assert_eq!(bands.len(), range.len());
    let b = betas(instance);
    let mut rounds = 0usize;
    let mut expansions = 0usize;
    let mut fell_back = false;
    let mut early_stopped = false;
    // A verification pass that changed the schedule already solved the
    // current bands — carry its result into the next iteration instead
    // of re-running an identical banded pass.
    let mut carried: Option<DpResult> = None;
    let result = loop {
        if rounds >= options.max_rounds && options.epsilon.is_none() {
            // Exactness fallback: one unrestricted pass (full bands can
            // only touch physical edges, and verification is a no-op).
            fell_back = true;
            carried = None;
            for (o, row) in bands.iter_mut().enumerate() {
                open_full(row, fine.at(range.start + o));
            }
        }
        let result = match carried.take() {
            Some(result) => result,
            None => {
                rounds += 1;
                match banded_pass(instance, oracle, range.clone(), start, fine, bands, &b, pool) {
                    Ok(result) => result,
                    Err(o) => {
                        // Slot `o`'s band grid had no feasible cell
                        // (cannot happen when bands were lifted from a
                        // feasible coarse trajectory, but window bands
                        // seeded from a previous plan can get here on a
                        // fresh tail slot): open the offending slot wide
                        // and retry. No progress means the full fine
                        // grid itself is infeasible for that slot.
                        let widened = open_full(&mut bands[o], fine.at(range.start + o));
                        assert!(
                            widened > 0,
                            "slot {} infeasible on the full fine grid",
                            range.start + o
                        );
                        expansions += widened;
                        continue;
                    }
                }
            }
        };
        if options.epsilon.is_some() {
            early_stopped = true;
            break result;
        }
        if fell_back {
            break result;
        }
        let mut contacted = false;
        for (o, row) in bands.iter_mut().enumerate() {
            let levels = fine.at(range.start + o);
            for (j, band) in row.iter_mut().enumerate() {
                let l = levels[j].as_slice();
                let pos = l.partition_point(|&v| v < result.schedule.count(o, j));
                debug_assert!(l[pos] == result.schedule.count(o, j), "chosen level off-grid");
                let low = pos == band.start && band.start > 0;
                let high = pos + 1 == band.end && band.end < l.len();
                if low || high {
                    contacted = true;
                    expansions += 1;
                    let grow = (band.end - band.start).max(2);
                    if low {
                        band.start = band.start.saturating_sub(grow);
                    }
                    if high {
                        band.end = (band.end + grow).min(l.len());
                    }
                }
            }
        }
        if contacted {
            continue;
        }
        // Verification pass: widen every band by one position. Contact
        // is checked per dimension, so it cannot see improvements that
        // need a simultaneous move in several dimensions; the widened
        // pass can. A changed schedule keeps the widened bands and
        // continues the fixpoint (the re-solve is pool-resident).
        let mut widened = false;
        for (o, row) in bands.iter_mut().enumerate() {
            let levels = fine.at(range.start + o);
            for (j, band) in row.iter_mut().enumerate() {
                if band.start > 0 {
                    band.start -= 1;
                    widened = true;
                }
                if band.end < levels[j].len() {
                    band.end += 1;
                    widened = true;
                }
            }
        }
        if !widened {
            break result; // the bands already are the full grid
        }
        rounds += 1;
        let verified = banded_pass(instance, oracle, range.clone(), start, fine, bands, &b, pool)
            .expect("widened bands keep every feasible cell");
        if verified.schedule == result.schedule {
            break result;
        }
        // The widened grid found a strictly better (or re-tied)
        // trajectory: continue the fixpoint from it (its contact check
        // runs against the widened bands next iteration).
        carried = Some(verified);
    };
    WindowOutcome { result, rounds, expansions, fell_back, early_stopped }
}

/// One banded forward + backtrack pass over `range` from `start`.
/// `Err(o)` reports the first window offset whose banded grid had no
/// feasible cell.
#[allow(clippy::too_many_arguments)]
fn banded_pass(
    instance: &Instance,
    oracle: &(impl GtOracle + Sync),
    range: Range<usize>,
    start: &Table,
    fine: &FineGrid,
    bands: &[Vec<Range<usize>>],
    betas: &[f64],
    pool: &mut PricedSlotPool,
) -> Result<DpResult, usize> {
    // Slot-shared buffers: the transform scratch and its ping-pong spare
    // persist across the whole pass (band shapes repeat, so the memoized
    // layout tag usually hits), and the band-level vectors reuse their
    // capacity slot to slot instead of reallocating per slot.
    let mut scratch = TransformScratch::new();
    let mut spare = Table::origin(instance.num_types());
    let mut band_levels: Vec<Vec<u32>> = vec![Vec::new(); instance.num_types()];
    let cursor = &mut CursorBuffers::default();
    let mut tables: Vec<Table> = Vec::with_capacity(range.len());
    for (o, t) in range.enumerate() {
        let fine_t = fine.at(t);
        for ((dst, band), l) in band_levels.iter_mut().zip(&bands[o]).zip(fine_t) {
            dst.clear();
            dst.extend_from_slice(&l[band.start..band.end]);
        }
        let prev = tables.last().unwrap_or(start);
        let mut cur =
            arrival_transform_scratch(prev, &band_levels, betas, &mut spare, &mut scratch);
        let load = instance.load(t);
        let priced = pool.get_or_price_band(instance, oracle, t, load, fine_t, &bands[o], cursor);
        add_priced(&mut cur, &priced, 1.0);
        if !cur.min_value().is_finite() {
            return Err(o);
        }
        tables.push(cur);
    }
    Ok(backtrack_window(instance, &tables))
}

/// Fine-grid position band covering the corridor
/// `[c / factor, c · factor]` around coarse count `c`, widened by one
/// margin position on each side (so an interior optimum sits strictly
/// inside, and the contact check has a position of slack). Public for
/// the receding-horizon controller, whose overlapping windows lift
/// bands from the previous window's trajectory.
#[must_use]
pub fn lift_band(levels: &[u32], c: u32, factor: f64) -> Range<usize> {
    debug_assert!(factor >= 1.0);
    let lo_v = (f64::from(c) / factor).floor();
    let hi_v = (f64::from(c) * factor).ceil();
    // Largest level ≤ lo_v (levels[0] = 0 always qualifies).
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let lo_u = lo_v.max(0.0) as u32;
    let start = levels.partition_point(|&v| v <= lo_u).saturating_sub(1);
    // Smallest level ≥ hi_v, clamped to the last level.
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let hi_u = hi_v.min(f64::from(u32::MAX)) as u32;
    let end = levels.partition_point(|&v| v < hi_u).min(levels.len() - 1) + 1;
    // One margin position per side.
    start.saturating_sub(1)..(end + 1).min(levels.len())
}

/// Open every band of one slot to the full fine range; returns the
/// number of bands actually widened.
fn open_full(row: &mut [Range<usize>], levels: &[Vec<u32>]) -> usize {
    let mut widened = 0;
    for (j, band) in row.iter_mut().enumerate() {
        let full = 0..levels[j].len();
        if *band != full {
            *band = full;
            widened += 1;
        }
    }
    widened
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::solve;
    use rsz_core::{CostModel, ServerType};
    use rsz_dispatch::Dispatcher;

    fn diurnal_instance(horizon: usize, m: u32) -> Instance {
        let loads: Vec<f64> = (0..horizon)
            .map(|t| {
                let day = (t % 12) as f64;
                0.2 * f64::from(m) + 1.2 * f64::from(m) * (day - 6.0).abs() / 6.0
            })
            .collect();
        Instance::builder()
            .server_type(ServerType::new("cpu", m, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .server_type(ServerType::new("gpu", m, 3.0, 2.0, CostModel::power(1.0, 0.5, 2.0)))
            .loads(loads)
            .build()
            .unwrap()
    }

    #[test]
    fn refined_solve_matches_full_grid_solve() {
        let inst = diurnal_instance(30, 14);
        let oracle = Dispatcher::new();
        let base = DpOptions { threads: Some(1), ..DpOptions::default() };
        let full = solve(&inst, &oracle, base);
        let opts = DpOptions { refine: Some(RefineOptions::exact()), ..base };
        let (refined, stats) = solve_refined(&inst, &oracle, opts);
        assert_eq!(full.schedule, refined.schedule);
        assert!((full.cost - refined.cost).abs() <= 1e-9 * full.cost.abs().max(1.0));
        assert!(stats.band_cells < stats.fine_cells, "bands must shrink the grid");
        assert!(!stats.early_stopped);
    }

    #[test]
    fn lift_band_covers_the_corridor_and_coarse_point() {
        let levels: Vec<u32> = (0..=20).collect();
        for c in [0u32, 1, 3, 10, 20] {
            for factor in [1.0, 1.5, 3.0] {
                let band = lift_band(&levels, c, factor);
                assert!(band.start < band.end);
                let lo = levels[band.start];
                let hi = levels[band.end - 1];
                assert!(f64::from(lo) <= f64::from(c) / factor);
                assert!(f64::from(hi) >= (f64::from(c) * factor).min(20.0));
            }
        }
    }

    #[test]
    fn epsilon_mode_stops_early_and_keeps_the_guarantee() {
        let inst = diurnal_instance(24, 16);
        let oracle = Dispatcher::new();
        let base = DpOptions { threads: Some(1), ..DpOptions::default() };
        let exact = solve(&inst, &oracle, base);
        let eps = 0.5;
        let opts = DpOptions { refine: Some(RefineOptions::epsilon(eps)), ..base };
        let (res, stats) = solve_refined(&inst, &oracle, opts);
        assert!(stats.early_stopped);
        assert_eq!(stats.rounds, 1);
        assert!(res.cost + 1e-9 >= exact.cost, "cannot beat exact");
        assert!(
            res.cost <= (1.0 + eps) * exact.cost + 1e-9,
            "epsilon guarantee: {} vs (1+ε)·{}",
            res.cost,
            exact.cost
        );
        assert!(res.cost <= stats.coarse_cost + 1e-9, "banded refinement can only improve");
        res.schedule.check_feasible(&inst).unwrap();
    }

    #[test]
    fn max_rounds_one_falls_back_to_an_exact_full_solve() {
        let inst = diurnal_instance(18, 12);
        let oracle = Dispatcher::new();
        let base = DpOptions { threads: Some(1), ..DpOptions::default() };
        let full = solve(&inst, &oracle, base);
        // A coarse gamma so large the first bands almost surely contact.
        let refine = RefineOptions::exact().with_gamma(8.0);
        let opts = DpOptions { refine: Some(RefineOptions { max_rounds: 1, ..refine }), ..base };
        let (refined, stats) = solve_refined(&inst, &oracle, opts);
        assert_eq!(full.schedule, refined.schedule);
        assert!(stats.rounds <= 3, "at most one banded round, a contact round, the fallback");
    }

    #[test]
    fn time_varying_fleets_band_per_slot() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 9, 1.0, 1.0, CostModel::linear(0.4, 1.0)))
            .loads(vec![2.0, 6.0, 3.0, 1.0, 5.0])
            .counts_over_time(vec![vec![4], vec![9], vec![6], vec![3], vec![7]])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let base = DpOptions { threads: Some(1), ..DpOptions::default() };
        let full = solve(&inst, &oracle, base);
        let opts = DpOptions { refine: Some(RefineOptions::exact()), ..base };
        let (refined, _) = solve_refined(&inst, &oracle, opts);
        assert_eq!(full.schedule, refined.schedule);
    }
}
