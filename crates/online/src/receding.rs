//! Receding-horizon control (RHC) — the prediction-based comparison
//! point.
//!
//! Classic model-predictive provisioning (Lin et al. compare LCP against
//! exactly this): at slot `t` the controller sees a forecast window of
//! `w` future slots, solves the right-sizing DP over `[t, t+w]` starting
//! from its current configuration, commits the first step, and repeats.
//!
//! **RHC is not an online algorithm in the adversarial sense** — it reads
//! future loads and cost functions inside its window, so it carries no
//! competitive guarantee against an adversary that invalidates forecasts
//! (and `run_with_prefix_revelation` will panic on it by design). It is
//! included as the "what if we had w slots of perfect prediction"
//! baseline in the experiments.

use std::ops::Range;

use rsz_core::{Config, GtOracle, Instance, Schedule};
use rsz_offline::dp::{backtrack_window, betas, DpOptions};
use rsz_offline::engine::{add_priced, CursorBuffers, PricedSlotPool, DEFAULT_POOL_CAP};
use rsz_offline::refine::{lift_band, refine_window, FineGrid, RefineOptions};
use rsz_offline::table::Table;
use rsz_offline::transform::arrival_transform;
use rsz_offline::{Decoder, Encoder, EngineStats, GridMode, SharedSlotPool, SnapshotError};

use crate::checkpoint::{codec, Checkpoint};
use crate::registry::Controller;
use crate::runner::OnlineAlgorithm;

/// Receding-horizon (model-predictive) provisioning with a perfect
/// forecast of the next `window` slots.
#[derive(Debug)]
pub struct RecedingHorizon<O> {
    oracle: O,
    /// Forecast window length `w ≥ 1` (1 = myopic with switching).
    pub window: usize,
    /// Options for the window DP (grid, corridor refinement, pool
    /// bound). RHC re-solves overlapping windows every slot; the
    /// priced-slot pool carries each slot's dense `g_t` table across
    /// windows, so the `w − 1` overlapping slots of consecutive windows
    /// are re-priced by a vectorized add instead of per-cell solves.
    pub options: DpOptions,
    prev: Option<Config>,
    /// Priced-slot pool, initialized lazily at the first decision so it
    /// binds to the instance actually driven.
    pool: Option<PricedSlotPool>,
    /// Separate pool for the refine mode's coarse `Γ(γ₀)` window solves
    /// (coarse and fine grids share fleet sizes, so one pool would
    /// alias keys).
    coarse_pool: Option<PricedSlotPool>,
    /// Grid-cursor buffers of both pools' misses.
    cursor: CursorBuffers,
    /// The previous decision's window plan (refine mode): consecutive
    /// windows overlap in `w − 1` slots, so the old plan's trajectory
    /// seeds the new window's bands — the warm start that keeps band
    /// pricing pool-resident across windows.
    last_plan: Vec<Config>,
    /// Slot index of `last_plan[0]`.
    last_plan_start: usize,
}

impl<O: GtOracle + Sync> RecedingHorizon<O> {
    /// RHC with a `window`-slot perfect forecast on the full grid.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(oracle: O, window: usize) -> Self {
        assert!(window >= 1, "window must be at least one slot");
        Self {
            oracle,
            window,
            options: DpOptions::default(),
            prev: None,
            pool: None,
            coarse_pool: None,
            cursor: CursorBuffers::default(),
            last_plan: Vec::new(),
            last_plan_start: 0,
        }
    }

    /// Override the window DP options wholesale (grid, corridor
    /// refinement, pool bound).
    #[must_use]
    pub fn with_options(mut self, options: DpOptions) -> Self {
        self.options = options;
        self
    }
}

impl<O: GtOracle + Sync + Send> Controller for RecedingHorizon<O> {
    /// The window pool's counters (`None` before the first decision).
    fn engine_stats(&self) -> Option<EngineStats> {
        self.pool.as_ref().map(PricedSlotPool::stats)
    }

    /// A no-op: the window DP pools per instance internally.
    fn share_pool(&mut self, _pool: SharedSlotPool) {}
}

impl<O: GtOracle + Sync> OnlineAlgorithm for RecedingHorizon<O> {
    fn name(&self) -> String {
        format!("RHC(w={})", self.window)
    }

    fn decide(&mut self, instance: &Instance, t: usize) -> Config {
        let d = instance.num_types();
        let end = (t + self.window).min(instance.horizon());
        let opts = self.options;
        // Rebind the pool at every run start (t = 0), not just on first
        // use: pooled g_t tables are only valid for the instance they
        // were priced against, and a controller re-driven over a
        // different instance with equal fleet sizes would otherwise
        // silently optimize against stale operating costs. The previous
        // run's window plan is stale for the same reason.
        if self.pool.is_none() || t == 0 {
            let cap = opts.pool_capacity.unwrap_or(DEFAULT_POOL_CAP);
            self.pool = Some(PricedSlotPool::with_capacity(instance, cap));
            self.coarse_pool = Some(PricedSlotPool::with_capacity(instance, cap));
        }
        if t == 0 {
            self.last_plan.clear();
        }
        // Start the window DP from a point mass at the current state: the
        // arrival transform prices power-ups relative to it for free.
        let start = self.prev.clone().unwrap_or_else(|| Config::zeros(d));
        let point = Table::new(start.counts().iter().map(|&c| vec![c]).collect(), 0.0);

        if let Some(refine) = opts.refine {
            return self.decide_refined(instance, t, end, &point, refine);
        }
        let pool = self.pool.as_mut().expect("the pool is bound above");
        let plan =
            window_plan(instance, &self.oracle, pool, &mut self.cursor, opts.grid, t..end, &point);
        let choice = plan.config(0).clone();
        self.prev = Some(choice.clone());
        choice
    }
}

impl<O: GtOracle + Sync> RecedingHorizon<O> {
    /// The corridor-banded window DP ([`DpOptions::refine`]). Every
    /// window first runs the cheap coarse `Γ(γ₀)` window solve — the
    /// coarse pass *must* see the window's freshly revealed tail slot,
    /// or a load spike arriving there would never enter the bands (the
    /// previous plan knows nothing about it, and neither boundary
    /// contact nor the widen-by-one verification can cross a multi-
    /// position gap). Bands are then the **union** of the corridor
    /// around the coarse trajectory and the corridor around the
    /// previous window's plan: the former carries correctness, the
    /// latter keeps bands stable across overlapping windows so the
    /// band-keyed pool answers the `w − 1` re-solved slots without
    /// re-pricing. Coarse pricings live in their own pool (coarse and
    /// fine grids share fleet sizes, so one pool would alias); its
    /// overlap hits make the per-window coarse cost ≈ one fresh slot.
    /// The band fixpoint then runs exactly like the offline corridor
    /// solver, so the committed decision equals the unrestricted window
    /// DP's (property-tested).
    fn decide_refined(
        &mut self,
        instance: &Instance,
        t: usize,
        end: usize,
        point: &Table,
        refine: RefineOptions,
    ) -> Config {
        let d = instance.num_types();
        let factor = refine.corridor_factor();
        let fine = FineGrid::new(instance, refine.target, t..end);

        // Coarse window solve on Γ(γ₀), priced through the coarse pool
        // (overlapping windows hit on the w − 1 shared slots).
        let (oracle, cursor) = (&self.oracle, &mut self.cursor);
        let coarse_pool = self.coarse_pool.as_mut().expect("decide binds the coarse pool");
        let coarse_mode = GridMode::Gamma(refine.coarse_gamma);
        let coarse = window_plan(instance, oracle, coarse_pool, cursor, coarse_mode, t..end, point);

        // Bands: corridor around the coarse trajectory, unioned with the
        // corridor around the previous plan where it overlaps.
        let mut bands: Vec<Vec<Range<usize>>> = coarse
            .iter()
            .map(|(o, seed)| {
                (0..d)
                    .map(|j| {
                        let levels = fine.at(t + o)[j].as_slice();
                        let mut band = lift_band(levels, seed.count(j), factor);
                        let idx = (t + o).saturating_sub(self.last_plan_start);
                        if let Some(plan) = self.last_plan.get(idx) {
                            let warm = lift_band(levels, plan.count(j), factor);
                            band = band.start.min(warm.start)..band.end.max(warm.end);
                        }
                        band
                    })
                    .collect()
            })
            .collect();

        let pool = self.pool.as_mut().expect("refine mode binds the pool in decide");
        let outcome =
            refine_window(instance, &self.oracle, t..end, point, &fine, &mut bands, pool, &refine);
        let plan = outcome.result;
        let choice = plan.schedule.config(0).clone();
        self.prev = Some(choice.clone());
        self.last_plan = plan.schedule.iter().map(|(_, c)| c.clone()).collect();
        self.last_plan_start = t;
        choice
    }
}

/// The optimal plan of the window `slots` on `grid` from the point mass
/// `point`: each slot's table is the previous one arrival-transformed
/// onto the slot's grid plus its `g_t` priced through `pool`, where
/// overlapping windows hit.
fn window_plan(
    instance: &Instance,
    oracle: &(impl GtOracle + Sync),
    pool: &mut PricedSlotPool,
    cursor: &mut CursorBuffers,
    grid: GridMode,
    slots: Range<usize>,
    point: &Table,
) -> Schedule {
    let b = betas(instance);
    let mut tables: Vec<Table> = Vec::with_capacity(slots.len());
    for u in slots {
        let levels: Vec<Vec<u32>> =
            (0..instance.num_types()).map(|j| grid.levels(instance.server_count(u, j))).collect();
        let priced = pool.get_or_price(instance, oracle, u, instance.load(u), &levels, cursor);
        let mut cur = arrival_transform(tables.last().unwrap_or(point), &levels, &b);
        add_priced(&mut cur, &priced, 1.0);
        tables.push(cur);
    }
    backtrack_window(instance, &tables).schedule
}

impl<O: GtOracle + Sync> Checkpoint for RecedingHorizon<O> {
    fn algo_tag(&self) -> &'static str {
        "rhc"
    }

    fn save_state(&self, enc: &mut Encoder) {
        // Pools are deliberately not serialized: pooled g_t tables are
        // pure re-pricings, and a restored controller rebinds its pools
        // on the next decision (`pool.is_none()`), re-pricing the window
        // bit-identically.
        codec::put_config_opt(enc, self.prev.as_ref());
        enc.put_usize(self.last_plan_start);
        enc.put_usize(self.last_plan.len());
        for config in &self.last_plan {
            codec::put_u32s(enc, config.counts());
        }
    }

    fn restore_state(
        &mut self,
        instance: &Instance,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError> {
        let d = instance.num_types();
        let prev = codec::take_config_opt(dec, d)?;
        let last_plan_start = dec.take_usize()?;
        if last_plan_start > instance.horizon() {
            return Err(SnapshotError::Corrupt("plan start exceeds the horizon"));
        }
        let n = dec.take_usize()?;
        if n > self.window {
            return Err(SnapshotError::Corrupt("window plan exceeds the window length"));
        }
        let mut last_plan = Vec::with_capacity(n);
        for _ in 0..n {
            let counts = codec::take_u32s(dec, d)?;
            if counts.len() != d {
                return Err(SnapshotError::Corrupt("plan config has the wrong dimension"));
            }
            last_plan.push(Config::new(counts));
        }
        self.prev = prev;
        self.last_plan = last_plan;
        self.last_plan_start = last_plan_start;
        self.pool = None;
        self.coarse_pool = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;
    use rsz_core::{CostModel, ServerType};
    use rsz_dispatch::Dispatcher;
    use rsz_offline::dp::{solve, DpOptions as OffOptions};

    fn instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .server_type(ServerType::new("b", 2, 4.0, 2.0, CostModel::constant(1.2)))
            .loads(vec![1.0, 4.0, 0.0, 2.0, 5.0, 1.0, 0.0, 3.0])
            .build()
            .unwrap()
    }

    #[test]
    fn rhc_is_feasible() {
        let inst = instance();
        let oracle = Dispatcher::new();
        for w in [1, 2, 4, 16] {
            let mut rhc = RecedingHorizon::new(oracle, w);
            let outcome = run(&inst, &mut rhc, &oracle);
            outcome.schedule.check_feasible(&inst).unwrap();
        }
    }

    #[test]
    fn full_horizon_window_recovers_near_optimal_cost() {
        // RHC with window ≥ T re-plans from the committed state each
        // slot; its first plan IS an optimal schedule, and re-planning
        // from a state on an optimal trajectory stays optimal.
        let inst = instance();
        let oracle = Dispatcher::new();
        let opt = solve(&inst, &oracle, OffOptions { threads: Some(1), ..Default::default() });
        let mut rhc = RecedingHorizon::new(oracle, inst.horizon());
        let outcome = run(&inst, &mut rhc, &oracle);
        assert!(
            (outcome.cost() - opt.cost).abs() < 1e-9,
            "RHC(T) {} vs OPT {}",
            outcome.cost(),
            opt.cost
        );
    }

    #[test]
    fn longer_windows_do_not_hurt_on_smooth_loads() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 4, 3.0, 1.0, CostModel::linear(0.5, 1.0)))
            .loads(vec![1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0, 0.0])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let short = run(&inst, &mut RecedingHorizon::new(oracle, 1), &oracle);
        let long = run(&inst, &mut RecedingHorizon::new(oracle, 8), &oracle);
        assert!(long.cost() <= short.cost() + 1e-9);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn rejects_zero_window() {
        let _ = RecedingHorizon::new(Dispatcher::new(), 0);
    }

    #[test]
    fn engine_pool_rebinds_per_run_and_never_serves_stale_prices() {
        // Same fleet shape, different operating costs: a controller
        // re-driven over the second instance must not answer windows
        // from the first instance's pooled g_t tables.
        let cheap = Instance::builder()
            .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::constant(0.5)))
            .loads(vec![1.0, 2.0, 1.0, 2.0])
            .build()
            .unwrap();
        let pricey = Instance::builder()
            .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::constant(5.0)))
            .loads(vec![1.0, 2.0, 1.0, 2.0])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let mut reused = RecedingHorizon::new(oracle, 2);
        let _ = run(&cheap, &mut reused, &oracle);
        reused.prev = None; // fresh run; the pool must rebind on t = 0 too
        let second = run(&pricey, &mut reused, &oracle);
        let mut fresh = RecedingHorizon::new(oracle, 2);
        let want = run(&pricey, &mut fresh, &oracle);
        assert_eq!(want.schedule, second.schedule, "stale pooled prices leaked across runs");
    }

    #[test]
    fn refined_windows_match_plain_windows() {
        // The corridor-banded window DP must commit exactly the plain
        // window DP's decisions — bands are an acceleration, not a
        // policy change.
        let inst = instance();
        let oracle = Dispatcher::new();
        for w in [1, 2, 4, 8] {
            let plain = run(&inst, &mut RecedingHorizon::new(oracle, w), &oracle);
            let opts = DpOptions { refine: Some(RefineOptions::exact()), ..DpOptions::default() };
            let mut refined = RecedingHorizon::new(oracle, w).with_options(opts);
            let refined_run = run(&inst, &mut refined, &oracle);
            assert_eq!(plain.schedule, refined_run.schedule, "w={w}");
            let stats = refined.engine_stats().expect("refine mode pools");
            assert!(stats.pricings > 0);
            if w > 1 {
                assert!(
                    stats.pool_hits > 0,
                    "overlapping windows must reuse banded pricings: {stats:?}"
                );
            }
        }
    }

    #[test]
    fn refined_windows_reseed_on_rerun() {
        // A controller re-driven from scratch must not seed bands from
        // the previous run's plan.
        let inst = instance();
        let oracle = Dispatcher::new();
        let opts = DpOptions { refine: Some(RefineOptions::exact()), ..DpOptions::default() };
        let mut reused = RecedingHorizon::new(oracle, 3).with_options(opts);
        let first = run(&inst, &mut reused, &oracle);
        reused.prev = None;
        let second = run(&inst, &mut reused, &oracle);
        assert_eq!(first.schedule, second.schedule, "rerun must reset plan seeding");
    }
}
