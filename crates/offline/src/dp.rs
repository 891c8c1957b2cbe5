//! The offline dynamic program (Section 4.1 / 4.2 / 4.3).
//!
//! Computes, for every slot `t` and every configuration `x` on the slot's
//! candidate grid,
//!
//! ```text
//! OPT_t(x) = g_t(x) + min_{x'} [ OPT_{t−1}(x') + Σ_j β_j (x_j − x'_j)^+ ]
//! ```
//!
//! with `OPT_0` concentrated at the all-off origin. The inner minimum is
//! the separable power-up metric, so it is computed with the linear-time
//! [`crate::transform`] passes; the overall cost is
//! `O(T · |grid| · d)` plus one dispatch solve per cell.
//!
//! * With [`GridMode::Full`] this is the paper's **exact** algorithm
//!   (optimal schedule, Section 4.1),
//! * with [`GridMode::Gamma`] it optimizes exactly over the reduced
//!   schedule space `M^γ`, which by Theorem 16 is a `(2γ−1)`-approximation
//!   of the unrestricted optimum,
//! * per-slot grids automatically track time-varying fleet sizes
//!   `m_{t,j}` (Section 4.3).

use rsz_core::{Config, GtOracle, Instance, Schedule};

use crate::grid::GridMode;
use crate::table::Table;

/// Minimum table size (cells) before an unconstrained (`threads: None`)
/// solve prices on worker threads — spawn overhead would swamp the win
/// on small grids. An explicit `threads` setting overrides this.
pub const PAR_THRESHOLD: usize = 4096;

/// Options for the offline DP.
///
/// Every solve prices `g_t` through the slot-batched pipeline
/// ([`crate::pipeline`]) and every prefix solver through the priced-slot
/// engine ([`crate::engine`]); the knobs below only choose the grid, the
/// worker count, the recovery policy, corridor refinement and the pool
/// bound.
#[derive(Clone, Copy, Debug)]
pub struct DpOptions {
    /// Candidate-grid discretization.
    pub grid: GridMode,
    /// Worker count of the pricing pool. `None` uses every core
    /// ([`std::thread::available_parallelism`]) once a batch reaches
    /// [`PAR_THRESHOLD`] cells; `Some(1)` prices sequentially and
    /// `Some(n)` is used as-is, which keeps thread sweeps reproducible
    /// in benches.
    pub threads: Option<usize>,
    /// How [`solve`] recovers the schedule: backtrack pointers recorded
    /// in the forward pass (one pricing pass, 2–4 bytes per cell and
    /// slot), `√T` checkpoints with segment replay (`O(|grid|·√T)`
    /// memory; the replay prices again what the pool does not hold) or
    /// every slot's table (8 bytes per cell and slot).
    pub recovery: RecoveryMode,
    /// `Some`: route [`solve`] through the coarse-to-fine **corridor
    /// solver** ([`crate::refine`]) — a cheap `Γ(γ₀)` coarse solve
    /// localizes the optimum, the DP then runs on per-slot bands of the
    /// fine grid only, and an exactness-guarded expansion fixpoint
    /// iterates until the banded optimum touches no band boundary. The
    /// fine grid is [`crate::refine::RefineOptions::target`] (which
    /// overrides `grid` for the fine passes); schedules are identical to
    /// the unrestricted solve's (property-tested) while per-slot work
    /// scales with band volume instead of grid volume.
    pub refine: Option<crate::refine::RefineOptions>,
    /// Retention bound of the engine's priced-slot pool. `None` uses
    /// [`crate::engine::DEFAULT_POOL_CAP`]; an explicit bound is the
    /// fault-injection harness's lever for eviction storms (and a memory
    /// knob for embedders).
    pub pool_capacity: Option<usize>,
}

/// Schedule-recovery policy of [`solve`]. Every policy recovers the same
/// schedule, bit for bit: a recorded pointer is followed only when its
/// certificate says it names the cell the backtrack's tie-break would
/// pick, and a segment is replayed from its checkpoint otherwise (see
/// [`crate::pipeline`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Keep every slot's table on horizons of up to 64 slots (no more
    /// tables than the pricing pool may retain). Beyond, record
    /// backtrack pointers beside `√T` checkpoints when a replay would
    /// price slots again (time-varying costs, or more distinct slots
    /// than the pricing pool retains) and the pointers fit
    /// [`crate::pipeline::AUTO_POINTER_BUDGET_BYTES`] (each slot is then
    /// priced once); otherwise checkpoint without pointers.
    #[default]
    Auto,
    /// Keep every slot's `OPT` table and backtrack once: one value-only
    /// forward pass, no pointers, no replay, `O(|grid|·T)` memory. The
    /// reference the other policies are tested against.
    Materialized,
    /// Never record pointers: replay every `√T` segment from its
    /// checkpoint, whatever the horizon.
    Checkpointed,
}

impl Default for DpOptions {
    fn default() -> Self {
        Self {
            grid: GridMode::Full,
            threads: None,
            recovery: RecoveryMode::Auto,
            refine: None,
            pool_capacity: None,
        }
    }
}

impl DpOptions {
    /// The default options. The pipeline is always on; this alias
    /// names it at call sites that want to say so.
    #[must_use]
    pub fn pipelined() -> Self {
        Self::default()
    }

    /// The default options with exact corridor refinement switched on.
    #[must_use]
    pub fn refined() -> Self {
        Self { refine: Some(crate::refine::RefineOptions::exact()), ..Self::default() }
    }

    /// Resolve the worker count for pricing `cells` table cells: the
    /// explicit `threads` knob wins; otherwise every core, behind the
    /// [`PAR_THRESHOLD`] small-batch cutoff.
    #[must_use]
    pub fn effective_threads(&self, cells: usize) -> usize {
        match self.threads {
            Some(n) => n.max(1),
            None if cells < PAR_THRESHOLD => 1,
            None => std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

/// Result of an offline solve.
#[derive(Clone, Debug)]
pub struct DpResult {
    /// Total cost `C(X)` of the computed schedule.
    pub cost: f64,
    /// The computed schedule (optimal over the chosen grid).
    pub schedule: Schedule,
}

/// Solve `instance` to optimality over the chosen grid and recover the
/// schedule.
///
/// Beyond 64 slots the forward pass keeps `√T` checkpoint tables and,
/// under the default [`RecoveryMode::Auto`] when a replay would price
/// slots again, a certified backtrack pointer per cell and slot;
/// recovery follows the pointers and replays a `√T`-slot segment only
/// where one is not certified (or from the pricing pool, when it holds
/// every slot), so peak table memory is `O(|grid|·√T)` instead of
/// `O(|grid|·T)` and each slot is priced once — see [`crate::pipeline`]
/// and [`solve_with_stats`] for the observable accounting.
///
/// With [`DpOptions::refine`] set, the solve instead runs the
/// coarse-to-fine corridor solver ([`crate::refine::solve_refined`]) —
/// same schedule, banded work.
///
/// # Panics
/// Panics if the instance is infeasible (cannot happen for instances
/// built through [`Instance::builder`], which validates feasibility).
#[must_use]
pub fn solve(instance: &Instance, oracle: &(impl GtOracle + Sync), options: DpOptions) -> DpResult {
    if options.refine.is_some() {
        return crate::refine::solve_refined(instance, oracle, options).0;
    }
    crate::pipeline::solve_checkpointed(instance, oracle, options).0
}

/// Fallible [`solve`]: validate the instance and the per-slot grids
/// before touching the DP, so malformed inputs surface as a
/// [`rsz_core::SolveError`] instead of a panic deep inside the solver.
///
/// Checks, in order: instance validation
/// ([`rsz_core::SolveError::Infeasible`]), every load finite and
/// non-negative ([`rsz_core::SolveError::MalformedLambda`] with its
/// slot), and every slot's candidate grid non-empty
/// ([`rsz_core::SolveError::EmptyGrid`] — defensive; the built-in
/// [`GridMode`]s always include level 0).
pub fn try_solve(
    instance: &Instance,
    oracle: &(impl GtOracle + Sync),
    options: DpOptions,
) -> Result<DpResult, rsz_core::SolveError> {
    validate_for_solve(instance, options)?;
    Ok(solve(instance, oracle, options))
}

/// The shared pre-flight of [`try_solve`] (also used by the online
/// degradation ladder before it commits to an exact solve).
pub fn validate_for_solve(
    instance: &Instance,
    options: DpOptions,
) -> Result<(), rsz_core::SolveError> {
    instance.validate()?;
    for (t, &lambda) in instance.loads().iter().enumerate() {
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(rsz_core::SolveError::MalformedLambda { t, value: lambda });
        }
    }
    let fine = options.refine.map_or(options.grid, |r| r.target);
    let slots = if instance.has_time_varying_counts() { instance.horizon() } else { 1 };
    let mut levels = Vec::new();
    for t in 0..slots {
        for j in 0..instance.num_types() {
            fine.fill_levels(instance.server_count(t, j), &mut levels);
            if levels.is_empty() {
                return Err(rsz_core::SolveError::EmptyGrid { t, j });
            }
        }
    }
    Ok(())
}

/// [`solve`] returning the recovery accounting alongside the result
/// (checkpoint count, segment length, peak live tables, priced slots,
/// replayed segments). This entry point measures the recovery machinery,
/// so
/// [`DpOptions::refine`] is ignored here — refined solves report
/// through [`crate::refine::solve_refined`]'s own
/// [`crate::refine::RefineStats`] instead.
#[must_use]
pub fn solve_with_stats(
    instance: &Instance,
    oracle: &(impl GtOracle + Sync),
    options: DpOptions,
) -> (DpResult, crate::pipeline::RecoveryStats) {
    crate::pipeline::solve_checkpointed(instance, oracle, DpOptions { refine: None, ..options })
}

/// Optimal cost only, `O(|grid|·√T)` memory (no schedule recovery; the
/// corridor solver still recovers internally — its contact check needs
/// the trajectory).
#[must_use]
pub fn solve_cost_only(
    instance: &Instance,
    oracle: &(impl GtOracle + Sync),
    options: DpOptions,
) -> f64 {
    if options.refine.is_some() {
        return crate::refine::solve_refined(instance, oracle, options).0.cost;
    }
    crate::pipeline::cost_only(instance, oracle, options)
}

/// Switching costs `β_j` as a vector.
#[must_use]
pub fn betas(instance: &Instance) -> Vec<f64> {
    (0..instance.num_types()).map(|j| instance.switching_cost(j)).collect()
}

/// Recover the optimal schedule from the forward tables.
///
/// At `t = T−1` the end state is the cheapest cell (powering down at the
/// horizon end is free); going backwards, `x_t` is chosen to minimize
/// `OPT_t(x') + Σ_j β_j (x_{t+1,j} − x'_j)^+`, with ties broken toward
/// fewer total servers then lexicographically.
#[must_use]
pub fn backtrack(instance: &Instance, tables: &[Table]) -> DpResult {
    assert_eq!(tables.len(), instance.horizon(), "one table per slot required");
    backtrack_window(instance, tables)
}

/// [`backtrack`] for a window of tables that may cover only a suffix-free
/// sub-range of the instance (used by receding-horizon control): the
/// tables correspond to *consecutive* slots and only their switching
/// costs (instance-global) matter here.
#[must_use]
pub fn backtrack_window(instance: &Instance, tables: &[Table]) -> DpResult {
    let (cost, configs) = backtrack_segment(instance, tables, None);
    DpResult {
        cost: cost.expect("segment without successor reports the window optimum"),
        schedule: Schedule::new(configs),
    }
}

/// Backtrack through a contiguous run of `OPT` tables.
///
/// With `successor: None` the run is terminal: the end state is the
/// cheapest cell of the last table and the returned cost is that
/// optimum. With `successor: Some(x)` the run is an *interior* segment
/// of a checkpointed recovery — `x` is the configuration already chosen
/// for the slot right after the segment, and the last table's cell is
/// selected to minimize `OPT(x') + Σ_j β_j (x_j − x'_j)^+` (cost is
/// `None`: interior segments do not define one).
///
/// Returns the chosen configuration per slot of the segment, in slot
/// order. Selection uses the tie-break rule documented in
/// [`crate::kernels`] (via its streaming `TieMin` accumulator) at every
/// step, so splitting a window into segments recovers exactly the
/// schedule the whole-window backtrack would.
pub(crate) fn backtrack_segment(
    instance: &Instance,
    tables: &[Table],
    successor: Option<&Config>,
) -> (Option<f64>, Vec<Config>) {
    let tt = tables.len();
    assert!(tt > 0, "segment must be non-empty");
    let d = instance.num_types();
    let mut configs: Vec<Config> = Vec::with_capacity(tt);
    let cost = match successor {
        None => {
            let last_idx = tables[tt - 1]
                .argmin()
                .expect("instance validated as feasible, so OPT_T has a finite cell");
            configs.push(tables[tt - 1].config_of(last_idx));
            Some(tables[tt - 1].values()[last_idx])
        }
        Some(target) => {
            let idx = select_predecessor(instance, &tables[tt - 1], target, d);
            configs.push(tables[tt - 1].config_of(idx));
            None
        }
    };
    for t in (0..tt - 1).rev() {
        let target = configs.last().expect("non-empty").clone();
        let idx = select_predecessor(instance, &tables[t], &target, d);
        configs.push(tables[t].config_of(idx));
    }
    configs.reverse();
    (cost, configs)
}

/// The cell of `tab` minimizing `OPT(x') + Σ_j β_j (target_j − x'_j)^+`.
///
/// Predecessor selection shares the [`crate::kernels`] epsilon tie-break
/// rule with [`Table::argmin`]: a last-bit difference between two orders
/// of addition must not flip the recovered schedule. Candidate
/// values are produced on the fly, so this uses the streaming `TieMin`
/// accumulator form; the scan walks a [`crate::table::GridCursor`] — no
/// per-cell `Config` allocation.
fn select_predecessor(instance: &Instance, tab: &Table, target: &Config, d: usize) -> usize {
    let mut tie = crate::kernels::TieMin::new();
    let mut cursor = tab.cursor(0);
    for (i, &base) in tab.values().iter().enumerate() {
        if base.is_finite() {
            let counts = cursor.counts();
            let mut v = base;
            for (j, &c) in counts.iter().enumerate().take(d) {
                v += f64::from(target.count(j).saturating_sub(c)) * instance.switching_cost(j);
            }
            tie.offer(i, v, || cursor.total());
        }
        cursor.advance();
    }
    tie.best_index().expect("predecessor must exist")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsz_core::{CostModel, ServerType};
    use rsz_dispatch::Dispatcher;

    fn small_instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 2, 3.0, 1.0, CostModel::constant(1.0)))
            .server_type(ServerType::new("b", 1, 5.0, 2.0, CostModel::constant(1.5)))
            .loads(vec![1.0, 2.0, 0.0, 1.0])
            .build()
            .unwrap()
    }

    #[test]
    fn dp_cost_matches_schedule_cost() {
        let inst = small_instance();
        let oracle = Dispatcher::new();
        let res = solve(&inst, &oracle, DpOptions::default());
        res.schedule.check_feasible(&inst).unwrap();
        let bd = rsz_core::objective::evaluate(&inst, &res.schedule, &oracle);
        assert!(
            (bd.total() - res.cost).abs() < 1e-9,
            "schedule cost {} vs DP value {}",
            bd.total(),
            res.cost
        );
    }

    #[test]
    fn cost_only_matches_full_solve() {
        let inst = small_instance();
        let oracle = Dispatcher::new();
        let full = solve(&inst, &oracle, DpOptions::default());
        let cheap = solve_cost_only(&inst, &oracle, DpOptions::default());
        assert!((full.cost - cheap).abs() < 1e-12);
    }

    #[test]
    fn single_type_ski_rental_shape() {
        // One server type, β = 4, idle 1; load 1 at t=0 and t=3, zero
        // between. Keeping the server on costs 2 extra idle slots (2) <
        // powering down and up again (4), so OPT keeps it running.
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 1, 4.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![1.0, 0.0, 0.0, 1.0])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let res = solve(&inst, &oracle, DpOptions::default());
        assert_eq!(res.schedule, Schedule::from_counts(vec![vec![1], vec![1], vec![1], vec![1]]));
        assert!((res.cost - (4.0 + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn single_type_prefers_power_down_when_gap_long() {
        // Same but β = 1: gap of 2 idle slots (cost 2) > power cycle (1).
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 1, 1.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![1.0, 0.0, 0.0, 1.0])
            .build()
            .unwrap();
        let res = solve(&inst, &Dispatcher::new(), DpOptions::default());
        assert_eq!(res.schedule, Schedule::from_counts(vec![vec![1], vec![0], vec![0], vec![1]]));
        // 2 power-ups + 2 active slots
        assert!((res.cost - 4.0).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_picks_cheaper_type_for_load() {
        // Type b serves 2 units with one server at idle 1.5 vs two type-a
        // servers at combined idle 2.0; switching also favors b overall.
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 2, 1.0, 1.0, CostModel::constant(1.0)))
            .server_type(ServerType::new("b", 1, 1.0, 2.0, CostModel::constant(1.5)))
            .loads(vec![2.0, 2.0, 2.0])
            .build()
            .unwrap();
        let res = solve(&inst, &Dispatcher::new(), DpOptions::default());
        assert_eq!(res.schedule, Schedule::from_counts(vec![vec![0, 1], vec![0, 1], vec![0, 1]]));
        assert!((res.cost - (1.0 + 3.0 * 1.5)).abs() < 1e-9);
    }

    #[test]
    fn gamma_grid_cost_within_guarantee() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 12, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .loads(vec![3.0, 9.0, 12.0, 2.0, 7.0])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let exact = solve(&inst, &oracle, DpOptions::default());
        let gamma = 1.5;
        let approx = solve(
            &inst,
            &oracle,
            DpOptions { grid: GridMode::Gamma(gamma), threads: Some(1), ..DpOptions::default() },
        );
        approx.schedule.check_feasible(&inst).unwrap();
        assert!(approx.cost + 1e-9 >= exact.cost, "approx can't beat exact");
        assert!(
            approx.cost <= (2.0 * gamma - 1.0) * exact.cost + 1e-9,
            "approx {} vs bound {}",
            approx.cost,
            (2.0 * gamma - 1.0) * exact.cost
        );
    }

    #[test]
    fn time_varying_fleet_sizes_respected() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 3, 1.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![1.0, 3.0, 1.0])
            .counts_over_time(vec![vec![1], vec![3], vec![2]])
            .build()
            .unwrap();
        let res = solve(&inst, &Dispatcher::new(), DpOptions::default());
        res.schedule.check_feasible(&inst).unwrap();
        assert!(res.schedule.count(0, 0) <= 1);
        assert_eq!(res.schedule.count(1, 0), 3);
        assert!(res.schedule.count(2, 0) <= 2);
    }

    #[test]
    fn backtrack_ties_are_epsilon_tolerant() {
        // Regression: two predecessor candidates whose transition values
        // differ by one ulp. Exact float equality treated them as
        // distinct, so a last-bit wobble (parallel vs sequential fill)
        // flipped the recovered schedule; the epsilon tie-break must pick
        // the fewer-servers candidate deterministically.
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 1, 1.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![0.0, 1.0])
            .build()
            .unwrap();
        let mut t0 = Table::new(vec![vec![0, 1]], f64::INFINITY);
        t0.values_mut()[0] = 1.0 + 1e-15; // off state, one ulp above the tie
        t0.values_mut()[1] = 2.0; // on state: 2.0 exactly after +β transition below
        let mut t1 = Table::new(vec![vec![0, 1]], f64::INFINITY);
        t1.values_mut()[1] = 5.0;
        let res = backtrack_window(&inst, &[t0, t1]);
        // Candidates for t=0 towards x_1 = 1: off = 1.0+1e-15 + β = 2.0+ε,
        // on = 2.0. Within the tie window the smaller total count wins.
        assert_eq!(res.schedule, Schedule::from_counts(vec![vec![0], vec![1]]));
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 6, 2.0, 1.0, CostModel::power(0.3, 1.0, 2.0)))
            .server_type(ServerType::new("b", 4, 4.0, 2.0, CostModel::linear(0.6, 0.8)))
            .loads(vec![2.0, 7.0, 4.0, 0.0, 9.0])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let seq = solve(&inst, &oracle, DpOptions { threads: Some(1), ..DpOptions::default() });
        let par = solve(&inst, &oracle, DpOptions { threads: Some(2), ..DpOptions::default() });
        assert_eq!(seq.schedule, par.schedule);
        assert_eq!(seq.cost.to_bits(), par.cost.to_bits());
    }
}
