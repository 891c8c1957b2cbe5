//! The paper's explicit graph construction (Section 4.1, Figure 4).
//!
//! For each slot `t` and configuration `x` the graph `G(I)` has two
//! vertices `v↑_{t,x}` and `v↓_{t,x}`:
//!
//! * **operating edges** `v↑_{t,x} → v↓_{t,x}` of weight `g_t(x)`,
//! * **power-up edges** within the ↑ layer, `x → x + e_j`, weight `β_j`
//!   (weight `β_j·(next−x_j)` between consecutive levels of a reduced
//!   grid `G^γ`),
//! * **power-down edges** within the ↓ layer, `x + e_j → x`, weight `0`,
//! * **slot edges** `v↓_{t,x} → v↑_{t+1,x}`, weight `0`.
//!
//! A shortest `v↑_{1,0} → v↓_{T,0}` path is an optimal schedule. The graph
//! is a DAG if processed layer by layer, so the shortest path is computed
//! with per-layer relaxation sweeps (monotone coordinate passes) instead
//! of Dijkstra. This module is an *independent* implementation of the
//! same optimum as [`crate::dp`] — the test suites of both cross-check
//! them against each other.
//!
//! Note on time-varying grids: slot edges connect identical
//! configurations only, exactly as the paper prescribes; when the
//! candidate grids of consecutive slots differ (time-varying `m_{t,j}`
//! with a reduced grid), a configuration absent from one slot must be
//! entered/left via in-layer switching edges. The DP in [`crate::dp`]
//! instead uses the true switching metric between any two grid points,
//! so it can be strictly cheaper in that corner case; on static grids
//! both are identical.

use rsz_core::{GtOracle, Instance, Schedule};

use crate::dp::backtrack;
use crate::grid::GridMode;
use crate::table::{GridCursor, Table};

/// Result of the graph shortest-path solve.
#[derive(Clone, Debug)]
pub struct GraphResult {
    /// Cost of the shortest path = optimal schedule cost.
    pub cost: f64,
    /// The schedule corresponding to the shortest path.
    pub schedule: Schedule,
    /// Number of vertices in the constructed graph (`2·Σ_t |grid_t|`),
    /// for reporting the sizes of `G` vs `G^γ`.
    pub vertices: usize,
}

/// Solve by shortest path in `G(I)` (or `G^γ(I)` for a reduced grid).
#[must_use]
pub fn solve(instance: &Instance, oracle: &(impl GtOracle + Sync), grid: GridMode) -> GraphResult {
    let d = instance.num_types();
    let tt = instance.horizon();
    let mut vertices = 0usize;
    // `tables[t][x]` = shortest distance to v↓_{t,x} (i.e. OPT_t(x)).
    let mut tables: Vec<Table> = Vec::with_capacity(tt);
    for t in 0..tt {
        let levels: Vec<Vec<u32>> =
            (0..d).map(|j| grid.levels(instance.server_count(t, j))).collect();
        // Arrival at the ↑ layer of slot t.
        let mut up = match tables.last() {
            None => {
                // Start vertex v↑_{1,0}: distance 0 at the origin.
                let mut init = Table::new(levels, f64::INFINITY);
                let origin = init
                    .index_of_config(&rsz_core::Config::zeros(d))
                    .expect("grids always contain 0");
                init.values_mut()[origin] = 0.0;
                init
            }
            Some(prev_down) => {
                // Power-down relaxation in the previous ↓ layer, then
                // slot edges to equal configurations.
                let mut down = prev_down.clone();
                relax_down(&mut down);
                carry_over(&down, levels)
            }
        };
        // Power-up relaxation within the ↑ layer.
        relax_up(&mut up, instance);
        vertices += 2 * up.len();
        // Operating edges v↑ → v↓.
        let levels = up.all_levels().to_vec();
        let mut cursor = GridCursor::new(&levels, 0);
        for v in up.values_mut() {
            if v.is_finite() {
                *v += oracle.g(instance, t, cursor.counts());
            }
            cursor.advance();
        }
        tables.push(up);
    }
    let res = backtrack(instance, &tables);
    GraphResult { cost: res.cost, schedule: res.schedule, vertices }
}

/// In-layer power-down edges: `val[x] = min(val[x], val[y])` for `y ≥ x`,
/// realized as one decreasing pass per dimension.
fn relax_down(table: &mut Table) {
    for j in 0..table.dims() {
        let stride = table.stride(j);
        let n = table.levels(j).len();
        let total = table.len();
        let values = table.values_mut();
        let outer_blocks = total / (n * stride);
        for a in 0..outer_blocks {
            let base_a = a * n * stride;
            for b in 0..stride {
                let base = base_a + b;
                for p in (0..n.saturating_sub(1)).rev() {
                    let here = base + p * stride;
                    let above = base + (p + 1) * stride;
                    if values[above] < values[here] {
                        values[here] = values[above];
                    }
                }
            }
        }
    }
}

/// In-layer power-up edges: `val[x+Δe_j] = min(val[x+Δe_j],
/// val[x] + β_j·Δ)` as one increasing pass per dimension (Δ is the gap
/// between consecutive grid levels).
fn relax_up(table: &mut Table, instance: &Instance) {
    for j in 0..table.dims() {
        let beta = instance.switching_cost(j);
        let stride = table.stride(j);
        let levels = table.levels(j).to_vec();
        let n = levels.len();
        let total = table.len();
        let values = table.values_mut();
        let outer_blocks = total / (n * stride);
        for a in 0..outer_blocks {
            let base_a = a * n * stride;
            for b in 0..stride {
                let base = base_a + b;
                for p in 1..n {
                    let below = base + (p - 1) * stride;
                    let here = base + p * stride;
                    let step = beta * f64::from(levels[p] - levels[p - 1]);
                    let cand = values[below] + step;
                    if cand < values[here] {
                        values[here] = cand;
                    }
                }
            }
        }
    }
}

/// Slot edges: copy distances between layers at identical configurations;
/// configurations missing from the source layer start at `∞`.
fn carry_over(down: &Table, new_levels: Vec<Vec<u32>>) -> Table {
    let mut up = Table::new(new_levels, f64::INFINITY);
    for i in 0..up.len() {
        let cfg = up.config_of(i);
        if let Some(v) = down.get(&cfg) {
            up.values_mut()[i] = v;
        }
    }
    up
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{solve as dp_solve, DpOptions};
    use rsz_core::{CostModel, ServerType};
    use rsz_dispatch::Dispatcher;

    fn instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 2, 3.0, 1.0, CostModel::linear(1.0, 0.5)))
            .server_type(ServerType::new("b", 1, 5.0, 2.0, CostModel::constant(1.5)))
            .loads(vec![1.0, 2.0, 0.5, 2.5])
            .build()
            .unwrap()
    }

    #[test]
    fn graph_equals_dp_on_full_grid() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let g = solve(&inst, &oracle, GridMode::Full);
        let dp = dp_solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        assert!((g.cost - dp.cost).abs() < 1e-9, "graph {} vs dp {}", g.cost, dp.cost);
        g.schedule.check_feasible(&inst).unwrap();
    }

    #[test]
    fn graph_equals_dp_on_gamma_grid() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 9, 2.0, 1.0, CostModel::linear(0.4, 1.0)))
            .loads(vec![2.0, 8.0, 1.0, 5.0])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let mode = GridMode::Gamma(2.0);
        let g = solve(&inst, &oracle, mode);
        let dp = dp_solve(
            &inst,
            &oracle,
            DpOptions { grid: mode, threads: Some(1), ..DpOptions::default() },
        );
        assert!((g.cost - dp.cost).abs() < 1e-9, "graph {} vs dp {}", g.cost, dp.cost);
    }

    #[test]
    fn vertex_count_matches_formula() {
        let inst = instance();
        let g = solve(&inst, &Dispatcher::new(), GridMode::Full);
        // 2 · T · Π (m_j + 1) = 2 · 4 · 3 · 2
        assert_eq!(g.vertices, 48);
    }

    #[test]
    fn figure4_shape_two_types_two_slots() {
        // The Figure 4 instance shape: d=2, T=2, m=(2,1). Loads chosen so
        // the optimum powers both types up in slot 1 and keeps a smaller
        // configuration in slot 2.
        let inst = Instance::builder()
            .server_type(ServerType::new("t1", 2, 1.0, 1.0, CostModel::linear(0.2, 1.0)))
            .server_type(ServerType::new("t2", 1, 1.5, 2.0, CostModel::linear(0.3, 0.4)))
            .loads(vec![4.0, 3.0])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let g = solve(&inst, &oracle, GridMode::Full);
        let dp = dp_solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
        assert!((g.cost - dp.cost).abs() < 1e-9);
        assert_eq!(g.vertices, 2 * 2 * 6);
        // slot 1 must use full capacity (load 4 = max capacity)
        assert_eq!(g.schedule.config(0).counts(), &[2, 1]);
    }
}
