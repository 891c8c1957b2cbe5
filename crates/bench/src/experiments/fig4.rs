//! Figure 4 — the graph representation `G(I)` for `d = 2`, `T = 2`,
//! `m = (2, 1)`.
//!
//! Builds an instance with the figure's dimensions, solves it three ways
//! (explicit graph shortest path, DP with distance transforms, exhaustive
//! enumeration) and checks all three agree; prints the graph size
//! formula `2·T·Π(m_j+1)` and the optimal path as a schedule. The loads
//! are chosen so the shortest path visits `x_1 = (2,0) → x_2 = (1,1)`-
//! style mixed configurations, as the figure's green path does.

use rsz_core::{CostModel, Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::dp::{solve as dp_solve, DpOptions};
use rsz_offline::{brute, graph, GridMode};

use crate::report::{f, Report, TextTable};
use crate::ExperimentConfig;

/// Run the Figure 4 reproduction.
#[must_use]
pub fn run(_cfg: &ExperimentConfig) -> Report {
    let mut report =
        Report::new("fig4_graph", "Figure 4: graph representation (d=2, T=2, m=(2,1))");
    // Type 1: two cheap-to-switch slow servers; type 2: one fast server.
    // Load 2.5 then 2.0: slot 1 needs all of type 1 plus the fast server
    // is attractive; slot 2 can drop a slow server.
    let inst = Instance::builder()
        .server_type(ServerType::new("type1", 2, 1.0, 1.0, CostModel::linear(0.2, 1.0)))
        .server_type(ServerType::new("type2", 1, 1.5, 2.0, CostModel::linear(0.3, 0.4)))
        .loads(vec![2.5, 2.0])
        .build()
        .expect("figure instance is valid");
    let oracle = Dispatcher::new();

    let g = graph::solve(&inst, &oracle, GridMode::Full);
    let dp = dp_solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
    let bf = brute::solve(&inst, &oracle);

    report.kv("vertices 2·T·Π(m_j+1)", format!("{} (= 2·2·3·2)", g.vertices));
    assert_eq!(g.vertices, 24);
    report.kv("graph shortest-path cost", f(g.cost));
    report.kv("DP (distance transform) cost", f(dp.cost));
    report.kv("brute-force enumeration cost", f(bf.cost));
    assert!((g.cost - dp.cost).abs() < 1e-9);
    assert!((g.cost - bf.cost).abs() < 1e-9);
    report.blank();

    let mut table = TextTable::new(["t", "shortest-path configuration x_t"]);
    for (t, cfg) in g.schedule.iter() {
        table.row([(t + 1).to_string(), cfg.to_string()]);
    }
    report.table(&table);
    report.blank();
    report.line("All three solvers return the same optimum: the path through the");
    report.line("(d+1)-dimensional grid graph of Figure 4 is an optimal schedule.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_solvers_agree() {
        let r = run(&ExperimentConfig::default());
        assert!(r.render().contains("same optimum"));
    }
}
