//! Theorem 22 — time-varying data-center sizes `m_{t,j}`.
//!
//! Uses the expansion scenario (the fleet of new-generation servers grows
//! in two waves while load ramps up) and checks that (a) the exact DP
//! with per-slot grids and the paper's pruned graph both return feasible
//! schedules that respect every per-slot fleet bound, and (b) the γ-grid
//! approximation stays within its guarantee relative to the exact
//! per-slot optimum.

use rsz_core::objective::evaluate;
use rsz_dispatch::Dispatcher;
use rsz_offline::approx::approximate;
use rsz_offline::dp::{solve as dp_solve, DpOptions};
use rsz_offline::{graph, GridMode};
use rsz_workloads::scenario;

use crate::report::{f, Report, TextTable};
use crate::ExperimentConfig;

/// Run the Theorem 22 experiment.
#[must_use]
pub fn run(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new("exp_time_varying_m", "Theorem 22: time-varying fleet sizes");
    let len = if cfg.quick { 18 } else { 36 };
    let inst = scenario::expansion(len);
    let oracle = Dispatcher::new();

    let exact = dp_solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
    let apx = approximate(&inst, &oracle, 0.5);
    let g = graph::solve(&inst, &oracle, GridMode::Full);

    exact.schedule.check_feasible(&inst).expect("exact feasible");
    apx.result.schedule.check_feasible(&inst).expect("approx feasible");
    g.schedule.check_feasible(&inst).expect("graph feasible");

    // Per-slot fleet bounds hold by feasibility; show the expansion.
    let phases = [0usize, len / 3, 2 * len / 3, len - 1];
    let mut table = TextTable::new(["t", "m_t (legacy,new)", "exact x_t", "approx x_t"]);
    for &t in &phases {
        table.row([
            (t + 1).to_string(),
            format!("({}, {})", inst.server_count(t, 0), inst.server_count(t, 1)),
            exact.schedule.config(t).to_string(),
            apx.result.schedule.config(t).to_string(),
        ]);
    }
    report.table(&table);
    report.blank();

    let exact_bd = evaluate(&inst, &exact.schedule, &oracle);
    report.kv("exact DP cost", f(exact.cost));
    report.kv("  (re-evaluated from schedule)", f(exact_bd.total()));
    assert!((exact.cost - exact_bd.total()).abs() < 1e-9);
    report.kv("graph (paper construction) cost", f(g.cost));
    report.kv("(1+ε) approx cost (ε = 0.5)", f(apx.result.cost));
    assert!(
        apx.result.cost <= 1.5 * exact.cost + 1e-9,
        "Theorem 22 guarantee violated: {} > 1.5·{}",
        apx.result.cost,
        exact.cost
    );
    // The pruned graph charges transitions through grid detours when the
    // per-slot grids differ, so it may exceed the DP's true-metric
    // optimum but never undercuts it.
    assert!(g.cost >= exact.cost - 1e-9);
    report.blank();
    report.line("Both solvers respect every per-slot fleet bound m_{t,j}; the");
    report.line("approximation stays within its (1+ε) guarantee of the exact optimum.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_varying_solvers_agree() {
        let r = run(&ExperimentConfig { quick: true, seed: 0 });
        assert!(r.render().contains("per-slot fleet bound"));
    }
}
