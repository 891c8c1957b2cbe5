//! Figure 5 — the corridor schedule `X'` for `γ = 2`, `m_j = 10`.
//!
//! Reproduces the figure's setting: the allowed states are
//! `M^γ = {0, 1, 2, 4, 8, 10}` (dashed lines in the figure), the optimal
//! schedule `X*` (red) moves freely, and the witness `X'` (green) stays
//! between `X*` and `min(m, (2γ−1)·X*)` (blue dotted), changing only to
//! preserve the invariant. The experiment prints all three lines per
//! slot, verifies the invariant (Equation 19), and compares costs
//! against the Theorem 16 bound `(2γ−1)·C(X*) = 3·C(X*)` — including the
//! cost of the *actual* γ-grid DP schedule, which can only be better
//! than the witness.

use rsz_core::objective::evaluate;
use rsz_core::{CostModel, Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::dp::{solve as dp_solve, DpOptions};
use rsz_offline::grid::gamma_levels;
use rsz_offline::rounding::{corridor_invariant_holds, corridor_schedule};
use rsz_offline::GridMode;

use crate::report::{f, Report, TextTable};
use crate::ExperimentConfig;

/// Run the Figure 5 reproduction.
#[must_use]
pub fn run(cfg: &ExperimentConfig) -> Report {
    let gamma = 2.0;
    let mut report =
        Report::new("fig5_gamma_rounding", "Figure 5: corridor schedule X' (γ = 2, m = 10)");
    let levels = gamma_levels(10, gamma);
    report.kv("allowed states M^γ", format!("{levels:?}"));
    assert_eq!(levels, vec![0, 1, 2, 4, 8, 10]);

    // A wavy load so X* sweeps the full range 0..10 like the figure.
    let len = if cfg.quick { 12 } else { 17 };
    let loads: Vec<f64> = (0..len)
        .map(|t| {
            let phase = t as f64 / len as f64 * std::f64::consts::TAU;
            (5.0 + 5.0 * phase.sin()).clamp(0.0, 10.0)
        })
        .collect();
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 10, 2.0, 1.0, CostModel::linear(0.4, 1.0)))
        .loads(loads)
        .build()
        .expect("figure instance is valid");
    let oracle = Dispatcher::new();

    let opt = dp_solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
    let witness = corridor_schedule(&inst, &opt.schedule, gamma);
    let dp_gamma = dp_solve(
        &inst,
        &oracle,
        DpOptions { grid: GridMode::Gamma(gamma), threads: Some(1), ..DpOptions::default() },
    );

    let mut table = TextTable::new(["t", "x*_t (red)", "(2γ−1)·x* (blue)", "x'_t (green)"]);
    for (t, xstar) in opt.schedule.iter() {
        let hi = (3.0 * f64::from(xstar.count(0))).min(10.0);
        table.row([
            (t + 1).to_string(),
            xstar.count(0).to_string(),
            format!("{hi:.0}"),
            witness.count(t, 0).to_string(),
        ]);
    }
    report.table(&table);
    report.blank();

    let invariant = corridor_invariant_holds(&inst, &opt.schedule, &witness, gamma);
    report.kv(
        "corridor invariant x* ≤ x' ≤ (2γ−1)x* (Eq. 19)",
        if invariant { "holds" } else { "VIOLATED" },
    );
    assert!(invariant);
    witness.check_feasible(&inst).expect("witness feasible");

    let w_cost = evaluate(&inst, &witness, &oracle).total();
    let bound = (2.0 * gamma - 1.0) * opt.cost;
    report.kv("C(X*) optimal", f(opt.cost));
    report.kv("C(X') witness", f(w_cost));
    report.kv("C(X^γ) γ-grid DP", f(dp_gamma.cost));
    report.kv("Theorem 16 bound (2γ−1)·C(X*)", f(bound));
    assert!(w_cost <= bound + 1e-9, "witness violates Theorem 16");
    assert!(dp_gamma.cost <= w_cost + 1e-9, "DP must beat its own witness");
    report.blank();
    report.line("C(X^γ) ≤ C(X') ≤ 3·C(X*): the γ-grid DP is at least as good as the");
    report.line("constructive witness, exactly as the proof of Theorem 16 argues.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_invariants_hold() {
        let r = run(&ExperimentConfig { quick: true, seed: 0 });
        let s = r.render();
        assert!(s.contains("[0, 1, 2, 4, 8, 10]"));
        assert!(!s.contains("VIOLATED"));
    }
}
