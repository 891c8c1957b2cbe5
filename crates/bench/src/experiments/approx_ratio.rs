//! Theorem 16 — quality of the γ-grid approximation.
//!
//! For a sweep of `γ` (equivalently `ε = 2γ−2`), solves random instances
//! both exactly and on the reduced grid `M^γ` and reports the realized
//! approximation ratio against the proven `2γ−1` bound, along with the
//! grid compression `|M^γ|/|M|`.

use rsz_dispatch::Dispatcher;
use rsz_offline::approx::approximate_with_mode;
use rsz_offline::dp::{solve as dp_solve, DpOptions};
use rsz_offline::grid::gamma_levels;
use rsz_offline::GridMode;

use crate::experiments::families::approx_instance;
use crate::report::{f, Report, TextTable};
use crate::stats::summarize;
use crate::ExperimentConfig;

/// Run the Theorem 16 approximation experiment.
#[must_use]
pub fn run(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new("exp_approx_ratio", "Theorem 16: (2γ−1)-approximation quality");
    let (seeds, horizon, m1, m2): (u64, usize, u32, u32) =
        if cfg.quick { (3, 10, 16, 8) } else { (10, 20, 30, 12) };
    let gammas = [1.1, 1.25, 1.5, 2.0, 3.0];
    report
        .kv("sweep", format!("{seeds} seeds × d ∈ {{1,2}}, T = {horizon}, m = {m1} / ({m2},{m2})"));
    report.blank();

    let mut table = TextTable::new([
        "γ",
        "bound 2γ−1",
        "max ratio",
        "mean ratio",
        "grid levels (m=1024)",
        "samples",
    ]);
    for gamma in gammas {
        let bound = 2.0 * gamma - 1.0;
        let mut ratios = Vec::new();
        for d in 1..=2usize {
            let m = if d == 1 { m1 } else { m2 };
            for s in 0..seeds {
                let seed = cfg.seed ^ s << 3 ^ (d as u64) << 20;
                let inst = approx_instance(d, m, horizon, seed);
                let oracle = Dispatcher::new();
                let exact =
                    dp_solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
                let approx = approximate_with_mode(
                    &inst,
                    &oracle,
                    GridMode::Gamma(gamma),
                    DpOptions { threads: Some(1), ..DpOptions::default() },
                );
                approx.result.schedule.check_feasible(&inst).expect("feasible");
                let ratio = approx.result.cost / exact.cost;
                assert!(ratio >= 1.0 - 1e-9, "approximation cannot beat the exact optimum");
                assert!(
                    ratio <= bound + 1e-6,
                    "Theorem 16 violated: γ={gamma} d={d} seed={seed}: {ratio} > {bound}"
                );
                ratios.push(ratio);
            }
        }
        let sum = summarize(&ratios);
        table.row([
            format!("{gamma}"),
            f(bound),
            f(sum.max),
            f(sum.mean),
            gamma_levels(1024, gamma).len().to_string(),
            sum.n.to_string(),
        ]);
    }
    report.table(&table);
    report.blank();
    report.line("Realized ratios sit far below the worst-case 2γ−1 bound (typical for");
    report.line("grid restrictions); even γ = 3 (a 5-approximation on paper) loses only");
    report.line("a few percent on these workloads while shrinking the grid to O(log m).");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_hold_in_quick_mode() {
        let r = run(&ExperimentConfig { quick: true, seed: 0xD });
        assert!(r.render().contains("2γ−1"));
    }
}
