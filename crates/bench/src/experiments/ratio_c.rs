//! Theorem 15 — Algorithm C pushes the ratio to `2d+1+ε`.
//!
//! Sweeps `ε` on time-dependent instances and reports the realized
//! refinement constant `c(Ĩ)` (which the theorem bounds by `ε`), the
//! sub-slot counts `ñ_t` the refinement chose, and the empirical ratio
//! against the `2d+1+ε` bound.

use rsz_dispatch::Dispatcher;
use rsz_offline::dp::{solve as dp_solve, DpOptions};
use rsz_online::algo_c::{AlgorithmC, COptions};
use rsz_online::runner::run as run_online;

use crate::experiments::families::{self, Family};
use crate::report::{f, Report, TextTable};
use crate::stats::summarize;
use crate::ExperimentConfig;

/// Run the Theorem 15 ratio experiment.
#[must_use]
pub fn run(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new("exp_ratio_c", "Theorem 15: Algorithm C ratios (2d+1+ε)");
    let (seeds, horizon, epsilons): (u64, usize, &[f64]) =
        if cfg.quick { (2, 16, &[1.0, 0.5]) } else { (6, 28, &[1.0, 0.5, 0.25]) };
    let d = 2usize;
    let fams = [Family::Sawtooth, Family::Jitter];
    report.kv("sweep", format!("d = {d}, {seeds} seeds × {} families, T = {horizon}", fams.len()));
    report.blank();

    let mut table = TextTable::new([
        "ε",
        "bound 2d+1+ε",
        "max ratio",
        "mean ratio",
        "max c(Ĩ)",
        "max ñ_t",
        "samples",
    ]);
    for &eps in epsilons {
        let bound = 2.0 * d as f64 + 1.0 + eps;
        let mut ratios = Vec::new();
        let mut realized_c_max = 0.0_f64;
        let mut subslots_max = 0usize;
        for family in fams {
            for s in 0..seeds {
                let seed = cfg.seed ^ s << 6 ^ (eps.to_bits() >> 50);
                let inst = families::time_dependent(d, family, horizon, seed, true);
                let oracle = Dispatcher::new();
                let mut algo =
                    AlgorithmC::new(&inst, oracle, COptions { epsilon: eps, ..Default::default() });
                let online = run_online(&inst, &mut algo, &oracle);
                online.schedule.check_feasible(&inst).expect("feasible");
                realized_c_max = realized_c_max.max(algo.realized_c());
                subslots_max = subslots_max.max(algo.subslots_max());
                let opt =
                    dp_solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
                let ratio = online.ratio_vs(opt.cost);
                assert!(
                    ratio <= bound + 1e-6,
                    "Theorem 15 violated: ε={eps} {} seed={seed}: {ratio} > {bound}",
                    family.label()
                );
                assert!(
                    algo.realized_c() <= eps + 1e-9,
                    "refinement failed: c(Ĩ) = {} > ε = {eps}",
                    algo.realized_c()
                );
                ratios.push(ratio);
            }
        }
        let sum = summarize(&ratios);
        table.row([
            format!("{eps}"),
            f(bound),
            f(sum.max),
            f(sum.mean),
            f(realized_c_max),
            subslots_max.to_string(),
            sum.n.to_string(),
        ]);
    }
    report.table(&table);
    report.blank();
    report.line("c(Ĩ) ≤ ε holds for every run (no sub-slot cap was hit) and all ratios");
    report.line("respect 2d+1+ε; smaller ε buys a tighter guarantee at the cost of more");
    report.line("sub-slots (ñ_t grows like d/ε · max_j l/β).");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_hold_in_quick_mode() {
        let r = run(&ExperimentConfig { quick: true, seed: 0xC });
        assert!(r.render().contains("respect 2d+1+ε"));
    }
}
