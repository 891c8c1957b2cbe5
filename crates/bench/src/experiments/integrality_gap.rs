//! Integrality gap — how much does insisting on whole servers cost?
//!
//! Prior work (Lin et al., Bansal et al.) solves the *fractional*
//! relaxation; this paper argues for solving the discrete problem
//! directly. The quantitative question in between: how far is the
//! discrete optimum above the fractional one? This experiment measures
//! `discrete OPT / fractional OPT` where the fractional optimum is
//! approached from above by `K`-fold server subdivision
//! (`rsz_offline::relax`), and reports the convergence in `K` along
//! with the worst observed gap per fleet size — the gap shrinks as
//! fleets grow (integrality matters most for small `m`), which is also
//! why naive rounding is most dangerous exactly where fleets are small.

use rsz_dispatch::Dispatcher;
use rsz_offline::dp::{solve_cost_only, DpOptions};
use rsz_offline::relax::fractional_lower_bound;

use crate::experiments::families::approx_instance;
use crate::report::{f, Report, TextTable};
use crate::stats::summarize;
use crate::sweep::parallel_map;
use crate::ExperimentConfig;

/// Run the integrality-gap experiment.
#[must_use]
pub fn run(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new(
        "exp_integrality_gap",
        "Integrality gap: discrete OPT vs fractional relaxation",
    );
    let (seeds, horizon) = if cfg.quick { (3u64, 8) } else { (8u64, 16) };
    let ks: &[u32] = if cfg.quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    report.kv("sweep", format!("{seeds} seeds, T = {horizon}, K ∈ {ks:?}"));
    report.blank();

    // Convergence table on one representative instance.
    let demo = approx_instance(1, 3, horizon, cfg.seed);
    let oracle = Dispatcher::new();
    let opts = DpOptions { threads: Some(1), ..Default::default() };
    let mut conv = TextTable::new(["K (granularity 1/K)", "bound", "gap vs K"]);
    let discrete = solve_cost_only(&demo, &oracle, opts);
    let mut last = discrete;
    for &k in ks {
        let lb = fractional_lower_bound(&demo, &oracle, k, opts);
        assert!(lb <= last + 1e-9, "bound must decrease in K");
        last = lb;
        conv.row([k.to_string(), f(lb), format!("{:.4}×", discrete / lb)]);
    }
    report.line("Convergence on one m = 3 instance (discrete OPT = bound at K = 1):");
    report.table(&conv);
    report.blank();

    // Gap vs fleet size.
    let k_ref = *ks.last().expect("non-empty");
    let mut table = TextTable::new(["m", "max gap", "mean gap", "samples"]);
    for m in [2u32, 4, 8] {
        let trials: Vec<u64> = (0..seeds).map(|s| cfg.seed ^ s << 7 ^ u64::from(m) << 32).collect();
        let gaps = parallel_map(trials, |&seed| {
            let inst = approx_instance(1, m, horizon, seed);
            let oracle = Dispatcher::new();
            let discrete = solve_cost_only(&inst, &oracle, opts);
            let frac = fractional_lower_bound(&inst, &oracle, k_ref, opts);
            assert!(frac <= discrete + 1e-9);
            discrete / frac
        });
        let s = summarize(&gaps);
        table.row([
            m.to_string(),
            format!("{:.4}×", s.max),
            format!("{:.4}×", s.mean),
            s.n.to_string(),
        ]);
    }
    report.table(&table);
    report.blank();
    report.line("The gap decays quickly with fleet size: a handful of servers already");
    report.line("brings the discrete optimum within a few percent of the fractional");
    report.line("bound — but at m = 2 the gap is real, which is exactly the regime where");
    report.line("rounding a fractional solution thrashes (see exp_rounding_blowup).");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_report_runs() {
        let r = run(&ExperimentConfig { quick: true, seed: 0x6A9 });
        let s = r.render();
        assert!(s.contains("Convergence"));
        assert!(s.contains("max gap"));
    }
}
