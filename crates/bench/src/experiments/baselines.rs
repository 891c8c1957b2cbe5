//! Motivation experiment — the paper's algorithms against the policies a
//! data-center operator would otherwise run.
//!
//! Two scenarios:
//!
//! 1. **Diurnal CPU+GPU fleet** (time-independent costs): Algorithm A
//!    vs all-on, purely reactive, myopic-with-switching, reactive with
//!    ski-rental timeouts, the best static provisioning, and the
//!    clairvoyant optimum.
//! 2. **Electricity market** (time-dependent costs, homogeneous fleet):
//!    Algorithms B and C vs the same baselines plus homogeneous LCP.
//!
//! Reported: cost, ratio to OPT, and energy savings vs always-on.

use rsz_core::Instance;
use rsz_dispatch::Dispatcher;
use rsz_offline::dp::{solve as dp_solve, DpOptions};
use rsz_online::algo_a::{AOptions, AlgorithmA};
use rsz_online::algo_b::AlgorithmB;
use rsz_online::algo_c::{AlgorithmC, COptions};
use rsz_online::baselines::{best_static, AllOn, Myopic, ReactiveTimeout};
use rsz_online::lcp::LazyCapacityProvisioning;
use rsz_online::runner::{run as run_online, OnlineAlgorithm};
use rsz_workloads::scenario;

use crate::report::{f, Report, TextTable};
use crate::ExperimentConfig;

fn run_suite(
    report: &mut Report,
    inst: &Instance,
    oracle: &Dispatcher,
    algos: Vec<Box<dyn OnlineAlgorithm>>,
) {
    let opt = dp_solve(inst, oracle, DpOptions { threads: Some(1), ..Default::default() });
    let mut rows: Vec<(String, f64)> = Vec::new();
    let mut all_on_cost = None;
    for mut algo in algos {
        let outcome = run_online(inst, algo.as_mut(), oracle);
        outcome
            .schedule
            .check_feasible(inst)
            .unwrap_or_else(|e| panic!("{} produced an infeasible schedule: {e}", outcome.name));
        if outcome.name == "all-on" {
            all_on_cost = Some(outcome.cost());
        }
        let cost = outcome.cost();
        rows.push((outcome.name, cost));
    }
    if let Some((cfg, cost)) = best_static(inst, oracle) {
        rows.push((format!("static {cfg}"), cost));
    }
    rows.push(("OPT (clairvoyant)".into(), opt.cost));
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"));

    let all_on = all_on_cost.unwrap_or(f64::NAN);
    let mut table = TextTable::new(["policy", "cost", "ratio vs OPT", "savings vs all-on"]);
    for (name, cost) in &rows {
        table.row([
            name.clone(),
            f(*cost),
            f(cost / opt.cost),
            format!("{:.1}%", (1.0 - cost / all_on) * 100.0),
        ]);
    }
    report.table(&table);
}

/// Run the baseline-comparison experiment.
#[must_use]
pub fn run(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new("exp_baselines", "Motivation: paper algorithms vs baselines");
    let oracle = Dispatcher::new();

    // Scenario 1: diurnal CPU+GPU week (time-independent costs).
    let days = if cfg.quick { 2 } else { 5 };
    let inst = scenario::diurnal_cpu_gpu(6, 2, days, 24, cfg.seed);
    report.line(format!(
        "Scenario 1: diurnal CPU+GPU fleet, {days} days × 24 slots (seed {})",
        cfg.seed
    ));
    let algos: Vec<Box<dyn OnlineAlgorithm>> = vec![
        Box::new(AlgorithmA::new(&inst, oracle, AOptions::default())),
        Box::new(AlgorithmB::new(&inst, oracle, AOptions::default())),
        Box::new(AllOn),
        Box::new(Myopic::new(oracle, false)),
        Box::new(Myopic::new(oracle, true)),
        Box::new(ReactiveTimeout::with_ski_rental_timeouts(oracle, &inst)),
    ];
    run_suite(&mut report, &inst, &oracle, algos);
    report.blank();

    // Scenario 2: electricity market (time-dependent, homogeneous).
    let horizon = if cfg.quick { 48 } else { 120 };
    let inst2 = scenario::electricity_market(8, horizon, 24, cfg.seed ^ 7);
    report.line(format!(
        "Scenario 2: electricity market (time-dependent prices), T = {horizon}, m = 8"
    ));
    let algos2: Vec<Box<dyn OnlineAlgorithm>> = vec![
        Box::new(AlgorithmB::new(&inst2, oracle, AOptions::default())),
        Box::new(AlgorithmC::new(&inst2, oracle, COptions { epsilon: 0.5, ..Default::default() })),
        Box::new(LazyCapacityProvisioning::new(&inst2, oracle)),
        Box::new(AllOn),
        Box::new(Myopic::new(oracle, false)),
        Box::new(ReactiveTimeout::with_ski_rental_timeouts(oracle, &inst2)),
    ];
    run_suite(&mut report, &inst2, &oracle, algos2);
    report.blank();
    report.line("The guaranteed algorithms (A/B/C, LCP) land within a small factor of the");
    report.line("clairvoyant optimum and beat both extremes the introduction warns about:");
    report.line("always-on (wasted idle power) and purely reactive (switching thrash).");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_suite_runs() {
        let r = run(&ExperimentConfig { quick: true, seed: 0x5EED });
        let s = r.render();
        assert!(s.contains("Scenario 1"));
        assert!(s.contains("Scenario 2"));
        assert!(s.contains("OPT"));
    }
}
