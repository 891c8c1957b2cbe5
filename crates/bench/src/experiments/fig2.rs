//! Figure 2 — blocks `A_{j,i}` and special time slots `τ_{j,k}`.
//!
//! Runs Algorithm A on a spiky workload, derives its power-up log, and
//! computes the block decomposition that drives the proof of Lemma 7:
//! special slots are constructed backwards with spacing ≥ `t̄_j`, the
//! index sets `B_{j,k}` partition the blocks, and every block contains
//! exactly one special slot.

use rsz_core::CostModel;
use rsz_core::{Instance, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_online::algo_a::{AOptions, AlgorithmA};
use rsz_online::blocks::{decompose, power_ups};
use rsz_online::runner::run as run_online;
use rsz_workloads::adversarial;

use crate::report::{Report, TextTable};
use crate::ExperimentConfig;

/// Run the Figure 2 reproduction.
#[must_use]
pub fn run(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new("fig2_blocks", "Figure 2: blocks and special time slots");
    let horizon = if cfg.quick { 24 } else { 48 };
    // One type, β = 4, idle 1 → t̄ = 4; spiky arrivals force repeated
    // power-ups (overlapping blocks), as in the figure.
    let inst = Instance::builder()
        .server_type(ServerType::new("a", 3, 4.0, 1.0, CostModel::linear(1.0, 0.3)))
        .loads(
            adversarial::ski_rental_probe(horizon, 2.0, 2)
                .plus(&adversarial::jitter(horizon, 1.0, 0.5, cfg.seed))
                .capped(3.0)
                .into_values(),
        )
        .build()
        .expect("probe instance is feasible");
    let oracle = Dispatcher::new();
    let mut algo = AlgorithmA::new(&inst, oracle, AOptions::default());
    let outcome = run_online(&inst, &mut algo, &oracle);
    outcome.schedule.check_feasible(&inst).expect("Lemma 1");

    // The controller keeps only a ring of `t̄` power-up rows; the whole
    // log follows from the committed schedule.
    let tbar = algo.runtime(0).expect("positive idle cost");
    let x: Vec<u32> = outcome.schedule.configs().iter().map(|c| c.count(0)).collect();
    let dec = decompose(&power_ups(&x, tbar), tbar);

    report.kv("horizon", horizon);
    report.kv("t̄ (ski-rental runtime)", tbar);
    report.kv("number of blocks n_j", dec.blocks.len());
    report.kv("number of special slots n'_j", dec.special_slots.len());
    report.blank();

    let mut table = TextTable::new(["block i", "interval A_{j,i}", "contains τ"]);
    for (i, b) in dec.blocks.iter().enumerate() {
        let tau = dec
            .special_slots
            .iter()
            .find(|&&t| b.contains(t))
            .map_or("-".to_string(), |t| t.to_string());
        table.row([format!("{}", i + 1), format!("[{}, {}]", b.start, b.end), tau]);
    }
    report.table(&table);
    report.blank();

    let mut tau_table = TextTable::new(["k", "τ_{j,k}", "index set B_{j,k}"]);
    for (k, (&tau, set)) in dec.special_slots.iter().zip(&dec.index_sets).enumerate() {
        tau_table.row([
            format!("{}", k + 1),
            tau.to_string(),
            format!("{:?}", set.iter().map(|i| i + 1).collect::<Vec<_>>()),
        ]);
    }
    report.table(&tau_table);
    report.blank();

    let partition = dec.is_partition();
    let spacing = dec.spacing_at_least(tbar);
    report.kv(
        "index sets partition all blocks (Lemma 7 core)",
        if partition { "holds" } else { "VIOLATED" },
    );
    report.kv("consecutive τ spacing ≥ t̄", if spacing { "holds" } else { "VIOLATED" });
    assert!(partition && spacing);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_invariants_hold() {
        let r = run(&ExperimentConfig { quick: true, seed: 7 });
        let s = r.render();
        assert!(s.contains("holds"));
        assert!(!s.contains("VIOLATED"));
    }
}
