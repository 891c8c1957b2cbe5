//! # rsz-bench — experiment harness
//!
//! One experiment per figure and theorem-level claim of the paper; see
//! DESIGN.md §4 for the index and EXPERIMENTS.md for recorded results.
//! Each experiment is a pure function `run(&ExperimentConfig) -> Report`
//! so the `reproduce` binary and the integration tests (which run quick
//! configurations) share the same code.

#![warn(missing_docs)]

pub mod experiments;
pub mod kernelbench;
pub mod report;
pub mod stats;
pub mod sweep;

pub use report::{Report, TextTable};

/// Knobs shared by all experiments.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Reduced sweep sizes for CI / integration tests.
    pub quick: bool,
    /// Base RNG seed; experiments derive per-trial seeds from it.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self { quick: false, seed: 0xD1CE }
    }
}

/// One registry entry: `(id, description, runner)`.
pub type ExperimentEntry = (&'static str, &'static str, fn(&ExperimentConfig) -> Report);

/// The registry of all experiments.
#[must_use]
pub fn registry() -> Vec<ExperimentEntry> {
    vec![
        (
            "fig1_algo_a_trace",
            "Figure 1: Algorithm A power-up/-down mechanism trace",
            experiments::fig1::run,
        ),
        (
            "fig2_blocks",
            "Figure 2: block decomposition and special time slots",
            experiments::fig2::run,
        ),
        (
            "fig3_algo_b_trace",
            "Figure 3: Algorithm B trace (exact paper data)",
            experiments::fig3::run,
        ),
        ("fig4_graph", "Figure 4: graph representation and shortest path", experiments::fig4::run),
        (
            "fig5_gamma_rounding",
            "Figure 5: corridor schedule X' on the gamma-grid",
            experiments::fig5::run,
        ),
        (
            "exp_ratio_a",
            "Theorem 8 / Corollary 9: competitive ratio of Algorithm A",
            experiments::ratio_a::run,
        ),
        ("exp_ratio_b", "Theorem 13: competitive ratio of Algorithm B", experiments::ratio_b::run),
        ("exp_ratio_c", "Theorem 15: competitive ratio of Algorithm C", experiments::ratio_c::run),
        (
            "exp_approx_ratio",
            "Theorem 16: (2γ−1)-approximation quality",
            experiments::approx_ratio::run,
        ),
        (
            "exp_runtime_scaling",
            "Theorem 21/22: runtime and grid-size scaling",
            experiments::runtime_scaling::run,
        ),
        (
            "exp_time_varying_m",
            "Theorem 22: time-varying data-center sizes",
            experiments::time_varying_m::run,
        ),
        (
            "fig_chasing_lb",
            "Section 1: Ω(2^d/d) lower bound for general convex chasing",
            experiments::chasing_lb::run,
        ),
        (
            "exp_baselines",
            "Motivation: paper algorithms vs practical baselines",
            experiments::baselines::run,
        ),
        (
            "exp_integrality_gap",
            "Integrality gap: discrete OPT vs fractional relaxation",
            experiments::integrality_gap::run,
        ),
        (
            "exp_rounding_blowup",
            "Related work: fractional rounding blow-up vs discrete DP",
            experiments::rounding_blowup::run,
        ),
        (
            "exp_worstcase_search",
            "Lower-bound probe: adversarial search against Algorithm A",
            experiments::worstcase_search::run,
        ),
        (
            "exp_prefix_backend",
            "Ablation: exact vs γ-grid prefix backend inside Algorithm A",
            experiments::prefix_backend::run,
        ),
    ]
}
