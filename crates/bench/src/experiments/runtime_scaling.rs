//! Theorem 21/22 — runtime and grid-size scaling of the
//! `(1+ε)`-approximation.
//!
//! The theorem claims `O(T · ε^{-d} · Π_j log m_j)`. The experiment
//! measures wall-clock time and per-slot grid cells along four axes —
//! fleet size `m`, accuracy `ε`, horizon `T`, and dimension `d` — and
//! reports how the measurements track the formula (grid cells against
//! `log m`, runtime roughly linear in `T` and in cells).

use rsz_dispatch::Dispatcher;
use rsz_offline::approx::approximate_opts;
use rsz_offline::dp::{solve_cost_only, DpOptions};
use rsz_offline::grid::gamma_levels;

use crate::experiments::families::approx_instance;
use crate::report::{f, Report, TextTable};
use crate::stats::{fmt_duration, timed};
use crate::ExperimentConfig;

/// Every solve here runs on one thread, so the timings compare like
/// with like.
fn sequential() -> DpOptions {
    DpOptions { threads: Some(1), ..DpOptions::default() }
}

/// Run the Theorem 21 scaling experiment.
#[must_use]
pub fn run(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new("exp_runtime_scaling", "Theorem 21: runtime / grid-size scaling");
    let seed = cfg.seed;

    // Axis 1: fleet size m (d = 1, ε = 0.5).
    let ms: &[u32] = if cfg.quick { &[100, 1_000, 10_000] } else { &[100, 1_000, 10_000, 100_000] };
    let t_ax1 = if cfg.quick { 24 } else { 50 };
    report.line(format!("Axis 1: fleet size m (d = 1, ε = 0.5, T = {t_ax1})"));
    let mut t1 = TextTable::new(["m", "γ-grid levels", "log2(m)", "approx time", "exact time"]);
    for &m in ms {
        let inst = approx_instance(1, m, t_ax1, seed);
        let oracle = Dispatcher::new();
        let (approx, d_apx) = timed(|| approximate_opts(&inst, &oracle, 0.5, sequential()));
        let exact_time = if m <= 1_000 {
            let (_, d_ex) = timed(|| solve_cost_only(&inst, &oracle, sequential()));
            fmt_duration(d_ex)
        } else {
            "(skipped)".to_string()
        };
        t1.row([
            m.to_string(),
            approx.grid_cells.to_string(),
            f(f64::from(m).log2()),
            fmt_duration(d_apx),
            exact_time,
        ]);
    }
    report.table(&t1);
    report.blank();

    // Axis 2: accuracy ε (d = 1, m = 10⁴).
    let eps_list: &[f64] = if cfg.quick { &[2.0, 1.0, 0.5] } else { &[2.0, 1.0, 0.5, 0.2, 0.1] };
    let m_ax2 = 10_000u32;
    report.line(format!("Axis 2: accuracy ε (d = 1, m = {m_ax2}, T = {t_ax1})"));
    let mut t2 = TextTable::new(["ε", "γ", "grid levels", "time"]);
    for &eps in eps_list {
        let inst = approx_instance(1, m_ax2, t_ax1, seed ^ 1);
        let oracle = Dispatcher::new();
        let (approx, dur) = timed(|| approximate_opts(&inst, &oracle, eps, sequential()));
        t2.row([
            format!("{eps}"),
            format!("{}", 1.0 + eps / 2.0),
            approx.grid_cells.to_string(),
            fmt_duration(dur),
        ]);
    }
    report.table(&t2);
    report.blank();

    // Axis 3: horizon T (d = 1, m = 1000, ε = 0.5) — expect linear.
    let ts: &[usize] = if cfg.quick { &[25, 50, 100] } else { &[25, 50, 100, 200, 400] };
    report.line("Axis 3: horizon T (d = 1, m = 1000, ε = 0.5)");
    let mut t3 = TextTable::new(["T", "time", "time/T"]);
    for &t in ts {
        let inst = approx_instance(1, 1_000, t, seed ^ 2);
        let oracle = Dispatcher::new();
        let (_, dur) = timed(|| approximate_opts(&inst, &oracle, 0.5, sequential()));
        t3.row([
            t.to_string(),
            fmt_duration(dur),
            format!("{:.1}µs", dur.as_secs_f64() * 1e6 / t as f64),
        ]);
    }
    report.table(&t3);
    report.blank();

    // Axis 4: dimension d (m = 30 per type, ε = 0.5) — cells multiply.
    let ds: &[usize] = if cfg.quick { &[1, 2] } else { &[1, 2, 3] };
    let t_ax4 = if cfg.quick { 12 } else { 30 };
    report.line(format!("Axis 4: dimension d (m = 30 each, ε = 0.5, T = {t_ax4})"));
    let mut t4 = TextTable::new(["d", "grid cells/slot", "levels^d", "time"]);
    let levels_per_dim = gamma_levels(30, 1.25).len();
    for &d in ds {
        let inst = approx_instance(d, 30, t_ax4, seed ^ 3);
        let oracle = Dispatcher::new();
        let (approx, dur) = timed(|| approximate_opts(&inst, &oracle, 0.5, sequential()));
        t4.row([
            d.to_string(),
            approx.grid_cells.to_string(),
            levels_per_dim.pow(d as u32).to_string(),
            fmt_duration(dur),
        ]);
    }
    report.table(&t4);
    report.blank();
    report.line("Grid levels grow logarithmically in m (compare columns 2 and 3 of Axis 1),");
    report.line("runtime is linear in T (Axis 3) and multiplies per dimension (Axis 4) —");
    report.line("the O(T·ε^{-d}·Π log m_j) shape of Theorem 21.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_report_runs() {
        let r = run(&ExperimentConfig { quick: true, seed: 1 });
        assert!(r.render().contains("Axis 1"));
    }
}
