//! Capacity planning at scale: the (1+ε)-approximation on a fleet far
//! too large for the exact DP.
//!
//! The exact DP of Section 4.1 enumerates Π(m_j+1) configurations per
//! slot — 10⁸ for this fleet. The γ-grid of Section 4.2 shrinks that to
//! a few hundred while guaranteeing a (1+ε) factor, and time-varying
//! fleet sizes (Section 4.3, e.g. maintenance windows) come along for
//! free.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use std::time::Instant;

use heterogeneous_rightsizing::offline;
use heterogeneous_rightsizing::prelude::*;

fn main() {
    // 10,000 web nodes + 2,000 GPU nodes; a day of 5-minute slots.
    let horizon = 288;
    let web = ServerType::new("web", 10_000, 3.0, 1.0, CostModel::linear(0.4, 0.9));
    let gpu = ServerType::new("gpu", 2_000, 12.0, 4.0, CostModel::power(1.5, 0.3, 2.0));
    let types = vec![web, gpu];
    let cap: f64 = types.iter().map(|t| t.fleet_capacity()).sum();

    let trace = workloads::patterns::diurnal(horizon, 0.08 * cap, 0.65 * cap, 288, 0.6);
    let trace = workloads::stochastic::with_gaussian_noise(&trace, 0.03 * cap, 99);
    let instance = Instance::builder()
        .server_types(types)
        .loads(trace.capped(cap).into_values())
        .build()
        .expect("valid instance");

    println!("fleet: 10,000 web + 2,000 gpu; T = {horizon} five-minute slots");
    println!("exact DP grid would be 10,001 × 2,001 ≈ 2·10⁷ cells per slot — skipped\n");

    println!("{:>6} {:>8} {:>16} {:>14} {:>12}", "ε", "γ", "grid cells/slot", "cost", "time");
    println!("{}", "-".repeat(60));
    let mut costs: Vec<(f64, f64)> = Vec::new();
    for eps in [2.0, 1.0, 0.5, 0.25, 0.1] {
        let start = Instant::now();
        let apx = offline::approximate(&instance, &Dispatcher::new(), eps);
        let dt = start.elapsed();
        apx.result.schedule.check_feasible(&instance).expect("feasible");
        println!(
            "{:>6} {:>8.3} {:>16} {:>14.0} {:>10.1}ms",
            eps,
            apx.gamma,
            apx.grid_cells,
            apx.result.cost,
            dt.as_secs_f64() * 1e3
        );
        costs.push((eps, apx.result.cost));
    }

    // Tighter ε can only improve the (guaranteed) cost; show the realized
    // improvement from ε = 2 to ε = 0.1.
    let worst = costs.first().expect("non-empty").1;
    let best = costs.last().expect("non-empty").1;
    println!(
        "\nrefining ε from 2.0 to 0.1 improved the schedule by {:.2}% — each step",
        (1.0 - best / worst) * 100.0
    );
    println!("costs a constant-factor larger grid (ε^-d), never a blow-up in m or T.");
}
