//! Data-center expansion planning: time-varying fleet sizes
//! (Section 4.3) plus the actuation layer.
//!
//! A legacy fleet is joined by new-generation servers in two waves while
//! demand ramps up. The exact DP plans over per-slot fleet bounds
//! `m_{t,j}`; the plan is then materialized into per-server power
//! commands under both wear policies.
//!
//! ```text
//! cargo run --release --example expansion_planning
//! ```

use heterogeneous_rightsizing::core::render;
use heterogeneous_rightsizing::offline::{self, DpOptions};
use heterogeneous_rightsizing::online::actuation::{actuate, replay_matches, DownPolicy};
use heterogeneous_rightsizing::prelude::*;

fn main() {
    let instance = workloads::scenario::expansion(36);
    let oracle = Dispatcher::new();

    println!("expansion scenario: legacy fleet fixed at 4; new fleet grows 0 → 3 → 6");
    println!(
        "horizon {} slots; load ramps from {:.1} to {:.1}\n",
        instance.horizon(),
        instance.load(0),
        instance.load(instance.horizon() - 1)
    );

    // Exact offline plan (per-slot grids handle m_{t,j} natively).
    let plan = offline::solve(&instance, &oracle, DpOptions::default());
    println!("optimal cost: {:.2}", plan.cost);
    let apx = offline::approximate(&instance, &oracle, 0.5);
    println!("(1+0.5)-approx cost: {:.2} (guarantee ≤ {:.2})\n", apx.result.cost, 1.5 * plan.cost);

    println!("{}", render::schedule_chart(&instance, &plan.schedule));

    // Materialize into per-server commands.
    for policy in [DownPolicy::Lifo, DownPolicy::Fifo] {
        let act = actuate(&instance, &plan.schedule, policy);
        assert!(replay_matches(&instance, &plan.schedule, &act));
        println!(
            "{policy:?}: {} commands; per-type max power cycles: legacy {}, new {}",
            act.commands.len(),
            act.max_cycles(0),
            act.max_cycles(1),
        );
    }
    println!("\nFIFO spreads power cycles across servers (wear leveling); LIFO keeps");
    println!("a stable core running. Both realize the same optimal count schedule.");
}
