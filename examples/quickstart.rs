//! Quickstart: build a small heterogeneous instance, solve it offline,
//! run the online algorithm, and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use heterogeneous_rightsizing::prelude::*;
use heterogeneous_rightsizing::{offline, online};

fn main() {
    // A data center with two server types:
    //  * "slow":  4 machines, cheap to power up (β = 2), capacity 1 job/slot,
    //             energy-proportional cost 0.5 idle + 1.0 per unit load;
    //  * "fast":  2 machines, expensive to power up (β = 6), capacity 3,
    //             super-linear (quadratic) energy curve.
    let instance = Instance::builder()
        .server_type(ServerType::new("slow", 4, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
        .server_type(ServerType::new("fast", 2, 6.0, 3.0, CostModel::power(1.0, 0.5, 2.0)))
        .loads(vec![1.0, 5.0, 2.0, 0.0, 0.0, 7.0, 3.0, 1.0, 4.0, 0.0])
        .build()
        .expect("valid instance");

    let oracle = Dispatcher::new();
    let d = instance.num_types() as f64;

    // ---- Offline optimum (Section 4.1): exact DP over the full grid.
    let opt = offline::solve(&instance, &oracle, DpOptions::default());
    println!("offline optimal schedule: {}", opt.schedule);
    println!("offline optimal cost:     {:.3}\n", opt.cost);

    // ---- (1+ε)-approximation (Section 4.2): γ-grid DP.
    let apx = offline::approximate(&instance, &oracle, 0.5);
    println!(
        "(1+0.5)-approx cost:      {:.3}  (guarantee ≤ {:.3})",
        apx.result.cost,
        apx.guarantee * opt.cost
    );

    // ---- Online Algorithm A (Section 2): (2d+1)-competitive.
    let mut algo = AlgorithmA::new(&instance, oracle, Default::default());
    let run = online::run(&instance, &mut algo, &oracle);
    println!("\nonline (Algorithm A) schedule: {}", run.schedule);
    println!("online cost:  {:.3}", run.cost());
    println!("  operating:  {:.3}", run.breakdown.operating);
    println!("  switching:  {:.3}", run.breakdown.switching);
    println!(
        "competitive ratio: {:.3}  (proven bound 2d+1 = {:.0})",
        run.ratio_vs(opt.cost),
        2.0 * d + 1.0
    );

    assert!(run.schedule.is_feasible(&instance));
    assert!(run.cost() <= (2.0 * d + 1.0) * opt.cost + 1e-9);
    println!("\nall bounds verified ✓");
}
