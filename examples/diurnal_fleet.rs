//! A realistic week on a heterogeneous CPU+GPU fleet: diurnal load with
//! noise, compared across the paper's algorithms and practical baselines.
//!
//! This is the workload the paper's introduction motivates: servers idle
//! at a large fraction of peak power, so powering down through the night
//! valley saves real energy — if switching costs are managed.
//!
//! ```text
//! cargo run --release --example diurnal_fleet
//! ```

use heterogeneous_rightsizing::prelude::*;
use heterogeneous_rightsizing::{offline, online};
use online::baselines::{best_static, AllOn, Myopic, ReactiveTimeout};
use online::runner::OnlineAlgorithm;

fn main() {
    let days = 7;
    let slots_per_day = 24; // hourly decisions
    let seed = 2021;
    let instance = workloads::scenario::diurnal_cpu_gpu(6, 2, days, slots_per_day, seed);
    let oracle = Dispatcher::new();
    println!(
        "fleet: 6 CPU nodes + 2 GPU nodes; horizon {} slots ({} days, hourly)",
        instance.horizon(),
        days
    );
    println!(
        "load: diurnal + noise, peak {:.1}, mean {:.1}\n",
        instance.loads().iter().cloned().fold(0.0, f64::max),
        instance.loads().iter().sum::<f64>() / instance.horizon() as f64
    );

    let opt = offline::solve(&instance, &oracle, DpOptions::default());

    let mut contenders: Vec<Box<dyn OnlineAlgorithm>> = vec![
        Box::new(AlgorithmA::new(&instance, oracle, Default::default())),
        Box::new(AllOn),
        Box::new(Myopic::new(oracle, false)),
        Box::new(Myopic::new(oracle, true)),
        Box::new(ReactiveTimeout::with_ski_rental_timeouts(oracle, &instance)),
    ];

    println!(
        "{:<22} {:>10} {:>8} {:>10} {:>10}",
        "policy", "cost", "ratio", "operating", "switching"
    );
    println!("{}", "-".repeat(64));
    println!(
        "{:<22} {:>10.1} {:>8.3} {:>10.1} {:>10.1}",
        "OPT (clairvoyant)",
        opt.cost,
        1.0,
        rsz_core_operating(&instance, &opt.schedule, &oracle),
        opt.schedule.switching_cost(&instance)
    );
    for algo in contenders.iter_mut() {
        let run = online::run(&instance, algo.as_mut(), &oracle);
        run.schedule.check_feasible(&instance).expect("feasible");
        println!(
            "{:<22} {:>10.1} {:>8.3} {:>10.1} {:>10.1}",
            run.name,
            run.cost(),
            run.ratio_vs(opt.cost),
            run.breakdown.operating,
            run.breakdown.switching
        );
    }
    if let Some((cfg, cost)) = best_static(&instance, &oracle) {
        println!("{:<22} {:>10.1} {:>8.3}", format!("best static {cfg}"), cost, cost / opt.cost);
    }

    println!("\nAlgorithm A follows the prefix optimum with ski-rental power-downs:");
    println!("it avoids both the always-on idle waste and the reactive policy's");
    println!("switching thrash, with a proven (2d+1) worst-case guarantee.");
}

fn rsz_core_operating(instance: &Instance, schedule: &Schedule, oracle: &Dispatcher) -> f64 {
    heterogeneous_rightsizing::core::objective::operating_cost(instance, schedule, oracle)
}
