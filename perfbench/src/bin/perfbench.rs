//! End-to-end command: one workload, untraced, printing the metrics
//! listed under `end_to_end` in `BENCHMARK.json` (plus report-only lines)
//! and the one-line JSON result. Set-up and CPU times are scaled to the
//! reference host's speed by calibration passes run between blocks of
//! the workload (see `perfbench::calibrate`); the raw figures are printed
//! beside them.
//!
//! ```text
//! perfbench --workload serve_fanout --seed 7 --seconds 10 --state-dir .bench_state
//! ```

use std::process::exit;
use std::time::Instant;

use perfbench::calibrate::{at_reference, Calibration};
use perfbench::cli::{self, Args};
use perfbench::gen::{self, ServePlan};
use perfbench::report::{self, Checks, Metric};
use perfbench::serve::{self, Reference, Untraced};
use perfbench::stats::{median, quantile};
use perfbench::{offline, peak_rss_mb};

fn main() {
    let args = cli::parse().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2)
    });
    let cpu = perfbench::pin_to_one_cpu();
    eprintln!(
        "perfbench: pinned to CPU {cpu:?}, available parallelism {:?}",
        std::thread::available_parallelism()
    );
    let code = match args.workload.as_str() {
        "serve_long_horizon" => {
            serve_workload(&args, &gen::serve_long_horizon(args.seed, args.size))
        }
        "serve_fanout" => serve_workload(&args, &gen::serve_fanout(args.seed, args.size)),
        "offline_plan" => offline_workload(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            2
        }
    };
    exit(code)
}

/// Repeat fresh rounds until `--seconds` have passed; report the median
/// round. Times are scaled to the reference host's speed by the round's
/// calibration passes (see `perfbench::calibrate`).
fn serve_workload(args: &Args, plan: &ServePlan) -> i32 {
    let reference = Reference::new(plan).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2)
    });
    let mut calibration = Calibration::new();
    let mut checks = Checks::default();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed() < args.seconds {
        // Extra set-ups right before each round sample set-up cost across
        // the run; the round's passes scale them.
        let mut batch: Vec<f64> = (0..plan.setups)
            .map(|i| {
                let dir = args.state_dir.join(format!("setup{}-{i}", rounds.len()));
                serve::setup(plan, &reference, &dir, &mut checks).1
            })
            .collect();
        let dir = args.state_dir.join(format!("round{}", rounds.len()));
        let r = serve::round(plan, &reference, &dir, &mut checks, &mut calibration, &mut Untraced);
        batch.push(r.setup_s);
        setups.extend(batch.iter().map(|&t| at_reference(t, r.pass_s)));
        raw_setups.extend(batch);
        eprintln!(
            "round {}: {:.2} us CPU per decision ({:.2} at reference speed, pass {:.3} ms), \
             {:.0} decisions/s, p50 {:.2} us, p99 {:.1} us, setup {:.6} s, recovery {:.4} s",
            rounds.len(),
            r.phase_cpu_s / r.decisions as f64 * 1e6,
            at_reference(r.phase_cpu_s, r.pass_s) / r.decisions as f64 * 1e6,
            r.pass_s * 1e3,
            r.decisions as f64 / r.phase_s,
            r.tick_p50_s * 1e6,
            r.tick_p99_s * 1e6,
            r.setup_s,
            r.recovery_s,
        );
        // The last scrape is only read by the traced run.
        rounds.push(serve::Round { metrics: None, ..r });
    }

    let n = rounds.len();
    let per_round =
        |f: &dyn Fn(&serve::Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let ticks: usize = rounds.iter().map(|r| r.ticks).sum();
    let scrapes: usize = rounds.iter().map(|r| r.scrapes).sum();
    let decisions: usize = rounds.iter().map(|r| r.decisions).sum();
    println!(
        "perfbench {}: {n} rounds, {} tenants x {} ticks",
        args.workload,
        plan.tenants.len(),
        plan.horizon
    );
    let extra = [
        Metric::new(
            "decision_cpu_raw_us",
            "us",
            per_round(&|r| r.phase_cpu_s / r.decisions as f64) * 1e6,
            decisions,
        ),
        Metric::new("pass_ms", "ms", per_round(&|r| r.pass_s) * 1e3, n),
        Metric::new("setup_raw_s", "s", median(&raw_setups), raw_setups.len()),
        Metric::new("decisions_per_s", "1/s", per_round(&|r| r.decisions as f64 / r.phase_s), n),
        Metric::new("latency_p50_ms", "ms", per_round(&|r| r.tick_p50_s) * 1e3, ticks),
        Metric::new("latency_p99_ms", "ms", per_round(&|r| r.tick_p99_s) * 1e3, ticks),
        Metric::new("scrape_ms", "ms", per_round(&|r| r.scrape_s) * 1e3, scrapes),
        Metric::new("recovery_s", "s", per_round(&|r| r.recovery_s), n),
        Metric::new("tick_growth", "ratio", per_round(&|r| r.tick_growth), ticks / 5),
    ];
    for m in &extra {
        report::line(&args.workload, m);
    }
    let metrics = [
        Metric::new(
            "decision_cpu_us",
            "us",
            per_round(&|r| at_reference(r.phase_cpu_s, r.pass_s) / r.decisions as f64) * 1e6,
            decisions,
        ),
        Metric::new("setup_s", "s", median(&setups), setups.len()),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb(), 1),
    ];
    report::finish(&args.workload, checks, &metrics, true)
}

/// Offline set-ups timed before, between and after the two solves of
/// each pair.
const OFFLINE_SETUPS: usize = 10;

/// Calibration passes at each of those three points.
const OFFLINE_PASSES: usize = 8;

/// Solve exact + approximate pairs until `--seconds` have passed, with
/// calibration passes and set-ups in between; report medians. Times are
/// scaled to the reference host's speed by the passes around them.
fn offline_workload(args: &Args) -> i32 {
    let (types, loads) = gen::offline_plan(args.seed, args.size);
    let (instance, _) = offline::setup(&types, &loads);
    let mut calibration = Calibration::new();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut checks = Checks::default();
    let mut pairs: Vec<(offline::Solves, f64)> = Vec::new();
    let start = Instant::now();
    while pairs.is_empty() || start.elapsed() < args.seconds {
        let mut passes = Vec::new();
        let pair = offline::solve_pair(&instance, &mut checks, || {
            let pass_s = (0..OFFLINE_PASSES).map(|_| calibration.pass_cpu_s()).sum::<f64>()
                / OFFLINE_PASSES as f64;
            passes.push(pass_s);
            for _ in 0..OFFLINE_SETUPS {
                let secs = offline::setup(&types, &loads).1;
                setups.push(at_reference(secs, pass_s));
                raw_setups.push(secs);
            }
        });
        let pass_s = passes.iter().sum::<f64>() / passes.len() as f64;
        let per_decision = pair.cpu_s / (2 * instance.horizon()) as f64;
        eprintln!(
            "pair {}: exact {:.3} s, approx {:.3} s, {:.0} us CPU per decision \
             ({:.0} at reference speed, pass {:.3} ms)",
            pairs.len(),
            pair.exact_s,
            pair.approx_s,
            per_decision * 1e6,
            at_reference(per_decision, pass_s) * 1e6,
            pass_s * 1e3,
        );
        if let Some((first, _)) = pairs.first() {
            checks.check(
                pair.exact_cost.to_bits() == first.exact_cost.to_bits()
                    && pair.approx_cost.to_bits() == first.approx_cost.to_bits(),
                || "repeated solves of one instance disagree".into(),
            );
        }
        pairs.push((pair, pass_s));
    }

    let n = pairs.len();
    let solves: Vec<f64> = pairs.iter().flat_map(|(p, _)| [p.exact_s, p.approx_s]).collect();
    let decisions = 2 * instance.horizon();
    let per_pair = |f: &dyn Fn(&offline::Solves, f64) -> f64| {
        median(&pairs.iter().map(|(p, pass_s)| f(p, *pass_s)).collect::<Vec<_>>())
    };
    let (first, _) = &pairs[0];
    let extra = [
        Metric::new(
            "decision_cpu_raw_us",
            "us",
            per_pair(&|p, _| p.cpu_s / decisions as f64) * 1e6,
            n * decisions,
        ),
        Metric::new("pass_ms", "ms", per_pair(&|_, pass_s| pass_s) * 1e3, n),
        Metric::new("setup_raw_s", "s", median(&raw_setups), raw_setups.len()),
        Metric::new("solve_s", "s", per_pair(&|p, _| p.exact_s), n),
        Metric::new("approx_solve_s", "s", per_pair(&|p, _| p.approx_s), n),
        Metric::new("approx_cost_ratio", "ratio", first.approx_cost / first.exact_cost, 1),
        Metric::new(
            "decisions_per_s",
            "1/s",
            per_pair(&|p, _| decisions as f64 / (p.exact_s + p.approx_s)),
            n,
        ),
        Metric::new("latency_p50_ms", "ms", median(&solves) * 1e3, solves.len()),
        Metric::new("latency_p99_ms", "ms", quantile(&solves, 0.99) * 1e3, solves.len()),
    ];
    println!(
        "perfbench {}: {n} solve pairs, {} slots, d = {}",
        args.workload,
        instance.horizon(),
        instance.num_types()
    );
    for m in &extra {
        report::line(&args.workload, m);
    }
    let metrics = [
        Metric::new(
            "decision_cpu_us",
            "us",
            per_pair(&|p, pass_s| at_reference(p.cpu_s, pass_s) / decisions as f64) * 1e6,
            n * decisions,
        ),
        Metric::new("setup_s", "s", median(&setups), setups.len()),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb(), 1),
    ];
    report::finish(&args.workload, checks, &metrics, true)
}
