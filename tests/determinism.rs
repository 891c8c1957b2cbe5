//! Determinism: identical seeds produce identical instances, schedules
//! and costs — a prerequisite for reproducible experiments.

use heterogeneous_rightsizing::offline::dp::{solve, DpOptions};
use heterogeneous_rightsizing::online::algo_a::{AOptions, AlgorithmA};
use heterogeneous_rightsizing::online::algo_b::AlgorithmB;
use heterogeneous_rightsizing::online::runner::run;
use heterogeneous_rightsizing::prelude::*;
use heterogeneous_rightsizing::workloads::{scenario, stochastic};
use std::collections::HashMap;
use std::sync::Mutex;

#[test]
fn scenarios_reproducible() {
    for seed in [0u64, 1, 42, 0xDEAD] {
        let a = scenario::diurnal_cpu_gpu(4, 2, 2, 8, seed);
        let b = scenario::diurnal_cpu_gpu(4, 2, 2, 8, seed);
        assert_eq!(a.loads(), b.loads());
        let c = scenario::bursty_old_new(3, 3, 16, seed);
        let d = scenario::bursty_old_new(3, 3, 16, seed);
        assert_eq!(c.loads(), d.loads());
    }
}

#[test]
fn different_seeds_differ() {
    let a = stochastic::mmpp(64, 1.0, 9.0, 0.1, 0.3, 1.0, 1);
    let b = stochastic::mmpp(64, 1.0, 9.0, 0.1, 0.3, 1.0, 2);
    assert_ne!(a, b);
}

#[test]
fn offline_solver_is_deterministic() {
    let inst = scenario::bursty_old_new(3, 3, 20, 9);
    let oracle = Dispatcher::new();
    let r1 = solve(&inst, &oracle, DpOptions::default());
    let r2 = solve(&inst, &oracle, DpOptions::default());
    assert_eq!(r1.schedule, r2.schedule);
    assert_eq!(r1.cost, r2.cost);
    // One worker vs all cores must agree too (tie-breaking happens in
    // argmin/backtrack which are sequential either way).
    let r3 = solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
    assert_eq!(r1.schedule, r3.schedule);
}

/// An external memoizing `g_t` oracle: answers repeated `(t, λ, scale,
/// x)` queries from a memo and says so through
/// [`GtOracle::is_memoizing`]. Its values are the plain dispatcher's cold
/// solves, so they may differ from the dispatcher's warm-started sweeps
/// by the documented relative `1e-9`.
struct Memo {
    inner: Dispatcher,
    memo: Mutex<HashMap<MemoKey, f64>>,
}

/// `(t, λ bits, cost-scale bits, x)`.
type MemoKey = (usize, u64, u64, Vec<u32>);

impl Memo {
    fn new() -> Self {
        Self { inner: Dispatcher::new(), memo: Mutex::new(HashMap::new()) }
    }

    fn entries(&self) -> usize {
        self.memo.lock().unwrap().len()
    }
}

impl GtOracle for Memo {
    fn g(&self, instance: &Instance, t: usize, x: &[u32]) -> f64 {
        self.g_scaled(instance, t, x, instance.load(t), 1.0)
    }

    fn g_scaled(
        &self,
        instance: &Instance,
        t: usize,
        x: &[u32],
        lambda: f64,
        cost_scale: f64,
    ) -> f64 {
        let key = (t, lambda.to_bits(), cost_scale.to_bits(), x.to_vec());
        if let Some(&v) = self.memo.lock().unwrap().get(&key) {
            return v;
        }
        let v = self.inner.g_scaled(instance, t, x, lambda, cost_scale);
        self.memo.lock().unwrap().insert(key, v);
        v
    }

    fn is_memoizing(&self) -> bool {
        true
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(1.0)
}

#[test]
fn schedules_identical_across_parallelism_and_caching() {
    // The recovered *schedule* — not just the cost — must be invariant
    // under the pricing pool's worker count, the recovery policy and an
    // external memoizing oracle, on a non-trivial dispatch workload
    // (power costs force the KKT path). Each slot is priced by one
    // sequential sweep whatever the worker count, and checkpoint replays
    // are bit-identical to the forward pass, so with the same oracle even
    // the cost bits agree. The memo's cold solves sit within the sweep
    // parity bound of the plain dispatcher's warm sweeps.
    use heterogeneous_rightsizing::offline::RecoveryMode;
    let inst = scenario::diurnal_cpu_gpu(5, 2, 2, 12, 21);
    let plain = Dispatcher::new();
    let reference = solve(&inst, &plain, DpOptions { threads: Some(1), ..Default::default() });
    let memo_reference =
        solve(&inst, &Memo::new(), DpOptions { threads: Some(1), ..Default::default() });
    assert_eq!(reference.schedule, memo_reference.schedule, "memo vs plain");
    assert!(
        close(reference.cost, memo_reference.cost),
        "{} vs {}",
        reference.cost,
        memo_reference.cost
    );
    for threads in [Some(1), Some(2), None] {
        for recovery in [RecoveryMode::Auto, RecoveryMode::Materialized, RecoveryMode::Checkpointed]
        {
            let opts = DpOptions { threads, recovery, ..Default::default() };
            let tag = format!("threads={threads:?} {recovery:?}");
            let uncached = solve(&inst, &plain, opts);
            assert_eq!(reference.schedule, uncached.schedule, "{tag} uncached");
            assert_eq!(reference.cost.to_bits(), uncached.cost.to_bits(), "{tag} uncached");
            let memo = Memo::new();
            let cold = solve(&inst, &memo, opts);
            assert!(memo.entries() > 0, "{tag}: the memo was never consulted");
            assert_eq!(reference.schedule, cold.schedule, "{tag} cold memo");
            assert_eq!(memo_reference.cost.to_bits(), cold.cost.to_bits(), "{tag} cold memo");
            // A second solve over the now-warm memo stays identical too.
            let warm = solve(&inst, &memo, opts);
            assert_eq!(reference.schedule, warm.schedule, "{tag} warm memo");
            assert_eq!(cold.cost.to_bits(), warm.cost.to_bits(), "{tag} warm memo");
        }
    }
}

#[test]
fn schedules_identical_across_pipeline_parallelism_and_caching() {
    // Every entry point into the slot-batched pipeline — the
    // `pipelined()` alias and the refined corridor solve — recovers the
    // SAME schedule across {threads} × {plain, memoizing oracle}, and its
    // cost matches the §4.1 graph formulation within the sweep parity
    // bound (relative 1e-9).
    use heterogeneous_rightsizing::offline::graph;
    let inst = scenario::diurnal_cpu_gpu(5, 2, 2, 12, 21);
    let plain = Dispatcher::new();
    let reference = solve(&inst, &plain, DpOptions { threads: Some(1), ..DpOptions::pipelined() });
    let shortest_path = graph::solve(&inst, &plain, GridMode::Full);
    assert!(
        close(shortest_path.cost, reference.cost),
        "pipeline {} vs graph {}",
        reference.cost,
        shortest_path.cost
    );
    for (entry, base) in [("pipelined", DpOptions::pipelined()), ("refined", DpOptions::refined())]
    {
        for threads in [Some(1), Some(2), None] {
            let opts = DpOptions { threads, ..base };
            let tag = format!("{entry} threads={threads:?}");
            let uncached = solve(&inst, &plain, opts);
            assert_eq!(reference.schedule, uncached.schedule, "{tag} uncached");
            assert!(
                close(reference.cost, uncached.cost),
                "{tag}: {} vs {}",
                reference.cost,
                uncached.cost
            );
            let cached = solve(&inst, &Memo::new(), opts);
            assert_eq!(reference.schedule, cached.schedule, "{tag} memo");
            assert!(
                close(reference.cost, cached.cost),
                "{tag} memo: {} vs {}",
                reference.cost,
                cached.cost
            );
        }
    }
}

#[test]
fn online_algorithms_are_deterministic() {
    let inst = scenario::electricity_market(5, 24, 12, 13);
    let oracle = Dispatcher::new();
    let run1 = {
        let mut a = AlgorithmB::new(&inst, oracle, AOptions::default());
        run(&inst, &mut a, &oracle)
    };
    let run2 = {
        let mut a = AlgorithmB::new(&inst, oracle, AOptions::default());
        run(&inst, &mut a, &oracle)
    };
    assert_eq!(run1.schedule, run2.schedule);

    let ti = scenario::diurnal_cpu_gpu(4, 2, 1, 12, 3);
    let ra = {
        let mut a = AlgorithmA::new(&ti, oracle, AOptions::default());
        run(&ti, &mut a, &oracle)
    };
    let rb = {
        let mut a = AlgorithmA::new(&ti, oracle, AOptions::default());
        run(&ti, &mut a, &oracle)
    };
    assert_eq!(ra.schedule, rb.schedule);
}

#[test]
fn experiment_reports_are_reproducible() {
    use rsz_bench_shim::*;
    let cfg = Config { quick: true, seed: 77 };
    assert_eq!(cfg.seed, 77); // the shim's fig5 is seed-independent by design
    let a = fig5(&cfg);
    let b = fig5(&cfg);
    assert_eq!(a, b);
}

/// Minimal shim re-running one deterministic experiment through the same
/// public APIs the bench crate uses (the bench crate itself is not a
/// dependency of the facade, so mirror its fig5 core here).
mod rsz_bench_shim {
    use heterogeneous_rightsizing::offline::dp::{solve, DpOptions};
    use heterogeneous_rightsizing::offline::rounding::corridor_schedule;
    use heterogeneous_rightsizing::prelude::*;

    pub struct Config {
        pub quick: bool,
        pub seed: u64,
    }

    pub fn fig5(cfg: &Config) -> String {
        let len = if cfg.quick { 12 } else { 17 };
        let loads: Vec<f64> = (0..len)
            .map(|t| {
                let phase = t as f64 / len as f64 * std::f64::consts::TAU;
                (5.0 + 5.0 * phase.sin()).clamp(0.0, 10.0)
            })
            .collect();
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 10, 2.0, 1.0, CostModel::linear(0.4, 1.0)))
            .loads(loads)
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let opt = solve(&inst, &oracle, DpOptions::default());
        let witness = corridor_schedule(&inst, &opt.schedule, 2.0);
        format!("{} | {} | {}", opt.cost, opt.schedule, witness)
    }
}
