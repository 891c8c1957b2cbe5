//! Driving online algorithms over instances.

use rsz_core::objective::{evaluate, CostBreakdown};
use rsz_core::{Config, GtOracle, Instance, Schedule};

/// An online right-sizing algorithm.
///
/// The runner calls [`OnlineAlgorithm::decide`] once per slot in order.
/// Implementations must only inspect instance data for slots `≤ t`
/// (loads, cost functions, fleet sizes): the instance object carries the
/// full future for convenience, but peeking would forfeit the online
/// guarantee. [`run_with_prefix_revelation`] exists to catch violations:
/// it hands the algorithm physically truncated instances.
pub trait OnlineAlgorithm {
    /// Short display name ("A", "B(ε)", "all-on", …).
    fn name(&self) -> String;

    /// Choose the configuration for slot `t`.
    fn decide(&mut self, instance: &Instance, t: usize) -> Config;
}

/// The outcome of an online run.
#[derive(Clone, Debug)]
pub struct OnlineRun {
    /// Display name of the algorithm that produced the run.
    pub name: String,
    /// The schedule the algorithm committed to.
    pub schedule: Schedule,
    /// Its cost, split into operating and switching parts.
    pub breakdown: CostBreakdown,
}

impl OnlineRun {
    /// Total cost of the run.
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.breakdown.total()
    }

    /// Empirical competitive ratio against a given optimum.
    ///
    /// Returns 1 when both costs are zero (empty workloads).
    #[must_use]
    pub fn ratio_vs(&self, opt_cost: f64) -> f64 {
        if opt_cost == 0.0 {
            if self.cost() == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.cost() / opt_cost
        }
    }
}

/// Run `algo` over the whole instance and price the result.
pub fn run(
    instance: &Instance,
    algo: &mut dyn OnlineAlgorithm,
    oracle: &dyn GtOracle,
) -> OnlineRun {
    let mut schedule = Schedule::empty();
    for t in 0..instance.horizon() {
        schedule.push(algo.decide(instance, t));
    }
    let breakdown = evaluate(instance, &schedule, oracle);
    OnlineRun { name: algo.name(), schedule, breakdown }
}

/// Per-decision latency profile of an online run — the numbers a
/// cluster controller actually cares about ([`run_instrumented`]).
#[derive(Clone, Debug)]
pub struct LatencyProfile {
    /// One wall-clock sample per slot, in seconds, in slot order.
    samples: Vec<f64>,
}

impl LatencyProfile {
    /// Profile over raw per-decision samples (seconds, slot order).
    #[must_use]
    pub fn new(samples: Vec<f64>) -> Self {
        Self { samples }
    }

    /// The raw samples, in slot order.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The `q`-quantile (nearest-rank, `0 ≤ q ≤ 1`) in seconds; 0 for an
    /// empty profile.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let [v] = Self::quantiles(&self.samples, [q]);
        v
    }

    /// Several nearest-rank quantiles of `samples` (each `0 ≤ q ≤ 1`)
    /// from one copy: the same values as one [`LatencyProfile::quantile`]
    /// call per `q`, and bit for bit the entries of the copy sorted by
    /// [`f64::total_cmp`]. No sort runs: the largest rank is selected
    /// first, then each smaller one inside the part left of the previous
    /// selection, so `N` quantiles of `n` samples cost `O(N·n)`. All 0
    /// for no samples.
    #[must_use]
    pub fn quantiles<const N: usize>(samples: &[f64], qs: [f64; N]) -> [f64; N] {
        let n = samples.len();
        if n == 0 {
            return [0.0; N];
        }
        let ranks = qs.map(|q| ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n));
        let mut order: [usize; N] = std::array::from_fn(|i| i);
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(ranks[i]));
        let mut copy = samples.to_vec();
        let mut out = [0.0; N];
        // `copy[..end]` holds the `end` smallest samples.
        let mut end = n;
        for i in order {
            let (_, &mut v, _) = copy[..end].select_nth_unstable_by(ranks[i] - 1, f64::total_cmp);
            out[i] = v;
            end = ranks[i];
        }
        out
    }

    /// Mean per-decision latency in seconds (0 for an empty profile).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Worst per-decision latency in seconds.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// `(p50, p90, p99, max, mean)` in microseconds — the report row the
    /// CLI and the `online_engine` bench print.
    #[must_use]
    pub fn summary_us(&self) -> (f64, f64, f64, f64, f64) {
        let [p50, p90, p99] = Self::quantiles(&self.samples, [0.50, 0.90, 0.99]);
        (p50 * 1e6, p90 * 1e6, p99 * 1e6, self.max() * 1e6, self.mean() * 1e6)
    }
}

/// [`run`] with a wall clock around every [`OnlineAlgorithm::decide`]
/// call: returns the run plus its per-decision [`LatencyProfile`].
pub fn run_instrumented(
    instance: &Instance,
    algo: &mut dyn OnlineAlgorithm,
    oracle: &dyn GtOracle,
) -> (OnlineRun, LatencyProfile) {
    let mut schedule = Schedule::empty();
    let mut samples = Vec::with_capacity(instance.horizon());
    for t in 0..instance.horizon() {
        let start = std::time::Instant::now();
        let decision = algo.decide(instance, t);
        samples.push(start.elapsed().as_secs_f64());
        schedule.push(decision);
    }
    let breakdown = evaluate(instance, &schedule, oracle);
    (OnlineRun { name: algo.name(), schedule, breakdown }, LatencyProfile::new(samples))
}

/// Run `algo` handing it only the *revealed prefix* `I_{t+1}` at each
/// step: any attempt to read beyond slot `t` panics on the truncated
/// instance. Slower (clones per slot); used by tests to certify that an
/// implementation is genuinely online.
pub fn run_with_prefix_revelation(
    instance: &Instance,
    algo: &mut dyn OnlineAlgorithm,
    oracle: &dyn GtOracle,
) -> OnlineRun {
    let mut schedule = Schedule::empty();
    for t in 0..instance.horizon() {
        let revealed = instance.truncated(t + 1);
        schedule.push(algo.decide(&revealed, t));
    }
    let breakdown = evaluate(instance, &schedule, oracle);
    OnlineRun { name: algo.name(), schedule, breakdown }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsz_core::{CostModel, ServerType};
    use rsz_dispatch::Dispatcher;

    /// Trivial always-max algorithm for runner plumbing tests.
    struct AllOn;
    impl OnlineAlgorithm for AllOn {
        fn name(&self) -> String {
            "all-on".into()
        }
        fn decide(&mut self, instance: &Instance, t: usize) -> Config {
            Config::new(instance.server_counts_at(t))
        }
    }

    fn instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 2, 3.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![1.0, 2.0, 0.0])
            .build()
            .unwrap()
    }

    #[test]
    fn runner_collects_schedule_and_costs() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let run = run(&inst, &mut AllOn, &oracle);
        assert_eq!(run.schedule.len(), 3);
        assert_eq!(run.schedule.count(0, 0), 2);
        // switching: 2 power-ups once (6); operating: 2 servers × 3 slots × idle 1
        assert!((run.cost() - 12.0).abs() < 1e-9);
        assert_eq!(run.name, "all-on");
    }

    #[test]
    fn ratio_handles_zero_opt() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let r = run(&inst, &mut AllOn, &oracle);
        assert!((r.ratio_vs(6.0) - 2.0).abs() < 1e-12);
        assert_eq!(r.ratio_vs(0.0), f64::INFINITY);
    }

    #[test]
    fn prefix_revelation_matches_full_run_for_online_algo() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let full = run(&inst, &mut AllOn, &oracle);
        let revealed = run_with_prefix_revelation(&inst, &mut AllOn, &oracle);
        assert_eq!(full.schedule, revealed.schedule);
    }

    #[test]
    fn prefix_revelation_matches_full_run_for_algorithm_a() {
        // Prefix revelation hands the algorithm truncated clones; the
        // priced-slot pool is keyed compatibly with them.
        use crate::algo_a::{AOptions, AlgorithmA};
        let inst = Instance::builder()
            .server_type(ServerType::new("s", 3, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .server_type(ServerType::new("f", 2, 5.0, 3.0, CostModel::power(1.0, 0.5, 2.0)))
            .loads(vec![2.0, 5.0, 2.0, 0.0, 5.0, 2.0, 5.0, 0.0])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let mut a1 = AlgorithmA::new(&inst, oracle, AOptions::default());
        let want = run(&inst, &mut a1, &oracle);
        let mut a2 = AlgorithmA::new(&inst, oracle, AOptions::default());
        let revealed = run_with_prefix_revelation(&inst, &mut a2, &oracle);
        assert_eq!(want.schedule, revealed.schedule);
        let stats =
            crate::Controller::engine_stats(&a2).expect("A prices through its prefix solver");
        assert!(stats.pool_hits > 0, "recurring loads must hit the pool");
    }

    #[test]
    fn quantiles_equal_the_per_quantile_calls() {
        // Scrambled order with ties, the size of the daemon's window.
        let samples: Vec<f64> = (0..4096u32)
            .map(|i| f64::from(i.wrapping_mul(2_654_435_761) >> 7 & 1023) * 1e-6)
            .collect();
        let profile = LatencyProfile::new(samples.clone());
        let qs = [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0, -0.5, 1.5];
        let all = LatencyProfile::quantiles(&samples, qs);
        for (q, v) in qs.iter().zip(all) {
            assert_eq!(v.to_bits(), profile.quantile(*q).to_bits(), "q {q}");
        }
        let (p50, p90, p99, _, _) = profile.summary_us();
        assert_eq!((p50, p90, p99), (all[3] * 1e6, all[4] * 1e6, all[5] * 1e6));
        assert_eq!(LatencyProfile::quantiles(&[], [0.5, 0.99]), [0.0, 0.0]);
        assert_eq!(LatencyProfile::new(Vec::new()).quantile(0.5), 0.0);
    }

    mod selection {
        use super::LatencyProfile;
        use proptest::prelude::*;

        /// The reference: every sample sorted, each rank read off.
        fn sorted_quantiles<const N: usize>(samples: &[f64], qs: [f64; N]) -> [f64; N] {
            if samples.is_empty() {
                return [0.0; N];
            }
            let mut sorted = samples.to_vec();
            sorted.sort_by(f64::total_cmp);
            let n = sorted.len();
            qs.map(|q| sorted[((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n) - 1])
        }

        /// A sample drawn from few values, so duplicates are common,
        /// with both zeros among them.
        fn sample() -> impl Strategy<Value = f64> {
            (0u32..12, 0.0..1.0_f64).prop_map(|(k, x)| match k {
                0 => 0.0,
                1 => -0.0,
                2..=5 => f64::from(k) * 1e-6,
                _ => x * 1e-3,
            })
        }

        fn q() -> impl Strategy<Value = f64> {
            prop_oneof![Just(0.0), Just(1.0), Just(0.5), Just(0.99), -0.5..1.5_f64]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn selection_equals_the_sort_bit_for_bit(
                samples in prop::collection::vec(sample(), 1..=300),
                qs in (q(), q(), q(), q()),
            ) {
                let qs = [qs.0, qs.1, qs.2, qs.3];
                let got = LatencyProfile::quantiles(&samples, qs);
                let want = sorted_quantiles(&samples, qs);
                for k in 0..4 {
                    prop_assert_eq!(got[k].to_bits(), want[k].to_bits());
                }
                let [p50, p99] = LatencyProfile::quantiles(&samples, [0.5, 0.99]);
                prop_assert_eq!(
                    [p50.to_bits(), p99.to_bits()],
                    sorted_quantiles(&samples, [0.5, 0.99]).map(f64::to_bits)
                );
            }

            #[test]
            fn a_single_sample_is_every_quantile(x in sample(), q in q()) {
                prop_assert_eq!(LatencyProfile::quantiles(&[x], [q])[0].to_bits(), x.to_bits());
            }
        }
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        // The q-quantile is the smallest sample with at least ⌈q·n⌉
        // samples at or below it (and at least one).
        let samples: Vec<f64> = (0..97u32).map(|i| f64::from(i * 31 % 97 / 3)).collect();
        let qs = [0.0, 0.01, 0.3, 0.5, 0.77, 0.99, 1.0];
        for (q, v) in qs.iter().zip(LatencyProfile::quantiles(&samples, qs)) {
            let need = ((q * samples.len() as f64).ceil() as usize).max(1);
            let at_or_below = |x: f64| samples.iter().filter(|&&y| y <= x).count();
            let want = samples
                .iter()
                .copied()
                .filter(|&x| at_or_below(x) >= need)
                .fold(f64::MAX, f64::min);
            assert_eq!(v, want, "q {q}");
        }
    }
}
