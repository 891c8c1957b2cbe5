//! Exhaustive schedule enumeration — the ground-truth oracle for tiny
//! instances.
//!
//! Enumerates all `|M|^T` feasible schedules and returns the cheapest.
//! Exponential; only usable for the miniature instances the test suites
//! use to validate the DP and the graph algorithm.

use rsz_core::{Config, GtOracle, Instance, Schedule};

/// Result of brute-force enumeration.
#[derive(Clone, Debug)]
pub struct BruteResult {
    /// Optimal cost.
    pub cost: f64,
    /// An optimal schedule.
    pub schedule: Schedule,
    /// Number of complete schedules evaluated.
    pub evaluated: u64,
}

/// Enumerate every feasible schedule of `instance` and return an optimum.
///
/// # Panics
/// Panics if the search space exceeds ~10⁸ schedule prefixes (guard
/// against accidental use on non-tiny instances).
#[must_use]
pub fn solve(instance: &Instance, oracle: &dyn GtOracle) -> BruteResult {
    let d = instance.num_types();
    let tt = instance.horizon();
    let space: f64 = (0..tt)
        .map(|t| (0..d).map(|j| f64::from(instance.server_count(t, j)) + 1.0).product::<f64>())
        .product();
    assert!(space <= 1e8, "brute force restricted to tiny instances, got |space| ≈ {space:e}");

    // Pre-compute per-slot admissible configs and their g_t values.
    let per_slot: Vec<Vec<(Config, f64)>> = (0..tt)
        .map(|t| {
            enumerate_configs(&instance.server_counts_at(t))
                .into_iter()
                .filter(|x| x.can_serve(instance.types(), instance.load(t)))
                .map(|x| {
                    let g = oracle.g(instance, t, x.counts());
                    (x, g)
                })
                .collect()
        })
        .collect();

    let mut best_cost = f64::INFINITY;
    let mut best: Vec<usize> = Vec::new();
    let mut choice: Vec<usize> = vec![0; tt];
    let mut evaluated = 0u64;
    search(
        instance,
        &per_slot,
        0,
        &Config::zeros(d),
        0.0,
        &mut choice,
        &mut best_cost,
        &mut best,
        &mut evaluated,
    );
    let schedule =
        Schedule::new(best.iter().enumerate().map(|(t, &i)| per_slot[t][i].0.clone()).collect());
    BruteResult { cost: best_cost, schedule, evaluated }
}

#[allow(clippy::too_many_arguments)]
fn search(
    instance: &Instance,
    per_slot: &[Vec<(Config, f64)>],
    t: usize,
    prev: &Config,
    cost_so_far: f64,
    choice: &mut Vec<usize>,
    best_cost: &mut f64,
    best: &mut Vec<usize>,
    evaluated: &mut u64,
) {
    if cost_so_far >= *best_cost {
        return; // branch-and-bound: costs only grow
    }
    if t == per_slot.len() {
        *evaluated += 1;
        *best_cost = cost_so_far;
        *best = choice.clone();
        return;
    }
    for (i, (x, g)) in per_slot[t].iter().enumerate() {
        let step = g + prev.switching_cost_to(x, instance.types());
        choice[t] = i;
        search(
            instance,
            per_slot,
            t + 1,
            x,
            cost_so_far + step,
            choice,
            best_cost,
            best,
            evaluated,
        );
    }
}

/// All configurations `0 ≤ x_j ≤ bounds_j`.
#[must_use]
pub fn enumerate_configs(bounds: &[u32]) -> Vec<Config> {
    let mut out = Vec::new();
    let mut cur = vec![0u32; bounds.len()];
    loop {
        out.push(Config::new(cur.clone()));
        // odometer increment
        let mut j = bounds.len();
        loop {
            if j == 0 {
                return out;
            }
            j -= 1;
            if cur[j] < bounds[j] {
                cur[j] += 1;
                for c in &mut cur[j + 1..] {
                    *c = 0;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{solve as dp_solve, DpOptions};
    use rsz_core::{CostModel, ServerType};
    use rsz_dispatch::Dispatcher;

    #[test]
    fn enumerate_counts() {
        assert_eq!(enumerate_configs(&[2]).len(), 3);
        assert_eq!(enumerate_configs(&[1, 2]).len(), 6);
        assert_eq!(enumerate_configs(&[0, 0, 0]).len(), 1);
    }

    #[test]
    fn brute_matches_dp_on_small_instances() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let oracle = Dispatcher::new();
        for trial in 0..15 {
            let d = rng.gen_range(1..=2);
            let tt = rng.gen_range(1..=4);
            let types: Vec<ServerType> = (0..d)
                .map(|j| {
                    ServerType::new(
                        format!("t{j}"),
                        rng.gen_range(1..=2),
                        rng.gen_range(0.5..4.0),
                        rng.gen_range(1.0..3.0),
                        CostModel::linear(rng.gen_range(0.1..2.0), rng.gen_range(0.0..2.0)),
                    )
                })
                .collect();
            let max_cap: f64 = types.iter().map(ServerType::fleet_capacity).sum();
            let loads: Vec<f64> = (0..tt).map(|_| rng.gen_range(0.0..max_cap)).collect();
            let inst = Instance::builder().server_types(types).loads(loads).build().unwrap();
            let brute = solve(&inst, &oracle);
            let dp = dp_solve(&inst, &oracle, DpOptions { threads: Some(1), ..Default::default() });
            assert!(
                (brute.cost - dp.cost).abs() < 1e-9,
                "trial {trial}: brute {} vs dp {}",
                brute.cost,
                dp.cost
            );
            brute.schedule.check_feasible(&inst).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "tiny")]
    fn refuses_large_spaces() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 100, 1.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![1.0; 20])
            .build()
            .unwrap();
        let _ = solve(&inst, &Dispatcher::new());
    }
}
