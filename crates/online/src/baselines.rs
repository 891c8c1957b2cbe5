//! Practical baselines: the policies a data-center operator would deploy
//! without this paper.
//!
//! These are the comparison points of the motivation experiments
//! (`exp_baselines`): the paper's introduction argues that servers idle
//! at ~half peak power and that naive policies either waste energy
//! (always-on, static over-provisioning) or thrash switches (purely
//! reactive). None of these carries a competitive guarantee.

use rsz_core::{Config, GtOracle, Instance};
use rsz_offline::brute::enumerate_configs;

use crate::runner::OnlineAlgorithm;

/// Everything on, always: the no-management baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllOn;

impl OnlineAlgorithm for AllOn {
    fn name(&self) -> String {
        "all-on".into()
    }

    fn decide(&mut self, instance: &Instance, t: usize) -> Config {
        Config::new(instance.server_counts_at(t))
    }
}

/// Myopic best response: pick the configuration minimizing
/// `g_t(x) [+ switching from the previous state]` over every
/// configuration of the slot's fleet, ignoring the future.
///
/// With `count_switching = false` this is the purely reactive policy
/// (provision exactly for now, drop everything idle) — the thrashing
/// extreme. With `true` it is one-step lookahead.
#[derive(Debug)]
pub struct Myopic<O> {
    oracle: O,
    /// Include the power-up cost from the previous state in the argmin.
    pub count_switching: bool,
    prev: Option<Config>,
}

impl<O: GtOracle + Sync> Myopic<O> {
    /// A myopic policy.
    #[must_use]
    pub fn new(oracle: O, count_switching: bool) -> Self {
        Self { oracle, count_switching, prev: None }
    }
}

impl<O: GtOracle + Sync> OnlineAlgorithm for Myopic<O> {
    fn name(&self) -> String {
        if self.count_switching {
            "myopic+switch".into()
        } else {
            "reactive".into()
        }
    }

    fn decide(&mut self, instance: &Instance, t: usize) -> Config {
        let d = instance.num_types();
        let zero = Config::zeros(d);
        let prev = self.prev.clone().unwrap_or_else(|| zero.clone());
        let mut best: Option<(f64, u64, Config)> = None;
        for_each_config(instance, t, |x| {
            let mut cost = self.oracle.g(instance, t, x.counts());
            if !cost.is_finite() {
                return;
            }
            if self.count_switching {
                cost += prev.switching_cost_to(x, instance.types());
            }
            let tot = x.total();
            let better = match &best {
                None => true,
                Some((bc, bt, _)) => cost < *bc || (cost == *bc && tot < *bt),
            };
            if better {
                best = Some((cost, tot, x.clone()));
            }
        });
        let choice = best.expect("instance is feasible at every slot").2;
        self.prev = Some(choice.clone());
        choice
    }
}

/// Reactive provisioning with per-type power-down timeouts — the policy
/// real cluster managers ship (e.g. autoscaler cool-down): serve the
/// current load with the cheapest configuration, but keep recently needed
/// servers warm for `timeout_j` extra slots.
#[derive(Debug)]
pub struct ReactiveTimeout<O> {
    oracle: O,
    /// Idle slots a type-`j` server survives after last being needed.
    pub timeouts: Vec<usize>,
    /// History of needed counts per type (for the sliding-window max).
    needed: Vec<Vec<u32>>,
}

impl<O: GtOracle + Sync> ReactiveTimeout<O> {
    /// Reactive policy with the given per-type timeouts.
    #[must_use]
    pub fn new(oracle: O, timeouts: Vec<usize>) -> Self {
        Self { oracle, timeouts, needed: Vec::new() }
    }

    /// Ski-rental-informed timeouts `⌈β_j / l_j(0)⌉` (what the paper's
    /// Algorithm A proves out), making this baseline "timeout done right,
    /// tracking done naively".
    #[must_use]
    pub fn with_ski_rental_timeouts(oracle: O, instance: &Instance) -> Self {
        let timeouts = (0..instance.num_types())
            .map(|j| {
                let idle = instance.idle_cost(0, j);
                if idle <= 0.0 {
                    usize::MAX / 2
                } else {
                    (instance.switching_cost(j) / idle).ceil() as usize
                }
            })
            .collect();
        Self::new(oracle, timeouts)
    }
}

impl<O: GtOracle + Sync> OnlineAlgorithm for ReactiveTimeout<O> {
    fn name(&self) -> String {
        "reactive+timeout".into()
    }

    fn decide(&mut self, instance: &Instance, t: usize) -> Config {
        let d = instance.num_types();
        // Cheapest configuration for the current slot alone.
        let mut best: Option<(f64, u64, Config)> = None;
        for_each_config(instance, t, |x| {
            let cost = self.oracle.g(instance, t, x.counts());
            if !cost.is_finite() {
                return;
            }
            let tot = x.total();
            let better = match &best {
                None => true,
                Some((bc, bt, _)) => cost < *bc || (cost == *bc && tot < *bt),
            };
            if better {
                best = Some((cost, tot, x.clone()));
            }
        });
        let needed_now = best.expect("instance is feasible at every slot").2;
        self.needed.push(needed_now.counts().to_vec());
        // Sliding-window maximum per type: keep what was needed within
        // the timeout window, capped by the (possibly shrunk) fleet.
        let counts = (0..d)
            .map(|j| {
                let win = self.timeouts[j].saturating_add(1);
                let from = self.needed.len().saturating_sub(win);
                let m = instance.server_count(t, j);
                self.needed[from..].iter().map(|row| row[j]).max().unwrap_or(0).min(m)
            })
            .collect();
        Config::new(counts)
    }
}

/// The best **static** provisioning chosen with hindsight: one fixed
/// configuration for the whole horizon (powered up once). Not an online
/// algorithm — it is the "capacity planning without elasticity"
/// reference line in the experiments.
///
/// Returns `None` if no single configuration is feasible for every slot.
#[must_use]
pub fn best_static(instance: &Instance, oracle: &dyn GtOracle) -> Option<(Config, f64)> {
    // A static config must fit the smallest fleet over time.
    let d = instance.num_types();
    let min_counts: Vec<u32> = (0..d)
        .map(|j| (0..instance.horizon()).map(|t| instance.server_count(t, j)).min().unwrap())
        .collect();
    let mut best: Option<(Config, f64)> = None;
    enumerate_configs(&min_counts).iter().for_each(|x| {
        let mut cost = 0.0;
        for j in 0..d {
            cost += f64::from(x.count(j)) * instance.switching_cost(j);
        }
        for t in 0..instance.horizon() {
            cost += oracle.g(instance, t, x.counts());
            if !cost.is_finite() {
                return;
            }
        }
        let better = match &best {
            None => true,
            Some((_, bc)) => cost < *bc,
        };
        if better {
            best = Some((x.clone(), cost));
        }
    });
    best
}

/// Enumerate every configuration of slot `t`'s fleet.
fn for_each_config(instance: &Instance, t: usize, f: impl FnMut(&Config)) {
    enumerate_configs(&instance.server_counts_at(t)).iter().for_each(f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;
    use rsz_core::{CostModel, ServerType};
    use rsz_dispatch::Dispatcher;

    fn instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::linear(1.0, 0.5)))
            .server_type(ServerType::new("b", 2, 5.0, 2.0, CostModel::constant(1.5)))
            .loads(vec![1.0, 4.0, 0.0, 2.0, 6.0])
            .build()
            .unwrap()
    }

    #[test]
    fn all_on_uses_whole_fleet() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let r = run(&inst, &mut AllOn, &oracle);
        for (_, cfg) in r.schedule.iter() {
            assert_eq!(cfg.counts(), &[3, 2]);
        }
    }

    #[test]
    fn reactive_tracks_load_exactly() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let mut reactive = Myopic::new(oracle, false);
        let r = run(&inst, &mut reactive, &oracle);
        r.schedule.check_feasible(&inst).unwrap();
        // zero-load slot powers everything off
        assert_eq!(r.schedule.config(2).counts(), &[0, 0]);
    }

    #[test]
    fn myopic_with_switching_avoids_pointless_power_cycles() {
        // Constant load: the one-step-lookahead policy settles into a
        // fixed configuration (no oscillation), unlike on jittery loads.
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::linear(1.0, 0.5)))
            .loads(vec![2.0; 6])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let rb = run(&inst, &mut Myopic::new(oracle, true), &oracle);
        rb.schedule.check_feasible(&inst).unwrap();
        let first = rb.schedule.config(0).clone();
        for (_, cfg) in rb.schedule.iter() {
            assert_eq!(*cfg, first, "steady load must give a steady schedule");
        }
    }

    #[test]
    fn timeout_keeps_servers_warm() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 2, 4.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![2.0, 0.0, 0.0, 2.0])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let mut rt = ReactiveTimeout::new(oracle, vec![2]);
        let r = run(&inst, &mut rt, &oracle);
        let counts: Vec<u32> = r.schedule.configs().iter().map(|c| c.count(0)).collect();
        // needed: [2,0,0,2]; window max with timeout 2 keeps both warm
        assert_eq!(counts, vec![2, 2, 2, 2]);
    }

    #[test]
    fn ski_rental_timeouts_derived_from_instance() {
        let inst = instance();
        let rt = ReactiveTimeout::with_ski_rental_timeouts(Dispatcher::new(), &inst);
        assert_eq!(rt.timeouts, vec![2, 4]); // ⌈2/1⌉, ⌈5/1.5⌉
    }

    #[test]
    fn best_static_is_feasible_and_not_insane() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let (cfg, cost) = best_static(&inst, &oracle).unwrap();
        // must carry the peak load of 6
        assert!(cfg.capacity(inst.types()) >= 6.0);
        assert!(cost.is_finite());
    }
}
