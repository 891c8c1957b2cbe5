//! Schedules `X = (x_1, …, x_T)` and their feasibility.

use std::fmt;

use crate::config::Config;
use crate::error::InstanceError;
use crate::instance::Instance;
use crate::util::{exceeds_capacity, pos_diff};

/// An integral schedule: one server [`Config`] per time slot.
///
/// The boundary states are implicit: `x_0 = x_{T+1} = (0, …, 0)` as the
/// paper mandates, so the first slot always pays full power-up cost for
/// its active servers and the last slot powers everything down for free.
#[derive(Clone, PartialEq, Eq)]
pub struct Schedule {
    steps: Vec<Config>,
}

impl Schedule {
    /// Schedule from explicit per-slot configurations.
    #[must_use]
    pub fn new(steps: Vec<Config>) -> Self {
        Self { steps }
    }

    /// The empty schedule (for `T = 0` corner cases in prefix logic).
    #[must_use]
    pub fn empty() -> Self {
        Self { steps: Vec::new() }
    }

    /// Schedule from a `T × d` matrix of counts.
    #[must_use]
    pub fn from_counts(counts: Vec<Vec<u32>>) -> Self {
        Self { steps: counts.into_iter().map(Config::new).collect() }
    }

    /// Number of slots `T`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if the schedule covers no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Configuration at (0-based) slot `t`.
    #[inline]
    #[must_use]
    pub fn config(&self, t: usize) -> &Config {
        &self.steps[t]
    }

    /// Number of active servers of type `j` at slot `t`.
    #[inline]
    #[must_use]
    pub fn count(&self, t: usize, j: usize) -> u32 {
        self.steps[t].count(j)
    }

    /// All per-slot configurations.
    #[must_use]
    pub fn configs(&self) -> &[Config] {
        &self.steps
    }

    /// Iterate over `(t, config)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Config)> {
        self.steps.iter().enumerate()
    }

    /// Append a slot (used by online algorithms as they commit decisions).
    pub fn push(&mut self, x: Config) {
        self.steps.push(x);
    }

    /// Total switching cost `Σ_t Σ_j β_j (x_{t,j} − x_{t−1,j})^+`,
    /// including the initial power-up from the all-off state.
    #[must_use]
    pub fn switching_cost(&self, instance: &Instance) -> f64 {
        let d = instance.num_types();
        let mut total = 0.0;
        let mut prev = Config::zeros(d);
        for x in &self.steps {
            for j in 0..d {
                total += pos_diff(x.count(j), prev.count(j)) * instance.switching_cost(j);
            }
            prev = x.clone();
        }
        total
    }

    /// Number of power-up operations (not cost) per type, for reporting.
    #[must_use]
    pub fn power_ups(&self, d: usize) -> Vec<u64> {
        let mut ups = vec![0u64; d];
        let mut prev = Config::zeros(d);
        for x in &self.steps {
            #[allow(clippy::needless_range_loop)] // j indexes ups and both configs
            for j in 0..d {
                ups[j] += u64::from(x.count(j).saturating_sub(prev.count(j)));
            }
            prev = x.clone();
        }
        ups
    }

    /// Check shape, fleet bounds and capacity feasibility against an
    /// instance (Definition of feasible schedules, Section 1).
    pub fn check_feasible(&self, instance: &Instance) -> Result<(), InstanceError> {
        let (tt, d) = (instance.horizon(), instance.num_types());
        if self.len() != tt || self.steps.iter().any(|x| x.dims() != d) {
            let found_d = self.steps.iter().map(Config::dims).find(|&x| x != d).unwrap_or(d);
            return Err(InstanceError::ScheduleShapeMismatch {
                expected: (tt, d),
                found: (self.len(), found_d),
            });
        }
        for (t, x) in self.iter() {
            for j in 0..d {
                let m = instance.server_count(t, j);
                if x.count(j) > m {
                    return Err(InstanceError::InfeasibleSchedule {
                        t,
                        reason: format!(
                            "type {j}: {} active servers exceed the fleet size {m}",
                            x.count(j)
                        ),
                    });
                }
            }
            // The dispatch oracle's own feasibility test: loads carrying
            // float noise from trace arithmetic must not pass the solver
            // and then fail validation here.
            let cap = x.capacity(instance.types());
            if exceeds_capacity(instance.load(t), cap) {
                return Err(InstanceError::InfeasibleSchedule {
                    t,
                    reason: format!("capacity {cap} < load {}", instance.load(t)),
                });
            }
        }
        Ok(())
    }

    /// `true` if [`Schedule::check_feasible`] passes.
    #[must_use]
    pub fn is_feasible(&self, instance: &Instance) -> bool {
        self.check_feasible(instance).is_ok()
    }
}

fn fmt_schedule(steps: &[Config], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "Schedule[")?;
    for (t, x) in steps.iter().enumerate() {
        if t > 0 {
            write!(f, " ")?;
        }
        write!(f, "{x}")?;
    }
    write!(f, "]")
}

impl fmt::Debug for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_schedule(&self.steps, f)
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_schedule(&self.steps, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::server::ServerType;
    use crate::util::approx_eq;

    fn instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::constant(1.0)))
            .server_type(ServerType::new("b", 2, 5.0, 4.0, CostModel::constant(2.0)))
            .loads(vec![1.0, 6.0, 2.0])
            .build()
            .unwrap()
    }

    #[test]
    fn switching_cost_includes_initial_power_up() {
        let inst = instance();
        let x = Schedule::from_counts(vec![vec![1, 0], vec![2, 1], vec![0, 1]]);
        // ups: t0 type0 +1 (2) ; t1 type0 +1 (2), type1 +1 (5); t2 none
        assert!(approx_eq(x.switching_cost(&inst), 9.0));
        assert_eq!(x.power_ups(2), vec![2, 1]);
    }

    #[test]
    fn feasibility_checks_capacity_and_bounds() {
        let inst = instance();
        let ok = Schedule::from_counts(vec![vec![1, 0], vec![2, 1], vec![2, 0]]);
        assert!(ok.is_feasible(&inst));

        let too_small = Schedule::from_counts(vec![vec![1, 0], vec![2, 0], vec![2, 0]]);
        assert!(matches!(
            too_small.check_feasible(&inst),
            Err(InstanceError::InfeasibleSchedule { t: 1, .. })
        ));

        let too_many = Schedule::from_counts(vec![vec![4, 0], vec![2, 1], vec![2, 0]]);
        assert!(matches!(
            too_many.check_feasible(&inst),
            Err(InstanceError::InfeasibleSchedule { t: 0, .. })
        ));

        let wrong_shape = Schedule::from_counts(vec![vec![1, 0], vec![2, 1]]);
        assert!(matches!(
            wrong_shape.check_feasible(&inst),
            Err(InstanceError::ScheduleShapeMismatch { .. })
        ));
    }

    #[test]
    fn push_builds_incrementally() {
        let mut s = Schedule::empty();
        assert!(s.is_empty());
        s.push(Config::new(vec![1, 1]));
        s.push(Config::new(vec![2, 1]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.count(1, 0), 2);
    }

    #[test]
    fn display_compact() {
        let s = Schedule::from_counts(vec![vec![1, 0], vec![2, 1]]);
        assert_eq!(s.to_string(), "Schedule[(1, 0) (2, 1)]");
    }
}
