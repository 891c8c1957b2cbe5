//! Algorithm A — time-independent operating costs (Section 2).
//!
//! At every slot the algorithm computes `x̂^t_t`, the final configuration
//! of an optimal schedule for the prefix instance `I_t`, and raises its
//! own active counts to at least that level. Every server it powers up
//! runs for **exactly** `t̄_j = ⌈β_j / f_j(0)⌉` slots and is then shut
//! down, used or not — the ski-rental rule: once the accumulated idle
//! cost would exceed the switching cost, stop paying it.
//!
//! Theorem 8: the resulting schedule is `(2d+1)`-competitive. When the
//! costs are also load-independent the load-dependent term vanishes and
//! the ratio is the optimal `2d` (Corollary 9).
//!
//! Pseudocode (paper, Algorithm 1):
//!
//! ```text
//! for t = 1..T:
//!   compute x̂^t  (prefix optimum)
//!   for j = 1..d:
//!     x_j -= w_{t−t̄_j, j}              // retire expired servers
//!     if x_j ≤ x̂^t_j:
//!       w_{t,j} = x̂^t_j − x_j; x_j = x̂^t_j   // power up to the prefix optimum
//! ```

use rsz_core::{Config, GtOracle, Instance};
use rsz_offline::{
    Decoder, DpOptions, Encoder, EngineStats, GridMode, PrefixDp, SharedSlotPool, SnapshotError,
};

use crate::checkpoint::{codec, Checkpoint};
use crate::registry::Controller;
use crate::runner::OnlineAlgorithm;

/// Options for [`AlgorithmA`].
#[derive(Clone, Copy, Debug)]
pub struct AOptions {
    /// Grid used by the internal prefix-optimal solver. `Full` gives the
    /// paper's algorithm; `Gamma(γ)` trades the guarantee for speed on
    /// large fleets (the prefix optima become (2γ−1)-approximate).
    pub grid: GridMode,
}

impl Default for AOptions {
    fn default() -> Self {
        Self { grid: GridMode::Full }
    }
}

impl AOptions {
    /// The [`DpOptions`] these online options induce for the internal
    /// prefix solver (which prices every slot through the priced-slot
    /// engine: one sweep per slot, no thread count to choose).
    #[must_use]
    pub fn dp_options(&self) -> DpOptions {
        DpOptions { grid: self.grid, ..DpOptions::default() }
    }
}

/// Algorithm A (deterministic, `(2d+1)`-competitive).
#[derive(Debug)]
pub struct AlgorithmA<O> {
    oracle: O,
    prefix: PrefixDp,
    /// Current active servers per type.
    x: Vec<u32>,
    /// Ring of the most recent power-up rows: `ring[t mod cap][j]`
    /// servers of type `j` powered up at slot `t`, with
    /// `cap = max_j t̄_j` — the only rows a future retirement can still
    /// read. Empty when every type idles for free (no retirements ever).
    /// The whole log is never kept: [`crate::blocks::power_ups`] derives
    /// it from the committed schedule.
    ring: Vec<Vec<u32>>,
    /// Scratch copy of the latest prefix target.
    target: Vec<u32>,
    /// Deterministic runtimes `t̄_j`; `None` = never power down
    /// (`f_j(0) = 0`, idling is free).
    tbar: Vec<Option<usize>>,
    /// Slots processed so far.
    steps: usize,
}

impl<O: GtOracle + Sync> AlgorithmA<O> {
    /// Set up Algorithm A for an instance.
    ///
    /// # Panics
    /// Panics if the instance has time-dependent operating costs — that
    /// is Algorithm B/C territory (Section 3).
    #[must_use]
    pub fn new(instance: &Instance, oracle: O, options: AOptions) -> Self {
        assert!(
            instance.is_time_independent(),
            "Algorithm A requires time-independent operating costs; use Algorithm B/C"
        );
        let d = instance.num_types();
        let tbar = (0..d)
            .map(|j| {
                let idle = instance.idle_cost(0, j);
                let beta = instance.switching_cost(j);
                if idle <= 0.0 {
                    None // idling is free: the ski-rental threshold is never reached
                } else {
                    // ⌈β/l⌉ slots, at least one (a server always lives
                    // through the slot it was powered up for).
                    Some(((beta / idle).ceil() as usize).max(1))
                }
            })
            .collect();
        let tbar: Vec<Option<usize>> = tbar;
        let ring_cap = tbar.iter().flatten().copied().max().unwrap_or(0);
        Self {
            oracle,
            prefix: PrefixDp::new(instance, options.dp_options()),
            x: vec![0; d],
            ring: vec![vec![0; d]; ring_cap],
            target: Vec::with_capacity(d),
            tbar,
            steps: 0,
        }
    }

    /// The deterministic runtime `t̄_j` of servers of type `j`
    /// (`None` = unbounded).
    #[must_use]
    pub fn runtime(&self, j: usize) -> Option<usize> {
        self.tbar[j]
    }

    /// The prefix-optimal target `x̂^t_t` most recently computed.
    #[must_use]
    pub fn prefix_opt_cost(&self) -> f64 {
        self.prefix.prefix_opt_cost()
    }
}

impl<O: GtOracle + Sync + Send> Controller for AlgorithmA<O> {
    fn engine_stats(&self) -> Option<EngineStats> {
        Some(self.prefix.engine_stats())
    }

    fn share_pool(&mut self, pool: SharedSlotPool) {
        self.prefix.share_pool(pool);
    }
}

impl<O: GtOracle + Sync> OnlineAlgorithm for AlgorithmA<O> {
    fn name(&self) -> String {
        "Algorithm A".into()
    }

    fn decide(&mut self, instance: &Instance, t: usize) -> Config {
        debug_assert_eq!(t, self.steps, "slots must arrive in order");
        let d = self.x.len();
        {
            let Self { prefix, target, oracle, .. } = self;
            let xhat = prefix.step_counts(instance, oracle, t);
            target.clear();
            target.extend_from_slice(xhat);
        }
        let cap = self.ring.len();
        // Retire servers whose t̄_j-slot lifetime has expired. All reads
        // happen before the ring slot for `t` is overwritten below: the
        // oldest readable row, `t − cap`, lives in exactly that slot.
        #[allow(clippy::needless_range_loop)] // j indexes x, tbar and target
        for j in 0..d {
            if let Some(tb) = self.tbar[j] {
                if t >= tb {
                    let expired = self.ring[(t - tb) % cap][j];
                    debug_assert!(self.x[j] >= expired);
                    self.x[j] -= expired;
                }
            }
        }
        // Raise to the prefix optimum, recording this slot's power-ups.
        if cap > 0 {
            let row = &mut self.ring[t % cap];
            #[allow(clippy::needless_range_loop)] // j indexes x, row and target
            for j in 0..d {
                if self.x[j] <= self.target[j] {
                    row[j] = self.target[j] - self.x[j];
                    self.x[j] = self.target[j];
                } else {
                    row[j] = 0;
                }
            }
        } else {
            // No type ever retires: nothing reads the ring.
            for (x, &target) in self.x.iter_mut().zip(&self.target) {
                *x = (*x).max(target);
            }
        }
        self.steps += 1;
        Config::new(self.x.clone())
    }
}

impl<O: GtOracle + Sync> Checkpoint for AlgorithmA<O> {
    fn algo_tag(&self) -> &'static str {
        "algo-a"
    }

    fn save_state(&self, enc: &mut Encoder) {
        self.prefix.save_state(enc);
        enc.put_usize(self.steps);
        codec::put_u32s(enc, &self.x);
        enc.put_usize(self.ring.len());
        for row in &self.ring {
            codec::put_u32s(enc, row);
        }
        // The tag of the retired whole-history log: always absent.
        enc.put_u8(0);
    }

    fn restore_state(
        &mut self,
        instance: &Instance,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError> {
        self.prefix.restore_state(instance, dec)?;
        let steps = dec.take_usize()?;
        if steps > instance.horizon() {
            return Err(SnapshotError::Corrupt("step counter exceeds the horizon"));
        }
        let d = instance.num_types();
        let x = codec::take_u32s(dec, d)?;
        if x.len() != d {
            return Err(SnapshotError::Corrupt("active-count vector has the wrong dimension"));
        }
        let rows = dec.take_usize()?;
        if rows != self.ring.len() {
            return Err(SnapshotError::Corrupt("power-up ring size does not match the instance"));
        }
        let mut ring = Vec::with_capacity(rows);
        for _ in 0..rows {
            let row = codec::take_u32s(dec, d)?;
            if row.len() != d {
                return Err(SnapshotError::Corrupt("power-up row has the wrong dimension"));
            }
            ring.push(row);
        }
        match dec.take_u8()? {
            0 => {}
            1 => return Err(SnapshotError::Corrupt("snapshot was taken with the power-up log")),
            _ => return Err(SnapshotError::Corrupt("unknown option tag")),
        }
        self.x = x;
        self.ring = ring;
        self.steps = steps;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, run_with_prefix_revelation};
    use rsz_core::{CostModel, ServerType};
    use rsz_dispatch::Dispatcher;
    use rsz_offline::dp::{solve, DpOptions as OffOptions};

    fn simple(loads: Vec<f64>, beta: f64, idle: f64) -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 4, beta, 1.0, CostModel::constant(idle)))
            .loads(loads)
            .build()
            .unwrap()
    }

    #[test]
    fn runtime_is_ski_rental_threshold() {
        let inst = simple(vec![1.0], 5.0, 2.0);
        let a = AlgorithmA::new(&inst, Dispatcher::new(), AOptions::default());
        assert_eq!(a.runtime(0), Some(3)); // ⌈5/2⌉
        let inst = simple(vec![1.0], 5.0, 0.0);
        let a = AlgorithmA::new(&inst, Dispatcher::new(), AOptions::default());
        assert_eq!(a.runtime(0), None);
    }

    #[test]
    fn dominates_prefix_optimum_and_is_feasible() {
        let inst = simple(vec![1.0, 3.0, 0.0, 0.0, 2.0, 4.0, 0.0, 1.0], 3.0, 1.0);
        let oracle = Dispatcher::new();
        let mut a = AlgorithmA::new(&inst, oracle, AOptions::default());
        let run = run(&inst, &mut a, &oracle);
        run.schedule.check_feasible(&inst).unwrap();
    }

    #[test]
    fn servers_run_exactly_tbar_slots() {
        // Single spike: prefix optimum powers up then drops to 0; A keeps
        // the servers for exactly t̄ = ⌈β/l⌉ = 3 slots.
        let inst = simple(vec![2.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3.0, 1.0);
        let oracle = Dispatcher::new();
        let mut a = AlgorithmA::new(&inst, oracle, AOptions::default());
        let run = run(&inst, &mut a, &oracle);
        assert_eq!(
            run.schedule.configs().iter().map(|c| c.count(0)).collect::<Vec<_>>(),
            vec![2, 2, 2, 0, 0, 0]
        );
    }

    #[test]
    fn competitive_bound_holds() {
        let oracle = Dispatcher::new();
        let loads = vec![1.0, 4.0, 0.0, 2.0, 4.0, 0.0, 0.0, 3.0, 1.0, 0.0];
        let inst = Instance::builder()
            .server_type(ServerType::new("s", 4, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .server_type(ServerType::new("f", 2, 6.0, 3.0, CostModel::linear(1.0, 0.5)))
            .loads(loads)
            .build()
            .unwrap();
        let mut a = AlgorithmA::new(&inst, oracle, AOptions::default());
        let online = run(&inst, &mut a, &oracle);
        let opt = solve(&inst, &oracle, OffOptions { threads: Some(1), ..Default::default() });
        let bound = (2.0 * 2.0 + 1.0) * opt.cost;
        assert!(
            online.cost() <= bound + 1e-9,
            "A cost {} exceeds (2d+1)·OPT = {bound}",
            online.cost()
        );
    }

    #[test]
    fn is_genuinely_online() {
        let inst = simple(vec![1.0, 3.0, 0.0, 2.0, 4.0], 3.0, 1.0);
        let oracle = Dispatcher::new();
        let mut a1 = AlgorithmA::new(&inst, oracle, AOptions::default());
        let full = run(&inst, &mut a1, &oracle);
        let mut a2 = AlgorithmA::new(&inst, oracle, AOptions::default());
        let revealed = run_with_prefix_revelation(&inst, &mut a2, &oracle);
        assert_eq!(full.schedule, revealed.schedule);
    }

    #[test]
    #[should_panic(expected = "time-independent")]
    fn rejects_time_dependent_costs() {
        let spec = rsz_core::CostSpec::scaled(CostModel::constant(1.0), vec![1.0, 2.0]);
        let inst = Instance::builder()
            .server_type(ServerType::with_spec("a", 1, 1.0, 1.0, spec))
            .loads(vec![0.5, 0.5])
            .build()
            .unwrap();
        let _ = AlgorithmA::new(&inst, Dispatcher::new(), AOptions::default());
    }

    #[test]
    fn checkpoints_holding_a_power_up_log_are_refused() {
        let inst = simple(vec![1.0, 3.0, 0.0], 3.0, 1.0);
        let mut a = AlgorithmA::new(&inst, Dispatcher::new(), AOptions::default());
        a.decide(&inst, 0);
        let mut enc = Encoder::new();
        a.save_state(&mut enc);
        let mut payload = enc.payload().to_vec();
        assert_eq!(payload.pop(), Some(0), "the log tag closes the state");
        let restore = |tag: u8| {
            let bytes = [&payload[..], &[tag]].concat();
            let mut fresh = AlgorithmA::new(&inst, Dispatcher::new(), AOptions::default());
            fresh.restore_state(&inst, &mut Decoder::over(&bytes))
        };
        assert_eq!(restore(0), Ok(()));
        assert_eq!(
            restore(1),
            Err(SnapshotError::Corrupt("snapshot was taken with the power-up log"))
        );
    }

    #[test]
    fn checkpoints_do_not_grow_with_age() {
        // t̄ = ⌈3/1⌉ = 3: however long the horizon, the checkpoint holds
        // the 3-row power-up ring and no per-slot log.
        let loads: Vec<f64> = (0..2000).map(|t| f64::from((t % 5) as u32)).collect();
        let inst = simple(loads, 3.0, 1.0);
        let mut a = AlgorithmA::new(&inst, Dispatcher::new(), AOptions::default());
        let mut sizes = Vec::new();
        for t in 0..inst.horizon() {
            a.decide(&inst, t);
            if t + 1 == 100 || t + 1 == 2000 {
                let mut enc = Encoder::new();
                a.save_state(&mut enc);
                sizes.push(enc.payload().len());
            }
        }
        assert_eq!(sizes[0], sizes[1], "checkpoint bytes at t = 100 vs 2000");
    }

    #[test]
    fn derived_power_up_log_explains_the_schedule() {
        // Every active server was powered up within the last t̄ slots:
        // the log derived from the schedule sums to its counts, and
        // Lemma 7's partition invariant holds on it.
        let loads = vec![1.0, 3.0, 0.0, 2.0, 4.0, 0.0, 1.0, 2.0, 0.0, 0.0, 3.0];
        let inst = simple(loads, 3.0, 1.0);
        let oracle = Dispatcher::new();
        let mut a = AlgorithmA::new(&inst, oracle, AOptions::default());
        let x: Vec<u32> =
            run(&inst, &mut a, &oracle).schedule.configs().iter().map(|c| c.count(0)).collect();
        let tbar = a.runtime(0).expect("positive idle cost");
        let w = crate::blocks::power_ups(&x, tbar);
        for (t, &active) in x.iter().enumerate() {
            assert_eq!(w[t.saturating_sub(tbar - 1)..=t].iter().sum::<u32>(), active, "slot {t}");
        }
        let dec = crate::blocks::decompose(&w, tbar);
        assert!(dec.is_partition());
        assert!(dec.spacing_at_least(tbar));
    }

    #[test]
    fn recurring_loads_hit_the_priced_slot_pool() {
        let inst = simple(vec![1.0, 3.0, 0.0, 2.0, 1.0, 3.0, 0.0, 2.0], 3.0, 1.0);
        let oracle = Dispatcher::new();
        let mut a = AlgorithmA::new(&inst, oracle, AOptions::default());
        let _ = run(&inst, &mut a, &oracle);
        let stats = a.engine_stats().expect("A prices through its prefix solver");
        assert_eq!(stats.pricings, 4, "four distinct loads");
        assert_eq!(stats.pool_hits, 4);
    }

    #[test]
    fn gamma_backend_still_feasible() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 50, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .loads(vec![10.0, 45.0, 3.0, 20.0, 0.0, 50.0])
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let mut a = AlgorithmA::new(&inst, oracle, AOptions { grid: GridMode::Gamma(1.5) });
        let run = run(&inst, &mut a, &oracle);
        run.schedule.check_feasible(&inst).unwrap();
    }
}
