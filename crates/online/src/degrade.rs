//! Graceful degradation for online controllers.
//!
//! A production controller has a *deadline* per decision: the slot
//! boundary arrives whether or not the prefix DP finished. Instead of
//! missing it (or panicking), [`GracefulDegrader`] wraps any
//! [`OnlineAlgorithm`] in a three-rung ladder and walks **down** it when
//! a decision overruns its budget:
//!
//! | rung | decision | guarantee |
//! |------|----------|-----------|
//! | [`Rung::Exact`] | the wrapped controller, full grid | the wrapped algorithm's |
//! | [`Rung::Coarse`] | same controller rebuilt on `Γ(γ₀)` and replayed | approximation per Theorem 16's grid bound |
//! | [`Rung::Hold`] | previous decision, clamped to the fleet and raised to feasibility | feasibility only |
//!
//! Descent is one-way (no flapping back up under an oscillating load of
//! deadline misses) and deterministic: the rung sequence depends only on
//! measured decision times, and with [`DegradeOptions::deadline`] `=
//! None` the wrapper is a transparent shim — the committed schedule is
//! bit-identical to the wrapped controller's (property-tested).
//!
//! Saturated slots — arriving load within rounding of the entire
//! fleet's capacity, the regime capacity events (`rsz_workloads`'s
//! event stream) clamp into — are counted, and the latest
//! [`SATURATION_RING`] are kept as structured [`SaturationEvent`]s,
//! rather than asserted on, whatever the rung. The ladder's checkpoint
//! is therefore the same size however many slots saturated.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rsz_core::util::SATURATION_TOL;
use rsz_core::{Config, Instance};
use rsz_offline::{Decoder, Encoder, GridMode, SnapshotError};

use crate::checkpoint::{codec, Checkpoint};
use crate::runner::OnlineAlgorithm;

/// A rung of the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// The wrapped controller on its configured grid.
    Exact,
    /// The wrapped controller rebuilt on the coarse `Γ(γ₀)` grid.
    Coarse,
    /// Hold the previous decision (clamped and raised to feasibility).
    Hold,
}

/// Options for [`GracefulDegrader`].
#[derive(Clone, Copy, Debug)]
pub struct DegradeOptions {
    /// Per-decision time budget. `None` disables the ladder: every slot
    /// is decided on [`Rung::Exact`] and the wrapper is transparent.
    pub deadline: Option<Duration>,
    /// `γ₀` of the coarse rung's `Γ(γ₀)` grid.
    pub coarse_gamma: f64,
}

impl Default for DegradeOptions {
    fn default() -> Self {
        Self { deadline: None, coarse_gamma: 2.0 }
    }
}

/// One saturated slot: the load filled (or exceeded rounding distance
/// of) the whole fleet's capacity, so every rung decides "all on" and
/// the overflow, if any, is physics rather than a controller bug.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SaturationEvent {
    /// Slot index.
    pub t: usize,
    /// Arriving load.
    pub load: f64,
    /// Total fleet capacity at `t`.
    pub capacity: f64,
}

/// How many of the latest saturation events [`DegradeStats`] keeps.
pub const SATURATION_RING: usize = 64;

/// Per-rung decision counters plus the saturation count and the latest
/// saturation events.
#[derive(Clone, Debug, Default)]
pub struct DegradeStats {
    /// Slots decided on [`Rung::Exact`].
    pub exact: u64,
    /// Slots decided on [`Rung::Coarse`].
    pub coarse: u64,
    /// Slots decided on [`Rung::Hold`].
    pub hold: u64,
    /// Slots where the load saturated the fleet, all of them.
    pub saturated: u64,
    /// The latest [`SATURATION_RING`] of those slots, oldest first.
    pub recent_saturations: VecDeque<SaturationEvent>,
}

impl DegradeStats {
    /// Total decisions recorded.
    #[must_use]
    pub fn decisions(&self) -> u64 {
        self.exact + self.coarse + self.hold
    }

    /// Count one saturated slot and keep it among the latest events.
    fn record_saturation(&mut self, event: SaturationEvent) {
        self.saturated += 1;
        if self.recent_saturations.len() == SATURATION_RING {
            self.recent_saturations.pop_front();
        }
        self.recent_saturations.push_back(event);
    }
}

/// Deadline-driven degradation wrapper. `factory` rebuilds the wrapped
/// controller type on an arbitrary grid — the coarse rung uses it to
/// construct a `Γ(γ₀)` twin and replays all previously committed slots
/// through it (an online-safe catch-up: replay only reads the prefix).
pub struct GracefulDegrader<A, F> {
    inner: A,
    factory: F,
    options: DegradeOptions,
    coarse: Option<A>,
    rung: Rung,
    last: Option<Config>,
    stats: DegradeStats,
}

impl<A, F> GracefulDegrader<A, F>
where
    A: OnlineAlgorithm,
    F: FnMut(&Instance, GridMode) -> A,
{
    /// Wrap `inner`, keeping `factory` for coarse-rung rebuilds.
    #[must_use]
    pub fn new(inner: A, factory: F, options: DegradeOptions) -> Self {
        Self {
            inner,
            factory,
            options,
            coarse: None,
            rung: Rung::Exact,
            last: None,
            stats: DegradeStats::default(),
        }
    }

    /// The rung the next decision will run on.
    #[must_use]
    pub fn rung(&self) -> Rung {
        self.rung
    }

    /// Decision counters per rung and the saturation record.
    #[must_use]
    pub fn stats(&self) -> &DegradeStats {
        &self.stats
    }

    /// The wrapped (exact-rung) controller.
    #[must_use]
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Mutable access to the wrapped controller — the serve daemon uses
    /// this to install a shared pricing pool after construction or
    /// restore (ladder state is untouched).
    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    /// Record saturation and descend one rung if the decision overran
    /// its budget.
    fn after_decision(&mut self, instance: &Instance, t: usize, elapsed: Duration) {
        let load = instance.load(t);
        let capacity = instance.max_capacity_at(t);
        if load >= capacity - SATURATION_TOL * capacity.abs().max(1.0) && load > 0.0 {
            self.stats.record_saturation(SaturationEvent { t, load, capacity });
        }
        if let Some(deadline) = self.options.deadline {
            if elapsed > deadline {
                self.rung = match self.rung {
                    Rung::Exact => Rung::Coarse,
                    Rung::Coarse | Rung::Hold => Rung::Hold,
                };
            }
        }
    }

    /// The hold rung: repeat the previous decision, clamped to the
    /// current fleet bounds (capacity events shrink them mid-horizon),
    /// powering up to the full fleet when the held configuration can no
    /// longer serve the arriving load.
    fn hold_decision(&self, instance: &Instance, t: usize) -> Config {
        let d = instance.num_types();
        let mut counts: Vec<u32> = match &self.last {
            Some(c) => (0..d).map(|j| c.count(j).min(instance.server_count(t, j))).collect(),
            None => vec![0; d],
        };
        let capacity: f64 = (0..d).map(|j| f64::from(counts[j]) * instance.capacity(j)).sum();
        if capacity < instance.load(t) {
            counts = (0..d).map(|j| instance.server_count(t, j)).collect();
        }
        Config::new(counts)
    }
}

impl<A, F> OnlineAlgorithm for GracefulDegrader<A, F>
where
    A: OnlineAlgorithm,
    F: FnMut(&Instance, GridMode) -> A,
{
    fn name(&self) -> String {
        format!("degrade({})", self.inner.name())
    }

    fn decide(&mut self, instance: &Instance, t: usize) -> Config {
        let start = Instant::now();
        let choice = match self.rung {
            Rung::Exact => {
                self.stats.exact += 1;
                self.inner.decide(instance, t)
            }
            Rung::Coarse => {
                if self.coarse.is_none() {
                    // First coarse decision: build the Γ(γ₀) twin and
                    // replay the committed prefix so it is caught up.
                    let mut twin =
                        (self.factory)(instance, GridMode::Gamma(self.options.coarse_gamma));
                    for u in 0..t {
                        let _ = twin.decide(instance, u);
                    }
                    self.coarse = Some(twin);
                }
                self.stats.coarse += 1;
                self.coarse.as_mut().expect("built above").decide(instance, t)
            }
            Rung::Hold => {
                self.stats.hold += 1;
                self.hold_decision(instance, t)
            }
        };
        let elapsed = start.elapsed();
        self.after_decision(instance, t, elapsed);
        self.last = Some(choice.clone());
        choice
    }
}

impl<A, F> Checkpoint for GracefulDegrader<A, F>
where
    A: OnlineAlgorithm + Checkpoint,
    F: FnMut(&Instance, GridMode) -> A,
{
    fn algo_tag(&self) -> &'static str {
        "degraded"
    }

    /// The ladder's resumable state: the wrapped algorithm's tag (so a
    /// snapshot taken around algorithm X refuses to restore around Y),
    /// the rung, the last committed decision (the hold rung's input),
    /// the per-rung counters, the saturation count and the latest
    /// saturation events, then the wrapped controller's own state. The
    /// coarse twin is deliberately **not** serialized: it is rebuilt by
    /// replaying the committed prefix on the first post-restore coarse
    /// decision, which reproduces its state deterministically (the same
    /// catch-up that built it live).
    fn save_state(&self, enc: &mut Encoder) {
        enc.put_bytes(self.inner.algo_tag().as_bytes());
        enc.put_u8(match self.rung {
            Rung::Exact => 0,
            Rung::Coarse => 1,
            Rung::Hold => 2,
        });
        codec::put_config_opt(enc, self.last.as_ref());
        enc.put_u64(self.stats.exact);
        enc.put_u64(self.stats.coarse);
        enc.put_u64(self.stats.hold);
        enc.put_u64(self.stats.saturated);
        enc.put_usize(self.stats.recent_saturations.len());
        for ev in &self.stats.recent_saturations {
            enc.put_usize(ev.t);
            enc.put_f64(ev.load);
            enc.put_f64(ev.capacity);
        }
        self.inner.save_state(enc);
    }

    fn restore_state(
        &mut self,
        instance: &Instance,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError> {
        if dec.take_bytes()? != self.inner.algo_tag().as_bytes() {
            return Err(SnapshotError::Corrupt("degraded snapshot wraps a different algorithm"));
        }
        let rung = match dec.take_u8()? {
            0 => Rung::Exact,
            1 => Rung::Coarse,
            2 => Rung::Hold,
            _ => return Err(SnapshotError::Corrupt("unknown degradation rung")),
        };
        let last = codec::take_config_opt(dec, instance.num_types())?;
        let mut stats = DegradeStats {
            exact: dec.take_u64()?,
            coarse: dec.take_u64()?,
            hold: dec.take_u64()?,
            ..DegradeStats::default()
        };
        let total = dec.take_u64()?;
        let events = dec.take_usize()? as u64;
        if total > instance.horizon() as u64 {
            return Err(SnapshotError::Corrupt("saturation log exceeds the horizon"));
        }
        if events != total.min(SATURATION_RING as u64) {
            return Err(SnapshotError::Corrupt("saturation ring disagrees with its count"));
        }
        for _ in 0..events {
            stats.record_saturation(SaturationEvent {
                t: dec.take_usize()?,
                load: dec.take_f64()?,
                capacity: dec.take_f64()?,
            });
        }
        stats.saturated = total;
        self.inner.restore_state(instance, dec)?;
        self.rung = rung;
        self.last = last;
        self.stats = stats;
        self.coarse = None;
        Ok(())
    }
}

impl<A: std::fmt::Debug, F> std::fmt::Debug for GracefulDegrader<A, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GracefulDegrader")
            .field("inner", &self.inner)
            .field("options", &self.options)
            .field("rung", &self.rung)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo_a::{AOptions, AlgorithmA};
    use crate::runner::run;
    use rsz_core::{CostModel, ServerType};
    use rsz_dispatch::Dispatcher;

    fn instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .server_type(ServerType::new("b", 2, 4.0, 2.0, CostModel::constant(1.2)))
            .loads(vec![1.0, 4.0, 0.0, 2.0, 7.0, 1.0, 0.0, 3.0])
            .build()
            .unwrap()
    }

    fn wrap(
        inst: &Instance,
        options: DegradeOptions,
    ) -> GracefulDegrader<
        AlgorithmA<Dispatcher>,
        impl FnMut(&Instance, GridMode) -> AlgorithmA<Dispatcher>,
    > {
        let inner = AlgorithmA::new(inst, Dispatcher::new(), AOptions::default());
        GracefulDegrader::new(
            inner,
            |instance, grid| AlgorithmA::new(instance, Dispatcher::new(), AOptions { grid }),
            options,
        )
    }

    #[test]
    fn no_deadline_is_transparent() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let mut plain = AlgorithmA::new(&inst, oracle, AOptions::default());
        let want = run(&inst, &mut plain, &oracle);
        let mut wrapped = wrap(&inst, DegradeOptions::default());
        let got = run(&inst, &mut wrapped, &oracle);
        assert_eq!(want.schedule, got.schedule);
        assert_eq!(wrapped.stats().exact, inst.horizon() as u64);
        assert_eq!(wrapped.stats().coarse, 0);
        assert_eq!(wrapped.stats().hold, 0);
    }

    #[test]
    fn zero_deadline_walks_the_whole_ladder() {
        // Every decision overruns a zero budget: slot 0 exact, slot 1
        // coarse (after a replay catch-up), slots 2+ hold.
        let inst = instance();
        let oracle = Dispatcher::new();
        let mut wrapped =
            wrap(&inst, DegradeOptions { deadline: Some(Duration::ZERO), coarse_gamma: 1.5 });
        let outcome = run(&inst, &mut wrapped, &oracle);
        outcome.schedule.check_feasible(&inst).unwrap();
        let stats = wrapped.stats();
        assert_eq!(stats.exact, 1);
        assert_eq!(stats.coarse, 1);
        assert_eq!(stats.hold, inst.horizon() as u64 - 2);
        assert_eq!(wrapped.rung(), Rung::Hold);
    }

    #[test]
    fn saturated_slots_are_reported_not_asserted() {
        // Slot 4's load of 7.0 equals the full fleet capacity
        // 3·1 + 2·2 = 7: the degrader must log it, on every rung.
        let inst = instance();
        let oracle = Dispatcher::new();
        for deadline in [None, Some(Duration::ZERO)] {
            let mut wrapped = wrap(&inst, DegradeOptions { deadline, coarse_gamma: 2.0 });
            let outcome = run(&inst, &mut wrapped, &oracle);
            outcome.schedule.check_feasible(&inst).unwrap();
            let stats = wrapped.stats();
            assert_eq!(stats.saturated, 1, "deadline {deadline:?}");
            let sat = &stats.recent_saturations;
            assert_eq!(sat.len(), 1, "deadline {deadline:?}");
            assert_eq!(sat[0].t, 4);
            assert!((sat[0].capacity - 7.0).abs() < 1e-12);
        }
    }

    /// `horizon` slots whose loads all fill the fleet (two servers of
    /// capacity 1).
    fn saturated(horizon: usize) -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 2, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .loads(vec![2.0; horizon])
            .build()
            .unwrap()
    }

    /// However many slots saturate, the ladder keeps their count and
    /// the latest [`SATURATION_RING`] of them, so its checkpoint does not
    /// grow, and restores as it was saved.
    #[test]
    fn saturation_record_is_bounded() {
        let oracle = Dispatcher::new();
        let size = |horizon| {
            let inst = saturated(horizon);
            let mut ladder = wrap(&inst, DegradeOptions::default());
            run(&inst, &mut ladder, &oracle);
            assert_eq!(ladder.stats().saturated, horizon as u64);
            let mut enc = Encoder::new();
            ladder.save_state(&mut enc);
            enc.payload().len()
        };
        assert_eq!(size(SATURATION_RING * 2), size(SATURATION_RING * 16));

        let inst = saturated(100);
        let mut ladder = wrap(&inst, DegradeOptions::default());
        run(&inst, &mut ladder, &oracle);
        let ring: Vec<usize> = ladder.stats().recent_saturations.iter().map(|e| e.t).collect();
        assert_eq!(ring, (100 - SATURATION_RING..100).collect::<Vec<_>>());
        let mut enc = Encoder::new();
        ladder.save_state(&mut enc);
        let mut restored = wrap(&inst, DegradeOptions::default());
        restored.restore_state(&inst, &mut Decoder::over(enc.payload())).unwrap();
        let stats = restored.stats();
        assert_eq!((stats.exact, stats.saturated), (100, 100));
        let tail: Vec<usize> = stats.recent_saturations.iter().map(|e| e.t).collect();
        assert_eq!(tail, ring);
    }

    #[test]
    fn hold_rung_powers_up_for_rising_load() {
        // Force hold from slot 2 on; the held config from slot 1 cannot
        // serve slot 4's full-capacity spike, so the hold rung must
        // power up to the whole fleet instead of going infeasible.
        let inst = instance();
        let oracle = Dispatcher::new();
        let mut wrapped =
            wrap(&inst, DegradeOptions { deadline: Some(Duration::ZERO), coarse_gamma: 2.0 });
        let outcome = run(&inst, &mut wrapped, &oracle);
        outcome.schedule.check_feasible(&inst).unwrap();
        let spike = outcome.schedule.config(4);
        assert_eq!(spike.counts(), &[3, 2], "hold must saturate to the fleet on the spike");
    }
}
