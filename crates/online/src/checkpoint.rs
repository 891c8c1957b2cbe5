//! Checkpoint/restore for online controllers.
//!
//! A long-lived controller (the ROADMAP's `rsz serve` daemon, or
//! `rsz simulate --snapshot-every K`) must survive a process restart
//! mid-horizon. This module defines the [`Checkpoint`] trait every
//! shipping controller implements (A, B, C, LCP, RHC) plus the sealed
//! **run snapshot**: algorithm tag, an instance fingerprint, the
//! schedule committed so far, and the controller's serialized state —
//! all inside `rsz_offline`'s versioned, checksummed envelope. The serve
//! daemon's snapshots carry only the tag and the state
//! ([`save_controller`] / [`restore_controller`]); the daemon keeps the
//! committed history in a log of its own.
//!
//! The contract, property-tested in `tests/chaos.rs` and
//! `crates/offline/tests/snapshot_props.rs`: build a controller with
//! the **same instance and options**, [`restore_run`] it, continue
//! deciding from the returned schedule's length — and the completed
//! schedule and its cost are **bit-identical** to a run that never
//! stopped. The state each controller serializes is the minimal
//! resumable core (counters, tables, batch/ring bookkeeping); scratch
//! buffers, pool entries and cached grids are rebuilt deterministically
//! on the first post-restore decision.

use rsz_core::objective::evaluate;
use rsz_core::{Config, GtOracle, Instance, Schedule};
use rsz_offline::engine::snapshot;
use rsz_offline::{Decoder, Encoder, SnapshotError};

use crate::runner::{LatencyProfile, OnlineAlgorithm, OnlineRun};

/// An online controller whose mid-run state can be serialized and
/// restored. Implementations must be *deterministic*: restoring into a
/// freshly built controller (same instance, same options) and stepping
/// the remaining slots reproduces the uninterrupted run bit for bit.
pub trait Checkpoint {
    /// Stable tag identifying the concrete algorithm inside a snapshot
    /// (restoring under a different tag fails instead of misreading the
    /// payload).
    fn algo_tag(&self) -> &'static str;

    /// Serialize the resumable state into `enc`.
    fn save_state(&self, enc: &mut Encoder);

    /// Restore state written by [`Checkpoint::save_state`]. `self` must
    /// have been built against the same `instance` with the same
    /// options.
    fn restore_state(
        &mut self,
        instance: &Instance,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError>;
}

/// A fingerprint of the instance a snapshot was taken against: horizon,
/// type count, per-type fleet bounds and every load's bit pattern,
/// hashed with the snapshot checksum. Restoring against a different
/// instance fails structurally instead of resuming into nonsense.
#[must_use]
fn instance_fingerprint(instance: &Instance) -> u64 {
    let mut enc = Encoder::new();
    enc.put_usize(instance.horizon());
    enc.put_usize(instance.num_types());
    for &m in &instance.max_counts() {
        enc.put_u32(m);
    }
    for &l in instance.loads() {
        enc.put_f64(l);
    }
    snapshot::checksum(enc.payload())
}

/// Write the controller's algorithm tag and its resumable state.
pub fn save_controller(algo: &impl Checkpoint, enc: &mut Encoder) {
    enc.put_bytes(algo.algo_tag().as_bytes());
    algo.save_state(enc);
}

/// Restore `algo` from the bytes [`save_controller`] wrote. `algo` must
/// have been built against `instance` with the options of the saved
/// controller.
pub fn restore_controller(
    algo: &mut impl Checkpoint,
    instance: &Instance,
    dec: &mut Decoder<'_>,
) -> Result<(), SnapshotError> {
    check_tag(algo, dec.take_bytes()?)?;
    algo.restore_state(instance, dec)
}

fn check_tag(algo: &impl Checkpoint, tag: &[u8]) -> Result<(), SnapshotError> {
    if tag == algo.algo_tag().as_bytes() {
        Ok(())
    } else {
        Err(SnapshotError::Corrupt("snapshot was taken by a different algorithm"))
    }
}

/// Seal a full run snapshot: the controller's tag and state plus the
/// schedule committed so far (`committed.len()` is the slot the resumed
/// run continues from).
#[must_use]
pub fn save_run(algo: &impl Checkpoint, instance: &Instance, committed: &Schedule) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_bytes(algo.algo_tag().as_bytes());
    enc.put_u64(instance_fingerprint(instance));
    enc.put_usize(committed.len());
    for (_, config) in committed.iter() {
        enc.put_usize(config.counts().len());
        for &c in config.counts() {
            enc.put_u32(c);
        }
    }
    algo.save_state(&mut enc);
    enc.into_sealed()
}

/// Open a run snapshot and restore `algo` from it, returning the
/// schedule committed before the interruption. The controller must be
/// freshly built for `instance` with the options the snapshotted run
/// used; continue deciding at `t = returned.len()`. Only snapshots of
/// the current envelope version
/// ([`rsz_offline::engine::snapshot::FORMAT_VERSION`]) open: one sealed
/// by an older build fails with [`SnapshotError::BadVersion`]. Builds
/// from commit e36abfb through 71b71ff read versions 1 and 2 and write
/// the current one.
pub fn restore_run(
    algo: &mut impl Checkpoint,
    instance: &Instance,
    bytes: &[u8],
) -> Result<Schedule, SnapshotError> {
    let mut dec = Decoder::from_sealed(bytes)?;
    check_tag(algo, dec.take_bytes()?)?;
    if dec.take_u64()? != instance_fingerprint(instance) {
        return Err(SnapshotError::Corrupt("snapshot was taken against a different instance"));
    }
    let len = dec.take_usize()?;
    if len > instance.horizon() {
        return Err(SnapshotError::Corrupt("committed schedule exceeds the horizon"));
    }
    let mut committed = Schedule::empty();
    for _ in 0..len {
        let d = dec.take_usize()?;
        if d != instance.num_types() {
            return Err(SnapshotError::Corrupt("committed config has the wrong dimension"));
        }
        let mut counts = Vec::with_capacity(d);
        for _ in 0..d {
            counts.push(dec.take_u32()?);
        }
        committed.push(Config::new(counts));
    }
    algo.restore_state(instance, &mut dec)?;
    if !dec.is_empty() {
        return Err(SnapshotError::Corrupt("trailing bytes after the controller state"));
    }
    Ok(committed)
}

/// Drive a checkpointable controller over the instance, optionally
/// resuming from a prior run snapshot and emitting fresh snapshots as
/// the run progresses — the engine behind
/// `rsz simulate --snapshot-every K --resume FILE`.
///
/// * `resume` — a sealed run snapshot to restore before deciding; its
///   committed schedule seeds the run and deciding continues at
///   `committed.len()`.
/// * `snapshot_every` — emit a [`save_run`] snapshot through `sink`
///   after every `K` freshly decided slots (the final state is *not*
///   snapshotted: a finished run has nothing to resume).
///
/// The latency profile covers only the freshly decided slots — restored
/// slots were paid for by the interrupted process. The completed
/// schedule is bit-identical to an uninterrupted run's ([`Checkpoint`]
/// contract).
pub fn run_checkpointed<A, F>(
    instance: &Instance,
    algo: &mut A,
    oracle: &dyn GtOracle,
    resume: Option<&[u8]>,
    snapshot_every: Option<usize>,
    mut sink: F,
) -> Result<(OnlineRun, LatencyProfile), SnapshotError>
where
    A: OnlineAlgorithm + Checkpoint,
    F: FnMut(&[u8]),
{
    let mut schedule = match resume {
        Some(bytes) => restore_run(algo, instance, bytes)?,
        None => Schedule::empty(),
    };
    let start = schedule.len();
    let mut samples = Vec::with_capacity(instance.horizon().saturating_sub(start));
    for t in start..instance.horizon() {
        let clock = std::time::Instant::now();
        let decision = algo.decide(instance, t);
        samples.push(clock.elapsed().as_secs_f64());
        schedule.push(decision);
        if let Some(every) = snapshot_every {
            if every > 0 && (t + 1 - start) % every == 0 && t + 1 < instance.horizon() {
                sink(&save_run(algo, instance, &schedule));
            }
        }
    }
    let breakdown = evaluate(instance, &schedule, oracle);
    Ok((OnlineRun { name: algo.name(), schedule, breakdown }, LatencyProfile::new(samples)))
}

/// Shared codec helpers for the per-algorithm [`Checkpoint`] impls.
pub(crate) mod codec {
    use super::{Config, Decoder, Encoder, SnapshotError};

    pub(crate) fn put_u32s(enc: &mut Encoder, v: &[u32]) {
        enc.put_usize(v.len());
        for &x in v {
            enc.put_u32(x);
        }
    }

    pub(crate) fn take_u32s(dec: &mut Decoder<'_>, max: usize) -> Result<Vec<u32>, SnapshotError> {
        let len = dec.take_usize()?;
        if len > max {
            return Err(SnapshotError::Corrupt("u32 sequence length out of range"));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(dec.take_u32()?);
        }
        Ok(out)
    }

    pub(crate) fn put_config_opt(enc: &mut Encoder, v: Option<&Config>) {
        match v {
            None => enc.put_u8(0),
            Some(c) => {
                enc.put_u8(1);
                put_u32s(enc, c.counts());
            }
        }
    }

    pub(crate) fn take_config_opt(
        dec: &mut Decoder<'_>,
        d: usize,
    ) -> Result<Option<Config>, SnapshotError> {
        match dec.take_u8()? {
            0 => Ok(None),
            1 => {
                let counts = take_u32s(dec, d)?;
                if counts.len() != d {
                    return Err(SnapshotError::Corrupt("config has the wrong dimension"));
                }
                Ok(Some(Config::new(counts)))
            }
            _ => Err(SnapshotError::Corrupt("unknown option tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo_a::{AOptions, AlgorithmA};
    use crate::runner::{run, OnlineAlgorithm};
    use rsz_core::{CostModel, ServerType};
    use rsz_dispatch::Dispatcher;

    fn instance() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .server_type(ServerType::new("b", 2, 4.0, 2.0, CostModel::constant(1.2)))
            .loads(vec![1.0, 4.0, 0.0, 2.0, 5.0, 1.0, 0.0, 3.0])
            .build()
            .unwrap()
    }

    #[test]
    fn run_snapshot_round_trips_mid_horizon() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let mut full = AlgorithmA::new(&inst, oracle, AOptions::default());
        let want = run(&inst, &mut full, &oracle);

        let mut first = AlgorithmA::new(&inst, oracle, AOptions::default());
        let mut committed = Schedule::empty();
        for t in 0..4 {
            committed.push(first.decide(&inst, t));
        }
        let snap = save_run(&first, &inst, &committed);

        let mut resumed = AlgorithmA::new(&inst, oracle, AOptions::default());
        let mut schedule = restore_run(&mut resumed, &inst, &snap).unwrap();
        for t in schedule.len()..inst.horizon() {
            schedule.push(resumed.decide(&inst, t));
        }
        assert_eq!(schedule, want.schedule);
    }

    #[test]
    fn checkpointed_run_resumes_from_emitted_snapshots() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let mut plain = AlgorithmA::new(&inst, oracle, AOptions::default());
        let want = run(&inst, &mut plain, &oracle);

        // A full checkpointed run emits ⌈T/3⌉-1 snapshots (none at the end).
        let mut snaps: Vec<Vec<u8>> = Vec::new();
        let mut first = AlgorithmA::new(&inst, oracle, AOptions::default());
        let (got, profile) =
            run_checkpointed(&inst, &mut first, &oracle, None, Some(3), |b| snaps.push(b.to_vec()))
                .unwrap();
        assert_eq!(got.schedule, want.schedule);
        assert_eq!(profile.samples().len(), inst.horizon());
        assert_eq!(snaps.len(), 2, "8 slots / every 3 → snapshots after slots 3 and 6");

        // Resume from the last snapshot: remaining slots only, same run.
        let mut resumed = AlgorithmA::new(&inst, oracle, AOptions::default());
        let (rerun, reprofile) =
            run_checkpointed(&inst, &mut resumed, &oracle, Some(&snaps[1]), None, |_| {}).unwrap();
        assert_eq!(rerun.schedule, want.schedule);
        assert_eq!(rerun.cost().to_bits(), want.cost().to_bits());
        assert_eq!(reprofile.samples().len(), 2, "6 of 8 slots were restored");
    }

    /// Algorithm B's and C's checkpoints hold no per-slot log: on a
    /// periodic trace their state is exactly as large at t = 16k as at
    /// t = 1k.
    #[test]
    fn b_and_c_checkpoints_do_not_grow_with_age() {
        let loads: Vec<f64> = (0..16_384).map(|t| [1.0, 4.0, 0.0, 2.0][t % 4]).collect();
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .server_type(ServerType::new("b", 2, 4.0, 2.0, CostModel::constant(1.2)))
            .loads(loads)
            .build()
            .unwrap();
        let oracle = Dispatcher::new();
        let size = |algo: &dyn Fn(&mut Encoder)| {
            let mut enc = Encoder::new();
            algo(&mut enc);
            enc.payload().len()
        };
        let mut b = crate::algo_b::AlgorithmB::new(&inst, oracle, AOptions::default());
        let mut c = crate::algo_c::AlgorithmC::new(
            &inst,
            oracle,
            crate::algo_c::COptions { epsilon: 0.1, ..Default::default() },
        );
        let mut sizes = Vec::new();
        for t in 0..inst.horizon() {
            b.decide(&inst, t);
            c.decide(&inst, t);
            if t + 1 == 1024 || t + 1 == 16_384 {
                sizes.push((size(&|e| b.save_state(e)), size(&|e| c.save_state(e))));
            }
        }
        assert!(c.subslots_max() > 1, "the trace must make C refine");
        assert_eq!(sizes[0], sizes[1], "checkpoint bytes (B, C) at t = 1k vs 16k");
    }

    #[test]
    fn restore_rejects_wrong_algorithm_and_instance() {
        let inst = instance();
        let oracle = Dispatcher::new();
        let a = AlgorithmA::new(&inst, oracle, AOptions::default());
        let snap = save_run(&a, &inst, &Schedule::empty());

        let other = Instance::builder()
            .server_type(ServerType::new("a", 3, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
            .server_type(ServerType::new("b", 2, 4.0, 2.0, CostModel::constant(1.2)))
            .loads(vec![2.0, 4.0, 0.0, 2.0, 5.0, 1.0, 0.0, 3.0])
            .build()
            .unwrap();
        let mut fresh = AlgorithmA::new(&other, oracle, AOptions::default());
        assert_eq!(
            restore_run(&mut fresh, &other, &snap).unwrap_err(),
            SnapshotError::Corrupt("snapshot was taken against a different instance")
        );

        let mut b = crate::algo_b::AlgorithmB::new(&inst, oracle, AOptions::default());
        assert_eq!(
            restore_run(&mut b, &inst, &snap).unwrap_err(),
            SnapshotError::Corrupt("snapshot was taken by a different algorithm")
        );
    }
}
