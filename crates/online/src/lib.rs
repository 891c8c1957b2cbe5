//! # rsz-online — the paper's online algorithms (Sections 2–3)
//!
//! * [`algo_a`] — **Algorithm A** for time-independent operating costs:
//!   `(2d+1)`-competitive (Theorem 8), `2d`-competitive when costs are
//!   also load-independent (Corollary 9).
//! * [`algo_b`] — **Algorithm B** for time-dependent costs:
//!   `(2d+1+c(I))`-competitive with `c(I) = Σ_j max_t l_{t,j}/β_j`
//!   (Theorem 13).
//! * [`algo_c`] — **Algorithm C**: runs B on a sub-slot refinement to push
//!   the ratio down to `2d+1+ε` for any `ε > 0` (Theorem 15).
//! * [`lcp`] — discrete Lazy Capacity Provisioning for `d = 1`, in the
//!   spirit of the optimal homogeneous algorithm of Albers & Quedenfeld
//!   (SPAA'18) that this paper generalizes; the homogeneous baseline.
//! * [`baselines`] — practical heuristics every data-center operator
//!   would reach for first (all-on, myopic, reactive-with-timeout,
//!   optimal static provisioning), used in the motivation experiments.
//! * [`blocks`] — the block/special-slot decomposition of the
//!   competitive analysis (Figure 2), exposed so experiments can verify
//!   the proof's combinatorial invariants on real runs.
//! * [`runner`] — drives any [`OnlineAlgorithm`] over an instance slot by
//!   slot and prices the resulting schedule.
//! * [`actuation`] — materializes count schedules into per-server power
//!   commands with wear-leveling policies (the integration surface a
//!   cluster controller consumes).
//! * [`checkpoint`] — snapshot/restore for every shipping controller:
//!   interrupted runs restart mid-horizon and continue bit-identically
//!   (versioned, checksummed envelopes via `rsz_offline`'s snapshot
//!   layer).
//! * [`degrade`] — the graceful-degradation ladder: per-decision
//!   deadline budgets falling back exact → `Γ(γ₀)`-coarse →
//!   hold-previous, with per-rung counters and structured saturation
//!   reports instead of assertions.
//! * [`registry`] — the one table of shipping algorithms: parses a
//!   spelling (`a | b | c[:ε] | lcp | rhc[:w]`), checks it against the
//!   fleet and builds the boxed [`Controller`] that `rsz solve`,
//!   `rsz simulate` and the serve daemon all drive.
//!
//! All algorithms consume the instance strictly online: `decide(inst, t)`
//! may inspect loads and cost functions of slots `≤ t` only (a
//! convention the runner's prefix-revelation test mode verifies).

#![warn(missing_docs)]

pub mod actuation;
pub mod algo_a;
pub mod algo_b;
pub mod algo_c;
pub mod baselines;
pub mod blocks;
pub mod checkpoint;
pub mod degrade;
pub mod lcp;
pub mod receding;
pub mod registry;
pub mod runner;

pub use algo_a::AlgorithmA;
pub use algo_b::AlgorithmB;
pub use algo_c::AlgorithmC;
pub use checkpoint::{
    restore_controller, restore_run, run_checkpointed, save_controller, save_run, Checkpoint,
};
pub use degrade::{DegradeOptions, DegradeStats, GracefulDegrader, Rung};
pub use lcp::LazyCapacityProvisioning;
pub use receding::RecedingHorizon;
pub use registry::{Algorithm, Controller};
pub use runner::{run, run_instrumented, LatencyProfile, OnlineAlgorithm, OnlineRun};
