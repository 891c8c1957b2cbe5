//! # heterogeneous-rightsizing
//!
//! A production-quality Rust implementation of
//! *Albers & Quedenfeld, "Algorithms for Right-Sizing Heterogeneous Data
//! Centers" (SPAA 2021, arXiv:2107.14692)*: online and offline algorithms
//! that decide, slot by slot, how many servers of each type to keep
//! powered so that operating cost (idle + load-dependent energy) plus
//! switching cost (power-up wear, delay, energy) is minimized.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] | problem model: `Instance`, `Schedule`, convex `CostModel`s |
//! | [`dispatch`] | the per-slot load-dispatch solver computing `g_t(x)` |
//! | [`offline`] | optimal DP / graph algorithm, `(1+ε)`-approximation (Sec. 4) |
//! | [`online`] | Algorithms A, B, C with their proven ratios (Secs. 2–3), baselines |
//! | [`workloads`] | synthetic traces, fleet presets, scenarios |
//! | [`serve`] | crash-safe multi-tenant serving daemon (`rsz serve`) |
//!
//! ## Quickstart
//!
//! ```
//! use heterogeneous_rightsizing::prelude::*;
//!
//! // Two server types: slow/cheap and fast/expensive-to-switch.
//! let instance = Instance::builder()
//!     .server_type(ServerType::new("slow", 4, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
//!     .server_type(ServerType::new("fast", 2, 6.0, 3.0, CostModel::power(1.0, 0.5, 2.0)))
//!     .loads(vec![1.0, 5.0, 2.0, 0.0, 7.0, 3.0])
//!     .build()
//!     .unwrap();
//!
//! let oracle = Dispatcher::new();
//!
//! // Offline optimum (Section 4.1).
//! let opt = offline::solve(&instance, &oracle, DpOptions::default());
//! assert!(opt.schedule.is_feasible(&instance));
//!
//! // Online Algorithm A (Section 2): (2d+1)-competitive.
//! let mut algo = AlgorithmA::new(&instance, oracle, Default::default());
//! let run = online::run(&instance, &mut algo, &oracle);
//! let d = instance.num_types() as f64;
//! assert!(run.cost() <= (2.0 * d + 1.0) * opt.cost + 1e-9);
//! ```

pub use rsz_core as core;
pub use rsz_dispatch as dispatch;
pub use rsz_offline as offline;
pub use rsz_online as online;
pub use rsz_serve as serve;
pub use rsz_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use rsz_core::prelude::*;
    pub use rsz_dispatch::Dispatcher;
    pub use rsz_offline::{self as offline, DpOptions, GridMode};
    pub use rsz_online::{self as online, AlgorithmA, AlgorithmB, AlgorithmC};
    pub use rsz_workloads::{self as workloads, Trace};
}
