//! # rsz-offline — offline algorithms for right-sizing (Section 4)
//!
//! Implements the paper's offline machinery:
//!
//! * [`dp`] — the optimal dynamic program over the full configuration
//!   grid (Section 4.1), with per-slot candidate grids so time-varying
//!   fleet sizes (Section 4.3) come for free. The DP transition uses the
//!   linear-time power-up distance [`transform`], giving `O(T·|grid|·d)`
//!   per solve plus one dispatch solve per cell.
//! * [`graph`] — the paper's explicit two-layer graph `G(I)` (Figure 4)
//!   solved by per-layer relaxations with plain per-cell pricing; the
//!   independent reference the DP, the prefix solver and the online
//!   algorithms are cross-checked against (with [`brute`] for tiny
//!   instances).
//! * [`grid`] + [`approx`] — the reduced level sets `M^γ_j` and the
//!   `(1+ε)`-approximation of Theorems 16/21.
//! * [`rounding`] — the corridor witness `X'` from the proof of
//!   Theorem 16 (Equation 18), used by experiments to exhibit the
//!   constructive argument.
//! * [`pipeline`] — the slot-batched pricing pipeline (barrier-free
//!   `g_t` pricing in layout-order row sweeps with time-independent
//!   slot de-duplication through [`engine`]'s pool) plus schedule
//!   recovery that follows certified backtrack pointers and replays a
//!   `√T` segment from its checkpoint only where a pointer is not
//!   certified or none was recorded; the one path behind [`dp::solve`].
//! * [`incremental`] — a rolling prefix-optimal solver, the substrate
//!   that makes the online algorithms of Sections 2–3 efficient. It
//!   steps in place (double-buffered tables, persistent scratch) and
//!   prices through [`engine`]'s dense priced-slot pool.
//! * [`engine`] — the pricing layer of every solver: whole-grid `g_t`
//!   tables priced once by one sweep and retained in the one bounded
//!   `(slot partition, λ, grid)` pool, whose misses all take one
//!   look-up / price / retain path; its [`engine::snapshot`] submodule
//!   serializes resumable engine state into versioned, checksummed
//!   snapshots so interrupted online runs restart bit-identically.
//! * [`refine`] — the coarse-to-fine **corridor solver**: a cheap
//!   `Γ(γ₀)` coarse solve localizes the optimum, the DP then runs on
//!   per-slot bands of the fine grid only, and an exactness-guarded
//!   expansion fixpoint re-solves until the banded optimum touches no
//!   band boundary (schedules identical to unrestricted solves,
//!   property-tested; a `(1+ε)` early-stop mode reuses Theorem 21).
//! * [`kernels`] — the kernel layer: chunked 4-lane implementations of
//!   the three hot loops every solve path bottoms out in (suffix minima,
//!   the pricing fold, the windowed argmin), each the only production
//!   path and each pinned bit for bit to a scalar reference twin by the
//!   parity tests, plus the one documented home of the relative-epsilon
//!   tie-break rule.
//! * [`relax`] — the fractional relaxation via server subdivision, for
//!   integrality-gap measurements against the prior fractional work.
//! * [`brute`] — exhaustive enumeration for tiny instances (test oracle).

#![warn(missing_docs)]

pub mod approx;
pub mod brute;
pub mod dp;
pub mod engine;
pub mod graph;
pub mod grid;
pub mod incremental;
pub mod kernels;
pub mod pipeline;
pub mod refine;
pub mod relax;
pub mod rounding;
pub mod table;
pub mod transform;

pub use approx::{approximate, ApproxResult};
pub use dp::{
    solve, solve_cost_only, solve_with_stats, try_solve, validate_for_solve, DpOptions, DpResult,
    RecoveryMode,
};
pub use engine::snapshot::{
    checksum, checksum_continue, payload_range, Decoder, Encoder, SnapshotError,
};
pub use engine::{
    lock_shared, shared_pool, EngineStats, PricedSlot, PricedSlotPool, SharedSlotPool,
    DEFAULT_POOL_CAP,
};
pub use graph::{solve as solve_graph, GraphResult};
pub use grid::GridMode;
pub use incremental::PrefixDp;
pub use pipeline::RecoveryStats;
pub use refine::{solve_refined, RefineOptions, RefineStats};
pub use table::Table;
pub use transform::TransformScratch;
