//! Steady-state kernel-layer timing shared by the solver benches.
//!
//! The end-to-end scenarios of `dp_pipeline` / `dp_refine` mix oracle
//! pricing (KKT dispatch solves) with the kernel-layer work this PR
//! vectorized, so a whole-solve ratio understates the kernel win. This
//! module isolates the kernels on the *same gated instances*: it runs
//! the online engine's [`PrefixDp`] in engine mode, prices the pool
//! during an untimed warm-up (tiled diurnal traces repeat their λ
//! values, so every later slot is a pool hit), and then times
//! steady-state steps — each of which is exactly one arrival transform,
//! one priced-slot fold and one windowed argmin, with **zero** oracle
//! calls. The scalar side runs the identical steps under
//! [`kernels::force_scalar`], i.e. the pre-refactor per-cell paths.
//!
//! Both modes must pick the same configurations and land on the same
//! prefix-optimum bits — the measurement asserts the kernel layer's
//! bit-identity contract while it times it.

use std::time::Instant;

use rsz_core::Instance;
use rsz_dispatch::Dispatcher;
use rsz_offline::dp::DpOptions;
use rsz_offline::{kernels, PrefixDp};

/// Wall-clock of the steady-state stepping loop under both kernel modes.
#[derive(Clone, Copy, Debug)]
pub struct KernelTiming {
    /// Best-of-iterations time of the timed steps, scalar twins forced.
    pub scalar_ms: f64,
    /// Best-of-iterations time of the timed steps, lanes kernels.
    pub simd_ms: f64,
}

impl KernelTiming {
    /// Scalar over lanes wall-clock — the kernel layer's speedup.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.scalar_ms / self.simd_ms
    }
}

/// Time `timed` steady-state engine-mode steps of `instance` after
/// `warm` untimed pool-warming steps, under the lanes kernels and the
/// scalar twins, best-of-`iterations` each.
///
/// The timed steps replay the warmed slots' λ values cyclically
/// (`λ = load(t mod warm)` via [`PrefixDp::step_scaled`]), so every
/// timed step is a pool hit by construction — pure kernel work —
/// whatever the instance's load period. The resulting prefix cost is
/// not the instance's true prefix optimum, which the measurement never
/// claims; both modes fold the identical slot stream.
///
/// # Panics
/// Panics if `warm` is zero, if the horizon is shorter than
/// `warm + timed`, or if the two modes disagree on any chosen
/// configuration or on the final prefix-optimum bits (the kernel
/// layer's bit-identity contract).
#[must_use]
pub fn measure(instance: &Instance, warm: usize, timed: usize, iterations: usize) -> KernelTiming {
    assert!(warm > 0, "need at least one pool-warming slot");
    assert!(
        warm + timed <= instance.horizon(),
        "kernel timing needs {warm}+{timed} slots, horizon is {}",
        instance.horizon()
    );
    let run_mode = |scalar: bool| -> (f64, Vec<rsz_core::Config>, u64) {
        kernels::force_scalar(scalar);
        let oracle = Dispatcher::new();
        let opts = DpOptions::default();
        let mut best = f64::INFINITY;
        let mut outcome = None;
        for _ in 0..iterations.max(1) {
            let mut dp = PrefixDp::new(instance, opts);
            for t in 0..warm {
                let _ = dp.step(instance, &oracle, t);
            }
            let start = Instant::now();
            let mut configs = Vec::with_capacity(timed);
            for t in warm..warm + timed {
                configs.push(dp.step_scaled(instance, &oracle, t, instance.load(t % warm), 1.0));
            }
            best = best.min(start.elapsed().as_secs_f64());
            outcome = Some((configs, dp.prefix_opt_cost().to_bits()));
        }
        kernels::force_scalar(false);
        let (configs, cost_bits) = outcome.expect("at least one iteration");
        (best, configs, cost_bits)
    };

    let (simd_secs, simd_configs, simd_bits) = run_mode(false);
    let (scalar_secs, scalar_configs, scalar_bits) = run_mode(true);
    assert_eq!(simd_configs, scalar_configs, "kernel modes diverged on a chosen configuration");
    assert_eq!(simd_bits, scalar_bits, "kernel modes diverged on the prefix-optimum bits");
    KernelTiming { scalar_ms: scalar_secs * 1e3, simd_ms: simd_secs * 1e3 }
}
