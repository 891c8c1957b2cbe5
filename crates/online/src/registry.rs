//! The algorithm registry: the one place an online algorithm's spelling
//! is read, checked against a fleet and built into a controller.
//!
//! `rsz solve --algorithm`, `rsz simulate --algo` and the serve daemon's
//! tenant specs all go through [`Algorithm::parse`] and
//! [`Algorithm::build`], so one spelling names one controller
//! everywhere. Each [`Algorithm`] variant documents its spelling, its
//! default parameter, the fleets it takes and its competitive ratio.

use rsz_core::{Config, Instance};
use rsz_dispatch::Dispatcher;
use rsz_offline::{Decoder, DpOptions, Encoder, EngineStats, SharedSlotPool, SnapshotError};

use crate::algo_a::AOptions;
use crate::algo_c::COptions;
use crate::checkpoint::Checkpoint;
use crate::runner::OnlineAlgorithm;
use crate::{AlgorithmA, AlgorithmB, AlgorithmC, LazyCapacityProvisioning, RecedingHorizon};

/// What a long-lived host needs from a controller beyond deciding and
/// checkpointing: its pricing counters and a shared pricing pool.
pub trait Controller: OnlineAlgorithm + Checkpoint + Send {
    /// Pricing counters of the controller's engine (`None` before a
    /// controller that binds its pool lazily has decided).
    fn engine_stats(&self) -> Option<EngineStats>;

    /// Price through `pool`, shared with other controllers of the same
    /// fleet and grid (see [`rsz_offline::SharedSlotPool`]). A no-op for
    /// the receding-horizon baseline, which pools per window internally.
    fn share_pool(&mut self, pool: SharedSlotPool);
}

impl<A: OnlineAlgorithm + ?Sized> OnlineAlgorithm for Box<A> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn decide(&mut self, instance: &Instance, t: usize) -> Config {
        (**self).decide(instance, t)
    }
}

impl<A: Checkpoint + ?Sized> Checkpoint for Box<A> {
    fn algo_tag(&self) -> &'static str {
        (**self).algo_tag()
    }
    fn save_state(&self, enc: &mut Encoder) {
        (**self).save_state(enc);
    }
    fn restore_state(
        &mut self,
        instance: &Instance,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError> {
        (**self).restore_state(instance, dec)
    }
}

/// One of the shipping online algorithms, with its parameter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algorithm {
    /// `a`: Algorithm A, `(2d+1)`-competitive (Theorem 8), `2d` with
    /// load-independent costs (Corollary 9).
    A,
    /// `b`: Algorithm B, `(2d+1+c(I))`-competitive (Theorem 13).
    B,
    /// `c[:ε]`: Algorithm C, `(2d+1+ε)`-competitive (Theorem 15).
    C {
        /// `ε > 0`, 0.5 when the spelling gives none.
        epsilon: f64,
    },
    /// `lcp`: lazy capacity provisioning, 3-competitive, on homogeneous
    /// fleets (`d = 1`) only.
    Lcp,
    /// `rhc[:w]`: receding-horizon control, which reads `w` slots ahead
    /// and has no competitive guarantee.
    Rhc {
        /// `w ≥ 1`, 4 when the spelling gives none.
        window: usize,
    },
}

impl Algorithm {
    /// Read `spelling` for a fleet of `num_types` server types. The error
    /// is the detail every entry point reports.
    pub fn parse(spelling: &str, num_types: usize) -> Result<Self, String> {
        let (name, param) = match spelling.split_once(':') {
            Some((name, param)) => (name, Some(param)),
            None => (spelling, None),
        };
        let number = |p: &str| -> Result<f64, String> {
            p.parse().map_err(|e| format!("bad parameter for `{name}`: {e}"))
        };
        let out_of_range = |p: &str| format!("parameter {p} out of range for `{name}`");
        let algorithm = match (name, param) {
            ("a", None) => Self::A,
            ("b", None) => Self::B,
            ("lcp", None) => Self::Lcp,
            ("a" | "b" | "lcp", Some(_)) => {
                return Err(format!("algorithm `{name}` takes no parameter"))
            }
            ("c", None) => Self::C { epsilon: 0.5 },
            ("c", Some(p)) => match number(p)? {
                epsilon if epsilon > 0.0 && epsilon.is_finite() => Self::C { epsilon },
                _ => return Err(out_of_range(p)),
            },
            ("rhc", None) => Self::Rhc { window: 4 },
            ("rhc", Some(p)) => match number(p)? {
                w if (1.0..=1e9).contains(&w) && w.fract() == 0.0 => {
                    Self::Rhc { window: w as usize }
                }
                _ => return Err(out_of_range(p)),
            },
            _ => return Err(format!("unknown algorithm `{spelling}`")),
        };
        if algorithm == Self::Lcp && num_types != 1 {
            return Err("lcp requires a homogeneous fleet (d = 1)".into());
        }
        Ok(algorithm)
    }

    /// Build the controller for `instance`. Every algorithm steps its
    /// solver on `options.grid`; the receding-horizon window DP also
    /// runs `options.refine`'s corridor solver.
    ///
    /// # Panics
    /// Panics as the controller's constructor does: Algorithm A on
    /// time-dependent costs, LCP on a heterogeneous fleet.
    #[must_use]
    pub fn build(self, instance: &Instance, options: DpOptions) -> Box<dyn Controller> {
        let oracle = Dispatcher::new();
        let base = AOptions { grid: options.grid };
        match self {
            Self::A => Box::new(AlgorithmA::new(instance, oracle, base)),
            Self::B => Box::new(AlgorithmB::new(instance, oracle, base)),
            Self::C { epsilon } => Box::new(AlgorithmC::new(
                instance,
                oracle,
                COptions { epsilon, base, ..COptions::default() },
            )),
            Self::Lcp => Box::new(LazyCapacityProvisioning::with_options(
                instance,
                oracle,
                base.dp_options(),
            )),
            Self::Rhc { window } => Box::new(
                RecedingHorizon::new(oracle, window)
                    .with_options(DpOptions { refine: options.refine, ..base.dp_options() }),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings_parse_with_their_defaults() {
        for (spelling, want) in [
            ("a", Algorithm::A),
            ("b", Algorithm::B),
            ("c", Algorithm::C { epsilon: 0.5 }),
            ("c:0.25", Algorithm::C { epsilon: 0.25 }),
            ("rhc", Algorithm::Rhc { window: 4 }),
            ("rhc:6", Algorithm::Rhc { window: 6 }),
        ] {
            assert_eq!(Algorithm::parse(spelling, 2), Ok(want), "{spelling}");
        }
        assert_eq!(Algorithm::parse("lcp", 1), Ok(Algorithm::Lcp));
    }

    #[test]
    fn invalid_spellings_name_what_is_wrong() {
        for (spelling, d, detail) in [
            ("x", 2, "unknown algorithm `x`"),
            ("a:1", 2, "algorithm `a` takes no parameter"),
            ("c:0", 2, "parameter 0 out of range for `c`"),
            ("c:-1", 2, "parameter -1 out of range for `c`"),
            ("c:inf", 2, "parameter inf out of range for `c`"),
            ("rhc:0", 2, "parameter 0 out of range for `rhc`"),
            ("rhc:1.5", 2, "parameter 1.5 out of range for `rhc`"),
            ("rhc:w", 2, "bad parameter for `rhc`: invalid float literal"),
            ("lcp", 2, "lcp requires a homogeneous fleet (d = 1)"),
        ] {
            assert_eq!(Algorithm::parse(spelling, d), Err(detail.to_owned()), "{spelling}");
        }
    }
}
