//! Stochastic workload processes. All generators take an explicit seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Trace;

/// Add zero-mean Gaussian noise (Box–Muller) with standard deviation
/// `sigma` to a trace, clamping at zero.
#[must_use]
pub fn with_gaussian_noise(trace: &Trace, sigma: f64, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    Trace::new(trace.values().iter().map(|&v| v + sigma * gaussian(&mut rng)).collect())
}

/// Poisson-arrival volumes: each slot draws `Poisson(rate)` jobs of size
/// `job_size` (Knuth's method; `rate` should stay moderate, ≤ ~50).
#[must_use]
pub fn poisson(len: usize, rate: f64, job_size: f64, seed: u64) -> Trace {
    assert!(rate >= 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    Trace::new((0..len).map(|_| f64::from(poisson_draw(&mut rng, rate)) * job_size).collect())
}

/// Two-state Markov-modulated process: a "calm" state with rate
/// `low_rate` and a "burst" state with rate `high_rate`; per-slot
/// transition probabilities `p_enter_burst` and `p_exit_burst`.
/// Classic model for flash-crowd traffic.
#[must_use]
pub fn mmpp(
    len: usize,
    low_rate: f64,
    high_rate: f64,
    p_enter_burst: f64,
    p_exit_burst: f64,
    job_size: f64,
    seed: u64,
) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut burst = false;
    Trace::new(
        (0..len)
            .map(|_| {
                let flip: f64 = rng.gen();
                if burst {
                    if flip < p_exit_burst {
                        burst = false;
                    }
                } else if flip < p_enter_burst {
                    burst = true;
                }
                let rate = if burst { high_rate } else { low_rate };
                f64::from(poisson_draw(&mut rng, rate)) * job_size
            })
            .collect(),
    )
}

/// Reflected random walk in `[0, max]` with uniform steps in
/// `[-step, step]`.
#[must_use]
pub fn random_walk(len: usize, start: f64, step: f64, max: f64, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cur = start.clamp(0.0, max);
    Trace::new(
        (0..len)
            .map(|_| {
                cur = (cur + rng.gen_range(-step..=step)).clamp(0.0, max);
                cur
            })
            .collect(),
    )
}

/// Sparse heavy spikes on a base level: each slot independently spikes
/// with probability `p_spike` to a height uniform in
/// `[base, base + spike_height]`.
#[must_use]
pub fn spiky(len: usize, base: f64, spike_height: f64, p_spike: f64, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    Trace::new(
        (0..len)
            .map(|_| {
                if rng.gen::<f64>() < p_spike {
                    base + rng.gen_range(0.0..=spike_height)
                } else {
                    base
                }
            })
            .collect(),
    )
}

fn gaussian(rng: &mut StdRng) -> f64 {
    // Box–Muller; u1 bounded away from 0.
    let u1: f64 = rng.gen_range(rsz_core::util::BOX_MULLER_MIN_U..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn poisson_draw(rng: &mut StdRng, rate: f64) -> u32 {
    if rate <= 0.0 {
        return 0;
    }
    let l = (-rate).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l || k > 10_000 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::constant;

    #[test]
    fn deterministic_under_seed() {
        let a = poisson(16, 3.0, 1.0, 7);
        let b = poisson(16, 3.0, 1.0, 7);
        assert_eq!(a, b);
        let c = poisson(16, 3.0, 1.0, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_mean_roughly_rate() {
        let t = poisson(4000, 5.0, 1.0, 1);
        assert!((t.mean() - 5.0).abs() < 0.3, "mean {}", t.mean());
    }

    #[test]
    fn noise_keeps_values_nonnegative() {
        let t = with_gaussian_noise(&constant(500, 0.5), 2.0, 3);
        assert!(t.values().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn mmpp_bursts_raise_peak() {
        let calm = poisson(2000, 2.0, 1.0, 5);
        let bursty = mmpp(2000, 2.0, 20.0, 0.05, 0.2, 1.0, 5);
        assert!(bursty.peak() > calm.peak());
        assert!(bursty.peak_to_mean() > calm.peak_to_mean());
    }

    #[test]
    fn random_walk_respects_bounds() {
        let t = random_walk(1000, 5.0, 2.0, 8.0, 11);
        assert!(t.values().iter().all(|&v| (0.0..=8.0).contains(&v)));
    }

    #[test]
    fn spiky_base_level() {
        let t = spiky(100, 1.0, 10.0, 0.1, 2);
        assert!(t.values().iter().all(|&v| v >= 1.0));
        assert!(t.peak() > 1.0);
    }
}
