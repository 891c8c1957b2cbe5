//! Operating-cost and electricity-price presets.

use std::f64::consts::TAU;

use rsz_core::CostModel;

/// Energy-proportional server: idle draw `idle_watts`, linear to
/// `peak_watts` at full load `zmax` — the standard model from the
/// power-proportionality literature (costs are in "energy units per
/// slot", load in job-volume units).
#[must_use]
pub fn energy_proportional(idle_watts: f64, peak_watts: f64, zmax: f64) -> CostModel {
    assert!(peak_watts >= idle_watts && zmax > 0.0);
    CostModel::linear(idle_watts, (peak_watts - idle_watts) / zmax)
}

/// Super-linear DVFS curve: `idle + coef·z^alpha` scaled so full load
/// `zmax` costs `peak_watts`. `alpha ≈ 2–3` models voltage scaling
/// (Wierman et al., INFOCOM'09).
#[must_use]
pub fn dvfs(idle_watts: f64, peak_watts: f64, zmax: f64, alpha: f64) -> CostModel {
    assert!(peak_watts >= idle_watts && zmax > 0.0 && alpha >= 1.0);
    let coef = (peak_watts - idle_watts) / zmax.powf(alpha);
    CostModel::power(idle_watts, coef, alpha)
}

/// Day/night electricity-price profile: sinusoid between `night` and
/// `day` price multipliers with the given period (slots per day). Use as
/// the factor vector of `CostSpec::scaled`.
#[must_use]
pub fn price_profile_diurnal(len: usize, night: f64, day: f64, period: usize) -> Vec<f64> {
    assert!(period > 0 && night >= 0.0 && day >= night);
    (0..len)
        .map(|t| {
            let angle = TAU * t as f64 / period as f64;
            night + (day - night) * (1.0 + angle.sin()) / 2.0
        })
        .collect()
}

/// Spot-market style price profile with occasional surge hours.
#[must_use]
pub fn price_profile_spiky(len: usize, base: f64, surge: f64, surge_every: usize) -> Vec<f64> {
    assert!(surge_every > 0);
    (0..len).map(|t| if t % surge_every == surge_every - 1 { surge } else { base }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_proportional_endpoints() {
        let m = energy_proportional(100.0, 250.0, 4.0);
        assert!((m.eval(0.0) - 100.0).abs() < 1e-12);
        assert!((m.eval(4.0) - 250.0).abs() < 1e-12);
    }

    #[test]
    fn dvfs_endpoints_and_convexity() {
        let m = dvfs(50.0, 200.0, 2.0, 2.5);
        assert!((m.eval(0.0) - 50.0).abs() < 1e-12);
        assert!((m.eval(2.0) - 200.0).abs() < 1e-9);
        // strictly convex: midpoint below average
        assert!(m.eval(1.0) < 125.0);
    }

    #[test]
    fn price_profiles_in_band() {
        let p = price_profile_diurnal(48, 0.5, 2.0, 24);
        assert!(p.iter().all(|&x| (0.5..=2.0 + 1e-12).contains(&x)));
        let s = price_profile_spiky(10, 1.0, 5.0, 5);
        assert_eq!(s[4], 5.0);
        assert_eq!(s[0], 1.0);
    }
}
