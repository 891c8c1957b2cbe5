//! Heterogeneous fleet presets.

use rsz_core::{CostModel, ServerType};

use crate::costs;

/// Homogeneous fleet: `m` identical servers (the Lin et al. setting the
/// paper generalizes).
#[must_use]
pub fn homogeneous(m: u32, beta: f64, zmax: f64, cost: CostModel) -> Vec<ServerType> {
    vec![ServerType::new("server", m, beta, zmax, cost)]
}

/// CPU + GPU fleet (the paper's motivating heterogeneity): many CPU
/// nodes with capacity 1, few GPU nodes with capacity 4 but higher
/// switching cost and idle draw.
#[must_use]
pub fn cpu_gpu(cpus: u32, gpus: u32) -> Vec<ServerType> {
    vec![
        ServerType::new("cpu", cpus, 3.0, 1.0, costs::energy_proportional(0.5, 1.2, 1.0)),
        ServerType::new("gpu", gpus, 12.0, 4.0, costs::dvfs(1.6, 4.0, 4.0, 2.0)),
    ]
}

/// Old + new server generations: the common expansion pattern where new
/// efficient machines join a legacy fleet that is kept in service.
#[must_use]
pub fn old_new(old: u32, new: u32) -> Vec<ServerType> {
    vec![
        ServerType::new("legacy", old, 2.0, 1.0, costs::energy_proportional(1.0, 2.0, 1.0)),
        ServerType::new("current", new, 4.0, 2.0, costs::energy_proportional(0.6, 1.6, 2.0)),
    ]
}

/// Three-tier fleet: legacy CPUs, current CPUs, GPUs.
#[must_use]
pub fn three_tier(legacy: u32, current: u32, gpus: u32) -> Vec<ServerType> {
    vec![
        ServerType::new("legacy", legacy, 2.0, 1.0, costs::energy_proportional(1.0, 2.0, 1.0)),
        ServerType::new("current", current, 4.0, 2.0, costs::energy_proportional(0.5, 1.4, 2.0)),
        ServerType::new("gpu", gpus, 10.0, 4.0, costs::dvfs(1.5, 4.0, 4.0, 2.0)),
    ]
}

/// A parameterized `d`-type family with *small* fleets, designed for the
/// ratio experiments where the exact DP must stay tractable: type `j`
/// has capacity `2^j`, switching cost growing with capacity, and
/// slightly sub-linear idle-cost scaling so no type dominates.
#[must_use]
pub fn scaling_family(d: usize, per_type: u32) -> Vec<ServerType> {
    (0..d)
        .map(|j| {
            let cap = f64::powi(2.0, j as i32);
            ServerType::new(
                format!("tier{j}"),
                per_type,
                1.5 * cap.sqrt() + j as f64,
                cap,
                CostModel::linear(0.4 * cap.powf(0.8), 0.6),
            )
        })
        .collect()
}

/// Total capacity of a fleet (all servers on).
#[must_use]
pub fn total_capacity(types: &[ServerType]) -> f64 {
    types.iter().map(ServerType::fleet_capacity).sum()
}

/// Split a `NAME:PARAMS` fleet preset spec into its name and parsed
/// counts: what a spec means, whatever its spelling (`three-tier:06,6,3`
/// and `three-tier:6,6,3` split alike). The serve daemon keys its shared
/// pools by it.
pub fn preset(spec: &str) -> Result<(&str, Vec<u32>), String> {
    let (name, params) = spec.split_once(':').ok_or("fleet must be NAME:PARAMS")?;
    let nums: Result<Vec<u32>, _> = params.split(',').map(str::parse).collect();
    Ok((name, nums.map_err(|e| format!("bad fleet parameters: {e}"))?))
}

/// Parse a `NAME:PARAMS` fleet preset spec — the syntax shared by the
/// `rsz` CLI's `--fleet` flag and the serve daemon's tenant
/// registration: `homogeneous:M`, `cpu-gpu:C,G`, `old-new:O,N`,
/// `three-tier:L,C,G`. The fleet is a function of the [`preset`] split
/// alone, so specs that split alike produce identical fleets.
pub fn parse(spec: &str) -> Result<Vec<ServerType>, String> {
    let (name, nums) = preset(spec)?;
    match (name, nums.as_slice()) {
        ("homogeneous", [m]) => Ok(homogeneous(*m, 3.0, 1.0, CostModel::linear(0.5, 1.0))),
        ("cpu-gpu", [c, g]) => Ok(cpu_gpu(*c, *g)),
        ("old-new", [o, n]) => Ok(old_new(*o, *n)),
        ("three-tier", [l, c, g]) => Ok(three_tier(*l, *c, *g)),
        _ => Err(format!("unknown fleet `{spec}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shape() {
        assert_eq!(homogeneous(8, 1.0, 1.0, CostModel::constant(1.0)).len(), 1);
        assert_eq!(cpu_gpu(8, 2).len(), 2);
        assert_eq!(old_new(5, 5).len(), 2);
        assert_eq!(three_tier(4, 4, 2).len(), 3);
    }

    #[test]
    fn cpu_gpu_capacity() {
        let f = cpu_gpu(8, 2);
        assert!((total_capacity(&f) - (8.0 + 8.0)).abs() < 1e-12);
    }

    #[test]
    fn scaling_family_monotone_capacity() {
        let f = scaling_family(4, 2);
        assert_eq!(f.len(), 4);
        for w in f.windows(2) {
            assert!(w[1].capacity > w[0].capacity);
            assert!(w[1].switching_cost > w[0].switching_cost);
        }
    }

    #[test]
    fn gpu_idle_exceeds_cpu_idle() {
        let f = cpu_gpu(1, 1);
        assert!(f[1].idle_cost(0) > f[0].idle_cost(0));
    }

    #[test]
    fn parse_round_trips_the_presets() {
        assert_eq!(parse("homogeneous:8").unwrap().len(), 1);
        assert_eq!(parse("cpu-gpu:8,2").unwrap().len(), 2);
        assert_eq!(parse("old-new:5,5").unwrap().len(), 2);
        assert_eq!(parse("three-tier:4,4,2").unwrap().len(), 3);
        assert!(parse("cpu-gpu").is_err());
        assert!(parse("cpu-gpu:1").is_err());
        assert!(parse("warp-core:9").is_err());
    }
}
