//! Seeded inputs, one generator per workload. The program under test
//! only ever sees what these produce: request lines for the daemon and
//! an `Instance` for the planner.

use rsz_core::ServerType;
use rsz_workloads::{fleet, patterns, stochastic};

use crate::cli::Size;

/// One tenant of a serve workload: its registration line and its trace.
#[derive(Clone, Debug)]
pub struct TenantPlan {
    /// Tenant name.
    pub name: String,
    /// The `register` request line (no deadline: decisions are
    /// deterministic, so every reply can be checked).
    pub register: String,
    /// One load per tick.
    pub loads: Vec<f64>,
}

impl TenantPlan {
    fn new(name: String, fleet: &str, algo: &str, loads: Vec<f64>) -> Self {
        let register = format!(
            r#"{{"op":"register","tenant":"{name}","fleet":"{fleet}","algo":"{algo}","engine":true}}"#
        );
        Self { name, register, loads }
    }

    /// The `tick` request line for slot `seq`.
    #[must_use]
    pub fn tick_line(&self, seq: usize) -> String {
        format!(
            r#"{{"op":"tick","tenant":"{}","seq":{seq},"load":{}}}"#,
            self.name, self.loads[seq]
        )
    }
}

/// A serve workload: tenants ticked round-robin for `horizon` slots.
#[derive(Clone, Debug)]
pub struct ServePlan {
    /// The tenants.
    pub tenants: Vec<TenantPlan>,
    /// Slots per tenant.
    pub horizon: usize,
    /// Scrape `GET /metrics` after every this many timed ticks.
    pub scrape_every: usize,
    /// Extra set-ups (start, register, first ticks) timed before each
    /// round, so `setup_s` is a median over many.
    pub setups: usize,
}

/// A diurnal trace at 15-minute slots (96 per day) with Gaussian noise,
/// clamped into `[0, cap]`.
fn noisy_diurnal(len: usize, cap: f64, phase: f64, sigma: f64, seed: u64) -> Vec<f64> {
    let shape = patterns::diurnal(len, 0.15 * cap, 0.6 * cap, 96, phase);
    let noisy = stochastic::with_gaussian_noise(&shape, sigma * cap, seed);
    noisy.capped(cap).into_values().into_iter().map(|v| v.max(0.0)).collect()
}

/// Deterministic per-seed fraction in `[0, 1)` (SplitMix64 finalizer).
fn unit(seed: u64, salt: u64) -> f64 {
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as f64 / 2f64.powi(64)
}

/// `serve_long_horizon`: one tenant per fleet preset (A, B, C(0.5), and
/// LCP on the homogeneous fleet), each streaming thousands of noisy
/// loads that never repeat, then a kill -9 and a read-only restart. Why:
/// every per-tick cost that grows with a tenant's age does most of its
/// work here, and unique loads make the shared pricing pool miss, so
/// each tick also prices its own slot.
#[must_use]
pub fn serve_long_horizon(seed: u64, size: Size) -> ServePlan {
    let horizon = match size {
        // Past the 4096-entry latency window, so its trimming runs too.
        Size::Full => 4608,
        Size::Tiny => 40,
    };
    let tenants = [
        ("lh-a", "cpu-gpu:2,1", "a"),
        ("lh-b", "old-new:2,2", "b"),
        ("lh-c", "three-tier:2,2,1", "c:0.5"),
        ("lh-lcp", "homogeneous:4", "lcp"),
    ];
    let tenants = tenants
        .iter()
        .enumerate()
        .map(|(i, &(name, fleet_spec, algo))| {
            let cap = fleet::total_capacity(&fleet::parse(fleet_spec).expect("preset")) * 0.9;
            let salt = i as u64 + 1;
            let loads = noisy_diurnal(horizon, cap, unit(seed, salt), 0.04, seed ^ (salt << 32));
            TenantPlan::new(name.to_owned(), fleet_spec, algo, loads)
        })
        .collect();
    ServePlan { tenants, horizon, scrape_every: 1024, setups: 10 }
}

/// `serve_fanout`: thousands of tenants over four shared `(fleet, grid)`
/// pool keys, each a short horizon of quantized loads that repeat across
/// tenants, then a kill -9 and a read-only restart. Why: per-tenant and
/// per-directory costs dominate (snapshot compaction's directory scan,
/// recovery's per-tenant scans) while horizon growth stays small, and
/// cross-tenant pool hits carry the pricing.
#[must_use]
pub fn serve_fanout(seed: u64, size: Size) -> ServePlan {
    let (count, horizon) = match size {
        Size::Full => (1000, 32),
        Size::Tiny => (12, 20),
    };
    const FLEETS: [&str; 4] = ["cpu-gpu:2,1", "cpu-gpu:4,2", "old-new:2,2", "homogeneous:4"];
    const ALGOS: [&str; 3] = ["a", "b", "c:0.5"];
    let tenants = (0..count)
        .map(|i| {
            let salt = i as u64 + 1;
            // Peak 3.5 fits every fleet (the smallest holds 4); quarter
            // steps make loads repeat across tenants on one pool key.
            let loads = noisy_diurnal(horizon, 3.5, unit(seed, salt), 0.05, seed ^ (salt << 32))
                .into_iter()
                .map(|v| (v * 4.0).round() / 4.0)
                .collect();
            let algo = ALGOS[(i / FLEETS.len()) % ALGOS.len()];
            TenantPlan::new(format!("f{i}"), FLEETS[i % FLEETS.len()], algo, loads)
        })
        .collect();
    let scrape_every = match size {
        Size::Full => 4096,
        Size::Tiny => 64,
    };
    ServePlan { tenants, horizon, scrape_every, setups: 2 }
}

/// `offline_plan`: one d = 3 three-tier fleet over a noisy work-week at
/// 15-minute slots with no exact load repeats. Why: the offline DP stack
/// (pricing, transforms and kernels, refine rounds, checkpointed
/// backtracking) does all the work and no daemon code runs, so a daemon
/// change must leave this workload flat.
#[must_use]
pub fn offline_plan(seed: u64, size: Size) -> (Vec<ServerType>, Vec<f64>) {
    let (types, days) = match size {
        Size::Full => (fleet::three_tier(12, 12, 6), 7),
        Size::Tiny => (fleet::three_tier(3, 3, 2), 1),
    };
    let cap = fleet::total_capacity(&types);
    let week = patterns::work_week(days, 96, 0.1 * cap, 0.6 * cap, 0.6);
    let noisy = stochastic::with_gaussian_noise(&week, 0.01 * cap, seed);
    let loads = noisy.capped(cap).into_values().into_iter().map(|v| v.max(0.0)).collect();
    (types, loads)
}
