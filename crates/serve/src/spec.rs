//! Tenant specifications and boxed controllers.
//!
//! A tenant registers with a *spec*: fleet preset, algorithm, grid, an
//! optional per-decision deadline and a snapshot cadence. The spec is
//! the unit of determinism — the WAL records it verbatim, recovery
//! rebuilds the controller from it, and two tenants whose fleets parse
//! alike on one grid share one priced slot pool.
//!
//! The algorithm half of a spec is read and built by
//! [`rsz_online::Algorithm`], the registry `rsz solve` and
//! `rsz simulate` use too. [`BoxController`] erases the concrete
//! controller type behind one [`Controller`] object, so the daemon
//! wraps every tenant in the same `GracefulDegrader<BoxController, _>`
//! ladder.

use rsz_core::{Config, Instance, ServerType};
use rsz_offline::{
    Decoder, DpOptions, Encoder, EngineStats, GridMode, SharedSlotPool, SnapshotError,
};
use rsz_online::{Algorithm, Checkpoint, Controller, OnlineAlgorithm};
use rsz_workloads::fleet;

use crate::protocol::wire;

/// The grid half of a tenant spec.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GridSpec {
    /// The exact full grid.
    Full,
    /// The geometric `Γ(γ)` grid.
    Gamma(f64),
}

impl GridSpec {
    /// The offline [`GridMode`] this spec selects.
    #[must_use]
    pub fn mode(self) -> GridMode {
        match self {
            GridSpec::Full => GridMode::Full,
            GridSpec::Gamma(g) => GridMode::Gamma(g),
        }
    }

    /// Parse `"full"` or `"gamma:G"`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "full" {
            return Ok(GridSpec::Full);
        }
        if let Some(g) = s.strip_prefix("gamma:") {
            let g: f64 = g.parse().map_err(|e| format!("bad gamma: {e}"))?;
            if !(g > 1.0 && g.is_finite()) {
                return Err("gamma must be a finite number > 1".into());
            }
            return Ok(GridSpec::Gamma(g));
        }
        Err(format!("unknown grid `{s}` (expected `full` or `gamma:G`)"))
    }

    /// The wire form [`GridSpec::parse`] accepts.
    #[must_use]
    pub fn to_wire(self) -> String {
        match self {
            GridSpec::Full => "full".into(),
            GridSpec::Gamma(g) => format!("gamma:{g}"),
        }
    }
}

/// Everything needed to (re)build one tenant's controller
/// deterministically.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Fleet preset spec (`rsz_workloads::fleet::parse` syntax). Its
    /// parsed form is the tenant's pool-sharing key together with
    /// `grid`.
    pub fleet: String,
    /// Algorithm spec: `a`, `b`, `c[:EPS]`, `lcp`, `rhc[:WINDOW]` —
    /// plus the fault hook `panic:T` when the daemon allows it.
    pub algo: String,
    /// The client's `engine` key, recorded verbatim. Inert: every tenant
    /// prices through the priced-slot engine. Kept so WALs, snapshots
    /// and state fingerprints written before the flag was retired still
    /// decode and match.
    pub engine: bool,
    /// The client's `cache` key, recorded verbatim. Inert, like
    /// `engine`.
    pub cache: bool,
    /// Prefix-solver grid.
    pub grid: GridSpec,
    /// Per-decision budget in µs: `None` inherits the daemon default,
    /// `Some(0)` disables the ladder for this tenant (bit-transparent).
    pub deadline_us: Option<u64>,
    /// Snapshot after every `K` fresh decisions (`0` = daemon default).
    pub snapshot_every: usize,
}

impl TenantSpec {
    /// Validate the spec against nothing but itself (fleet parse, the
    /// algorithm's spelling against that fleet, grid) — the checks that
    /// can fail before any telemetry arrives.
    pub fn validate(&self, allow_fault_hooks: bool) -> Result<(), String> {
        let types = fleet::parse(&self.fleet)?;
        match panic_slot(&self.algo) {
            Some(_) if !allow_fault_hooks => {
                Err("fault hooks are not enabled on this daemon".into())
            }
            Some(at) => at.map(drop),
            None => Algorithm::parse(&self.algo, types.len()).map(drop),
        }
    }

    /// The key under which this tenant's priced-slot pool is shared:
    /// the fleet's preset name and parsed counts, and the grid's wire
    /// form. Tenants with equal keys have identical cost models and
    /// grids however their fleets are spelled, so their
    /// `(partition, λ, grid)` pricings are interchangeable. (A fleet that
    /// does not parse, which validation refuses first, keys by its
    /// spelling.)
    #[must_use]
    pub fn pool_key(&self) -> String {
        let grid = self.grid.to_wire();
        match fleet::preset(&self.fleet) {
            Ok((name, counts)) => format!("{name}:{counts:?}/{grid}"),
            Err(_) => format!("{}/{grid}", self.fleet),
        }
    }

    /// The fleet this spec names.
    pub fn server_types(&self) -> Result<Vec<ServerType>, String> {
        fleet::parse(&self.fleet)
    }

    /// The per-decision deadline this spec selects under a daemon-wide
    /// default: `None` inherits the default, `Some(0)` disables the
    /// ladder outright, anything else is the tenant's own budget.
    ///
    /// When this resolves to `None` the degradation ladder is a
    /// bit-transparent shim, which is what makes re-stepping this
    /// tenant's ticks — recovery replay and replication apply alike —
    /// reproduce its decisions bit-identically.
    #[must_use]
    pub fn effective_deadline(
        &self,
        daemon_default: Option<std::time::Duration>,
    ) -> Option<std::time::Duration> {
        match self.deadline_us {
            None => daemon_default,
            Some(0) => None,
            Some(us) => Some(std::time::Duration::from_micros(us)),
        }
    }

    /// Serialize into a WAL/snapshot payload.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self.fleet.as_bytes());
        enc.put_bytes(self.algo.as_bytes());
        enc.put_u8(u8::from(self.engine));
        enc.put_u8(u8::from(self.cache));
        match self.grid {
            GridSpec::Full => enc.put_u8(0),
            GridSpec::Gamma(g) => {
                enc.put_u8(1);
                enc.put_f64(g);
            }
        }
        enc.put_u64(self.deadline_us.map_or(u64::MAX, |v| v.min(u64::MAX - 1)));
        enc.put_usize(self.snapshot_every);
    }

    /// Decode a payload written by [`TenantSpec::encode`].
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let fleet = wire::take_str(dec, "fleet spec")?;
        let algo = wire::take_str(dec, "algo spec")?;
        let engine = dec.take_u8()? != 0;
        let cache = dec.take_u8()? != 0;
        let grid = match dec.take_u8()? {
            0 => GridSpec::Full,
            1 => GridSpec::Gamma(dec.take_f64()?),
            _ => return Err(SnapshotError::Corrupt("unknown grid tag")),
        };
        let deadline_us = match dec.take_u64()? {
            u64::MAX => None,
            v => Some(v),
        };
        let snapshot_every = dec.take_usize()?;
        Ok(Self { fleet, algo, engine, cache, grid, deadline_us, snapshot_every })
    }
}

/// The slot at which the fault hook `panic:T` panics, if `algo` spells
/// the hook.
fn panic_slot(algo: &str) -> Option<Result<usize, String>> {
    let (name, param) = algo.split_once(':').unwrap_or((algo, ""));
    (name == "panic").then(|| match param.parse::<f64>() {
        Ok(t) if (1.0..=1e9).contains(&t) && t.fract() == 0.0 => Ok(t as usize),
        Ok(_) => Err(format!("parameter {param} out of range for `panic`")),
        Err(e) => Err(format!("bad parameter for `panic`: {e}")),
    })
}

/// A fault-injection hook: behaves exactly like Algorithm B but panics
/// on the decision for slot `at`. Only constructible when the daemon
/// was started with fault hooks enabled — the serve chaos suite uses it
/// to prove a per-tenant panic is caught at the step boundary and
/// quarantines that tenant, never the daemon.
struct PanicAt {
    at: usize,
    inner: BoxController,
}

impl OnlineAlgorithm for PanicAt {
    fn name(&self) -> String {
        format!("panic@{}({})", self.at, self.inner.name())
    }
    fn decide(&mut self, instance: &Instance, t: usize) -> Config {
        assert!(t != self.at, "injected fault: controller panic at slot {t}");
        self.inner.decide(instance, t)
    }
}

impl Checkpoint for PanicAt {
    fn algo_tag(&self) -> &'static str {
        self.inner.algo_tag()
    }
    fn save_state(&self, enc: &mut Encoder) {
        self.inner.save_state(enc);
    }
    fn restore_state(
        &mut self,
        instance: &Instance,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError> {
        self.inner.restore_state(instance, dec)
    }
}

impl Controller for PanicAt {
    fn engine_stats(&self) -> Option<EngineStats> {
        self.inner.engine_stats()
    }
    fn share_pool(&mut self, pool: SharedSlotPool) {
        self.inner.share_pool(pool);
    }
}

/// A boxed controller: the uniform currency the daemon's degrader wraps.
pub type BoxController = Box<dyn Controller>;

/// Build the controller a spec names, against `instance`, on `grid`
/// (the degrader overrides the spec grid for its coarse twin), through
/// the [`Algorithm`] registry, or the `panic:T` fault hook. The spec
/// must already have passed [`TenantSpec::validate`].
pub fn build_controller(
    spec: &TenantSpec,
    instance: &Instance,
    grid: GridMode,
) -> Result<BoxController, String> {
    let options = DpOptions { grid, ..DpOptions::default() };
    if let Some(at) = panic_slot(&spec.algo) {
        let inner = Algorithm::B.build(instance, options);
        return Ok(Box::new(PanicAt { at: at?, inner }));
    }
    Ok(Algorithm::parse(&spec.algo, instance.num_types())?.build(instance, options))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(algo: &str) -> TenantSpec {
        TenantSpec {
            fleet: "cpu-gpu:3,1".into(),
            algo: algo.into(),
            engine: true,
            cache: false,
            grid: GridSpec::Full,
            deadline_us: None,
            snapshot_every: 0,
        }
    }

    #[test]
    fn specs_validate_and_round_trip() {
        for algo in ["a", "b", "c", "c:0.25", "rhc", "rhc:6"] {
            let s = spec(algo);
            s.validate(false).unwrap();
            let mut enc = Encoder::new();
            s.encode(&mut enc);
            let sealed = enc.into_sealed();
            let mut dec = Decoder::from_sealed(&sealed).unwrap();
            assert_eq!(TenantSpec::decode(&mut dec).unwrap(), s);
        }
        let mut lcp = spec("lcp");
        assert!(lcp.validate(false).is_err(), "lcp on d=2 must fail");
        lcp.fleet = "homogeneous:4".into();
        lcp.validate(false).unwrap();
        assert!(spec("zeus").validate(false).is_err());
        assert!(spec("panic:3").validate(false).is_err(), "fault hooks off by default");
        spec("panic:3").validate(true).unwrap();
        assert!(spec("c:-1").validate(false).is_err());
        assert!(spec("rhc:0").validate(false).is_err());
    }

    #[test]
    fn specs_build_the_registry_controllers() {
        let instance = Instance::builder()
            .server_types(fleet::parse("cpu-gpu:3,1").unwrap())
            .loads(vec![1.0])
            .build()
            .unwrap();
        for (algo, name) in [
            ("a", "Algorithm A"),
            ("b", "Algorithm B"),
            ("c", "Algorithm C(ε=0.5)"),
            ("c:0.25", "Algorithm C(ε=0.25)"),
            ("rhc", "RHC(w=4)"),
            ("rhc:6", "RHC(w=6)"),
        ] {
            let built = build_controller(&spec(algo), &instance, GridMode::Full).unwrap();
            assert_eq!(built.name(), name);
        }
        let hook = build_controller(&spec("panic:3"), &instance, GridMode::Full).unwrap();
        assert_eq!(hook.name(), "panic@3(Algorithm B)");
    }

    #[test]
    fn grid_specs_parse() {
        assert_eq!(GridSpec::parse("full").unwrap(), GridSpec::Full);
        assert_eq!(GridSpec::parse("gamma:1.5").unwrap(), GridSpec::Gamma(1.5));
        assert!(GridSpec::parse("gamma:1.0").is_err());
        assert!(GridSpec::parse("mesh").is_err());
        for g in [GridSpec::Full, GridSpec::Gamma(2.5)] {
            assert_eq!(GridSpec::parse(&g.to_wire()).unwrap(), g);
        }
    }

    #[test]
    fn pool_keys_separate_fleet_and_grid() {
        let a = spec("b");
        let mut b = spec("a"); // different algo, same fleet+grid: same key
        b.cache = true;
        assert_eq!(a.pool_key(), b.pool_key());
        let mut c = spec("b");
        c.grid = GridSpec::Gamma(2.0);
        assert_ne!(a.pool_key(), c.pool_key());
        // Two spellings of one fleet share a pool; another fleet does not.
        let mut d = spec("a");
        d.fleet = "cpu-gpu:03,1".into();
        assert_eq!(a.pool_key(), d.pool_key());
        d.fleet = "cpu-gpu:3,2".into();
        assert_ne!(a.pool_key(), d.pool_key());
        let (mut e, mut f) = (spec("a"), spec("a"));
        e.fleet = "three-tier:6,6,3".into();
        f.fleet = "three-tier:06,6,3".into();
        assert_eq!(e.pool_key(), f.pool_key());
    }
}
