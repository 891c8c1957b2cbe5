//! Loads within a few `FEASIBILITY_SLACK` of a configuration's capacity,
//! driven through every layer that decides feasibility: the dispatcher
//! prices the configuration, `Instance::is_admissible` admits it,
//! `dp::solve` and the brute-force oracle plan the slot,
//! `Schedule::check_feasible` validates the plan, and the daemon
//! validates the load it is ticked with and decides a configuration.
//!
//! The dispatcher, `is_admissible` (through `Config::can_serve`) and
//! `check_feasible` share one test (`exceeds_capacity`: capacity plus
//! the slack); instance building and the daemon admit a load up to the
//! fleet's capacity, no further. So:
//!
//! * on a configuration, the dispatcher, `is_admissible` and
//!   `check_feasible` agree;
//! * a load that building the instance admits, the daemon admits, and
//!   the other way round;
//! * on an admitted load, the dispatcher serves the whole fleet,
//!   `dp::solve` returns a plan of finite cost that `check_feasible`
//!   accepts, the brute-force oracle finds the same cost, and the
//!   daemon's decision serves the load too.
//!
//! No layer accepts what the next one rejects.

use std::path::PathBuf;

use heterogeneous_rightsizing::core::util::{approx_eq, exceeds_capacity, FEASIBILITY_SLACK};
use heterogeneous_rightsizing::offline::{brute, dp};
use heterogeneous_rightsizing::prelude::*;
use heterogeneous_rightsizing::serve::json::{self, Json};
use heterogeneous_rightsizing::serve::{Daemon, ServeOptions};
use heterogeneous_rightsizing::workloads::fleet;
use proptest::prelude::*;

/// A fleet preset with small random sizes.
fn fleet_spec() -> impl Strategy<Value = String> {
    prop_oneof![
        (1u32..4, 1u32..3).prop_map(|(c, g)| format!("cpu-gpu:{c},{g}")),
        (1u32..4, 1u32..4).prop_map(|(o, n)| format!("old-new:{o},{n}")),
        (1u32..3, 1u32..3, 1u32..3).prop_map(|(l, c, g)| format!("three-tier:{l},{c},{g}")),
        (1u32..6).prop_map(|m| format!("homogeneous:{m}")),
    ]
}

/// Loads around capacity `cap`: `cap + k/2` slack steps of
/// `FEASIBILITY_SLACK·(cap + 1)` for `k` in `-8..=8` (`k = 2` is the
/// dispatcher's bound), and the floats next to `cap` and to that bound.
fn loads_near(cap: f64) -> Vec<f64> {
    let step = FEASIBILITY_SLACK * (cap + 1.0);
    let bound = cap * (1.0 + FEASIBILITY_SLACK) + FEASIBILITY_SLACK;
    let mut loads: Vec<f64> = (-8..=8).map(|k| cap + f64::from(k) / 2.0 * step).collect();
    loads.extend([cap.next_down(), cap.next_up(), bound.next_down(), bound, bound.next_up()]);
    loads.retain(|&l| l >= 0.0);
    loads
}

/// A daemon in a fresh directory serving Algorithm A tenants on `spec`.
/// A rejected load quarantines its tenant, so each rejection moves on
/// to a fresh one.
struct Served {
    daemon: Daemon,
    dir: PathBuf,
    spec: String,
    tenant: usize,
    seq: u64,
}

impl Served {
    fn new(spec: &str, case: u64) -> Self {
        let dir =
            std::env::temp_dir().join(format!("rsz-near-boundary-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = ServeOptions { state_dir: dir.clone(), fsync: false, ..Default::default() };
        let daemon = Daemon::new(options).expect("daemon starts");
        let served = Self { daemon, dir, spec: spec.to_owned(), tenant: 0, seq: 0 };
        served.register();
        served
    }

    fn register(&self) {
        let (spec, tenant) = (&self.spec, self.tenant);
        let line =
            format!(r#"{{"op":"register","tenant":"t{tenant}","fleet":"{spec}","algo":"a"}}"#);
        assert!(self.daemon.handle(&line).contains(r#""ok":true"#), "register {spec}");
    }

    /// Tick `load`: the decided configuration, or `None` when the daemon
    /// rejects the load.
    fn tick(&mut self, load: f64) -> Option<Vec<u32>> {
        let line = json::obj(vec![
            ("op", json::s("tick")),
            ("tenant", json::s(format!("t{}", self.tenant))),
            ("seq", json::n(self.seq as f64)),
            ("load", json::n(load)),
        ])
        .to_line();
        let reply = json::parse(&self.daemon.handle(&line)).expect("a JSON reply");
        if reply.get("ok") != Some(&Json::Bool(true)) {
            self.tenant += 1;
            self.seq = 0;
            self.register();
            return None;
        }
        self.seq += 1;
        let Some(Json::Arr(config)) = reply.get("config") else { panic!("no config: {reply:?}") };
        Some(config.iter().map(|c| c.as_u64().expect("a count") as u32).collect())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn no_layer_accepts_what_the_next_rejects(
        spec in fleet_spec(),
        picks in prop::collection::vec(0u32..64, 3),
        case in 0u64..u64::MAX,
    ) {
        let types = fleet::parse(&spec).expect("a preset");
        let full: Vec<u32> = types.iter().map(|ty| ty.count).collect();
        let x: Vec<u32> = full.iter().zip(&picks).map(|(&m, &p)| p % (m + 1)).collect();
        let near = [Config::new(x.clone()).capacity(&types), fleet::total_capacity(&types)];
        let oracle = Dispatcher::new();
        let mut served = Served::new(&spec, case);
        for load in near.iter().flat_map(|&cap| loads_near(cap)) {
            let built = Instance::builder().server_types(types.clone()).loads(vec![load]).build();
            let decided = served.tick(load);
            prop_assert_eq!(
                built.is_ok(), decided.is_some(),
                "{} λ={:e}: building the instance and the daemon disagree", &spec, load
            );
            let (Ok(inst), Some(decided)) = (built, decided) else { continue };
            // The dispatcher and `check_feasible` judge `x` alike.
            let priced = oracle.g(&inst, 0, &x).is_finite();
            let checked = Schedule::new(vec![Config::new(x.clone())]).check_feasible(&inst);
            prop_assert_eq!(
                priced, checked.is_ok(),
                "{} x={:?} λ={:e}: dispatcher {} vs check_feasible {:?}",
                &spec, &x, load, priced, checked
            );
            prop_assert_eq!(priced, !exceeds_capacity(load, near[0]));
            prop_assert_eq!(
                inst.is_admissible(0, &Config::new(x.clone())), priced,
                "{} x={:?} λ={:e}: is_admissible vs the dispatcher", &spec, &x, load
            );
            // An admitted load is one the whole fleet serves, so the plan
            // is finite and passes validation.
            prop_assert!(oracle.g(&inst, 0, &full).is_finite(), "{} λ={:e}", &spec, load);
            let plan = dp::solve(&inst, &oracle, DpOptions::default());
            prop_assert!(plan.cost.is_finite(), "{} λ={:e}: plan cost {}", &spec, load, plan.cost);
            let step = plan.schedule.config(0);
            prop_assert!(oracle.g(&inst, 0, step.counts()).is_finite());
            prop_assert!(plan.schedule.check_feasible(&inst).is_ok(), "{} λ={:e}", &spec, load);
            let exhaustive = brute::solve(&inst, &oracle);
            prop_assert!(
                approx_eq(exhaustive.cost, plan.cost),
                "{} λ={:e}: brute force {} vs dp {}", &spec, load, exhaustive.cost, plan.cost
            );
            // So does the daemon's decision.
            let chosen = Schedule::new(vec![Config::new(decided.clone())]).check_feasible(&inst);
            prop_assert!(chosen.is_ok(), "{} λ={:e}: decided {:?}: {:?}", &spec, load, &decided, chosen);
        }
    }
}

/// Two 1-capacity servers at λ a hair above 2, within the slack: the
/// dispatcher serves it on both small servers (cost 5 with their power
/// ups), so every layer must admit that configuration rather than fall
/// back to the 4-capacity server (cost 17).
#[test]
fn brute_force_admits_what_the_dispatcher_serves() {
    let inst = Instance::builder()
        .server_type(ServerType::new("small", 2, 1.0, 1.0, CostModel::linear(1.0, 0.5)))
        .server_type(ServerType::new("big", 1, 10.0, 4.0, CostModel::constant(7.0)))
        .loads(vec![2.0 * (1.0 + FEASIBILITY_SLACK / 2.0)])
        .build()
        .unwrap();
    let oracle = Dispatcher::new();
    let small = Config::new(vec![2, 0]);
    assert!(oracle.g(&inst, 0, small.counts()).is_finite());
    assert!(inst.is_admissible(0, &small));
    assert!(Schedule::new(vec![small.clone()]).check_feasible(&inst).is_ok());
    let plan = dp::solve(&inst, &oracle, DpOptions::default());
    let exhaustive = brute::solve(&inst, &oracle);
    assert_eq!(plan.schedule.config(0), &small);
    assert_eq!(exhaustive.schedule, plan.schedule);
    assert!(approx_eq(exhaustive.cost, 5.0) && approx_eq(plan.cost, 5.0), "{}", exhaustive.cost);
}
