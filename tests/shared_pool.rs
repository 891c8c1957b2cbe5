//! Tenants that share a priced-slot pool decide alike whether they are
//! stepped from one thread or from several.
//!
//! A shared pool is locked to look a slot up and to retain a priced one,
//! and a miss is priced outside the lock, so sharers on different
//! threads interleave their misses, evictions and retains in an order
//! no run repeats. Pricing is pure, so that order may move hit rates
//! and nothing else: every decision must be bit-identical to the one
//! the same tenants make when a single thread steps them.

use std::sync::Barrier;

use heterogeneous_rightsizing::offline::{lock_shared, shared_pool, SharedSlotPool};
use heterogeneous_rightsizing::prelude::*;
use heterogeneous_rightsizing::serve::{build_controller, BoxController, GridSpec, TenantSpec};
use heterogeneous_rightsizing::workloads::fleet;

const FLEET: &str = "three-tier:2,2,1";
const ALGOS: [&str; 4] = ["a", "b", "c:0.5", "a"];
const SLOTS: usize = 120;
/// Small, so sharers evict each other's slots and price into the tables
/// they take back.
const POOL_CAP: usize = 6;

/// Tenant `i`'s loads: eleven levels in a tenant-shifted order, so the
/// tenants hit each other's pricings as often as they miss.
fn instance(i: usize) -> Instance {
    let types = fleet::parse(FLEET).unwrap();
    let cap = fleet::total_capacity(&types);
    let loads = (0..SLOTS).map(|t| ((t * 7 + i * 3) % 11) as f64 * cap / 12.0).collect::<Vec<_>>();
    Instance::builder().server_types(types).loads(loads).build().unwrap()
}

/// Every tenant's controller, each on `pool`.
fn tenants(pool: &SharedSlotPool) -> Vec<(Instance, BoxController)> {
    ALGOS
        .iter()
        .enumerate()
        .map(|(i, algo)| {
            let spec = TenantSpec {
                fleet: FLEET.into(),
                algo: (*algo).into(),
                engine: true,
                cache: false,
                grid: GridSpec::Full,
                deadline_us: None,
                snapshot_every: 0,
            };
            let inst = instance(i);
            let mut controller = build_controller(&spec, &inst, GridMode::Full).unwrap();
            controller.share_pool(pool.clone());
            (inst, controller)
        })
        .collect()
}

/// Step one tenant through every slot.
fn run(inst: &Instance, controller: &mut BoxController) -> Vec<Vec<u32>> {
    (0..SLOTS).map(|t| controller.decide(inst, t).counts().to_vec()).collect()
}

#[test]
fn sharers_decide_alike_from_one_thread_and_from_several() {
    let pool = shared_pool(&instance(0), POOL_CAP);
    let mut alone = tenants(&pool);
    let mut want = vec![Vec::new(); ALGOS.len()];
    for t in 0..SLOTS {
        for (i, (inst, controller)) in alone.iter_mut().enumerate() {
            want[i].push(controller.decide(inst, t).counts().to_vec());
        }
    }
    for round in 0..3 {
        let pool = shared_pool(&instance(0), POOL_CAP);
        let mut sharers = tenants(&pool);
        // Every thread starts stepping at once, so their misses overlap.
        let start = &Barrier::new(sharers.len());
        let got: Vec<Vec<Vec<u32>>> = std::thread::scope(|s| {
            let workers: Vec<_> = sharers
                .iter_mut()
                .map(|(inst, controller)| {
                    s.spawn(move || {
                        start.wait();
                        run(inst, controller)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(got, want, "round {round}: tenant {i} ({}) decided differently", ALGOS[i]);
        }
        let stats = lock_shared(&pool).stats();
        assert!(stats.pricings > 0 && stats.pool_hits > 0, "round {round}: {stats:?}");
    }
}
