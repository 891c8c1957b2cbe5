//! Allocation accounting of the per-slot pricing context.
//!
//! A DP worker prices every configuration of a slot through one
//! `SlotEval` context. This harness registers a counting
//! `#[global_allocator]` (the test binary is its own process, so the hook
//! is safe) and asserts that, once every configuration has been priced
//! once, pricing the whole grid again touches the allocator **zero**
//! times — on every solver branch: the breakpoint water-fill's share at
//! one breakpoint (all-affine cells included), its closed form and its
//! bracketed secant (also above the last finite breakpoint), the
//! saturation fallback, idle-only and infeasible cells.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rsz_core::cost::PiecewiseLinearCost;
use rsz_core::{CostFunction, CostModel, GtOracle, Instance, ServerType};
use rsz_dispatch::Dispatcher;

/// Counts every allocation and reallocation (deallocations are free to
/// happen — the invariant under test is "no new heap memory").
struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// `f(z) = 1 − √(1 − z)` on `[0, 1]`: finite, convex and increasing, but
/// its marginal cost is infinite at capacity, so volumes past the last
/// finite breakpoint are placed above it. No `deriv_inv`.
#[derive(Debug)]
struct Wall;

impl CostFunction for Wall {
    fn eval(&self, z: f64) -> f64 {
        1.0 - (1.0 - z.min(1.0)).sqrt()
    }

    fn deriv(&self, z: f64) -> f64 {
        0.5 / (1.0 - z.min(1.0)).sqrt()
    }
}

/// `f(z) = 10^308·z^8`: its marginal cost overflows to infinity from
/// `z ≈ 0.81` on, so beside a wall the price doubling above the last
/// finite breakpoint overflows and the saturation fallback places the
/// volume. No `deriv_inv`.
#[derive(Debug)]
struct Steep;

impl CostFunction for Steep {
    fn eval(&self, z: f64) -> f64 {
        1e308 * z.powi(8)
    }

    fn deriv(&self, z: f64) -> f64 {
        1e308 * (8.0 * z.powi(7))
    }
}

/// Every cost shape the solver branches on: affine, power (closed-form
/// `deriv_inv`), piecewise linear with a zero-slope segment, and custom
/// costs without `deriv_inv`.
fn instance() -> Instance {
    let pwl = PiecewiseLinearCost::new(&[(0.0, 1.0), (1.0, 1.0), (2.0, 3.0)]);
    Instance::builder()
        .server_type(ServerType::new("cpu", 3, 2.0, 1.0, CostModel::linear(0.5, 1.0)))
        .server_type(ServerType::new("gpu", 2, 3.0, 2.0, CostModel::power(1.0, 0.5, 2.0)))
        .server_type(ServerType::new("pwl", 2, 1.0, 2.0, CostModel::PiecewiseLinear(pwl)))
        .server_type(ServerType::new("wall", 2, 1.0, 1.0, CostModel::Custom(Arc::new(Wall))))
        .server_type(ServerType::new("steep", 1, 1.0, 1.0, CostModel::Custom(Arc::new(Steep))))
        .loads(vec![0.0])
        .build()
        .expect("valid allocation test instance")
}

/// Every configuration of the grid `0..=counts[j]`, last type fastest.
fn configs(counts: &[u32]) -> Vec<Vec<u32>> {
    let mut out = vec![vec![]];
    for &m in counts {
        out = out
            .iter()
            .flat_map(|prefix| {
                (0..=m).map(move |c| prefix.iter().copied().chain([c]).collect::<Vec<u32>>())
            })
            .collect();
    }
    out
}

#[test]
fn slot_context_prices_allocation_free_after_its_first_call() {
    let inst = instance();
    let oracle = Dispatcher::new();
    let grid = configs(&[3, 2, 2, 2, 1]);
    // Idle-only, all-affine cells, both breakpoint branches below and
    // above the last finite breakpoint, the fallback (λ = 13.9 needs the
    // steep arm past 0.81 beside a full fleet) and infeasible cells all
    // occur across these volumes.
    for lambda in [0.0, 0.5, 2.5, 4.0, 7.5, 13.0, 13.9] {
        for cost_scale in [1.0, 0.5] {
            let mut slot = oracle.slot_eval(&inst, 0, lambda, cost_scale);
            let first: Vec<f64> = grid.iter().map(|x| slot.eval(x)).collect();
            let before = allocations();
            let mut again = [0.0; 256];
            for (v, x) in again.iter_mut().zip(&grid) {
                *v = slot.eval(x);
            }
            let allocated = allocations() - before;
            assert_eq!(allocated, 0, "λ={lambda} s={cost_scale}: {allocated} allocations");
            for ((x, a), b) in grid.iter().zip(&first).zip(&again) {
                assert_eq!(a.to_bits(), b.to_bits(), "λ={lambda} x={x:?}: repeat differs");
            }
        }
    }
}
