//! Steady-state allocation budget of a serve tick.
//!
//! A counting `#[global_allocator]` (the test binary is its own process)
//! counts the heap allocations each `Daemon::handle` call makes on the
//! calling thread, over the traffic a telemetry daemon actually serves:
//! loads that never repeat, so every tick misses the shared pricing pool
//! and, once the pool is full, evicts its oldest entry. One tenant of
//! each controller kind runs on its own fleet: A on cpu-gpu:2,1, B on
//! old-new:2,2, C(0.5) on three-tier:2,2,1 and LCP on homogeneous:4.
//! The mean over the measured ticks covers every cadence the daemon
//! runs (snapshots, fingerprints) and is pinned per kind, so a change
//! that adds an allocation to the tick path shows here.
//!
//! What a tick allocates: the request's member list (the tree borrows
//! every unescaped string), the reply line, the decided configuration
//! (committed, not copied), and the pricing sweep's own state — the
//! oracle's boxed evaluator, its arm templates, arm buffer and
//! `(type, count)` memo, and the workspace's volumes, marginal intervals
//! and breakpoints (its bracket buffer is sized only by a cell that
//! takes the bracketed secant, which no cell of these fleets does). The
//! WAL frame, the priced table and the grid cursor's buffers are reused:
//! the table is the one the shared pool evicts, the cursor buffers are
//! the tenant's prefix solver's own (the pool is locked only to look a
//! slot up and to retain it; the slot is priced outside the lock). The
//! snapshot and fingerprint cadences add under two per tick. Before the request was borrowed, the reply written directly and
//! the evicted table reused, this harness counted 49.8 / 49.8 / 54.8 /
//! 46.8 per tick (A / B / C / LCP); before the pool kept the cursor's
//! three buffers and the workspace merged its two interval buffers and
//! sized its bracket buffer on demand, 15.8 / 15.8 / 17.8 / 15.8.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use rsz_serve::{Daemon, ServeOptions};

/// Counts every allocation and reallocation made by the current thread
/// (deallocations are free), so tests running beside this one on other
/// threads do not add to it.
struct CountingAllocator;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may be gone while the thread shuts down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Pool retention bound: small, so the test runs past it quickly.
const POOL: usize = 64;
/// Ticks before the measured window: past pool capacity, and past the
/// first snapshots and fingerprints.
const WARM: usize = 4 * POOL;
/// Ticks measured per tenant: a multiple of the snapshot (16) and
/// fingerprint (8) cadences.
const MEASURED: usize = 256;

/// A load in `[0.1, 0.9] · cap` that never repeats: the golden-ratio
/// sequence is equidistributed and injective in `seq`.
fn load(seq: usize, cap: f64) -> f64 {
    let frac = (seq as f64 * 0.618_033_988_749_894_9 + 0.25).fract();
    cap * (0.1 + 0.8 * frac)
}

/// Mean allocations per measured tick of one tenant running `algo` on
/// `fleet`.
fn allocations_per_tick(fleet: &str, algo: &str) -> f64 {
    let cap = rsz_workloads::fleet::total_capacity(&rsz_workloads::fleet::parse(fleet).unwrap());
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "rsz-tick-alloc-{}-{}",
        std::process::id(),
        algo.replace(':', "_")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let daemon = Daemon::new(ServeOptions {
        state_dir: dir.clone(),
        pool_capacity: POOL,
        fsync: false,
        ..ServeOptions::default()
    })
    .unwrap();
    let register = format!(r#"{{"op":"register","tenant":"t","fleet":"{fleet}","algo":"{algo}"}}"#);
    assert!(daemon.handle(&register).contains("\"ok\":true"));
    let lines: Vec<String> = (0..WARM + MEASURED)
        .map(|seq| format!(r#"{{"op":"tick","tenant":"t","seq":{seq},"load":{}}}"#, load(seq, cap)))
        .collect();
    let mut before = 0;
    for (seq, line) in lines.iter().enumerate() {
        if seq == WARM {
            before = allocations();
        }
        let reply = daemon.handle(line);
        assert!(reply.starts_with("{\"ok\":true"), "{fleet} {algo} seq {seq}: {reply}");
    }
    let per_tick = (allocations() - before) as f64 / MEASURED as f64;
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
    per_tick
}

#[test]
fn a_never_repeating_tick_stays_within_its_allocation_budget() {
    let kinds = [
        ("cpu-gpu:2,1", "a", 12.0),
        ("old-new:2,2", "b", 12.0),
        ("three-tier:2,2,1", "c:0.5", 14.0),
        ("homogeneous:4", "lcp", 12.0),
    ];
    let mut report = Vec::new();
    for (fleet, algo, ceiling) in kinds {
        let per_tick = allocations_per_tick(fleet, algo);
        report.push(format!("{algo} on {fleet}: {per_tick:.2} per tick (ceiling {ceiling})"));
        assert!(per_tick <= ceiling, "{}", report.join("; "));
    }
    eprintln!("{}", report.join("\n"));
}
