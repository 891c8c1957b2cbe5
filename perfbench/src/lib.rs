//! The repository's benchmark: three seeded workloads driven through the
//! public APIs of `rsz_serve`, `rsz_online` and `rsz_offline`.
//!
//! * [`gen`] turns `--seed` into request lines and instances, one
//!   generator per workload with the reason it exists beside it.
//! * [`serve`] drives the daemon in a closed loop (one in-process caller
//!   of [`rsz_serve::Daemon::handle`]) and checks every reply against a
//!   direct run of the same spec's controller.
//! * [`offline`] solves one planning instance exactly and to `(1+ε)`
//!   and checks feasibility, cost and the Theorem 21 factor.
//! * [`report`] prints each workload's metrics with unit and sample
//!   count, then the one-line JSON result.
//! * [`calibrate`] times a fixed pass of the benchmark's own work between
//!   blocks of the workload, so that timings can be scaled to the
//!   reference host's speed.
//!
//! The end-to-end command (`perfbench`) and the traced run
//! (`perfbench_trace`) share everything here; only the traced run calls
//! the layer functions it times.

pub mod calibrate;
pub mod cli;
pub mod gen;
pub mod offline;
pub mod report;
pub mod serve;
pub mod stats;

/// Pin the calling thread, and every thread it spawns later, to the last
/// CPU it may run on, so a run does not depend on what shares the other
/// cores. Solver worker pools size themselves from
/// `available_parallelism`, which then reports 1. Returns the CPU.
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16; // `cpu_set_t`: 1024 bits
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is `8 * WORDS` bytes long, the size passed.
    if unsafe { sched_getaffinity(0, 8 * WORDS, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..64 * WORDS).rev().find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the call only reads `one`.
    (unsafe { sched_setaffinity(0, 8 * WORDS, one.as_ptr()) } == 0).then_some(cpu)
}

/// CPU time this process has used so far (all threads, user + system),
/// in seconds.
#[must_use]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` matches `struct timespec` on 64-bit Linux and
    // the call only writes into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// Peak resident set of this process so far, in MB (`getrusage`'s
/// `ru_maxrss`, which Linux reports in KiB).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `RUsage` matches `struct rusage` on 64-bit Linux, and
    // RUSAGE_SELF (0) only writes into the struct we pass.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}
