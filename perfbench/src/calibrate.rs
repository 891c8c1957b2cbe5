//! A fixed reference computation, timed beside the program so that its
//! timings can be read at one fixed host speed.
//!
//! On a shared VM the same code runs up to a third slower from one
//! minute to the next. A *pass* of this module's work, timed between
//! blocks of the program's work, slows down with it. So the program's
//! CPU time × ([`REFERENCE_PASS_S`] ÷ the pass's CPU time at that moment)
//! is its CPU time on the reference host, with most of the drift taken
//! out. A pass is the benchmark's own code: no change to the program can
//! move it, so the scaled figure still moves one for one with the
//! program's own speed, fixed costs included.
//!
//! A pass mixes what the program's hot paths do: stride-1 float sweeps
//! (the DP's transforms and kernels), dependent reads over an L2-sized
//! table (pool and table lookups), sorting, number formatting and parsing
//! (the wire protocol), small allocations, hash-map updates, system calls
//! (the WAL's writes) and branchy checks over floats (input validation).
//! Each of these tracks the program's speed on a shared host only in
//! part; the mix tracks it better than any one of them.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;

use crate::process_cpu_s;

/// CPU seconds of one pass on the reference host: the 2-vCPU Xeon VM
/// the benchmark was tuned on, median over a quiet minute. It only sets
/// the scale of the scaled figures; any constant would gate the same.
pub const REFERENCE_PASS_S: f64 = 2.5e-3;

/// `seconds` of CPU time measured while passes took `pass_s` each, at
/// the reference host's speed.
#[must_use]
pub fn at_reference(seconds: f64, pass_s: f64) -> f64 {
    seconds * REFERENCE_PASS_S / pass_s
}

/// Floats in the sweep table (128 KiB).
const SWEEP_LEN: usize = 16 * 1024;
/// Words in the dependent-read table (256 KiB).
const CHASE_LEN: usize = 64 * 1024;
/// Dependent reads per pass.
const CHASE_READS: usize = 2 * CHASE_LEN;
/// Keys sorted per pass (128 KiB with their copy).
const SORT_LEN: usize = 8 * 1024;
/// Numbers formatted and parsed per pass.
const TEXT_LEN: usize = 2 * 1024;
/// Small allocations per pass.
const ALLOCS: u64 = 4000;
/// Hash-map updates per pass.
const HASHED: usize = 4096;
/// System calls per pass.
const SYSCALLS: usize = 2000;

extern "C" {
    fn getppid() -> i32;
}

/// The tables a pass works on, built once so that passes fault in no
/// pages. Together they take about 600 KiB, well inside one core's
/// 2 MiB L2 on the reference host, and each pass reads them once before
/// its clock starts: so a pass's time does not depend on what the
/// program left in the caches, nor on where the tables' pages landed.
pub struct Calibration {
    sweep: Vec<f64>,
    scratch: Vec<f64>,
    chase: Vec<u32>,
    keys: Vec<u64>,
    sorted: Vec<u64>,
    text: String,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// Build the tables. Their contents are fixed, so every pass does the
    /// same work.
    #[must_use]
    pub fn new() -> Self {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let sweep: Vec<f64> = (0..SWEEP_LEN).map(|_| (next() % 1000) as f64 * 0.5).collect();
        // One cycle through every slot (Sattolo's shuffle), so the reads
        // cannot settle into a short loop that stays in cache.
        let mut chase: Vec<u32> = (0..CHASE_LEN as u32).collect();
        for i in (1..CHASE_LEN).rev() {
            chase.swap(i, (next() % i as u64) as usize);
        }
        let keys: Vec<u64> = (0..SORT_LEN).map(|_| next()).collect();
        Self {
            scratch: sweep.clone(),
            sweep,
            chase,
            sorted: keys.clone(),
            keys,
            text: String::with_capacity(TEXT_LEN * 24),
        }
    }

    /// Run one pass (about 2.5 ms); returns the CPU seconds it took.
    pub fn pass_cpu_s(&mut self) -> f64 {
        black_box(self.touch());
        let start = process_cpu_s();
        black_box(self.work());
        process_cpu_s() - start
    }

    /// Read every table once, to bring them into the cache.
    fn touch(&self) -> u64 {
        let sweep = self.sweep.iter().map(|v| v.to_bits()).fold(0, u64::wrapping_add);
        let chase = self.chase.iter().map(|&v| u64::from(v)).fold(0, u64::wrapping_add);
        let keys = self.keys.iter().chain(&self.sorted).fold(0, |a, &k| a ^ k);
        let scratch = self.scratch.iter().map(|v| v.to_bits()).fold(0, u64::wrapping_add);
        sweep ^ chase ^ keys ^ scratch ^ self.text.len() as u64
    }

    fn work(&mut self) -> f64 {
        let mut acc = 0.0;
        // Suffix minima and a scaled fold, both stride 1.
        self.scratch.copy_from_slice(&self.sweep);
        for round in 0..8 {
            let scale = 1.0 + f64::from(round) * 0.125;
            let mut min = f64::INFINITY;
            for v in self.scratch.iter_mut().rev() {
                min = min.min(*v);
                *v = min;
            }
            for (v, g) in self.scratch.iter_mut().zip(&self.sweep) {
                *v += scale * g;
            }
            acc += self.scratch[round as usize];
        }
        // Dependent reads: each index comes from the previous read.
        let mut at = 0u32;
        for _ in 0..CHASE_READS {
            at = self.chase[at as usize];
        }
        acc += f64::from(at);
        // Sorting.
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        acc += (self.sorted[SORT_LEN / 2] >> 40) as f64;
        // Formatting and parsing numbers.
        self.text.clear();
        for (i, v) in self.sweep.iter().take(TEXT_LEN).enumerate() {
            let _ = write!(self.text, "{},", v * 1.000_1 + i as f64);
        }
        acc += self.text.split(',').filter_map(|s| s.parse::<f64>().ok()).sum::<f64>();
        // Small allocations of mixed sizes, freed out of order.
        let mut held: Vec<Vec<u64>> = Vec::new();
        for i in 0..ALLOCS {
            held.push(vec![i; (i % 13 + 1) as usize]);
            if i % 3 == 0 {
                held.swap_remove((i as usize * 7) % held.len());
            }
        }
        acc += held.len() as f64;
        // Hash-map updates.
        let mut counts = HashMap::new();
        for (i, k) in self.keys.iter().enumerate().take(HASHED) {
            *counts.entry(k % 1024).or_insert(0u64) += i as u64;
        }
        acc += counts.len() as f64;
        // System calls (the cheapest there is: a kernel entry and exit).
        for _ in 0..SYSCALLS {
            // SAFETY: `getppid` takes no arguments and cannot fail.
            acc += f64::from(unsafe { getppid() });
        }
        // Branchy checks over floats, as input validation does.
        for _ in 0..64 {
            for (t, &v) in self.sweep.iter().take(1024).enumerate() {
                if !v.is_finite() || v < 0.0 {
                    acc += t as f64;
                }
                if v > 400.0 {
                    acc += 1.0;
                }
            }
        }
        acc
    }
}
