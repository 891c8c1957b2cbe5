//! `rsz` — command-line right-sizing.
//!
//! ```text
//! # generate a week-long diurnal trace for a fleet of capacity 14
//! rsz generate --pattern diurnal --len 168 --peak 12 --seed 7 --out trace.csv
//!
//! # solve it offline (exact), online (Algorithm A) or approximately
//! rsz solve --trace trace.csv --fleet cpu-gpu:6,2 --algorithm opt --chart
//! rsz solve --trace trace.csv --fleet cpu-gpu:6,2 --algorithm a --out schedule.csv
//! rsz solve --trace trace.csv --fleet homogeneous:100 --algorithm approx:0.5
//! ```
//!
//! Fleets are presets from `rsz-workloads` (`homogeneous:M`,
//! `cpu-gpu:C,G`, `old-new:O,N`, `three-tier:L,C,G`); traces are plain
//! one-value-per-line files (see `rsz_workloads::io`).

use std::path::Path;
use std::process::ExitCode;

use heterogeneous_rightsizing::core::render;
use heterogeneous_rightsizing::offline::{self, DpOptions};
use heterogeneous_rightsizing::online::{self, Algorithm, Controller};
use heterogeneous_rightsizing::prelude::*;
use heterogeneous_rightsizing::workloads::{fleet, io, patterns, stochastic};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags): (fn(&[String]) -> ExitCode, &Flags) =
        match args.first().map(String::as_str) {
            Some("solve") => (solve, &SOLVE_FLAGS),
            Some("simulate") if args.iter().any(|a| a == "--remote") => {
                (simulate_remote, &REMOTE_FLAGS)
            }
            Some("simulate") => (simulate, &SIMULATE_FLAGS),
            Some("generate") => (generate, &GENERATE_FLAGS),
            Some("serve") => (serve_cmd, &SERVE_FLAGS),
            Some("--help") | Some("-h") | Some("help") | None => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            Some(other) => {
                eprintln!("unknown command `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        };
    if let Err(e) = check_flags(&args[1..], flags) {
        eprintln!("error: {e}\n{USAGE}");
        return ExitCode::from(2);
    }
    command(&args[1..])
}

/// The flags one subcommand accepts.
struct Flags {
    /// Flags followed by a value.
    valued: &'static [&'static str],
    /// Flags standing alone.
    switches: &'static [&'static str],
}

const SOLVE_FLAGS: Flags = Flags {
    valued: &[
        "--trace",
        "--fleet",
        "--algorithm",
        "--refine-gamma",
        "--refine-epsilon",
        "--repair",
        "--threads",
        "--out",
    ],
    switches: &["--refine", "--chart"],
};

const SIMULATE_FLAGS: Flags = Flags {
    valued: &[
        "--trace",
        "--fleet",
        "--algo",
        "--refine-gamma",
        "--refine-epsilon",
        "--repair",
        "--resume",
        "--snapshot-every",
        "--out",
    ],
    switches: &["--refine"],
};

/// `rsz simulate --remote`: the daemon decides, so the local solver's
/// and checkpointing's flags would be ignored and are refused instead.
const REMOTE_FLAGS: Flags = Flags {
    valued: &[
        "--trace",
        "--fleet",
        "--algo",
        "--repair",
        "--out",
        "--remote",
        "--tenant",
        "--peers",
        "--deadline-us",
    ],
    switches: &[],
};

const SERVE_FLAGS: Flags = Flags {
    valued: &[
        "--addr",
        "--state-dir",
        "--deadline-us",
        "--queue-bound",
        "--snapshot-every",
        "--pool-capacity",
        "--coarse-gamma",
        "--segment-bytes",
        "--fingerprint-every",
        "--replica-of",
        "--replica-id",
        "--sync-interval-ms",
        "--lease-syncs",
    ],
    switches: &["--fsync", "--allow-fault-hooks"],
};

const GENERATE_FLAGS: Flags =
    Flags { valued: &["--pattern", "--len", "--peak", "--seed", "--out"], switches: &[] };

/// Reject any argument the subcommand does not know, so a misspelled
/// flag fails loudly instead of silently running with defaults.
fn check_flags(args: &[String], flags: &Flags) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if flags.valued.contains(&arg.as_str()) {
            if rest.next().is_none() {
                return Err(format!("`{arg}` needs a value"));
            }
        } else if !flags.switches.contains(&arg.as_str()) {
            return Err(format!("unknown argument `{arg}`"));
        }
    }
    Ok(())
}

const USAGE: &str = "usage:
  rsz solve    --trace FILE --fleet PRESET --algorithm ALGO
               [--refine] [--refine-gamma G] [--refine-epsilon E]
               [--repair POLICY] [--threads N] [--out FILE] [--chart]
  rsz simulate --trace FILE --fleet PRESET --algo ALGO
               [--refine] [--refine-gamma G] [--refine-epsilon E]
               [--repair POLICY] [--resume FILE] [--snapshot-every K]
               [--out FILE]
  rsz simulate --remote ADDR --trace FILE --fleet PRESET --algo ALGO
               [--tenant NAME] [--peers A,B,...] [--deadline-us N]
               [--repair POLICY] [--out FILE]
  rsz serve    [--addr HOST:PORT] [--state-dir DIR] [--deadline-us N]
               [--queue-bound N] [--snapshot-every K] [--pool-capacity N]
               [--coarse-gamma G] [--fsync] [--segment-bytes N]
               [--fingerprint-every K] [--replica-of ADDR]
               [--replica-id NAME] [--sync-interval-ms N] [--lease-syncs N]
  rsz generate --pattern NAME --len N --peak X [--seed S] [--out FILE]

fleets:      homogeneous:M | cpu-gpu:C,G | old-new:O,N | three-tier:L,C,G
patterns:    diurnal | constant | mmpp | spiky

online algorithms (solve --algorithm, simulate --algo, serve tenants):
  spelling  default  fleet  competitive ratio
  a         -        any    2d+1 (Thm 8); 2d with load-independent costs
  b         -        any    2d+1+c(I) (Thm 13)
  c[:EPS]   EPS=0.5  any    2d+1+EPS (Thm 15)
  lcp       -        d = 1  3 (Albers & Quedenfeld)
  rhc[:W]   W=4      any    none: reads W slots ahead
solve also takes opt (exact) and approx:EPS (within 1+EPS of optimal).

exit codes:  2 = usage/input error (including unknown flags and
                 rejected trace lines),
             3 = solver/snapshot failure (malformed λ reaching the
             solver, infeasible instance, corrupted snapshot)

--repair sets the policy for invalid loads (NaN, negative, infinite) in
the trace: strict (default — reject with the line number), skip,
hold-last, or interpolate. Syntax errors fail under every policy.

--resume FILE makes the simulation restartable: if FILE exists it is
opened as a sealed run snapshot and the controller restores from it,
continuing at the first uncommitted slot; the completed schedule is
bit-identical to an uninterrupted run. --snapshot-every K (requires
--resume) rewrites FILE after every K fresh decisions, so a killed
process loses at most K slots of work. A corrupted, truncated, or
mismatched snapshot exits with code 3 — it never resumes into garbage.

Every offline solve prices g_t through the slot-batched pipeline
(slot-parallel pricing, an exact breakpoint water-fill per cell, per-day
slot reuse on repeating traces) and every online controller through the
priced-slot engine. --threads N pins the offline solver's worker count
(default: all cores for large grids). An unknown flag is a usage error.

rsz serve hosts many independent tenants (fleet + controller + its own
telemetry stream) behind a line-delimited JSON protocol with a
write-ahead log and periodic snapshots per tenant: kill -9 the daemon
at any point and a restart over the same --state-dir resumes every
tenant bit-identically. A failing tenant (poisoned load, solver panic,
corrupt storage) is quarantined with a structured reason and retried
with backoff; the daemon and all other tenants keep serving.
--deadline-us arms the per-decision degradation ladder
(exact → coarse grid → hold) for tenants that do not set their own.
GET /health, /livez, /readyz, and /metrics (or the JSON ops) export
liveness, readiness (role, replication lag, quarantined tenants), and
counters. simulate --remote ADDR streams the trace to such a daemon
instead of deciding locally (--tenant names the stream; re-running
resumes idempotently) and reports the same cost summary; --peers lists
the whole replica set for transparent failover. The daemon builds the
controller a local simulate of the same --algo builds, and decides
alike; it only sees the loads sent so far, so its rhc has no forecast
and decides as a local rhc:1.

--replica-of ADDR starts the daemon as a pull-based replica of the
primary at ADDR: it applies the primary's WAL stream through the
identical step path (bit-identical state), cross-checks periodic state
fingerprints — a mismatch quarantines the diverged tenant rather than
ever serving a divergent plan — and promotes itself to primary after
--lease-syncs consecutive failed syncs (--sync-interval-ms apart).
--segment-bytes rotates each tenant's WAL into sealed segments that
are compacted once a snapshot covers them; --fingerprint-every sets
the divergence-check cadence. SIGTERM (or the shutdown op) stops
admission, flushes + fsyncs WALs, seals final snapshots, and exits 0.

--refine runs the coarse-to-fine corridor solver: a cheap gamma-grid
coarse solve localizes the optimum, the DP then prices and sweeps only
a per-slot band of the fine grid, and an exactness-guarded expansion
fixpoint re-solves until the banded optimum is interior — the schedule
is identical to the unrestricted solve's. --refine-gamma G sets the
coarse gamma (default 1.25); --refine-epsilon E trades exactness for
speed: one coarse + one banded pass within (1+E) of optimal
(Theorem 21). Either sub-flag implies --refine.

simulate drives an online controller slot by slot with a wall clock
around every decision and reports per-decision latency percentiles plus
the engine's pricing counters: each slot's dense pricing table is
pooled per (slot, λ, grid), so recurring loads and Algorithm C's
sub-slot replays fold a priced slot in with one vectorized add instead
of per-cell dispatch solves. With --refine, rhc's window DP runs the
corridor solver: bands warm-start from the previous window's plan and
overlapping windows answer from the band-keyed pricing pool (identical
decisions, property-tested; other algorithms step the full grid and
ignore the flag).";

/// Pull `--name value` out of an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parse the corridor-refinement flags: `--refine` (exact),
/// `--refine-gamma G` (coarse γ₀ override), `--refine-epsilon E`
/// (`(1+E)` early-stop mode). Either sub-flag implies `--refine`.
fn parse_refine(
    args: &[String],
) -> Result<Option<heterogeneous_rightsizing::offline::RefineOptions>, String> {
    use heterogeneous_rightsizing::offline::RefineOptions;
    let gamma = match flag(args, "--refine-gamma").as_deref().map(str::parse::<f64>) {
        None => None,
        Some(Ok(g)) if g > 1.0 => Some(g),
        Some(_) => return Err("--refine-gamma G needs G > 1".into()),
    };
    let epsilon = match flag(args, "--refine-epsilon").as_deref().map(str::parse::<f64>) {
        None => None,
        Some(Ok(e)) if e > 0.0 => Some(e),
        Some(_) => return Err("--refine-epsilon E needs a positive E".into()),
    };
    if !has_flag(args, "--refine") && gamma.is_none() && epsilon.is_none() {
        return Ok(None);
    }
    if gamma.is_some() && epsilon.is_some() {
        // --refine-epsilon derives its coarse gamma (1 + E/2) to make the
        // (1+E) guarantee hold; a gamma override would silently void it.
        return Err("--refine-gamma and --refine-epsilon are mutually exclusive".into());
    }
    let mut refine = epsilon.map_or_else(RefineOptions::exact, RefineOptions::epsilon);
    if let Some(g) = gamma {
        refine = refine.with_gamma(g);
    }
    Ok(Some(refine))
}

/// Parse the `--repair POLICY` knob for trace ingestion.
fn parse_repair(args: &[String]) -> Result<io::RepairPolicy, String> {
    match flag(args, "--repair").as_deref() {
        None | Some("strict") => Ok(io::RepairPolicy::Strict),
        Some("skip") => Ok(io::RepairPolicy::Skip),
        Some("hold-last") => Ok(io::RepairPolicy::HoldLast),
        Some("interpolate") => Ok(io::RepairPolicy::Interpolate),
        Some(other) => {
            Err(format!("unknown --repair policy `{other}` (strict|skip|hold-last|interpolate)"))
        }
    }
}

/// Fleet preset parsing lives in `rsz_workloads::fleet::parse` so the
/// CLI and the serve daemon accept the same spec strings (the spec
/// doubles as the daemon's pool-sharing key).
fn parse_fleet(spec: &str) -> Result<Vec<ServerType>, String> {
    fleet::parse(spec)
}

fn solve(args: &[String]) -> ExitCode {
    let algo_spec = flag(args, "--algorithm").unwrap_or_else(|| "opt".into());
    let instance = match load_instance(args) {
        Ok(i) => i,
        Err(e) => return fail(&e),
    };

    let threads = match flag(args, "--threads").as_deref().map(str::parse::<usize>) {
        None => None,
        Some(Ok(n)) if n >= 1 => Some(n),
        Some(_) => return fail("--threads N needs a positive integer"),
    };
    let refine = match parse_refine(args) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let dp_opts = DpOptions { threads, refine, ..DpOptions::default() };
    // Pre-flight: malformed λ / empty grids surface as a SolveError with
    // exit code 3 instead of a panic deep inside the DP.
    if let Err(e) = offline::validate_for_solve(&instance, dp_opts) {
        return fail_solve(&e.to_string());
    }
    let instance = &instance;
    let oracle = Dispatcher::new();
    let (name, schedule): (String, Schedule) = match algo_spec.split_once(':') {
        None if algo_spec == "opt" => {
            if dp_opts.refine.is_some() {
                let (res, stats) = offline::refine::solve_refined(instance, &oracle, dp_opts);
                println!(
                    "corridor refine: {} rounds, {} expansions, band coverage {:.1}% ({} of {} cells){}{}",
                    stats.rounds,
                    stats.expansions,
                    100.0 * stats.band_fraction(),
                    stats.band_cells,
                    stats.fine_cells,
                    if stats.fell_back { ", fell back to full grid" } else { "" },
                    if stats.early_stopped { ", early-stopped (1+eps)" } else { "" },
                );
                ("offline optimal (corridor-refined)".into(), res.schedule)
            } else {
                let res = offline::solve(instance, &oracle, dp_opts);
                ("offline optimal".into(), res.schedule)
            }
        }
        Some(("approx", eps)) => match eps.parse::<f64>() {
            Ok(eps) if eps > 0.0 => {
                let res = offline::approx::approximate_opts(instance, &oracle, eps, dp_opts);
                (format!("(1+{eps})-approximation"), res.result.schedule)
            }
            _ => return fail("approx:EPS needs a positive EPS"),
        },
        _ => match Algorithm::parse(&algo_spec, instance.num_types()) {
            Ok(algo) => {
                let run = online::run(instance, &mut algo.build(instance, dp_opts), &oracle);
                (run.name, run.schedule)
            }
            Err(e) => return fail(&e),
        },
    };

    if let Err(e) = schedule.check_feasible(instance) {
        return fail(&format!("internal error: produced infeasible schedule: {e}"));
    }
    let bd = heterogeneous_rightsizing::core::objective::evaluate(instance, &schedule, &oracle);
    println!("algorithm:       {name}");
    println!("slots:           {}", instance.horizon());
    println!("operating cost:  {:.3}", bd.operating);
    println!("switching cost:  {:.3}", bd.switching);
    println!("total cost:      {:.3}", bd.total());
    let stats =
        heterogeneous_rightsizing::core::analysis::schedule_stats(instance, &schedule, &oracle);
    println!("mean utilization {:.1}%", stats.mean_utilization * 100.0);
    for (j, ts) in stats.per_type.iter().enumerate() {
        println!(
            "  type {j} ({}): mean active {:.2}, peak {}, power-ups {}",
            instance.types()[j].name,
            ts.mean_active,
            ts.peak_active,
            ts.power_ups
        );
    }

    if has_flag(args, "--chart") {
        println!("\n{}", render::schedule_chart(instance, &schedule));
    }
    if let Some(out) = flag(args, "--out") {
        if let Err(e) = io::write_schedule(Path::new(&out), &schedule) {
            return fail(&format!("cannot write schedule: {e}"));
        }
        println!("schedule written to {out}");
    }
    ExitCode::SUCCESS
}

/// Shared trace+fleet loading for `solve` and `simulate`.
fn load_instance(args: &[String]) -> Result<Instance, String> {
    let trace_path = flag(args, "--trace").ok_or("--trace FILE is required")?;
    let fleet_spec = flag(args, "--fleet").unwrap_or_else(|| "homogeneous:10".into());
    let policy = parse_repair(args)?;
    let (trace, report) = io::read_trace_with(Path::new(&trace_path), policy)
        .map_err(|e| format!("cannot read trace: {e}"))?;
    if !report.is_clean() {
        eprintln!(
            "warning: repaired {} invalid load(s) in {trace_path} ({policy:?} policy)",
            report.repairs.len()
        );
    }
    let types = parse_fleet(&fleet_spec)?;
    let cap = fleet::total_capacity(&types);
    if trace.peak() > cap {
        eprintln!("warning: trace peak exceeds fleet capacity {cap}; loads were capped");
    }
    Instance::builder()
        .server_types(types)
        .loads(trace.capped(cap).into_values())
        .build()
        .map_err(|e| format!("invalid instance: {e}"))
}

/// The `--resume FILE` / `--snapshot-every K` checkpointing knobs.
struct SnapOpts {
    path: Option<std::path::PathBuf>,
    every: Option<usize>,
}

fn parse_snapshot(args: &[String]) -> Result<SnapOpts, String> {
    let path = flag(args, "--resume").map(std::path::PathBuf::from);
    let every = match flag(args, "--snapshot-every").as_deref().map(str::parse::<usize>) {
        None => None,
        Some(Ok(k)) if k >= 1 => Some(k),
        Some(_) => return Err("--snapshot-every K needs a positive integer".into()),
    };
    if every.is_some() && path.is_none() {
        return Err("--snapshot-every needs --resume FILE to know where to write".into());
    }
    Ok(SnapOpts { path, every })
}

/// Run the controller through the instrumented runner, or — when
/// `--resume FILE` is set — through the checkpointed runner: restore
/// from FILE if it exists, rewrite it every `--snapshot-every K`
/// decisions. Snapshot failures (corruption, wrong algorithm or
/// instance) map to exit code 3.
fn drive(
    instance: &Instance,
    algo: &mut Box<dyn Controller>,
    oracle: &dyn GtOracle,
    snap: &SnapOpts,
) -> Result<(online::OnlineRun, online::LatencyProfile), ExitCode> {
    let Some(path) = &snap.path else {
        return Ok(online::run_instrumented(instance, algo, oracle));
    };
    let resume = match std::fs::read(path) {
        Ok(bytes) => Some(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(fail(&format!("cannot read snapshot {}: {e}", path.display()))),
    };
    if let Some(bytes) = &resume {
        eprintln!("resuming from {} ({} bytes)", path.display(), bytes.len());
    }
    let mut write_err: Option<std::io::Error> = None;
    let result =
        online::run_checkpointed(instance, algo, oracle, resume.as_deref(), snap.every, |bytes| {
            if write_err.is_none() {
                write_err = std::fs::write(path, bytes).err();
            }
        });
    if let Some(e) = write_err {
        return Err(fail(&format!("cannot write snapshot {}: {e}", path.display())));
    }
    result.map_err(|e| {
        // On a checksum failure, name the exact byte range that failed
        // the FNV-1a check — which half of the envelope to go diff.
        let detail = match &resume {
            Some(bytes) => heterogeneous_rightsizing::serve::describe_snapshot_error(bytes, &e),
            None => e.to_string(),
        };
        // A file an older build sealed: say how to get past it.
        let fix = match e {
            offline::SnapshotError::BadVersion(1 | 2) => {
                "; rerun without --resume, or resume it once with a build from commit e36abfb \
                 through 71b71ff and --snapshot-every K, which rewrites it in the current version"
            }
            _ => "",
        };
        fail_solve(&format!("cannot resume from {}: {detail}{fix}", path.display()))
    })
}

/// The trace's instance and the `--algo` it names, checked against its
/// fleet: what local and remote simulation both start from.
fn load_simulation(args: &[String]) -> Result<(Instance, String, Algorithm), String> {
    let instance = load_instance(args)?;
    let spelling = flag(args, "--algo").ok_or("--algo ALGO is required")?;
    let algo = Algorithm::parse(&spelling, instance.num_types())?;
    Ok((instance, spelling, algo))
}

fn simulate(args: &[String]) -> ExitCode {
    let (instance, _, algo) = match load_simulation(args) {
        Ok(loaded) => loaded,
        Err(e) => return fail(&e),
    };
    let refine = match parse_refine(args) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    if refine.is_some() && !matches!(algo, Algorithm::Rhc { .. }) {
        eprintln!("note: --refine accelerates the rhc window DP; other algorithms ignore it");
    }
    let snap = match parse_snapshot(args) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let dp_opts = DpOptions { refine, ..DpOptions::default() };
    if let Err(e) = offline::validate_for_solve(&instance, dp_opts) {
        return fail_solve(&e.to_string());
    }
    let oracle = Dispatcher::new();
    let mut controller = algo.build(&instance, dp_opts);
    let (run, profile) = match drive(&instance, &mut controller, &oracle, &snap) {
        Ok(rp) => rp,
        Err(code) => return code,
    };
    report_simulation(&instance, &run, &profile, controller.engine_stats(), args)
}

fn report_simulation(
    instance: &Instance,
    run: &online::OnlineRun,
    profile: &online::LatencyProfile,
    engine_stats: Option<heterogeneous_rightsizing::offline::EngineStats>,
    args: &[String],
) -> ExitCode {
    if let Err(e) = run.schedule.check_feasible(instance) {
        return fail(&format!("internal error: produced infeasible schedule: {e}"));
    }
    println!("algorithm:       {}", run.name);
    println!("slots:           {}", instance.horizon());
    println!("operating cost:  {:.3}", run.breakdown.operating);
    println!("switching cost:  {:.3}", run.breakdown.switching);
    println!("total cost:      {:.3}", run.cost());
    let (p50, p90, p99, max, mean) = profile.summary_us();
    println!(
        "decision latency p50 {p50:.1} µs | p90 {p90:.1} µs | p99 {p99:.1} µs | max {max:.1} µs | mean {mean:.1} µs"
    );
    if let Some(s) = engine_stats {
        println!(
            "engine pricing:  {} slots priced, {} pool hits ({:.1}% hit rate, {} pooled)",
            s.pricings,
            s.pool_hits,
            100.0 * s.hit_rate(),
            s.pooled_slots,
        );
    }
    if let Some(out) = flag(args, "--out") {
        if let Err(e) = io::write_schedule(Path::new(&out), &run.schedule) {
            return fail(&format!("cannot write schedule: {e}"));
        }
        println!("schedule written to {out}");
    }
    ExitCode::SUCCESS
}

/// `rsz serve`: bind the daemon and run the accept loop until a
/// `shutdown` request arrives.
fn serve_cmd(args: &[String]) -> ExitCode {
    use heterogeneous_rightsizing::serve::{
        install_sigterm_handler, replication, Daemon, ServeOptions, Server,
    };
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".into());
    let mut options = ServeOptions {
        fsync: has_flag(args, "--fsync"),
        allow_fault_hooks: has_flag(args, "--allow-fault-hooks"),
        ..ServeOptions::default()
    };
    if let Some(dir) = flag(args, "--state-dir") {
        options.state_dir = std::path::PathBuf::from(dir);
    }
    match flag(args, "--deadline-us").as_deref().map(str::parse::<u64>) {
        None => {}
        Some(Ok(0)) => options.deadline = None,
        Some(Ok(us)) => options.deadline = Some(std::time::Duration::from_micros(us)),
        Some(Err(_)) => return fail("--deadline-us N needs a non-negative integer"),
    }
    match flag(args, "--queue-bound").as_deref().map(str::parse::<usize>) {
        None => {}
        Some(Ok(n)) if n >= 1 => options.queue_bound = n,
        Some(_) => return fail("--queue-bound N needs a positive integer"),
    }
    match flag(args, "--snapshot-every").as_deref().map(str::parse::<usize>) {
        None => {}
        Some(Ok(k)) => options.snapshot_every = k,
        Some(Err(_)) => return fail("--snapshot-every K needs a non-negative integer"),
    }
    match flag(args, "--pool-capacity").as_deref().map(str::parse::<usize>) {
        None => {}
        Some(Ok(n)) if n >= 1 => options.pool_capacity = n,
        Some(_) => return fail("--pool-capacity N needs a positive integer"),
    }
    match flag(args, "--coarse-gamma").as_deref().map(str::parse::<f64>) {
        None => {}
        Some(Ok(g)) if g > 1.0 => options.coarse_gamma = g,
        Some(_) => return fail("--coarse-gamma G needs G > 1"),
    }
    match flag(args, "--segment-bytes").as_deref().map(str::parse::<usize>) {
        None => {}
        Some(Ok(n)) => options.segment_bytes = n,
        Some(Err(_)) => return fail("--segment-bytes N needs a non-negative integer (0 = off)"),
    }
    match flag(args, "--fingerprint-every").as_deref().map(str::parse::<usize>) {
        None => {}
        Some(Ok(k)) => options.fingerprint_every = k,
        Some(Err(_)) => {
            return fail("--fingerprint-every K needs a non-negative integer (0 = off)")
        }
    }
    let replica_of = flag(args, "--replica-of");
    let replica_id = flag(args, "--replica-id").unwrap_or_else(|| "replica".into());
    let sync_interval = match flag(args, "--sync-interval-ms").as_deref().map(str::parse::<u64>) {
        None => std::time::Duration::from_millis(500),
        Some(Ok(ms)) if ms >= 1 => std::time::Duration::from_millis(ms),
        Some(_) => return fail("--sync-interval-ms N needs a positive integer"),
    };
    let lease_syncs = match flag(args, "--lease-syncs").as_deref().map(str::parse::<u32>) {
        None => 5,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => return fail("--lease-syncs N needs a positive integer"),
    };
    let state_dir = options.state_dir.clone();
    let daemon = match Daemon::new(options) {
        Ok(d) => std::sync::Arc::new(d),
        Err(e) => return fail(&format!("cannot open state dir {}: {e}", state_dir.display())),
    };
    install_sigterm_handler();
    let recovered = daemon.counters.recovered.load(std::sync::atomic::Ordering::Relaxed);
    let mut replica_thread = None;
    if let Some(primary) = replica_of {
        daemon.set_role(replication::Role::Replica);
        let sync_daemon = std::sync::Arc::clone(&daemon);
        replica_thread = Some(std::thread::spawn(move || {
            let promoted = replication::run_replica(
                &sync_daemon,
                &primary,
                sync_interval,
                replication::ReplicaOptions { replica_id, lease_failures: lease_syncs },
            );
            if promoted {
                eprintln!("rsz serve: lease on {primary} expired; promoted to primary");
            }
        }));
    }
    let server = match Server::bind(std::sync::Arc::clone(&daemon), &addr) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot bind {addr}: {e}")),
    };
    eprintln!(
        "rsz serve listening on {} as {} (state dir {}, {recovered} tenant(s) recovered)",
        server.local_addr(),
        daemon.role().as_str(),
        state_dir.display(),
    );
    let outcome = server.run();
    if let Some(t) = replica_thread {
        let _ = t.join();
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&format!("accept loop failed: {e}")),
    }
}

/// `rsz simulate --remote ADDR`: stream the trace to a serve daemon
/// instead of deciding locally. Sequence numbers make the stream
/// idempotent — re-running after a partial run replays the committed
/// prefix bit-identically and continues from the first new slot.
fn simulate_remote(args: &[String]) -> ExitCode {
    use heterogeneous_rightsizing::serve::{Client, ClientOptions, GridSpec, TenantSpec};
    // Refuse what the daemon would refuse before connecting to it.
    let (instance, algo, _) = match load_simulation(args) {
        Ok(loaded) => loaded,
        Err(e) => return fail(&e),
    };
    let addr = flag(args, "--remote").expect("the remote mode is chosen by its flag");
    let fleet_spec = flag(args, "--fleet").unwrap_or_else(|| "homogeneous:10".into());
    let tenant = flag(args, "--tenant").unwrap_or_else(|| "rsz-sim".into());
    let deadline_us = match flag(args, "--deadline-us").as_deref().map(str::parse::<u64>) {
        None => None,
        Some(Ok(us)) => Some(us),
        Some(Err(_)) => return fail("--deadline-us N needs a non-negative integer"),
    };
    let spec = TenantSpec {
        fleet: fleet_spec,
        algo,
        engine: true,
        cache: false,
        grid: GridSpec::Full,
        deadline_us,
        snapshot_every: 0,
    };
    // --peers lists the whole replica set; the primary's address leads
    // and failover rotates through the rest transparently.
    let mut peers = vec![addr.to_owned()];
    if let Some(extra) = flag(args, "--peers") {
        peers.extend(extra.split(',').map(str::trim).filter(|p| !p.is_empty()).map(str::to_owned));
    }
    peers.dedup();
    let mut client = Client::with_peers(&peers, ClientOptions::default());
    let resumed = match client.register(&tenant, &spec) {
        Ok(n) => n,
        Err(e) => return fail_solve(&format!("cannot register with {addr}: {e}")),
    };
    if resumed > 0 {
        eprintln!("tenant `{tenant}` resumes at seq {resumed} ({resumed} committed ticks)");
    }
    let mut schedule = Schedule::empty();
    let mut replayed = 0u64;
    let start = std::time::Instant::now();
    for (seq, &load) in instance.loads().iter().enumerate() {
        match client.tick(&tenant, seq as u64, load) {
            Ok(decision) => {
                if decision.replayed {
                    replayed += 1;
                }
                schedule.push(decision.config);
            }
            Err(e) => return fail_solve(&format!("tick {seq} failed: {e}")),
        }
    }
    let elapsed = start.elapsed();
    if let Err(e) = schedule.check_feasible(&instance) {
        return fail(&format!("daemon returned an infeasible schedule: {e}"));
    }
    let oracle = Dispatcher::new();
    let bd = heterogeneous_rightsizing::core::objective::evaluate(&instance, &schedule, &oracle);
    println!("algorithm:       remote {} @ {addr} (tenant {tenant})", spec.algo);
    println!("slots:           {}", instance.horizon());
    println!("operating cost:  {:.3}", bd.operating);
    println!("switching cost:  {:.3}", bd.switching);
    println!("total cost:      {:.3}", bd.total());
    println!(
        "remote ticks:    {} total, {replayed} replayed, {} retries, {} failovers, {:.1} ms wall",
        instance.horizon(),
        client.retries(),
        client.rotations(),
        elapsed.as_secs_f64() * 1e3,
    );
    if let Some(out) = flag(args, "--out") {
        if let Err(e) = io::write_schedule(Path::new(&out), &schedule) {
            return fail(&format!("cannot write schedule: {e}"));
        }
        println!("schedule written to {out}");
    }
    ExitCode::SUCCESS
}

fn generate(args: &[String]) -> ExitCode {
    let pattern = flag(args, "--pattern").unwrap_or_else(|| "diurnal".into());
    let len: usize = match flag(args, "--len").as_deref().map(str::parse) {
        Some(Ok(v)) if v > 0 => v,
        _ => return fail("--len N (positive) is required"),
    };
    let peak: f64 = match flag(args, "--peak").as_deref().map(str::parse) {
        Some(Ok(v)) if v > 0.0 => v,
        _ => return fail("--peak X (positive) is required"),
    };
    let seed: u64 = flag(args, "--seed").and_then(|s| s.parse().ok()).unwrap_or(1);

    let trace = match pattern.as_str() {
        "diurnal" => stochastic::with_gaussian_noise(
            &patterns::diurnal(len, 0.1 * peak, 0.85 * peak, 24, 0.75),
            0.03 * peak,
            seed,
        ),
        "constant" => patterns::constant(len, peak),
        "mmpp" => stochastic::mmpp(len, 0.1 * peak, 0.7 * peak, 0.05, 0.25, 1.0, seed)
            .normalized_to_peak(peak),
        "spiky" => stochastic::spiky(len, 0.2 * peak, 0.8 * peak, 0.1, seed),
        other => return fail(&format!("unknown pattern `{other}`\n{USAGE}")),
    };
    match flag(args, "--out") {
        Some(out) => {
            if let Err(e) = io::write_trace(Path::new(&out), &trace) {
                return fail(&format!("cannot write trace: {e}"));
            }
            println!(
                "wrote {} slots to {out} (peak {:.2}, mean {:.2})",
                trace.len(),
                trace.peak(),
                trace.mean()
            );
        }
        None => {
            for v in trace.values() {
                println!("{v}");
            }
        }
    }
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

/// Solver-level failures — malformed loads, infeasible instances,
/// corrupted snapshots — exit with code 3 (usage errors stay 2) so
/// wrappers can tell \"bad invocation\" from \"bad data\".
fn fail_solve(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).into()).collect()
    }

    #[test]
    fn flag_parsing() {
        let args = s(&["--trace", "t.csv", "--chart"]);
        assert_eq!(flag(&args, "--trace").as_deref(), Some("t.csv"));
        assert_eq!(flag(&args, "--missing"), None);
        assert!(has_flag(&args, "--chart"));
        assert!(!has_flag(&args, "--out"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(check_flags(&s(&["--trace", "t.csv", "--chart"]), &SOLVE_FLAGS).is_ok());
        for retired in ["--cache", "--pipeline", "--engine"] {
            assert!(check_flags(&s(&[retired]), &SOLVE_FLAGS).is_err(), "{retired}");
            assert!(check_flags(&s(&[retired]), &SIMULATE_FLAGS).is_err(), "{retired}");
        }
        assert!(check_flags(&s(&["--refine-epsilson", "0.5"]), &SOLVE_FLAGS).is_err());
        assert!(check_flags(&s(&["--trace"]), &SOLVE_FLAGS).is_err(), "missing value");
        assert!(check_flags(&s(&["stray"]), &GENERATE_FLAGS).is_err());
        assert!(check_flags(&s(&["--fsync"]), &SIMULATE_FLAGS).is_err());
    }

    #[test]
    fn fleet_specs() {
        assert_eq!(parse_fleet("homogeneous:5").unwrap().len(), 1);
        assert_eq!(parse_fleet("cpu-gpu:4,2").unwrap().len(), 2);
        assert_eq!(parse_fleet("three-tier:2,2,1").unwrap().len(), 3);
        assert!(parse_fleet("nope:1").is_err());
        assert!(parse_fleet("cpu-gpu:x").is_err());
        assert!(parse_fleet("cpu-gpu").is_err());
    }
}
