//! The planner workload: the exact optimum through the corridor solver
//! and a `(1+ε)` plan through the pipelined γ-grid DP, built only
//! through the documented option constructors.

use std::time::Instant;

use rsz_core::objective::evaluate;
use rsz_core::{Instance, Schedule, ServerType};
use rsz_dispatch::Dispatcher;
use rsz_offline::approx::approximate_opts;
use rsz_offline::{solve, validate_for_solve, DpOptions};

use crate::process_cpu_s;
use crate::report::Checks;

/// ε of the approximate plan.
pub const EPSILON: f64 = 0.5;

/// Relative slack when comparing costs priced by different paths (the
/// pipeline's warm-started sweeps agree with plain pricing to `1e-9`).
const COST_TOL: f64 = 1e-8;

/// Options of the exact solve: the corridor solver, whose schedule is
/// identical to the full-grid DP's.
#[must_use]
pub fn exact_options() -> DpOptions {
    DpOptions::refined()
}

/// Options of the `(1+ε)` solve (its grid is set by `approximate_opts`).
#[must_use]
pub fn approx_options() -> DpOptions {
    DpOptions::pipelined()
}

/// Set-up: build the instance and run the solver's pre-flight for both
/// option sets. Returns the instance and the elapsed seconds.
pub fn setup(types: &[ServerType], loads: &[f64]) -> (Instance, f64) {
    let start = Instant::now();
    let instance = Instance::builder()
        .server_types(types.iter().cloned())
        .loads(loads.to_vec())
        .build()
        .expect("generated loads fit the fleet");
    validate_for_solve(&instance, exact_options()).expect("instance passes the pre-flight");
    validate_for_solve(&instance, approx_options()).expect("instance passes the pre-flight");
    (instance, start.elapsed().as_secs_f64())
}

/// One solve pair.
#[derive(Clone, Debug)]
pub struct Solves {
    /// Exact solve seconds.
    pub exact_s: f64,
    /// Approximate solve seconds.
    pub approx_s: f64,
    /// CPU seconds of both solves (all solver threads).
    pub cpu_s: f64,
    /// Exact optimum.
    pub exact_cost: f64,
    /// Approximate plan's cost.
    pub approx_cost: f64,
}

fn check_schedule(
    checks: &mut Checks,
    instance: &Instance,
    what: &str,
    schedule: &Schedule,
    cost: f64,
) {
    let feasible = schedule.check_feasible(instance);
    checks.check(feasible.is_ok(), || format!("{what} schedule infeasible: {feasible:?}"));
    let priced = evaluate(instance, schedule, &Dispatcher::new()).total();
    checks.check((priced - cost).abs() <= COST_TOL * cost.abs().max(1.0), || {
        format!("{what} cost {cost} but the schedule evaluates to {priced}")
    });
}

/// Solve exactly and to `(1+ε)`, timing each, then check both plans and
/// the Theorem 21 sandwich `OPT ≤ approx ≤ (1+ε)·OPT`. `between` runs
/// before, between and after the solves, outside their times.
pub fn solve_pair(instance: &Instance, checks: &mut Checks, mut between: impl FnMut()) -> Solves {
    between();
    let cpu = process_cpu_s();
    let oracle = Dispatcher::new();
    let start = Instant::now();
    let exact = solve(instance, &oracle, exact_options());
    let exact_s = start.elapsed().as_secs_f64();
    let mut cpu_s = process_cpu_s() - cpu;
    between();
    let cpu = process_cpu_s();
    let oracle = Dispatcher::new();
    let start = Instant::now();
    let approx = approximate_opts(instance, &oracle, EPSILON, approx_options());
    let approx_s = start.elapsed().as_secs_f64();
    cpu_s += process_cpu_s() - cpu;
    between();

    check_schedule(checks, instance, "exact", &exact.schedule, exact.cost);
    check_schedule(checks, instance, "approx", &approx.result.schedule, approx.result.cost);
    let (opt, got) = (exact.cost, approx.result.cost);
    checks.check(
        opt <= got * (1.0 + COST_TOL) && got <= (1.0 + EPSILON) * opt * (1.0 + COST_TOL),
        || format!("approx cost {got} outside [OPT, (1+{EPSILON})·OPT] with OPT {opt}"),
    );
    Solves { exact_s, approx_s, cpu_s, exact_cost: opt, approx_cost: got }
}
