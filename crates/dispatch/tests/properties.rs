//! Property-based tests for the dispatch solver: the breakpoint
//! water-fill is validated against the dense grid-search oracle, against
//! the rate-ordered fill on all-affine cells, and by structural
//! optimality conditions.
//!
//! The arm sets mix every cost shape the breakpoint water-fill must
//! handle: constant and affine, closed-form `deriv_inv`, piecewise linear
//! (with flat-marginal and zero-slope segments), a custom cost that has
//! no `deriv_inv`, and zero-scaled cost views. A second case family
//! forces breakpoint ties: equal affine rates, all-affine cells (equal
//! rates, constant and zero-scaled arms), one arm's `Φ'(0)` equal to
//! another's `Φ'(cap)`, `λ` exactly at a breakpoint's cumulative volume,
//! and `λ` at capacity.

use std::ops::Range;
use std::sync::Arc;

use proptest::prelude::*;
use rsz_core::cost::PiecewiseLinearCost;
use rsz_core::{CostFunction, CostModel, CostSpec, GtOracle, Instance, ServerType};
use rsz_dispatch::{arms, brute, Arm, Dispatcher};

#[derive(Clone, Debug)]
struct ArmSpec {
    count: u32,
    zmax: f64,
    model: CostModel,
    /// Scale of the slot's cost view; `0.0` makes the arm free.
    scale: f64,
}

fn spec(count: u32, zmax: f64, model: CostModel) -> ArmSpec {
    ArmSpec { count, zmax, model, scale: 1.0 }
}

/// A convex custom cost with an exact derivative but no `deriv_inv`, so
/// pricing it bisects: `f(z) = idle + coef·(e^z − 1)`.
#[derive(Debug)]
struct ExpCost {
    idle: f64,
    coef: f64,
}

impl CostFunction for ExpCost {
    fn eval(&self, z: f64) -> f64 {
        self.idle + self.coef * z.exp_m1()
    }

    fn deriv(&self, z: f64) -> f64 {
        self.coef * z.exp()
    }
}

/// Two-segment piecewise-linear cost. `first` picks the first slope:
/// `0` gives a zero-slope (flat cost) segment.
fn piecewise(idle: f64, first: u32, z1: f64, rise: f64, z2: f64) -> CostModel {
    let s0 = [0.0, 0.5, 1.5][first as usize % 3];
    let c1 = idle + s0 * z1;
    CostModel::PiecewiseLinear(PiecewiseLinearCost::new(&[
        (0.0, idle),
        (z1, c1),
        (z1 + z2, c1 + (s0 + rise) * z2),
    ]))
}

fn model_strategy() -> impl Strategy<Value = CostModel> {
    prop_oneof![
        (0.1..3.0_f64).prop_map(CostModel::constant),
        (0.0..2.0_f64, 0.0..4.0_f64).prop_map(|(i, r)| CostModel::linear(i, r)),
        (0.0..2.0_f64, 0.1..2.0_f64, 1.2..3.0_f64).prop_map(|(i, c, a)| CostModel::power(i, c, a)),
        (0.0..2.0_f64, 0.0..2.0_f64, 0.1..1.5_f64)
            .prop_map(|(i, a, b)| CostModel::quadratic(i, a, b)),
        (0.0..2.0_f64, 0u32..3, 0.2..2.0_f64, 0.1..3.0_f64, 0.2..3.0_f64)
            .prop_map(|(i, first, z1, rise, z2)| piecewise(i, first, z1, rise, z2)),
        (0.0..2.0_f64, 0.1..2.0_f64)
            .prop_map(|(idle, coef)| CostModel::Custom(Arc::new(ExpCost { idle, coef }))),
    ]
}

fn arm_strategy() -> impl Strategy<Value = ArmSpec> {
    // One arm in six is priced through a zero-scaled cost view.
    (1u32..4, 0.5..4.0_f64, model_strategy(), 0u32..6).prop_map(|(count, zmax, model, k)| ArmSpec {
        count,
        zmax,
        model,
        scale: if k == 0 { 0.0 } else { 1.0 },
    })
}

/// All-affine arm sets (every marginal interval is one point), with
/// ties: two arms at one rate beside a constant or a zero-scaled arm, or
/// a constant arm tied at rate 0 with a zero-scaled one.
fn all_affine_arms() -> impl Strategy<Value = Vec<ArmSpec>> {
    (0.0..2.0_f64, 0.0..2.0_f64, 0.0..4.0_f64, 1u32..4, 1u32..4, 0u32..3).prop_map(
        |(i1, i2, rate, c1, c2, shape)| {
            let constant = spec(c2, 1.5, CostModel::constant(i2 + 0.1));
            let free = ArmSpec { scale: 0.0, ..spec(2, 0.5, CostModel::linear(i1, rate + 1.0)) };
            let tied = spec(c2, 2.0, CostModel::linear(i2, rate));
            let lin = spec(c1, 1.0, CostModel::linear(i1, rate));
            match shape {
                0 => vec![lin, tied, constant],
                1 => vec![lin, tied, free],
                _ => vec![lin, constant, free],
            }
        },
    )
}

/// Arm sets whose marginal-price breakpoints tie.
fn tied_arms() -> impl Strategy<Value = Vec<ArmSpec>> {
    prop_oneof![
        all_affine_arms(),
        // Equal affine rates beside a strictly convex arm.
        (0.0..2.0_f64, 0.0..2.0_f64, 0.0..4.0_f64, 1u32..4, 1u32..4, 0.1..2.0_f64).prop_map(
            |(i1, i2, rate, c1, c2, coef)| {
                vec![
                    spec(c1, 1.0, CostModel::linear(i1, rate)),
                    spec(1, 1.5, CostModel::power(0.5, coef, 2.0)),
                    spec(c2, 2.0, CostModel::linear(i2, rate)),
                ]
            }
        ),
        // Φ'(cap) of a quadratic arm equals Φ'(0) of the next one. The
        // capacity is dyadic, so `cap / count` is exact and the two
        // marginals tie bit for bit.
        (0.0..2.0_f64, 0.1..1.5_f64, 1u32..4, 1u32..9, 0.0..1.5_f64, 0u32..2).prop_map(
            |(a, b, count, quarters, b2, affine)| {
                let zmax = 0.25 * f64::from(quarters);
                let top = a + 2.0 * b * zmax;
                let next = if affine == 1 {
                    CostModel::linear(0.3, top)
                } else {
                    CostModel::quadratic(0.3, top, b2)
                };
                vec![
                    spec(count, zmax, CostModel::quadratic(0.5, a, b)),
                    spec(2, 1.0, next),
                    spec(1, 2.0, CostModel::linear(0.2, top)),
                ]
            }
        ),
    ]
}

/// How a case picks its volume `λ`.
#[derive(Clone, Debug)]
enum Volume {
    /// A fraction of the total capacity.
    Frac(f64),
    /// `Y(p)`, the cumulative volume willing to run at one of the arms'
    /// breakpoint prices `Φ'(0)`, `Φ'(cap)` (picked by index).
    Breakpoint(usize),
    /// The total capacity.
    Capacity,
}

#[derive(Clone, Debug)]
struct Case {
    specs: Vec<ArmSpec>,
    volume: Volume,
}

fn volume_strategy() -> impl Strategy<Value = Volume> {
    prop_oneof![
        (0.0..1.0_f64).prop_map(Volume::Frac),
        (0usize..6).prop_map(Volume::Breakpoint),
        Just(Volume::Capacity),
    ]
}

/// Random arm sets at a fraction of capacity, plus the tie family: tied
/// arm sets at any volume, and random arm sets at breakpoint volumes or
/// at capacity.
fn case_strategy(arms: Range<usize>, frac: Range<f64>) -> impl Strategy<Value = Case> {
    prop_oneof![
        (prop::collection::vec(arm_strategy(), arms.clone()), frac)
            .prop_map(|(specs, f)| Case { specs, volume: Volume::Frac(f) }),
        (tied_arms(), volume_strategy()).prop_map(|(specs, volume)| Case { specs, volume }),
        (prop::collection::vec(arm_strategy(), arms), (0usize..6).prop_map(Volume::Breakpoint))
            .prop_map(|(specs, volume)| Case { specs, volume }),
        (prop::collection::vec(arm_strategy(), 1..4), Just(Volume::Capacity))
            .prop_map(|(specs, volume)| Case { specs, volume }),
    ]
}

fn build_instance(specs: &[ArmSpec]) -> Instance {
    let types: Vec<ServerType> = specs
        .iter()
        .enumerate()
        .map(|(j, s)| {
            let cost = CostSpec::scaled(s.model.clone(), vec![s.scale]);
            ServerType::with_spec(format!("t{j}"), s.count, 1.0, s.zmax, cost)
        })
        .collect();
    Instance::builder()
        .server_types(types)
        .loads(vec![0.0]) // loads are passed explicitly to the solver
        .build()
        .expect("valid dispatch test instance")
}

fn capacity(arm_list: &[Arm<'_>]) -> f64 {
    arm_list.iter().map(Arm::cap).sum()
}

fn lambda_of(arm_list: &[Arm<'_>], volume: &Volume) -> f64 {
    match *volume {
        Volume::Frac(f) => f * capacity(arm_list),
        Volume::Capacity => capacity(arm_list),
        Volume::Breakpoint(i) => {
            let prices: Vec<f64> =
                arm_list.iter().flat_map(|a| [a.phi_deriv(0.0), a.phi_deriv(a.cap())]).collect();
            let p = prices[i % prices.len()];
            arm_list.iter().map(|a| a.volume_at_price(p)).sum::<f64>().min(capacity(arm_list))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The production solver never exceeds the grid-search oracle (which
    /// over-estimates the optimum by its grid resolution) and is never
    /// more than the grid resolution below it.
    #[test]
    fn solver_matches_brute_oracle(case in case_strategy(1..3, 0.05..0.99)) {
        let inst = build_instance(&case.specs);
        let counts: Vec<u32> = case.specs.iter().map(|s| s.count).collect();
        let arm_list = arms::collect(&inst, 0, &counts);
        let lambda = lambda_of(&arm_list, &case.volume);
        let solver = Dispatcher::new().solve_arms(&arm_list, lambda);
        let oracle = brute::solve(&arm_list, lambda, 600);
        prop_assert!(solver.is_feasible());
        prop_assert!(
            solver.cost <= oracle.cost + 1e-6 * oracle.cost.abs().max(1.0),
            "solver {} worse than grid oracle {}", solver.cost, oracle.cost
        );
        prop_assert!(
            solver.cost >= oracle.cost - 0.05 * oracle.cost.abs().max(0.1),
            "solver {} suspiciously below grid oracle {}", solver.cost, oracle.cost
        );
    }

    /// The returned allocation is primal feasible: volumes within
    /// capacity and summing to λ.
    #[test]
    fn allocation_is_primal_feasible(case in case_strategy(1..4, 0.0..1.0)) {
        let inst = build_instance(&case.specs);
        let counts: Vec<u32> = case.specs.iter().map(|s| s.count).collect();
        let arm_list = arms::collect(&inst, 0, &counts);
        let lambda = lambda_of(&arm_list, &case.volume);
        let sol = Dispatcher::new().solve_arms(&arm_list, lambda);
        prop_assert!(sol.is_feasible());
        let total: f64 = sol.volumes.iter().sum();
        prop_assert!((total - lambda).abs() <= 1e-6 * lambda.max(1.0), "Σy = {total} ≠ λ = {lambda}");
        for (y, a) in sol.volumes.iter().zip(&arm_list) {
            prop_assert!(*y >= -1e-12 && *y <= a.cap() + 1e-9);
        }
    }

    /// KKT stationarity: marginal costs of interior arms agree, and
    /// boundary arms satisfy the complementary inequalities.
    #[test]
    fn kkt_conditions_hold(case in case_strategy(2..4, 0.1..0.9)) {
        let inst = build_instance(&case.specs);
        let counts: Vec<u32> = case.specs.iter().map(|s| s.count).collect();
        let arm_list = arms::collect(&inst, 0, &counts);
        let lambda = lambda_of(&arm_list, &case.volume);
        let sol = Dispatcher::new().solve_arms(&arm_list, lambda);
        // Price = max marginal among arms carrying volume.
        let mut nu: f64 = 0.0;
        for (y, a) in sol.volumes.iter().zip(&arm_list) {
            if *y > 1e-9 {
                nu = nu.max(a.phi_deriv(*y * (1.0 - 1e-9)));
            }
        }
        for (y, a) in sol.volumes.iter().zip(&arm_list) {
            if *y < a.cap() - 1e-9 {
                // not saturated ⇒ marginal at y must be ≥ ν − tol (else
                // moving volume here would reduce cost).
                let marginal = a.phi_deriv(*y);
                prop_assert!(
                    marginal >= nu - 1e-4 * nu.abs().max(1.0),
                    "arm could absorb cheaper volume: φ'({y}) = {marginal} < ν = {nu}"
                );
            }
        }
    }

    /// Perturbing the optimal allocation never reduces the cost
    /// (first-order optimality via random feasible exchange moves).
    #[test]
    fn exchange_moves_never_improve(
        case in case_strategy(2..4, 0.1..0.9),
        from in 0usize..4,
        to in 0usize..4,
        delta_frac in 0.01..0.5_f64,
    ) {
        let inst = build_instance(&case.specs);
        let counts: Vec<u32> = case.specs.iter().map(|s| s.count).collect();
        let arm_list = arms::collect(&inst, 0, &counts);
        let n = arm_list.len();
        let (from, to) = (from % n, to % n);
        prop_assume!(from != to);
        let lambda = lambda_of(&arm_list, &case.volume);
        let sol = Dispatcher::new().solve_arms(&arm_list, lambda);
        let mut vols = sol.volumes.clone();
        let room = (arm_list[to].cap() - vols[to]).min(vols[from]);
        let delta = delta_frac * room;
        prop_assume!(delta > 1e-12);
        vols[from] -= delta;
        vols[to] += delta;
        let new_cost: f64 = vols.iter().zip(&arm_list).map(|(&y, a)| a.phi(y)).sum();
        prop_assert!(
            new_cost >= sol.cost - 1e-6 * sol.cost.abs().max(1.0),
            "exchange improved cost: {new_cost} < {}", sol.cost
        );
    }

    /// An all-affine cell costs what the rate-ordered fill costs (every
    /// arm filled to capacity, cheapest marginal rate first, plus the
    /// idle costs) at each cumulative capacity of that order and halfway
    /// to it.
    #[test]
    fn all_affine_cells_cost_the_rate_ordered_fill(specs in all_affine_arms()) {
        let inst = build_instance(&specs);
        let counts: Vec<u32> = specs.iter().map(|s| s.count).collect();
        let arm_list = arms::collect(&inst, 0, &counts);
        let mut order: Vec<&Arm<'_>> = arm_list.iter().collect();
        order.sort_by(|a, b| a.phi_deriv(0.0).total_cmp(&b.phi_deriv(0.0)));
        let fill = |lambda: f64| {
            let mut rest = lambda;
            let mut cost: f64 = arm_list.iter().map(Arm::idle_total).sum();
            for a in &order {
                let take = rest.min(a.cap());
                cost += take * a.phi_deriv(0.0);
                rest -= take;
            }
            cost
        };
        let d = Dispatcher::new();
        let mut reached = 0.0;
        for a in &order {
            for lambda in [reached + 0.5 * a.cap(), reached + a.cap()] {
                let sol = d.solve_arms(&arm_list, lambda);
                let want = fill(lambda);
                prop_assert!(
                    (sol.cost - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "λ = {lambda}: {} vs the fill's {want}", sol.cost
                );
                let total: f64 = sol.volumes.iter().sum();
                prop_assert!((total - lambda).abs() <= 1e-12 * lambda.max(1.0), "Σy = {total}");
            }
            reached += a.cap();
        }
    }

    /// Cost is monotone in λ: more volume never costs less.
    #[test]
    fn cost_monotone_in_volume(case in case_strategy(1..3, 0.0..1.0), shrink in 0.0..1.0_f64) {
        let inst = build_instance(&case.specs);
        let counts: Vec<u32> = case.specs.iter().map(|s| s.count).collect();
        let arm_list = arms::collect(&inst, 0, &counts);
        let hi = lambda_of(&arm_list, &case.volume);
        let d = Dispatcher::new();
        let c_lo = d.solve_arms(&arm_list, shrink * hi).cost;
        let c_hi = d.solve_arms(&arm_list, hi).cost;
        prop_assert!(c_lo <= c_hi + 1e-6 * c_hi.abs().max(1.0), "{c_lo} > {c_hi}");
    }
}

/// Enumerate every configuration `0..=counts[j]` per type in row-major
/// (last dimension fastest) layout order — the order DP fills and the
/// pricing pipeline sweep.
fn layout_order_configs(counts: &[u32]) -> Vec<Vec<u32>> {
    let mut out = vec![vec![]];
    for &m in counts {
        let mut next = Vec::new();
        for prefix in &out {
            for c in 0..=m {
                let mut cfg = prefix.clone();
                cfg.push(c);
                next.push(cfg);
            }
        }
        out = next;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A layout-order sweep (the pricing pipeline's access pattern)
    /// returns exactly `g_scaled`'s bits on every grid cell — including
    /// time-dependent per-slot cost scaling and Algorithm C's scaled
    /// sub-slots — because every cell runs `g_scaled`'s water-fill, and
    /// the slot context's memos (each breakpoint's inverse derivatives,
    /// each `(type, count)`'s ends) hand it the very values it would
    /// compute.
    #[test]
    fn slot_sweep_equals_g_scaled_bit_for_bit(
        specs in prop::collection::vec(arm_strategy(), 1..3),
        frac in 0.05..0.95_f64,
        price in 0.25..3.0_f64,
        scale_pick in 0usize..3,
    ) {
        // Two slots sharing the shape, slot 1 re-priced: time-dependent.
        let types: Vec<ServerType> = specs
            .iter()
            .enumerate()
            .map(|(j, s)| {
                ServerType::with_spec(
                    format!("t{j}"),
                    s.count,
                    1.0,
                    s.zmax,
                    CostSpec::scaled(s.model.clone(), vec![s.scale, s.scale * price]),
                )
            })
            .collect();
        let counts: Vec<u32> = specs.iter().map(|s| s.count).collect();
        let inst = Instance::builder()
            .server_types(types)
            .loads(vec![0.0, 0.0])
            .build()
            .expect("valid sweep test instance");
        let total_cap: f64 =
            counts.iter().zip(&specs).map(|(&c, s)| f64::from(c) * s.zmax).sum();
        let lambda = frac * total_cap;
        // Algorithm C sub-slots scale costs by 1/ñ_t.
        let cost_scale = [1.0, 0.5, 1.0 / 3.0][scale_pick];
        let d = Dispatcher::new();
        for t in 0..2 {
            let mut sweep = d.slot_sweep(&inst, t, lambda, cost_scale);
            for cfg in layout_order_configs(&counts) {
                let swept = sweep.eval(&cfg);
                let direct = d.g_scaled(&inst, t, &cfg, lambda, cost_scale);
                prop_assert_eq!(
                    swept.to_bits(), direct.to_bits(),
                    "t={} x={:?}: sweep {} vs g_scaled {}", t, &cfg, swept, direct
                );
            }
        }
    }
}

/// Per-server capacities for which `(c·zmax)/c` rounds away from `zmax`
/// at `c = 3`, so `Φ'(cap)` of three servers is not that of one.
const UNEVEN_ZMAX: [f64; 3] = [0.1, 0.7, 0.982_020_966_044_343_3];

/// A random capacity or, half the time, an uneven one.
fn memo_zmax() -> impl Strategy<Value = f64> {
    prop_oneof![0.5..4.0_f64, (0usize..3).prop_map(|i| UNEVEN_ZMAX[i])]
}

/// One type of a memo case, of any shape `model_strategy` draws (the
/// exp cost has no `deriv_inv`): one in six has a zero-scaled cost view.
fn memo_type() -> impl Strategy<Value = ArmSpec> {
    (1u32..5, memo_zmax(), model_strategy(), 0u32..6).prop_map(|(count, zmax, model, k)| ArmSpec {
        count,
        zmax,
        model,
        scale: if k == 0 { 0.0 } else { 1.0 },
    })
}

/// Eight quadratic types with staggered marginal intervals: the slot's
/// cells query more `(type, breakpoint)` pairs than the 12 a context's
/// breakpoint memo keeps.
fn wide_types() -> impl Strategy<Value = Vec<ArmSpec>> {
    prop::collection::vec((0.0..3.0_f64, 0.2..1.5_f64, memo_zmax()), 8..9).prop_map(|abz| {
        abz.into_iter().map(|(a, b, zmax)| spec(2, zmax, CostModel::quadratic(0.5, a, b))).collect()
    })
}

/// Two slots of `specs`, slot 1 priced at `price` times slot 0.
fn two_slot_instance(specs: &[ArmSpec], price: f64) -> Instance {
    let types = specs.iter().enumerate().map(|(j, s)| {
        let factors = vec![s.scale, s.scale * price];
        ServerType::with_spec(
            format!("t{j}"),
            s.count,
            1.0,
            s.zmax,
            CostSpec::scaled(s.model.clone(), factors),
        )
    });
    Instance::builder()
        .server_types(types.collect::<Vec<_>>())
        .loads(vec![0.0, 0.0])
        .build()
        .expect("valid memo test instance")
}

/// The grid of `counts` in a shuffled order, then a third of it again:
/// what a memo holds must not depend on which cell filled it.
fn shuffled_with_repeats(counts: &[u32], seed: u64) -> Vec<Vec<u32>> {
    let mut state = seed | 1;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let mut order = layout_order_configs(counts);
    for i in (1..order.len()).rev() {
        order.swap(i, next(i + 1));
    }
    let repeats: Vec<Vec<u32>> =
        (0..order.len() / 3).map(|_| order[next(order.len())].clone()).collect();
    order.extend(repeats);
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One slot context prices a grid in any order, repeats included,
    /// with exactly `g_scaled`'s bits: its memos are pure functions of
    /// their keys. Covers every memoized cost shape, time-dependent and
    /// zero-scaled cost views, zero-scaled slots, capacities that do not
    /// round-trip through `c·zmax / c`, and more breakpoint pairs than
    /// the memo keeps.
    #[test]
    fn slot_memo_keeps_g_scaled_bits_in_any_order(
        specs in prop_oneof![prop::collection::vec(memo_type(), 1..5), wide_types()],
        frac in 0.05..0.95_f64,
        price in 0.25..3.0_f64,
        scale_pick in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let inst = two_slot_instance(&specs, price);
        let counts: Vec<u32> = specs.iter().map(|s| s.count).collect();
        let total_cap: f64 = specs.iter().map(|s| f64::from(s.count) * s.zmax).sum();
        let lambda = frac * total_cap;
        let cost_scale = [1.0, 0.5, 1.0 / 3.0, 0.0][scale_pick];
        let d = Dispatcher::new();
        let order = shuffled_with_repeats(&counts, seed);
        for t in 0..2 {
            let mut slot = d.slot_dispatcher(&inst, t, lambda, cost_scale);
            for x in &order {
                let memo = slot.eval_config(x);
                let direct = d.g_scaled(&inst, t, x, lambda, cost_scale);
                prop_assert_eq!(
                    memo.to_bits(), direct.to_bits(),
                    "t={} x={:?}: context {} vs g_scaled {}", t, x, memo, direct
                );
            }
        }
    }
}

#[test]
fn uneven_capacities_do_not_round_trip() {
    for z in UNEVEN_ZMAX {
        assert_ne!((3.0 * z) / 3.0, z, "{z}");
    }
}

/// `f(z) = a·z + b·z²` with a closed-form `deriv_inv` that records every
/// price it is asked for.
#[derive(Debug)]
struct Counted {
    a: f64,
    b: f64,
    asked: std::sync::Mutex<Vec<u64>>,
}

impl Counted {
    fn new(a: f64, b: f64) -> Arc<Self> {
        Arc::new(Self { a, b, asked: std::sync::Mutex::new(Vec::new()) })
    }

    /// The prices asked since the last call, as bits.
    fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.asked.lock().unwrap())
    }
}

impl CostFunction for Counted {
    fn eval(&self, z: f64) -> f64 {
        self.a * z + self.b * z * z
    }

    fn deriv(&self, z: f64) -> f64 {
        self.a + 2.0 * self.b * z
    }

    fn deriv_inv(&self, slope: f64) -> Option<f64> {
        self.asked.lock().unwrap().push(slope.to_bits());
        Some(((slope - self.a) / (2.0 * self.b)).max(0.0))
    }
}

/// How often each price was asked, most first.
fn repeats(asked: &[u64]) -> usize {
    let mut sorted = asked.to_vec();
    sorted.sort_unstable();
    sorted.chunk_by(|x, y| x == y).map(<[u64]>::len).max().unwrap_or(0)
}

#[test]
fn one_slot_asks_each_breakpoint_load_once_per_type() {
    // Marginal intervals [0, 1], [1, 2] and [2, 3] (dyadic capacities, so
    // every count has the same ends) touch but do not overlap: no
    // segment between breakpoints has two interior arms, so no cell takes
    // the bracketed secant and every `deriv_inv` call is at a breakpoint.
    let costs = [Counted::new(0.0, 0.5), Counted::new(1.0, 0.25), Counted::new(2.0, 0.5)];
    let types = [(3, 1.0), (2, 2.0), (3, 1.0)].iter().zip(&costs).enumerate().map(
        |(j, (&(count, zmax), cost))| {
            let model = CostModel::Custom(Arc::clone(cost) as Arc<dyn CostFunction>);
            ServerType::new(format!("t{j}"), count, 1.0, zmax, model)
        },
    );
    let inst = Instance::builder()
        .server_types(types.collect::<Vec<_>>())
        .loads(vec![0.0])
        .build()
        .expect("valid counting instance");
    let grid = layout_order_configs(&[3, 2, 3]);
    let d = Dispatcher::new();
    for lambda in [1.3, 3.5, 6.2] {
        let direct: Vec<f64> = grid.iter().map(|x| d.g_scaled(&inst, 0, x, lambda, 1.0)).collect();
        let one_shot: Vec<Vec<u64>> = costs.iter().map(|c| c.take()).collect();
        let mut slot = d.slot_dispatcher(&inst, 0, lambda, 1.0);
        for (x, want) in grid.iter().zip(&direct) {
            assert_eq!(slot.eval_config(x).to_bits(), want.to_bits(), "λ={lambda} x={x:?}");
        }
        let memo: Vec<Vec<u64>> = costs.iter().map(|c| c.take()).collect();
        assert!(memo.iter().any(|asked| !asked.is_empty()), "λ={lambda}: no breakpoint load asked");
        for (j, (memo, one_shot)) in memo.iter().zip(&one_shot).enumerate() {
            assert!(repeats(memo) <= 1, "λ={lambda} type {j}: a breakpoint asked twice: {memo:?}");
            assert!(memo.len() <= one_shot.len(), "λ={lambda} type {j}");
        }
        // Without the memo the same loads are asked cell after cell.
        assert!(one_shot.iter().any(|asked| repeats(asked) > 1), "λ={lambda}: {one_shot:?}");
    }
}

#[test]
fn a_count_that_does_not_round_trip_its_capacity_keeps_its_bits() {
    // Three servers of the last type hold `(3·zmax)/3 ≠ zmax`, so their
    // `Φ'(cap)` is not one server's: a memo that read it per type moves
    // this cell's last bit (a case the proptest above found).
    let specs = [
        spec(
            2,
            2.925_244_097_605_068,
            CostModel::Custom(Arc::new(ExpCost {
                idle: 0.052_401_759_173_333_45,
                coef: 0.111_889_689_243_514_06,
            })),
        ),
        spec(
            1,
            2.460_549_612_987_136,
            CostModel::quadratic(
                1.763_517_621_864_493_5,
                1.225_279_721_635_516_7,
                0.179_592_318_331_695_26,
            ),
        ),
        spec(
            4,
            1.401_179_321_875_048,
            CostModel::quadratic(
                1.740_223_186_325_038_4,
                0.708_525_226_674_478_4,
                1.117_044_990_225_126_7,
            ),
        ),
        spec(
            4,
            UNEVEN_ZMAX[2],
            CostModel::power(
                0.369_995_181_418_012_24,
                0.853_697_319_208_822_9,
                1.304_880_717_735_194_2,
            ),
        ),
    ];
    let inst = two_slot_instance(&specs, 0.728_134_445_717_523_8);
    let (lambda, cost_scale) = (9.802_009_263_697_88, 0.5);
    let d = Dispatcher::new();
    let mut slot = d.slot_dispatcher(&inst, 1, lambda, cost_scale);
    for x in layout_order_configs(&[2, 1, 4, 4]) {
        let direct = d.g_scaled(&inst, 1, &x, lambda, cost_scale);
        assert_eq!(slot.eval_config(&x).to_bits(), direct.to_bits(), "x={x:?}");
    }
}
