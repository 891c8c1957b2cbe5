//! Algorithm C — `(2d+1+ε)`-competitive via sub-slot refinement
//! (Section 3.2).
//!
//! The additive constant `c(I) = Σ_j max_t l_{t,j}/β_j` of Algorithm B
//! shrinks when idle costs per slot shrink. Algorithm C exploits this by
//! splitting every original slot `t` into
//!
//! ```text
//! ñ_t = ⌈ (d/ε) · max_j l_{t,j}/β_j ⌉     (at least 1)
//! ```
//!
//! sub-slots, each carrying cost `f_{t,j}/ñ_t` and the same volume, and
//! running Algorithm B on the refined instance `Ĩ` — giving
//! `c(Ĩ) ≤ d/(d/ε) = ε`. The committed configuration for the original
//! slot is the sub-slot state with the smallest operating cost,
//! `x^C_t = x^B_{µ(t)}`, `µ(t) = argmin_{u ∈ U(t)} g̃_u(x^B_u)`; Lemma 14
//! shows this never costs more than `X^B` does on `Ĩ`.
//!
//! Practical guard: `ñ_t` can explode when idle costs dwarf switching
//! costs, so it is clamped to [`COptions::max_subslots`]; the *realized*
//! refinement constant `c(Ĩ)` is tracked and exposed so the effective
//! guarantee `2d+1+c(Ĩ)` is always reportable.

use rsz_core::util::TIE_EPS;
use rsz_core::{Config, GtOracle, Instance};
use rsz_offline::{Decoder, Encoder, EngineStats, SharedSlotPool, SnapshotError};

use crate::algo_a::AOptions;
use crate::algo_b::BCore;
use crate::checkpoint::Checkpoint;
use crate::registry::Controller;
use crate::runner::OnlineAlgorithm;

/// Options for [`AlgorithmC`].
#[derive(Clone, Copy, Debug)]
pub struct COptions {
    /// Target excess `ε` over the `2d+1` base ratio.
    pub epsilon: f64,
    /// Upper bound on sub-slots per original slot (cost guard).
    pub max_subslots: usize,
    /// Prefix-DP options shared with Algorithms A/B.
    pub base: AOptions,
}

impl Default for COptions {
    fn default() -> Self {
        Self { epsilon: 0.5, max_subslots: 256, base: AOptions::default() }
    }
}

/// Algorithm C (deterministic, `(2d+1+ε)`-competitive, Theorem 15).
#[derive(Debug)]
pub struct AlgorithmC<O> {
    oracle: O,
    core: BCore,
    options: COptions,
    /// Per-type max of `l̃_{u,j}/β_j` over all processed sub-slots — the
    /// realized `c(Ĩ)` summands.
    realized_c: Vec<f64>,
    /// The largest ñ_t chosen so far (for reporting; their sum is the
    /// core's step count).
    subslots_max: usize,
}

impl<O: GtOracle + Sync> AlgorithmC<O> {
    /// Set up Algorithm C for an instance.
    ///
    /// # Panics
    /// Panics if `epsilon ≤ 0`.
    #[must_use]
    pub fn new(instance: &Instance, oracle: O, options: COptions) -> Self {
        assert!(options.epsilon > 0.0, "epsilon must be positive");
        Self {
            oracle,
            core: BCore::new(instance, options.base),
            options,
            realized_c: vec![0.0; instance.num_types()],
            subslots_max: 0,
        }
    }

    /// The realized refinement constant `c(Ĩ) = Σ_j max_u l̃_{u,j}/β_j`
    /// over the slots processed so far. Equals at most `ε` unless the
    /// sub-slot cap was hit.
    #[must_use]
    pub fn realized_c(&self) -> f64 {
        self.realized_c.iter().sum()
    }

    /// `Σ_t ñ_t` over the slots processed so far: every sub-slot is
    /// one step of the B core.
    #[must_use]
    pub fn subslots_total(&self) -> usize {
        self.core.steps()
    }

    /// `max_t ñ_t` over the slots processed so far (0 before the first).
    #[must_use]
    pub fn subslots_max(&self) -> usize {
        self.subslots_max
    }

    /// The operating cost `g_t(x)` used to rank sub-slot states: read
    /// from the engine's dense priced slot (the table was priced once
    /// for this slot and λ), falling back to the oracle for off-grid
    /// states. Pool-resident values may differ from the oracle's by the
    /// relative tolerance [`GtOracle::slot_sweep`] allows; the
    /// [`TIE_EPS`] window in [`AlgorithmC::decide`] absorbs that for
    /// exact and near-exact ties (gaps right at the window edge remain
    /// theoretically flippable — the parity property tests bound how
    /// often that matters: never observed).
    fn subslot_g(&self, instance: &Instance, t: usize, x: &Config) -> f64 {
        if let Some(priced) = self.core.prefix().last_priced() {
            if let Some(v) = priced.get(x) {
                return v;
            }
        }
        self.oracle.g(instance, t, x.counts())
    }

    /// The refinement width for slot `t`:
    /// `ñ_t = ⌈(d/ε)·max_j l_{t,j}/β_j⌉`, clamped to `[1, max_subslots]`.
    #[must_use]
    pub fn subslots_for(&self, instance: &Instance, t: usize) -> usize {
        let d = instance.num_types() as f64;
        let worst = (0..instance.num_types())
            .map(|j| {
                let beta = instance.switching_cost(j);
                if beta == 0.0 {
                    0.0
                } else {
                    instance.idle_cost(t, j) / beta
                }
            })
            .fold(0.0_f64, f64::max);
        let n = (d / self.options.epsilon * worst).ceil() as usize;
        n.clamp(1, self.options.max_subslots)
    }
}

impl<O: GtOracle + Sync + Send> Controller for AlgorithmC<O> {
    /// Every original slot is priced **once** however many sub-slots
    /// replay it: the `ñ_t` sub-slots of slot `t` share the pool key
    /// `(t, λ_t, grid)`, so `pricings` equals the number of distinct
    /// original slots — the property the pricing-count test asserts.
    fn engine_stats(&self) -> Option<EngineStats> {
        Some(self.core.prefix().engine_stats())
    }

    fn share_pool(&mut self, pool: SharedSlotPool) {
        self.core.share_pool(pool);
    }
}

impl<O: GtOracle + Sync> OnlineAlgorithm for AlgorithmC<O> {
    fn name(&self) -> String {
        format!("Algorithm C(ε={})", self.options.epsilon)
    }

    fn decide(&mut self, instance: &Instance, t: usize) -> Config {
        let n = self.subslots_for(instance, t);
        self.subslots_max = self.subslots_max.max(n);
        let scale = 1.0 / n as f64;
        let lambda = instance.load(t);
        for j in 0..instance.num_types() {
            let beta = instance.switching_cost(j);
            if beta > 0.0 {
                let ltilde = scale * instance.idle_cost(t, j);
                let r = ltilde / beta;
                if r > self.realized_c[j] {
                    self.realized_c[j] = r;
                }
            }
        }
        // Run B over the ñ_t sub-slots and keep the state with minimal
        // operating cost (g̃ is 1/ñ_t · g_t for every sub-slot, so the
        // unscaled g_t ranks identically). Each sub-slot after the
        // first replays the slot's pooled pricing —
        // one transform+add pass, zero dispatch solves — and `g` is a
        // table lookup instead of an oracle call.
        let mut best: Option<(f64, Config)> = None;
        for _ in 0..n {
            let x = self.core.step(instance, &self.oracle, t, lambda, scale);
            let g = self.subslot_g(instance, t, &x);
            // Relative-epsilon comparison (not strict `<`): a value
            // within the tie window of the incumbent keeps the earlier
            // sub-slot. Exact ties and sub-window gaps then resolve
            // identically whether g came from the pooled sweep or the
            // oracle; only a true gap sitting within the sweep wobble
            // of the window edge could still flip µ(t).
            let better = match &best {
                None => true,
                Some((bg, _)) => g + TIE_EPS * bg.abs().max(1.0) < *bg,
            };
            if better {
                best = Some((g, x));
            }
        }
        best.expect("ñ_t ≥ 1").1
    }
}

impl<O: GtOracle + Sync> Checkpoint for AlgorithmC<O> {
    fn algo_tag(&self) -> &'static str {
        "algo-c"
    }

    fn save_state(&self, enc: &mut Encoder) {
        self.core.save_state(enc);
        enc.put_usize(self.realized_c.len());
        for &c in &self.realized_c {
            enc.put_f64(c);
        }
        enc.put_usize(self.subslots_max);
    }

    fn restore_state(
        &mut self,
        instance: &Instance,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError> {
        self.core.restore_state(instance, dec)?;
        let d = instance.num_types();
        if dec.take_usize()? != d {
            return Err(SnapshotError::Corrupt("realized-c vector has the wrong dimension"));
        }
        let mut realized_c = Vec::with_capacity(d);
        for _ in 0..d {
            realized_c.push(dec.take_f64()?);
        }
        let subslots_max = dec.take_usize()?;
        if subslots_max > self.options.max_subslots
            || (subslots_max == 0) != (self.core.steps() == 0)
        {
            return Err(SnapshotError::Corrupt("sub-slot maximum out of range"));
        }
        self.realized_c = realized_c;
        self.subslots_max = subslots_max;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo_b::c_constant;
    use crate::runner::run;
    use rsz_core::{CostModel, CostSpec, ServerType};
    use rsz_dispatch::Dispatcher;
    use rsz_offline::dp::{solve, DpOptions as OffOptions};

    fn time_varying_instance() -> Instance {
        let price = vec![2.0, 0.5, 3.0, 1.0, 2.5, 0.5, 1.5, 2.0];
        Instance::builder()
            .server_type(ServerType::with_spec(
                "a",
                3,
                5.0,
                1.0,
                CostSpec::scaled(CostModel::constant(1.0), price),
            ))
            .loads(vec![1.0, 3.0, 0.0, 2.0, 1.0, 0.0, 3.0, 1.0])
            .build()
            .unwrap()
    }

    #[test]
    fn feasible_and_within_theorem_15_bound() {
        let inst = time_varying_instance();
        let oracle = Dispatcher::new();
        for eps in [0.25, 0.5, 1.0] {
            let mut c =
                AlgorithmC::new(&inst, oracle, COptions { epsilon: eps, ..Default::default() });
            let online = run(&inst, &mut c, &oracle);
            online.schedule.check_feasible(&inst).unwrap();
            let opt = solve(&inst, &oracle, OffOptions { threads: Some(1), ..Default::default() });
            let d = inst.num_types() as f64;
            let bound = (2.0 * d + 1.0 + eps) * opt.cost;
            assert!(
                online.cost() <= bound + 1e-9,
                "eps={eps}: C cost {} vs bound {bound}",
                online.cost()
            );
            assert!(c.realized_c() <= eps + 1e-12, "realized c {}", c.realized_c());
        }
    }

    #[test]
    fn subslot_count_matches_formula() {
        let inst = time_varying_instance();
        let c = AlgorithmC::new(
            &inst,
            Dispatcher::new(),
            COptions { epsilon: 0.5, ..Default::default() },
        );
        // slot 0: d=1, max l/β = 2/5 → ⌈(1/0.5)·0.4⌉ = ⌈0.8⌉ = 1
        assert_eq!(c.subslots_for(&inst, 0), 1);
        // slot 2: l=3 → ⌈2·0.6⌉ = 2
        assert_eq!(c.subslots_for(&inst, 2), 2);
    }

    #[test]
    fn cap_limits_subslots() {
        let inst = time_varying_instance();
        let c = AlgorithmC::new(
            &inst,
            Dispatcher::new(),
            COptions { epsilon: 1e-4, max_subslots: 8, ..Default::default() },
        );
        assert_eq!(c.subslots_for(&inst, 2), 8);
    }

    #[test]
    fn refinement_beats_plain_b_constant() {
        let inst = time_varying_instance();
        let oracle = Dispatcher::new();
        let mut c =
            AlgorithmC::new(&inst, oracle, COptions { epsilon: 0.25, ..Default::default() });
        let _ = run(&inst, &mut c, &oracle);
        assert!(
            c.realized_c() < c_constant(&inst),
            "refined constant {} should undercut c(I) = {}",
            c.realized_c(),
            c_constant(&inst)
        );
    }

    #[test]
    fn engine_prices_each_original_slot_exactly_once() {
        // ε = 0.05 pushes ñ_t well above 1 on most slots; all ñ_t
        // sub-slots of an original slot share one
        // (t, λ, grid) pool entry, so the pricing counter must equal the
        // horizon — the whole point of the sub-slot replay.
        let inst = time_varying_instance();
        let oracle = Dispatcher::new();
        let mut c =
            AlgorithmC::new(&inst, oracle, COptions { epsilon: 0.05, ..Default::default() });
        let outcome = run(&inst, &mut c, &oracle);
        outcome.schedule.check_feasible(&inst).unwrap();
        let total_subslots = c.subslots_total();
        assert!(total_subslots > inst.horizon(), "refinement must actually refine");
        let stats = c.engine_stats().expect("C prices through its prefix solver");
        assert_eq!(
            stats.pricings,
            inst.horizon() as u64,
            "each original slot priced exactly once regardless of ñ_t"
        );
        assert_eq!(stats.pool_hits, (total_subslots - inst.horizon()) as u64);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_nonpositive_epsilon() {
        let inst = time_varying_instance();
        let _ = AlgorithmC::new(
            &inst,
            Dispatcher::new(),
            COptions { epsilon: 0.0, ..Default::default() },
        );
    }
}
