//! Lanes/scalar parity for the kernel layer.
//!
//! The kernels in `rsz_offline::kernels` promise results **bit-identical**
//! to their scalar reference twins, not epsilon-close ones — no solve may
//! move a bit when a loop is vectorized. These properties pin that
//! contract directly on the kernels, across every lane remainder
//! (`len % 4 ∈ {0, 1, 2, 3}`), with `+∞`-saturated lines mixed in, and
//! check the NaN-free invariant the bit-identity argument rests on.

use proptest::prelude::*;
use rsz_offline::kernels::{
    argmin_scan, argmin_scan_scalar, axpy_fold, axpy_fold_scalar, min_scan, min_scan_scalar,
    suffix_min_inplace, suffix_min_inplace_scalar,
};

/// One table cell: a nonnegative cost, an exact near-tie of a round
/// value (to exercise the argmin tie window), or the `+∞` infeasibility
/// marker. Never NaN, never negative — the solver's table invariant.
fn cell() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0..1.0e4_f64,
        Just(5.0),
        Just(5.0 + 1e-10),
        Just(5.0 + 1e-7),
        Just(0.0),
        Just(f64::INFINITY),
    ]
}

/// Lines long enough to cover full 4-blocks plus every remainder.
fn line() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(cell(), 0..=67)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn suffix_min_twins_are_bit_identical(v in line()) {
        let mut a = v;
        let mut b = a.clone();
        suffix_min_inplace_scalar(&mut a);
        suffix_min_inplace(&mut b);
        prop_assert_eq!(bits(&a), bits(&b));
        prop_assert!(a.iter().all(|v| !v.is_nan()), "suffix minima stay NaN-free");
    }

    #[test]
    fn axpy_twins_are_bit_identical(
        pair in prop::collection::vec((cell(), cell()), 0..=67),
        scale in prop_oneof![Just(0.0), Just(1.0), 0.0..3.0_f64],
    ) {
        let (v0, g): (Vec<f64>, Vec<f64>) = pair.into_iter().unzip();
        let mut a = v0.clone();
        let mut b = v0.clone();
        axpy_fold_scalar(&mut a, &g, scale);
        axpy_fold(&mut b, &g, scale);
        prop_assert_eq!(bits(&a), bits(&b));
        // The saturation rule, cell by cell: an infinite g poisons the
        // cell even at scale 0 (0·∞ would be NaN — the kernel must not
        // compute it), an infinite v stays put, finite cells accrue.
        for i in 0..a.len() {
            prop_assert!(!a[i].is_nan(), "cell {i} went NaN");
            if !g[i].is_finite() {
                prop_assert_eq!(a[i], f64::INFINITY);
            } else if v0[i].is_finite() {
                prop_assert_eq!(a[i].to_bits(), (v0[i] + scale * g[i]).to_bits());
            } else {
                prop_assert_eq!(a[i], f64::INFINITY);
            }
        }
    }

    #[test]
    fn min_scan_twins_are_bit_identical(v in line()) {
        prop_assert_eq!(min_scan_scalar(&v).to_bits(), min_scan(&v).to_bits());
    }

    #[test]
    fn argmin_twins_pick_the_same_winner(
        v in line(),
        totals in prop::collection::vec(0u64..6, 67..=67),
    ) {
        let scalar = argmin_scan_scalar(&v, |i| totals[i]);
        let lanes = argmin_scan(&v, |i| totals[i]);
        prop_assert_eq!(scalar, lanes);
        match scalar {
            None => prop_assert!(v.iter().all(|x| !x.is_finite())),
            Some(i) => prop_assert!(v[i].is_finite()),
        }
    }
}

/// Deterministic sweep over every lane remainder at small lengths, where
/// a block-boundary bug would hide from random sampling the longest.
#[test]
fn every_lane_remainder_matches_at_small_lengths() {
    for n in 0..=13usize {
        let v: Vec<f64> = (0..n)
            .map(|i| if i % 5 == 3 { f64::INFINITY } else { ((i * 37) % 11) as f64 * 0.5 })
            .collect();
        let mut a = v.clone();
        let mut b = v.clone();
        suffix_min_inplace_scalar(&mut a);
        suffix_min_inplace(&mut b);
        assert_eq!(bits(&a), bits(&b), "suffix n={n}");

        let g: Vec<f64> = (0..n)
            .map(|i| if i % 7 == 2 { f64::INFINITY } else { ((i * 13) % 9) as f64 * 0.25 })
            .collect();
        let mut a = v.clone();
        let mut b = v.clone();
        axpy_fold_scalar(&mut a, &g, 1.5);
        axpy_fold(&mut b, &g, 1.5);
        assert_eq!(bits(&a), bits(&b), "axpy n={n}");

        assert_eq!(min_scan_scalar(&v).to_bits(), min_scan(&v).to_bits(), "min n={n}");
        assert_eq!(
            argmin_scan_scalar(&v, |i| (i % 3) as u64),
            argmin_scan(&v, |i| (i % 3) as u64),
            "argmin n={n}"
        );
    }
}

/// Fully `+∞`-saturated lines: the all-infeasible edge every kernel must
/// treat as "no winner / everything stays infinite".
#[test]
fn saturated_lines_agree_and_stay_saturated() {
    for n in [0usize, 1, 3, 4, 5, 8, 11] {
        let inf = vec![f64::INFINITY; n];
        let mut a = inf.clone();
        let mut b = inf.clone();
        suffix_min_inplace_scalar(&mut a);
        suffix_min_inplace(&mut b);
        assert!(a.iter().chain(&b).all(|&v| v == f64::INFINITY), "n={n}");

        let mut a = inf.clone();
        let mut b = inf.clone();
        axpy_fold_scalar(&mut a, &inf, 1.0);
        axpy_fold(&mut b, &inf, 1.0);
        assert!(a.iter().chain(&b).all(|&v| v == f64::INFINITY), "n={n}");

        assert_eq!(min_scan_scalar(&inf), f64::INFINITY);
        assert_eq!(min_scan(&inf), f64::INFINITY);
        assert_eq!(argmin_scan_scalar(&inf, |_| 0), None);
        assert_eq!(argmin_scan(&inf, |_| 0), None);
    }
}
