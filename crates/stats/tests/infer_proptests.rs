//! Property-based tests for the inference layer: bootstrap edge
//! ownership, degenerate-input totality of the significance tests, BCa
//! fallback behaviour, and order-independence of the keyed resample
//! streams.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::disallowed_types,
    clippy::disallowed_methods
)]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use taster_stats::infer::{bootstrap_ci_keyed, paired_t, resample_indices, welch_t};
use taster_stats::summary::mean;

fn stream_for(seed: u64) -> impl FnMut(u64) -> SmallRng {
    move |r| SmallRng::seed_from_u64(seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, 1..40)
}

proptest! {
    // ------------------------------------------- bootstrap bounds

    #[test]
    fn bootstrap_bounds_are_ordered_and_inside_the_sample(
        values in samples(),
        seed in 0u64..1000,
        level in 1usize..20,
    ) {
        // Resampled means live in [min, max] of the sample, so both
        // interval flavours must too — including extreme levels.
        let level = level as f64 / 20.0;
        let ci = bootstrap_ci_keyed(&values, mean, 60, level, stream_for(seed)).unwrap();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(ci.percentile.0 <= ci.percentile.1);
        prop_assert!(ci.bca.0 <= ci.bca.1);
        for bound in [ci.percentile.0, ci.percentile.1, ci.bca.0, ci.bca.1] {
            prop_assert!((lo - 1e-9..=hi + 1e-9).contains(&bound), "{bound} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn one_point_samples_own_both_edges(v in -1e6f64..1e6, seed in 0u64..1000) {
        // n = 1: every resample is the point itself; both intervals
        // collapse onto it and BCa (which needs a jackknife) falls back.
        let ci = bootstrap_ci_keyed(&[v], mean, 50, 0.95, stream_for(seed)).unwrap();
        prop_assert_eq!(ci.percentile, (v, v));
        prop_assert_eq!(ci.bca, (v, v));
        prop_assert!(ci.bca_fell_back);
    }

    #[test]
    fn all_equal_samples_fall_back_to_percentile(
        v in -100_000i32..100_000,
        n in 2usize..30,
        seed in 0u64..1000,
    ) {
        // Zero jackknife spread: acceleration undefined, BCa must fall
        // back to the (degenerate) percentile bounds, never NaN.
        // Integer-valued floats keep the constant sample's mean exact.
        let v = v as f64;
        let values = vec![v; n];
        let ci = bootstrap_ci_keyed(&values, mean, 50, 0.95, stream_for(seed)).unwrap();
        prop_assert_eq!(ci.percentile, (v, v));
        prop_assert_eq!(ci.bca, ci.percentile);
        prop_assert!(ci.bca_fell_back);
    }

    #[test]
    fn extreme_levels_stay_defined(values in samples(), seed in 0u64..100) {
        // Quantile edge ownership: alpha ~ 0 reads the extreme order
        // statistics, never indexes out of range.
        for level in [0.0001, 0.9999] {
            let ci =
                bootstrap_ci_keyed(&values, mean, 40, level, stream_for(seed)).unwrap();
            prop_assert!(ci.percentile.0.is_finite() && ci.percentile.1.is_finite());
            prop_assert!(ci.bca.0.is_finite() && ci.bca.1.is_finite());
        }
    }

    // ------------------------------------------- test totality

    #[test]
    fn degenerate_variance_is_none_never_nan(
        c in -1_000_000i32..1_000_000,
        t in -1_000_000i32..1_000_000,
        n in 2usize..20,
    ) {
        // Constant arms have zero variance: the t statistic is
        // undefined and the API must say so typed, not with NaN.
        // Integer-valued floats make the zero variance exact; with
        // non-dyadic reals a 1-ulp mean error produces a (genuinely
        // nonzero) tiny variance instead.
        let (c, t) = (c as f64, t as f64);
        let control = vec![c; n];
        let treatment = vec![t; n];
        prop_assert_eq!(welch_t(&control, &treatment), None);
        // A constant shift makes the paired differences degenerate too.
        let shifted: Vec<f64> = control.iter().map(|v| v + t).collect();
        prop_assert_eq!(paired_t(&control, &shifted), None);
    }

    #[test]
    fn defined_tests_are_finite(a in samples(), b in samples()) {
        // Whenever a test is defined its fields are finite numbers and
        // the p-value is a probability.
        if let Some(t) = welch_t(&a, &b) {
            prop_assert!(t.statistic.is_finite());
            prop_assert!(t.df.is_finite() && t.df > 0.0);
            prop_assert!((0.0..=1.0).contains(&t.p_value));
        }
    }

    #[test]
    fn welch_is_antisymmetric(a in samples(), b in samples()) {
        if let (Some(ab), Some(ba)) = (welch_t(&a, &b), welch_t(&b, &a)) {
            prop_assert!((ab.statistic + ba.statistic).abs() < 1e-9);
            prop_assert!((ab.p_value - ba.p_value).abs() < 1e-9);
        }
    }

    // ------------------------------------------- keyed streams

    #[test]
    fn resample_indices_are_in_range_and_full_length(
        n in 1usize..200,
        seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut idx = vec![usize::MAX; 3]; // stale content must be cleared
        resample_indices(&mut rng, n, &mut idx);
        prop_assert_eq!(idx.len(), n);
        prop_assert!(idx.iter().all(|&i| i < n));
    }

    #[test]
    fn resample_streams_are_order_independent(
        n in 1usize..50,
        seed in 0u64..1000,
        resamples in 1usize..20,
    ) {
        // Resample r owns its stream: evaluating r in forward or
        // reverse order yields byte-identical index vectors, which is
        // the permutation-invariance that makes CI bounds worker-count
        // stable.
        let mut stream = stream_for(seed);
        let draw = |stream: &mut dyn FnMut(u64) -> SmallRng, r: u64| {
            let mut rng = stream(r);
            let mut idx = Vec::new();
            resample_indices(&mut rng, n, &mut idx);
            idx
        };
        let forward: Vec<Vec<usize>> =
            (0..resamples as u64).map(|r| draw(&mut stream, r)).collect();
        let mut reverse: Vec<Vec<usize>> =
            (0..resamples as u64).rev().map(|r| draw(&mut stream, r)).collect();
        reverse.reverse();
        prop_assert_eq!(forward, reverse);
    }
}
