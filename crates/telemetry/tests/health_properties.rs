//! Property tests of the health plane's wear-rate estimator and forecast.
//!
//! Pins the contracts `health.rs` documents:
//!
//! - **Split/merge invariance** — folding a constant-rate interval as one
//!   observation or as any chopping of it into sub-intervals yields the
//!   same estimate (the property that makes the estimate independent of
//!   how often an observer happens to poll).
//! - **Rate is a convex combination** — the estimate always lies within
//!   the min..max envelope of the observed interval rates.
//! - **Forecast monotonicity** — a higher tail wear rate never forecasts
//!   *more* remaining life.
//! - **Zero-wear saturation** — with no observed wear the forecast stays
//!   unbounded rather than inventing a failure date, and an
//!   at-or-past-rating wear table forecasts exactly zero.

use proptest::prelude::*;

use flash_telemetry::health::{forecast, WearRateEstimator};

proptest! {
    /// One observation at rate r over W pages == the same W pages chopped
    /// into arbitrary positive sub-intervals, each at rate r.
    #[test]
    fn estimator_is_split_merge_invariant(
        rate in 0.0f64..2.0,
        chunks in prop::collection::vec(1u32..5_000, 1..20),
        tau in 16.0f64..65_536.0,
    ) {
        let total: f64 = chunks.iter().map(|&c| f64::from(c)).sum();
        let mut whole = WearRateEstimator::new(tau);
        whole.observe(rate * total, total);
        let mut split = WearRateEstimator::new(tau);
        for &chunk in &chunks {
            let pages = f64::from(chunk);
            split.observe(rate * pages, pages);
        }
        prop_assert!(
            (whole.rate() - split.rate()).abs() <= 1e-9 * (1.0 + rate),
            "split {} != whole {}",
            split.rate(),
            whole.rate()
        );
    }

    /// However the per-interval rates vary, the blended estimate stays
    /// inside their min..max envelope (it is a convex combination).
    #[test]
    fn estimate_stays_within_observed_rates(
        intervals in prop::collection::vec((0.0f64..3.0, 1u32..10_000), 1..30),
        tau in 16.0f64..65_536.0,
    ) {
        let mut estimator = WearRateEstimator::new(tau);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(rate, pages) in &intervals {
            estimator.observe(rate * f64::from(pages), f64::from(pages));
            lo = lo.min(rate);
            hi = hi.max(rate);
        }
        prop_assert!(estimator.is_primed());
        let got = estimator.rate();
        prop_assert!(
            got >= lo - 1e-9 && got <= hi + 1e-9,
            "estimate {got} escaped the observed envelope [{lo}, {hi}]"
        );
    }

    /// A faster-wearing tail never forecasts a longer remaining life.
    #[test]
    fn forecast_central_is_monotone_in_tail_rate(
        endurance in 10u64..100_000,
        max_frac in 0.0f64..1.0,
        rate_a in 1e-6f64..10.0,
        rate_b in 1e-6f64..10.0,
    ) {
        let max = ((endurance - 1) as f64 * max_frac) as u64;
        let (slow, fast) = if rate_a <= rate_b { (rate_a, rate_b) } else { (rate_b, rate_a) };
        let (Some(slow_pages), Some(fast_pages)) =
            (forecast(endurance, max, slow), forecast(endurance, max, fast)) else {
            return Err(TestCaseError::fail("positive rates must bound the forecast"));
        };
        prop_assert!(
            fast_pages <= slow_pages,
            "tail rate {fast} forecast {fast_pages} pages but slower {slow} gave {slow_pages}"
        );
    }

    /// Zero observed wear rate → unbounded forecast (never a made-up
    /// deadline); wear at or past the rating → exactly zero, regardless
    /// of the rate.
    #[test]
    fn forecast_saturates_sanely(
        endurance in 1u64..100_000,
        rate in 0.0f64..10.0,
        over in 0u64..1_000,
    ) {
        prop_assert_eq!(forecast(endurance, 0, 0.0), None);
        prop_assert_eq!(forecast(endurance, endurance + over, rate), Some(0));
    }
}
