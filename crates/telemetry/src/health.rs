//! SMART-style device health plane: online wear-rate estimation and a
//! time-to-first-block-failure forecast.
//!
//! The rest of this crate *records* wear; this module *projects* it. A
//! [`HealthMonitor`] folds successive cumulative [`HealthSample`]s — read off
//! the device's lanes at a barrier (`flash_sim`'s `Engine::health_sample`) —
//! into work-weighted wear-rate estimators and produces a [`HealthReport`]:
//! wear percentiles and sigma, retired-block fraction, BET unevenness trend,
//! cache absorption, a composite [`HealthState`], and a forecast of how many
//! more host pages the device can absorb before its first block reaches the
//! endurance limit.
//!
//! # The estimator
//!
//! [`WearRateEstimator`] is an exponentially weighted average over *work*
//! (host pages), not over observations: an observation covering `Δp` pages
//! at rate `ρ = Δw/Δp` decays the prior estimate by `exp(-Δp/τ)` and blends
//! `ρ` in with weight `1 - exp(-Δp/τ)`. Because the decay composes
//! multiplicatively, splitting one observation into consecutive chunks at
//! the same rate — or merging such chunks — leaves the estimate unchanged
//! (the telemetry-interval split/merge invariance pinned by the estimator
//! proptests), and the sampling cadence cannot bias the estimate.
//!
//! # The forecast and its honest limits
//!
//! The first block to fail is the one with maximum wear, so the forecast is
//! one number, `(endurance - max_wear) / tail_rate`: host pages left at the
//! estimated advance of the *maximum* wear per host page.
//!
//! It extrapolates the *observed* workload at the *rated* endurance. It
//! cannot see workload shifts, and fault-injected blocks that die below
//! their rating fail earlier than any wear-based forecast can predict —
//! `tests/health_forecast.rs` measures both effects against real first
//! failures and asserts [`HALF_LIFE_ERROR_BOUND`], the bound the
//! rated-endurance input must meet. No confidence band is given: one built
//! from the wear-histogram tail bracketed the real first failure at 17 of
//! 64 polls of that test's rated run and 1 of 51 of its fault-injected run,
//! and was zero-width at 28 and 23 of them.

use crate::aggregate::WearSummary;
use crate::runtime::CacheSample;

/// Documented bound on the relative error of the forecast issued at 50% of
/// device life, for runs whose blocks fail at their rated endurance (no
/// fault injection), asserted by `tests/health_forecast.rs`.
pub const HALF_LIFE_ERROR_BOUND: f64 = 0.25;

/// `max_wear / endurance` at which the state degrades to Warn.
pub const WARN_LIFE: f64 = 0.70;

/// `max_wear / endurance` at which the state degrades to Critical.
pub const CRITICAL_LIFE: f64 = 0.90;

/// BET unevenness trend (`ecnt/fcnt` EWMA) at which the state degrades to
/// Warn — wear is concentrating faster than the leveler spreads it.
pub const WARN_UNEVENNESS: f64 = 4.0;

/// Retired-block fraction at which the state degrades to Critical; any
/// retirement at all already degrades to Warn.
pub const CRITICAL_RETIRED_FRAC: f64 = 0.01;

/// What a device's health plane is built with: the rated endurance and the
/// estimator's work constant, both derived from the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Rated program/erase cycles per block (0 = unknown; forecasting is
    /// disabled).
    pub endurance: u64,
    /// Work constant of the rate estimators, in host pages: observations
    /// older than a few τ have negligible weight.
    pub tau_pages: f64,
}

impl HealthConfig {
    /// Defaults for a device rated at `endurance` cycles per block.
    pub fn new(endurance: u64) -> Self {
        Self {
            endurance,
            tau_pages: 4096.0,
        }
    }

    /// Replaces the estimator work constant (clamped to ≥ 1 page).
    pub fn with_tau_pages(mut self, tau_pages: f64) -> Self {
        self.tau_pages = tau_pages.max(1.0);
        self
    }
}

/// Composite health verdict, ordered by severity. The thresholds are the
/// constants beside [`HALF_LIFE_ERROR_BOUND`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// No threshold crossed.
    Good,
    /// Life used past [`WARN_LIFE`], any block retired, or the BET
    /// unevenness trend past [`WARN_UNEVENNESS`].
    Warn,
    /// Life used past [`CRITICAL_LIFE`] or retired fraction past
    /// [`CRITICAL_RETIRED_FRAC`].
    Critical,
}

impl HealthState {
    /// Short stable token for reports.
    pub fn token(self) -> &'static str {
        match self {
            HealthState::Good => "good",
            HealthState::Warn => "warn",
            HealthState::Critical => "critical",
        }
    }

    /// Numeric severity code (0 = Good, 1 = Warn, 2 = Critical).
    pub fn code(self) -> u64 {
        match self {
            HealthState::Good => 0,
            HealthState::Warn => 1,
            HealthState::Critical => 2,
        }
    }
}

/// Work-weighted exponential average of a wear rate (wear units per host
/// page). See the module docs for the split/merge-invariance property.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WearRateEstimator {
    num: f64,
    weight: f64,
    tau: f64,
}

impl WearRateEstimator {
    /// An empty estimator with work constant `tau_pages` (clamped ≥ 1).
    pub fn new(tau_pages: f64) -> Self {
        Self {
            num: 0.0,
            weight: 0.0,
            tau: tau_pages.max(1.0),
        }
    }

    /// Folds one observation: `delta_wear` wear units accumulated over
    /// `delta_pages` host pages. Non-positive spans are ignored; negative
    /// wear deltas clamp to zero (wear is monotone).
    pub fn observe(&mut self, delta_wear: f64, delta_pages: f64) {
        if !delta_pages.is_finite() || delta_pages <= 0.0 {
            return;
        }
        let decay = (-delta_pages / self.tau).exp();
        let gain = 1.0 - decay;
        let rate = (delta_wear / delta_pages).max(0.0);
        self.num = self.num * decay + rate * gain;
        self.weight = self.weight * decay + gain;
    }

    /// The current estimate in wear units per host page (0 until the first
    /// observation).
    pub fn rate(&self) -> f64 {
        if self.weight > 0.0 {
            self.num / self.weight
        } else {
            0.0
        }
    }

    /// Whether at least one observation has been folded.
    pub fn is_primed(&self) -> bool {
        self.weight > 0.0
    }
}

/// Host pages the device is forecast to absorb before its first block
/// failure: `(endurance - max_wear) / tail_rate`, rounded. `Some(0)` once a
/// block is at (or past) its rating; `None` — unbounded — while the
/// endurance is unknown or no wear advance has been observed.
pub fn forecast(endurance: u64, max_wear: u64, tail_rate: f64) -> Option<u64> {
    if endurance == 0 {
        return None;
    }
    if max_wear >= endurance {
        return Some(0);
    }
    (tail_rate.is_finite() && tail_rate > 0.0)
        .then(|| ((endurance - max_wear) as f64 / tail_rate).round() as u64)
}

/// One SMART-style health report: the wear distribution, erase attribution,
/// rate estimates, composite state, and the failure forecast.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Physical blocks covered by the wear table.
    pub blocks: u64,
    /// Rated endurance the forecast assumes (0 = unknown).
    pub endurance: u64,
    /// Cumulative host pages written to flash (post-cache).
    pub host_pages: u64,
    /// Per-block wear distribution summary.
    pub wear: WearSummary,
    /// Blocks retired from rotation so far.
    pub retired: u64,
    /// Erases attributed to garbage collection.
    pub gc_erases: u64,
    /// Erases attributed to the SW Leveler.
    pub swl_erases: u64,
    /// Erases outside GC/SWL (formatting, tests).
    pub ext_erases: u64,
    /// BET erase count in the current resetting interval (summed over
    /// lanes; 0 when no leveler is attached).
    pub bet_ecnt: u64,
    /// BET flags set in the current resetting interval (summed over lanes).
    pub bet_fcnt: u64,
    /// Estimated advance of the maximum wear per host page.
    pub tail_rate: f64,
    /// Estimated advance of the mean wear per host page.
    pub mean_rate: f64,
    /// EWMA of the observed BET unevenness level `ecnt/fcnt` (0 until a
    /// leveler reports).
    pub unevenness_trend: f64,
    /// Write-cache counters at report time (`None` when cache-less).
    pub cache: Option<CacheSample>,
    /// `max_wear / endurance` (0 when the endurance is unknown).
    pub life_used: f64,
    /// Composite verdict against the documented thresholds.
    pub state: HealthState,
    /// Host pages remaining before first block failure ([`forecast`]).
    pub forecast: Option<u64>,
}

impl HealthReport {
    /// Fraction of blocks retired from rotation.
    pub fn retired_frac(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.retired as f64 / self.blocks as f64
        }
    }

    /// Fraction of host write traffic the cache absorbed (0 cache-less).
    pub fn cache_absorption(&self) -> f64 {
        self.cache.map(|c| c.write_hit_rate()).unwrap_or(0.0)
    }

    /// The composite verdict of the report's figures.
    fn verdict(&self) -> HealthState {
        let rated = self.endurance > 0;
        if (rated && self.life_used >= CRITICAL_LIFE)
            || self.retired > 0 && self.retired_frac() >= CRITICAL_RETIRED_FRAC
        {
            HealthState::Critical
        } else if (rated && self.life_used >= WARN_LIFE)
            || self.retired > 0
            || self.unevenness_trend >= WARN_UNEVENNESS
        {
            HealthState::Warn
        } else {
            HealthState::Good
        }
    }
}

/// Point-in-time cumulative view of a device's wear and erase attribution
/// (plain numbers), read off its lanes at a barrier.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthSample {
    /// Per-block cumulative erase counts, flat array order.
    pub wear: Vec<u64>,
    /// Blocks retired so far.
    pub retired: u64,
    /// GC-attributed erases.
    pub gc_erases: u64,
    /// SWL-attributed erases.
    pub swl_erases: u64,
    /// External erases.
    pub ext_erases: u64,
    /// Host pages accepted so far.
    pub host_pages: u64,
    /// Current-interval BET erase count.
    pub bet_ecnt: u64,
    /// Current-interval BET flag count.
    pub bet_fcnt: u64,
}

impl HealthSample {
    /// Distribution summary of the wear table.
    pub fn wear_summary(&self) -> WearSummary {
        WearSummary::from_counts(self.wear.iter().copied())
    }
}

/// EWMA blend factor for the unevenness trend (per report that covers new
/// host pages).
const UNEVENNESS_ALPHA: f64 = 0.25;

/// Folds successive cumulative [`HealthSample`]s into rate estimators and
/// produces [`HealthReport`]s: each [`HealthMonitor::report_on`] advances the
/// estimators by the delta since the previous sample. A sample with no new
/// host pages leaves them and the unevenness trend as they are, so sampling
/// cadence cannot bias the estimate (see [`WearRateEstimator`]).
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    config: HealthConfig,
    tail: WearRateEstimator,
    mean: WearRateEstimator,
    unevenness_trend: f64,
    unevenness_primed: bool,
    last_pages: u64,
    last_max: f64,
    last_mean: f64,
}

impl HealthMonitor {
    /// An empty monitor with the given configuration.
    pub fn new(config: HealthConfig) -> Self {
        Self {
            config,
            tail: WearRateEstimator::new(config.tau_pages),
            mean: WearRateEstimator::new(config.tau_pages),
            unevenness_trend: 0.0,
            unevenness_primed: false,
            last_pages: 0,
            last_max: 0.0,
            last_mean: 0.0,
        }
    }

    /// Advances both estimators to the cumulative `(pages, max, mean)`
    /// point and returns whether any pages elapsed; idempotent when none did.
    fn advance(&mut self, pages: u64, max: f64, mean: f64) -> bool {
        let delta = pages.saturating_sub(self.last_pages);
        if delta == 0 {
            return false;
        }
        self.tail.observe(max - self.last_max, delta as f64);
        self.mean.observe(mean - self.last_mean, delta as f64);
        self.last_pages = pages;
        self.last_max = max;
        self.last_mean = mean;
        true
    }

    /// Blends one observed BET unevenness level into the trend.
    fn observe_unevenness(&mut self, level: f64) {
        if self.unevenness_primed {
            self.unevenness_trend += UNEVENNESS_ALPHA * (level - self.unevenness_trend);
        } else {
            self.unevenness_trend = level;
            self.unevenness_primed = true;
        }
    }

    /// Folds one cumulative [`HealthSample`] and returns the report at that
    /// point.
    pub fn report_on(&mut self, sample: &HealthSample, cache: Option<CacheSample>) -> HealthReport {
        let wear = sample.wear_summary();
        // The trend blends once per stretch of work, like the rates: a
        // report repeated at the same point moves nothing.
        let advanced = self.advance(sample.host_pages, wear.max as f64, wear.mean);
        if advanced && sample.bet_fcnt > 0 {
            self.observe_unevenness(sample.bet_ecnt as f64 / sample.bet_fcnt as f64);
        }
        let endurance = self.config.endurance;
        let life_used = if endurance == 0 {
            0.0
        } else {
            wear.max as f64 / endurance as f64
        };
        let tail_rate = self.tail.rate();
        let mut report = HealthReport {
            blocks: sample.wear.len() as u64,
            endurance,
            host_pages: sample.host_pages,
            wear,
            retired: sample.retired,
            gc_erases: sample.gc_erases,
            swl_erases: sample.swl_erases,
            ext_erases: sample.ext_erases,
            bet_ecnt: sample.bet_ecnt,
            bet_fcnt: sample.bet_fcnt,
            tail_rate,
            mean_rate: self.mean.rate(),
            unevenness_trend: self.unevenness_trend,
            cache,
            life_used,
            state: HealthState::Good,
            forecast: forecast(endurance, wear.max, tail_rate),
        };
        report.state = report.verdict();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_recovers_constant_rate_regardless_of_chunking() {
        let mut one = WearRateEstimator::new(1000.0);
        one.observe(50.0, 500.0);
        let mut many = WearRateEstimator::new(1000.0);
        for _ in 0..10 {
            many.observe(5.0, 50.0);
        }
        assert!((one.rate() - 0.1).abs() < 1e-12);
        assert!((one.rate() - many.rate()).abs() < 1e-9);
    }

    #[test]
    fn estimator_tracks_rate_changes() {
        let mut est = WearRateEstimator::new(100.0);
        est.observe(10.0, 1000.0); // rate 0.01, long span
        est.observe(500.0, 1000.0); // rate 0.5 for many taus
        assert!(
            est.rate() > 0.4,
            "rate {} should track the recent regime",
            est.rate()
        );
    }

    #[test]
    fn zero_rate_forecast_is_unbounded() {
        assert_eq!(forecast(100, 0, 0.0), None);
    }

    #[test]
    fn exhausted_block_forecasts_zero() {
        assert_eq!(forecast(100, 100, 0.5), Some(0));
    }

    fn sample(wear: Vec<u64>, pages: u64) -> HealthSample {
        HealthSample {
            wear,
            retired: 0,
            gc_erases: 0,
            swl_erases: 0,
            ext_erases: 0,
            host_pages: pages,
            bet_ecnt: 0,
            bet_fcnt: 0,
        }
    }

    #[test]
    fn monitor_forecasts_linear_wear_exactly() {
        let mut mon = HealthMonitor::new(HealthConfig::new(100).with_tau_pages(1e9));
        // Max wear advances 1 per 100 pages; at wear 20 the block has 80
        // levels left = 8000 pages.
        let mut report = None;
        for step in 1..=20u64 {
            let s = sample(vec![step, step / 2], step * 100);
            report = Some(mon.report_on(&s, None));
        }
        let report = report.unwrap();
        assert!((report.tail_rate - 0.01).abs() < 1e-9);
        let pages = report.forecast.unwrap();
        assert!(
            (pages as i64 - 8000).abs() <= 1,
            "forecast {pages} should be ~8000"
        );
        assert_eq!(report.state, HealthState::Good);
    }

    #[test]
    fn report_repeated_at_the_same_point_is_unchanged() {
        let mut mon = HealthMonitor::new(HealthConfig::new(100));
        let mut first = sample(vec![3, 1], 100);
        (first.bet_ecnt, first.bet_fcnt) = (11, 4);
        mon.report_on(&first, None);
        let mut s = sample(vec![5, 2], 200);
        (s.bet_ecnt, s.bet_fcnt) = (33, 4);
        let report = mon.report_on(&s, None);
        assert_eq!(mon.report_on(&s, None), report);
        assert_eq!(mon.report_on(&s, None), report);
    }

    #[test]
    fn states_degrade_with_life_used() {
        let config = HealthConfig::new(100).with_tau_pages(1e9);
        let mut mon = HealthMonitor::new(config);
        let good = mon.report_on(&sample(vec![10, 10], 100), None);
        assert_eq!(good.state, HealthState::Good);
        let warn = mon.report_on(&sample(vec![75, 10], 200), None);
        assert_eq!(warn.state, HealthState::Warn);
        let critical = mon.report_on(&sample(vec![95, 10], 300), None);
        assert_eq!(critical.state, HealthState::Critical);
        assert!(critical.life_used >= 0.9);
    }

    #[test]
    fn retirement_degrades_state() {
        let mut mon = HealthMonitor::new(HealthConfig::new(1000));
        let mut s = sample(vec![1; 400], 100);
        s.retired = 1; // 0.25% < the 1% critical fraction, but any retire warns
        assert_eq!(mon.report_on(&s, None).state, HealthState::Warn);
        s.retired = 4; // 1% ≥ the critical fraction
        assert_eq!(mon.report_on(&s, None).state, HealthState::Critical);
    }
}
