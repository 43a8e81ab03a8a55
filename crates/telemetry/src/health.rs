//! SMART-style device health plane: online wear-rate estimation and a
//! time-to-first-block-failure forecast.
//!
//! The rest of this crate *records* wear; this module *projects* it. A
//! [`HealthMonitor`] folds cumulative wear observations — either live
//! [`HealthSample`]s read from a shared [`HealthRuntime`] atomics block, or
//! a replayed telemetry event stream (the monitor is a [`Sink`]) — into
//! work-weighted wear-rate estimators and produces a [`HealthReport`]: wear
//! percentiles and sigma, retired-block fraction, BET unevenness trend,
//! cache absorption, a composite [`HealthState`], and a forecast of how
//! many more host pages the device can absorb before its first block
//! reaches the endurance limit.
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
//! The first block to fail is the one with maximum wear, so the central
//! forecast is `(endurance - max_wear) / tail_rate`, where `tail_rate` is
//! the estimated advance of the *maximum* wear per host page. The
//! confidence band comes from the wear histogram tail:
//!
//! - **earliest**: if wear is concentrating (the tail advancing faster than
//!   the mean), assume the concentration excess could double:
//!   `headroom / (tail_rate + (tail_rate - mean_rate))`;
//! - **latest**: even if today's hottest block stops absorbing wear, the
//!   p90 block must still chew through its own headroom at the observed
//!   tail rate: `(endurance - p90_wear) / tail_rate`.
//!
//! The forecast extrapolates the *observed* workload at the *rated*
//! endurance. It cannot see workload shifts, and fault-injected blocks that
//! die below their rating fail earlier than any wear-based forecast can
//! predict — `tests/health_forecast.rs` measures both effects against real
//! first failures and asserts [`HALF_LIFE_ERROR_BOUND`], the bound the
//! rated-endurance input must meet.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::aggregate::WearSummary;
use crate::runtime::CacheSample;
use crate::{Cause, Event, Sink};

/// Documented bound on the relative error of the central forecast issued at
/// 50% of device life, for runs whose blocks fail at their rated endurance
/// (no fault injection), asserted by `tests/health_forecast.rs`.
pub const HALF_LIFE_ERROR_BOUND: f64 = 0.25;

/// Tuning for the health plane: the rated endurance, the estimator's work
/// constant, and the documented [`HealthState`] thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Rated program/erase cycles per block (0 = unknown; forecasting is
    /// disabled until an [`Event::Endurance`] header or a builder sets it).
    pub endurance: u64,
    /// Work constant of the rate estimators, in host pages: observations
    /// older than a few τ have negligible weight.
    pub tau_pages: f64,
    /// `max_wear / endurance` at which the state degrades to Warn (0.70).
    pub warn_life: f64,
    /// `max_wear / endurance` at which the state degrades to Critical
    /// (0.90).
    pub critical_life: f64,
    /// BET unevenness trend (`ecnt/fcnt` EWMA) at which the state degrades
    /// to Warn — wear is concentrating faster than the leveler spreads it.
    pub warn_unevenness: f64,
    /// Retired-block fraction at which the state degrades to Critical
    /// (0.01); any retirement at all already degrades to Warn.
    pub critical_retired_frac: f64,
}

impl HealthConfig {
    /// Defaults for a device rated at `endurance` cycles per block.
    pub fn new(endurance: u64) -> Self {
        Self {
            endurance,
            tau_pages: 4096.0,
            warn_life: 0.70,
            critical_life: 0.90,
            warn_unevenness: 4.0,
            critical_retired_frac: 0.01,
        }
    }

    /// Replaces the estimator work constant (clamped to ≥ 1 page).
    pub fn with_tau_pages(mut self, tau_pages: f64) -> Self {
        self.tau_pages = tau_pages.max(1.0);
        self
    }
}

/// Composite health verdict, ordered by severity. Thresholds live in
/// [`HealthConfig`] and are documented there and in ARCHITECTURE.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// No threshold crossed.
    Good,
    /// Life used past `warn_life`, any block retired, or the BET
    /// unevenness trend past `warn_unevenness`.
    Warn,
    /// Life used past `critical_life` or retired fraction past
    /// `critical_retired_frac`.
    Critical,
}

impl HealthState {
    /// Short stable token for reports and JSONL lines.
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
/// failure. `None` means unbounded at the current estimate (zero observed
/// wear rate, or unknown endurance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Forecast {
    /// Central estimate: `(endurance - max_wear) / tail_rate`.
    pub central: Option<u64>,
    /// Early edge of the confidence band (wear-concentration pessimism).
    pub earliest: Option<u64>,
    /// Late edge of the confidence band (histogram-tail optimism).
    pub latest: Option<u64>,
}

/// Computes the forecast from the wear summary tail and the two rate
/// estimates (see the module docs for the exact model).
pub fn forecast(endurance: u64, wear: &WearSummary, tail_rate: f64, mean_rate: f64) -> Forecast {
    if endurance == 0 {
        return Forecast::default();
    }
    if wear.max >= endurance {
        // A block is already at (or past) its rating: failure is now.
        return Forecast {
            central: Some(0),
            earliest: Some(0),
            latest: Some(0),
        };
    }
    if !tail_rate.is_finite() || tail_rate <= 0.0 {
        return Forecast::default();
    }
    let headroom = (endurance - wear.max) as f64;
    let tail_headroom = (endurance - wear.p90.min(wear.max)) as f64;
    let concentration = (tail_rate - mean_rate).max(0.0);
    let pages = |head: f64, rate: f64| -> Option<u64> {
        if rate > 0.0 {
            Some((head / rate).round() as u64)
        } else {
            None
        }
    };
    Forecast {
        central: pages(headroom, tail_rate),
        earliest: pages(headroom, tail_rate + concentration),
        latest: pages(tail_headroom, tail_rate),
    }
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
    /// Composite verdict against the configured thresholds.
    pub state: HealthState,
    /// Host pages remaining before first block failure.
    pub forecast: Forecast,
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
}

/// Shared atomics block the execution engine's lane sinks update in place:
/// a per-block wear table plus erase/retirement attribution counters, all
/// relaxed monotone writes by the owning worker threads, readable at any
/// instant by an observer ([`HealthRuntime::sample`]) without locks — the
/// same discipline as [`crate::runtime::EngineRuntime`]. Wear updates ride
/// the telemetry emission sites the device already has, so attaching the
/// health plane adds no clock reads and no locking to the data path.
#[derive(Debug)]
pub struct HealthRuntime {
    config: HealthConfig,
    wear: Vec<AtomicU64>,
    retired: AtomicU64,
    gc_erases: AtomicU64,
    swl_erases: AtomicU64,
    ext_erases: AtomicU64,
    host_pages: AtomicU64,
    bet_ecnt: AtomicU64,
    bet_fcnt: AtomicU64,
}

impl HealthRuntime {
    /// A zeroed runtime covering `blocks` physical blocks.
    pub fn new(blocks: usize, config: HealthConfig) -> Self {
        Self {
            config,
            wear: (0..blocks).map(|_| AtomicU64::new(0)).collect(),
            retired: AtomicU64::new(0),
            gc_erases: AtomicU64::new(0),
            swl_erases: AtomicU64::new(0),
            ext_erases: AtomicU64::new(0),
            host_pages: AtomicU64::new(0),
            bet_ecnt: AtomicU64::new(0),
            bet_fcnt: AtomicU64::new(0),
        }
    }

    /// The configuration observers should build their monitors with.
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    /// Physical blocks covered.
    pub fn blocks(&self) -> usize {
        self.wear.len()
    }

    /// Folds one telemetry event emitted by the lane whose first block has
    /// flat (array-wide) index `base`. Only wear-bearing events are
    /// inspected; everything else is a discriminant check.
    #[inline]
    pub fn observe_event(&self, base: u64, event: &Event) {
        match *event {
            Event::Erase { block, wear, cause } => {
                if let Some(slot) = self.wear.get(base as usize + block as usize) {
                    slot.store(wear, Ordering::Relaxed);
                }
                let counter = match cause {
                    Cause::Gc => &self.gc_erases,
                    Cause::Swl => &self.swl_erases,
                    Cause::External => &self.ext_erases,
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            Event::Retire { .. } => {
                self.retired.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Counts `n` host pages accepted by the front-end (the forecast's
    /// work axis).
    pub fn add_host_pages(&self, n: u64) {
        self.host_pages.fetch_add(n, Ordering::Relaxed);
    }

    /// Publishes the array-wide BET gauges (current resetting interval).
    pub fn set_bet(&self, ecnt: u64, fcnt: u64) {
        self.bet_ecnt.store(ecnt, Ordering::Relaxed);
        self.bet_fcnt.store(fcnt, Ordering::Relaxed);
    }

    /// Reads every counter into a plain [`HealthSample`]. Per-slot wear
    /// reads are relaxed and monotone, so a torn read can only lag.
    pub fn sample(&self) -> HealthSample {
        HealthSample {
            wear: self.wear.iter().map(|w| w.load(Ordering::Relaxed)).collect(),
            retired: self.retired.load(Ordering::Relaxed),
            gc_erases: self.gc_erases.load(Ordering::Relaxed),
            swl_erases: self.swl_erases.load(Ordering::Relaxed),
            ext_erases: self.ext_erases.load(Ordering::Relaxed),
            host_pages: self.host_pages.load(Ordering::Relaxed),
            bet_ecnt: self.bet_ecnt.load(Ordering::Relaxed),
            bet_fcnt: self.bet_fcnt.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time cumulative view of a [`HealthRuntime`] (plain numbers).
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// EWMA blend factor for the unevenness trend (per leveler report).
const UNEVENNESS_ALPHA: f64 = 0.25;

/// The cumulative counters a [`HealthReport`] is built from — one bundle
/// whether they come from a live [`HealthSample`] or the replayed stream.
struct ReportCounters {
    blocks: u64,
    retired: u64,
    gc_erases: u64,
    swl_erases: u64,
    ext_erases: u64,
    host_pages: u64,
    bet_ecnt: u64,
    bet_fcnt: u64,
}

/// Folds cumulative wear observations into rate estimators and produces
/// [`HealthReport`]s. Two feeding modes share all state:
///
/// - **live**: call [`HealthMonitor::report_on`] with successive
///   [`HealthSample`]s read from a [`HealthRuntime`] — each call advances
///   the estimators by the delta since the previous sample;
/// - **replay**: use the monitor as a [`Sink`] over a telemetry stream
///   (live or parsed from JSONL); the estimators advance on every
///   [`Event::IntervalReset`] and [`HealthMonitor::report`] folds the
///   partial tail.
///
/// Both paths are idempotent over zero-work intervals, so sampling cadence
/// cannot bias the estimate (see [`WearRateEstimator`]).
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
    // Replay-mode cumulative state (unused when samples are supplied).
    wear: Vec<u64>,
    blocks_hint: usize,
    retired: u64,
    gc_erases: u64,
    swl_erases: u64,
    ext_erases: u64,
    host_pages: u64,
    bet_ecnt: u64,
    bet_fcnt: u64,
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
            wear: Vec::new(),
            blocks_hint: 0,
            retired: 0,
            gc_erases: 0,
            swl_erases: 0,
            ext_erases: 0,
            host_pages: 0,
            bet_ecnt: 0,
            bet_fcnt: 0,
        }
    }

    /// The active configuration (replayed [`Event::Endurance`] headers can
    /// update the endurance).
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    /// Advances both estimators to the cumulative `(pages, max, mean)`
    /// point. Idempotent when no pages elapsed.
    fn advance(&mut self, pages: u64, max: f64, mean: f64) {
        let delta = pages.saturating_sub(self.last_pages);
        if delta == 0 {
            return;
        }
        self.tail.observe(max - self.last_max, delta as f64);
        self.mean.observe(mean - self.last_mean, delta as f64);
        self.last_pages = pages;
        self.last_max = max;
        self.last_mean = mean;
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

    /// Composite verdict against the configured thresholds (documented on
    /// [`HealthConfig`] and in ARCHITECTURE.md).
    fn state_of(&self, life_used: f64, retired: u64, retired_frac: f64) -> HealthState {
        if (self.config.endurance > 0 && life_used >= self.config.critical_life)
            || retired_frac >= self.config.critical_retired_frac && retired > 0
        {
            return HealthState::Critical;
        }
        if (self.config.endurance > 0 && life_used >= self.config.warn_life)
            || retired > 0
            || self.unevenness_trend >= self.config.warn_unevenness
        {
            return HealthState::Warn;
        }
        HealthState::Good
    }

    fn build_report(
        &self,
        counters: ReportCounters,
        wear: WearSummary,
        cache: Option<CacheSample>,
    ) -> HealthReport {
        let ReportCounters {
            blocks,
            retired,
            gc_erases,
            swl_erases,
            ext_erases,
            host_pages,
            bet_ecnt,
            bet_fcnt,
        } = counters;
        let endurance = self.config.endurance;
        let life_used = if endurance == 0 {
            0.0
        } else {
            wear.max as f64 / endurance as f64
        };
        let retired_frac = if blocks == 0 {
            0.0
        } else {
            retired as f64 / blocks as f64
        };
        let tail_rate = self.tail.rate();
        let mean_rate = self.mean.rate();
        HealthReport {
            blocks,
            endurance,
            host_pages,
            wear,
            retired,
            gc_erases,
            swl_erases,
            ext_erases,
            bet_ecnt,
            bet_fcnt,
            tail_rate,
            mean_rate,
            unevenness_trend: self.unevenness_trend,
            cache,
            life_used,
            state: self.state_of(life_used, retired, retired_frac),
            forecast: forecast(endurance, &wear, tail_rate, mean_rate),
        }
    }

    /// Live mode: folds one cumulative [`HealthSample`] and returns the
    /// report at that point. Consecutive calls advance the estimators by
    /// the inter-sample delta.
    pub fn report_on(
        &mut self,
        sample: &HealthSample,
        cache: Option<CacheSample>,
    ) -> HealthReport {
        let summary = sample.wear_summary();
        self.advance(sample.host_pages, summary.max as f64, summary.mean);
        if sample.bet_fcnt > 0 {
            self.observe_unevenness(sample.bet_ecnt as f64 / sample.bet_fcnt as f64);
        }
        self.build_report(
            ReportCounters {
                blocks: sample.wear.len() as u64,
                retired: sample.retired,
                gc_erases: sample.gc_erases,
                swl_erases: sample.swl_erases,
                ext_erases: sample.ext_erases,
                host_pages: sample.host_pages,
                bet_ecnt: sample.bet_ecnt,
                bet_fcnt: sample.bet_fcnt,
            },
            summary,
            cache,
        )
    }

    /// Replay-mode wear summary over the internal table (padded to the
    /// stream header's block count).
    fn replay_summary(&self) -> WearSummary {
        let blocks = self.blocks_hint.max(self.wear.len());
        WearSummary::from_counts(
            self.wear
                .iter()
                .copied()
                .chain(std::iter::repeat_n(0, blocks - self.wear.len())),
        )
    }

    /// Replay mode: the report over everything folded so far (advances the
    /// estimators over the partial interval tail first).
    pub fn report(&mut self, cache: Option<CacheSample>) -> HealthReport {
        let summary = self.replay_summary();
        self.advance(self.host_pages, summary.max as f64, summary.mean);
        self.build_report(
            ReportCounters {
                blocks: self.blocks_hint.max(self.wear.len()) as u64,
                retired: self.retired,
                gc_erases: self.gc_erases,
                swl_erases: self.swl_erases,
                ext_erases: self.ext_erases,
                host_pages: self.host_pages,
                bet_ecnt: self.bet_ecnt,
                bet_fcnt: self.bet_fcnt,
            },
            summary,
            cache,
        )
    }
}

impl Sink for HealthMonitor {
    fn event(&mut self, event: Event) {
        match event {
            Event::Meta { blocks, .. } => {
                self.blocks_hint = self.blocks_hint.max(blocks as usize);
            }
            Event::Endurance { limit } => {
                // The stream is authoritative: forecasts should use the
                // rating of the device that actually emitted the log.
                self.config.endurance = limit;
            }
            Event::HostWrite { .. } => self.host_pages += 1,
            Event::Erase { block, wear, cause } => {
                let idx = block as usize;
                if self.wear.len() <= idx {
                    self.wear.resize(idx + 1, 0);
                }
                self.wear[idx] = wear;
                match cause {
                    Cause::Gc => self.gc_erases += 1,
                    Cause::Swl => self.swl_erases += 1,
                    Cause::External => self.ext_erases += 1,
                }
            }
            Event::Retire { .. } => self.retired += 1,
            Event::SwlInvoke { ecnt, fcnt, .. } => {
                self.bet_ecnt = ecnt;
                self.bet_fcnt = fcnt;
                if fcnt > 0 {
                    self.observe_unevenness(ecnt as f64 / fcnt as f64);
                }
            }
            Event::IntervalReset { .. } => {
                self.bet_ecnt = 0;
                self.bet_fcnt = 0;
                let summary = self.replay_summary();
                self.advance(self.host_pages, summary.max as f64, summary.mean);
            }
            _ => {}
        }
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
        assert!(est.rate() > 0.4, "rate {} should track the recent regime", est.rate());
    }

    #[test]
    fn zero_rate_forecast_is_unbounded() {
        let wear = WearSummary::from_counts([0, 0, 0, 0]);
        let f = forecast(100, &wear, 0.0, 0.0);
        assert_eq!(f, Forecast::default());
    }

    #[test]
    fn exhausted_block_forecasts_zero() {
        let wear = WearSummary::from_counts([100, 3]);
        let f = forecast(100, &wear, 0.5, 0.1);
        assert_eq!(f.central, Some(0));
    }

    #[test]
    fn forecast_band_brackets_central() {
        let wear = WearSummary::from_counts((0u64..64).map(|i| 10 + i % 5).collect::<Vec<_>>());
        let f = forecast(100, &wear, 0.02, 0.015);
        let (lo, mid, hi) = (
            f.earliest.unwrap(),
            f.central.unwrap(),
            f.latest.unwrap(),
        );
        assert!(lo <= mid && mid <= hi, "band {lo}..{mid}..{hi} out of order");
    }

    #[test]
    fn runtime_sample_round_trips_events() {
        let rt = HealthRuntime::new(8, HealthConfig::new(100));
        rt.observe_event(
            4,
            &Event::Erase {
                block: 1,
                wear: 7,
                cause: Cause::Gc,
            },
        );
        rt.observe_event(0, &Event::Retire { block: 2 });
        rt.observe_event(0, &Event::Program { block: 0, page: 0 });
        rt.add_host_pages(12);
        rt.set_bet(30, 10);
        let s = rt.sample();
        assert_eq!(s.wear[5], 7);
        assert_eq!(s.retired, 1);
        assert_eq!(s.gc_erases, 1);
        assert_eq!(s.host_pages, 12);
        assert_eq!((s.bet_ecnt, s.bet_fcnt), (30, 10));
        assert_eq!(s.wear_summary().max, 7);
    }

    #[test]
    fn out_of_range_block_is_ignored() {
        let rt = HealthRuntime::new(4, HealthConfig::new(100));
        rt.observe_event(
            2,
            &Event::Erase {
                block: 9,
                wear: 3,
                cause: Cause::Swl,
            },
        );
        let s = rt.sample();
        assert!(s.wear.iter().all(|&w| w == 0));
        assert_eq!(s.swl_erases, 1);
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
        let central = report.forecast.central.unwrap();
        assert!(
            (central as i64 - 8000).abs() <= 1,
            "central {central} should be ~8000"
        );
        assert_eq!(report.state, HealthState::Good);
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

    #[test]
    fn replay_monitor_matches_live_deltas() {
        // Feed the same history as events and as samples; rates must agree.
        let config = HealthConfig::new(64).with_tau_pages(500.0);
        let mut replay = HealthMonitor::new(config);
        let mut live = HealthMonitor::new(config);
        replay.event(Event::Meta {
            version: crate::SCHEMA_VERSION,
            blocks: 4,
            pages_per_block: 8,
        });
        let mut live_wear = vec![0u64; 4];
        let mut pages = 0u64;
        for round in 1..=6u64 {
            for _ in 0..50 {
                replay.event(Event::HostWrite { lba: 0 });
                pages += 1;
            }
            let block = (round % 4) as usize;
            live_wear[block] += round;
            replay.event(Event::Erase {
                block: block as u32,
                wear: live_wear[block],
                cause: Cause::Gc,
            });
            replay.event(Event::IntervalReset {
                interval: round,
                ecnt: 0,
                fcnt: 0,
            });
            let mut s = sample(live_wear.clone(), pages);
            s.gc_erases = round;
            live.report_on(&s, None);
        }
        let a = replay.report(None);
        let b = live.report(None);
        assert!((a.tail_rate - b.tail_rate).abs() < 1e-9);
        assert!((a.mean_rate - b.mean_rate).abs() < 1e-9);
    }

    #[test]
    fn endurance_header_enables_forecasting() {
        let mut mon = HealthMonitor::new(HealthConfig::new(0));
        mon.event(Event::Meta {
            version: crate::SCHEMA_VERSION,
            blocks: 2,
            pages_per_block: 4,
        });
        mon.event(Event::Endurance { limit: 50 });
        for _ in 0..100 {
            mon.event(Event::HostWrite { lba: 0 });
        }
        mon.event(Event::Erase {
            block: 0,
            wear: 5,
            cause: Cause::Gc,
        });
        let report = mon.report(None);
        assert_eq!(report.endurance, 50);
        assert!(report.forecast.central.is_some());
        assert!((report.life_used - 0.1).abs() < 1e-12);
    }
}
