//! Preset experiments reproducing the paper's figures and tables.
//!
//! Each experiment is parameterised by an [`ExperimentScale`]. The paper's
//! full setup (`ExperimentScale::paper`: 1 GiB MLC×2, 10 000-cycle
//! endurance) takes minutes of CPU per FTL sweep point (≈ 4 × 10⁹ host
//! writes to first failure at ~19 M pages/s; the NFTL dies ~100× sooner);
//! the scaled presets shrink the chip and the endurance proportionally,
//! which preserves the *ratios* the paper's figures compare (wear
//! accumulates linearly in both dimensions) while finishing in seconds to
//! minutes. `EXPERIMENTS.md` in the repository root records scaled-vs-paper
//! numbers side by side.

use flash_telemetry::{NullSink, Sink};
use flash_trace::{Op, SegmentResampler, TraceEvent, WorkloadSpec};
use nand::{CellKind, ChannelGeometry, Geometry, NandDevice, WearPolicy};
use swl_core::counting::CountingLeveler;
use swl_core::SwlConfig;

use crate::error::SimError;
use crate::layer::{Layer, LayerKind, SimConfig, TranslationLayer};
use crate::report::SimReport;
use crate::simulator::{Simulator, StopCondition};
use crate::striped::{StripedLayer, StripedReport, SwlCoordination};

/// Nanoseconds per year (re-exported for bench binaries).
pub const NANOS_PER_YEAR: f64 = crate::report::NANOS_PER_YEAR;

/// The unevenness thresholds swept in Figures 5–7.
pub const PAPER_THRESHOLDS: [u64; 4] = [100, 400, 700, 1000];

/// The BET group factors swept in Figures 5–7.
pub const PAPER_KS: [u32; 4] = [0, 1, 2, 3];

/// Chip size / endurance / seed of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Blocks on the chip.
    pub blocks: u32,
    /// Pages per block.
    pub pages_per_block: u32,
    /// Erase cycles before a block wears out.
    pub endurance: u32,
    /// Master seed for workload generation.
    pub seed: u64,
}

impl ExperimentScale {
    /// Tiny setup for unit tests and smoke runs (seconds).
    pub fn quick() -> Self {
        Self {
            blocks: 64,
            pages_per_block: 32,
            endurance: 256,
            seed: 42,
        }
    }

    /// Default bench setup: 1/4-size chip, 1/20 endurance — minutes per
    /// sweep, same qualitative shape as the paper.
    pub fn scaled() -> Self {
        Self {
            blocks: 1024,
            pages_per_block: 128,
            endurance: 512,
            seed: 42,
        }
    }

    /// The paper's full setup: 1 GiB MLC×2 (4096 × 128 × 2 KiB), 10 000
    /// cycles. Expect very long runtimes.
    pub fn paper() -> Self {
        Self {
            blocks: 4096,
            pages_per_block: 128,
            endurance: 10_000,
            seed: 42,
        }
    }

    /// Builds the chip for this scale.
    pub fn device(&self) -> NandDevice {
        NandDevice::new(
            Geometry::new(self.blocks, self.pages_per_block, 2048),
            CellKind::Mlc2.spec().with_endurance(self.endurance),
        )
    }

    /// Hard event cap used as a safety net in first-failure runs: enough
    /// writes to erase every block to its endurance several times over.
    fn event_cap(&self) -> u64 {
        u64::from(self.blocks) * u64::from(self.pages_per_block) * u64::from(self.endurance) * 4
    }

    /// Maps one of the paper's threshold values onto this scale.
    ///
    /// The unevenness threshold `T` fires SWL-Procedure when the average
    /// erase count per touched block set reaches `T`, so its meaningful
    /// range is relative to the endurance: the paper sweeps
    /// `T ∈ [100, 1000]` against 10 000 cycles (1–10 % of a lifetime).
    /// Scaled runs must shrink `T` by the same factor as the endurance or
    /// SWL would first trigger when blocks are already nearly dead.
    pub fn scaled_threshold(&self, paper_t: u64) -> u64 {
        let ratio = f64::from(self.endurance) / 10_000.0;
        (((paper_t as f64) * ratio).round() as u64).max(1)
    }

    /// Builds the SWL configuration for a paper `(T, k)` grid point.
    ///
    /// Besides [`ExperimentScale::scaled_threshold`], the threshold is
    /// clamped to `2^k + 1`: SWL-Procedure is only stable when `T` exceeds
    /// the blocks-per-flag, because each cleaned set adds `2^k` to `ecnt`
    /// but at most 1 to `fcnt` — with `T ≤ 2^k` every activation cascades
    /// into a full-chip sweep. The paper's own sweep (`T ≥ 100`, `k ≤ 3`)
    /// always satisfies the condition; aggressive down-scaling must
    /// preserve it.
    pub fn swl_config(&self, paper_t: u64, k: u32) -> SwlConfig {
        let threshold = self.scaled_threshold(paper_t).max((1u64 << k) + 1);
        SwlConfig::new(threshold, k).with_seed(self.seed)
    }
}

/// The paper-calibrated workload over a layer's logical space.
pub fn paper_workload(logical_pages: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec::paper(logical_pages).with_seed(seed)
}

/// The one build-and-trace path of every single-chip experiment: the layer
/// on `device`, and its full input — a one-time fill of the footprint
/// (ageing the device as a month of use would) followed by the unlimited
/// resampled steady-state trace. `tweak` adjusts the paper workload first.
fn setup<S: Sink>(
    kind: LayerKind,
    device: NandDevice<S>,
    swl: Option<SwlConfig>,
    scale: &ExperimentScale,
    tweak: impl FnOnce(WorkloadSpec) -> WorkloadSpec,
) -> Result<(Layer<S>, impl Iterator<Item = TraceEvent>), SimError> {
    let layer = Layer::build(kind, device, swl, &SimConfig::default())?;
    let spec = tweak(paper_workload(layer.logical_pages(), scale.seed));
    let fill = spec.fill_events();
    let steady = SegmentResampler::from_spec(spec, scale.seed.wrapping_mul(0x9E37_79B9));
    Ok((layer, fill.chain(steady)))
}

/// [`setup`], then the simulator up to `stop`; hands the layer back for its
/// device (and the device's sink).
fn run<S: Sink>(
    kind: LayerKind,
    device: NandDevice<S>,
    swl: Option<SwlConfig>,
    scale: &ExperimentScale,
    tweak: impl FnOnce(WorkloadSpec) -> WorkloadSpec,
    stop: StopCondition,
) -> Result<(SimReport, Layer<S>), SimError> {
    let (mut layer, trace) = setup(kind, device, swl, scale, tweak)?;
    let report = Simulator::new().run(&mut layer, trace, stop)?;
    Ok((report, layer))
}

/// Runs one configuration until the first block wears out (Figure 5).
///
/// # Errors
///
/// Propagates layer failures.
pub fn first_failure_run(
    kind: LayerKind,
    swl: Option<SwlConfig>,
    scale: &ExperimentScale,
) -> Result<SimReport, SimError> {
    first_failure_run_with(kind, swl, scale, |spec| spec)
}

/// Like [`first_failure_run`], with a hook to adjust the workload — the
/// entry point for ablation and robustness studies (different frozen
/// fractions, placement granularities, hot-set shapes, ...).
///
/// # Errors
///
/// Propagates layer failures.
pub fn first_failure_run_with(
    kind: LayerKind,
    swl: Option<SwlConfig>,
    scale: &ExperimentScale,
    tweak: impl FnOnce(WorkloadSpec) -> WorkloadSpec,
) -> Result<SimReport, SimError> {
    let stop = StopCondition {
        at_first_failure: true,
        horizon_ns: None,
        max_events: Some(scale.event_cap()),
    };
    Ok(run(kind, scale.device(), swl, scale, tweak, stop)?.0)
}

/// One grid point's paper `T`, its `k`, and its report.
type GridReport = (u64, u32, SimReport);

/// The baseline (`None`) and every `(T, k)` pair of a figure's grid, run
/// through `run` on [`crate::parallel::sweep_threads`] workers: the baseline
/// report, then each pair's in grid order (`T` outer, `k` inner). The first
/// failure in that order is the one returned.
fn grid_sweep(
    scale: &ExperimentScale,
    thresholds: &[u64],
    ks: &[u32],
    run: impl Fn(Option<SwlConfig>) -> Result<SimReport, SimError> + Sync,
) -> Result<(SimReport, Vec<GridReport>), SimError> {
    let pairs: Vec<(u64, u32)> = thresholds
        .iter()
        .flat_map(|&t| ks.iter().map(move |&k| (t, k)))
        .collect();
    // Index 0 is the baseline, index `i` the pair `i - 1`.
    let pair = |i: usize| i.checked_sub(1).map(|i| pairs[i]);
    let mut reports = crate::parallel::run_indexed_labeled(
        pairs.len() + 1,
        |i| pair(i).map_or("baseline".to_string(), |(t, k)| format!("(T={t}, k={k})")),
        |i| run(pair(i).map(|(t, k)| scale.swl_config(t, k))),
    )
    .into_iter();
    let baseline = reports.next().expect("baseline slot")?;
    let points = pairs
        .iter()
        .zip(reports)
        .map(|(&(t, k), report)| Ok((t, k, report?)));
    Ok((baseline, points.collect::<Result<_, SimError>>()?))
}

/// One point of the Figure 5 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FailurePoint {
    /// `None` for the baseline (no SWL).
    pub threshold: Option<u64>,
    /// BET group factor (0 for the baseline).
    pub k: u32,
    /// First-failure time in host years (`None` if the event cap was hit).
    pub years: Option<f64>,
    /// The full report.
    pub report: SimReport,
}

/// The Figure 5 sweep for one layer: baseline plus every `(T, k)` pair.
///
/// `thresholds` are the *paper's* `T` values; each is mapped through
/// [`ExperimentScale::scaled_threshold`] before running, and reported back
/// unscaled in [`FailurePoint::threshold`].
///
/// Grid points are independent simulations, so they fan out over
/// [`crate::parallel::sweep_threads`] workers; the returned points are
/// bit-identical to a serial sweep (deterministic per-point seeds, results
/// gathered in grid order).
///
/// # Errors
///
/// Propagates layer failures (the first failing grid point in grid order).
pub fn first_failure_sweep(
    kind: LayerKind,
    scale: &ExperimentScale,
    thresholds: &[u64],
    ks: &[u32],
) -> Result<Vec<FailurePoint>, SimError> {
    let run = |swl| first_failure_run(kind, swl, scale);
    let (baseline, grid) = grid_sweep(scale, thresholds, ks, run)?;
    let point = |threshold, k, report: SimReport| FailurePoint {
        threshold,
        k,
        years: report.first_failure.map(|f| f.years()),
        report,
    };
    let grid = grid
        .into_iter()
        .map(|(t, k, report)| point(Some(t), k, report));
    Ok(std::iter::once(point(None, 0, baseline))
        .chain(grid)
        .collect())
}

/// Runs one configuration with a telemetry sink riding on the device,
/// observing the full event stream (host ops, GC picks, cause-attributed
/// erases and copies, SWL invocations, interval resets). The workload and
/// stop handling are identical to the uninstrumented experiment runs —
/// telemetry never perturbs behaviour — and the sink is handed back with
/// the report (e.g. a [`flash_telemetry::JsonlSink`] ready to finish, or a
/// [`flash_telemetry::MetricsAggregator`] full of snapshots).
///
/// # Errors
///
/// Propagates layer failures.
pub fn instrumented_run<S: Sink>(
    kind: LayerKind,
    swl: Option<SwlConfig>,
    scale: &ExperimentScale,
    sink: S,
    stop: StopCondition,
) -> Result<(SimReport, S), SimError> {
    let device = scale.device().with_sink(sink);
    let (report, layer) = run(kind, device, swl, scale, |spec| spec, stop)?;
    Ok((report, layer.into_device().into_sink()))
}

/// Runs one configuration to a fixed host-time horizon with a
/// [`flash_telemetry::MetricsAggregator`] riding on the device, so the run
/// comes back with full causal-span attribution: per-cause latency
/// histograms (host / gc / swl / merge), per-op write amplification, and a
/// span-structure health check, alongside the ordinary [`SimReport`].
///
/// The aggregator's per-op histograms match the report's own
/// [`SimReport::write_latency`] / [`SimReport::read_latency`] **bit-exactly**
/// — both bracket the same `busy_ns` window — which is the gate the
/// attribution tests pin.
///
/// # Errors
///
/// Propagates layer failures.
pub fn attributed_horizon_run(
    kind: LayerKind,
    swl: Option<SwlConfig>,
    scale: &ExperimentScale,
    horizon_ns: u64,
) -> Result<(SimReport, flash_telemetry::MetricsAggregator), SimError> {
    instrumented_run(
        kind,
        swl,
        scale,
        flash_telemetry::MetricsAggregator::new(),
        StopCondition::horizon(horizon_ns),
    )
}

/// Runs one configuration to a fixed host-time horizon (Table 4 and the
/// Figure 6/7 overhead measurements).
///
/// # Errors
///
/// Propagates layer failures.
pub fn horizon_run(
    kind: LayerKind,
    swl: Option<SwlConfig>,
    scale: &ExperimentScale,
    horizon_ns: u64,
) -> Result<SimReport, SimError> {
    let stop = StopCondition::horizon(horizon_ns);
    Ok(run(kind, scale.device(), swl, scale, |spec| spec, stop)?.0)
}

/// One point of the Figure 6/7 sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadPoint {
    /// Unevenness threshold `T`.
    pub threshold: u64,
    /// BET group factor `k`.
    pub k: u32,
    /// Increased ratio of block erases over the baseline (Figure 6),
    /// e.g. `0.012` for +1.2 %.
    pub erase_overhead: f64,
    /// Increased ratio of live-page copies over the baseline (Figure 7).
    pub copy_overhead: f64,
    /// The full report of the `+SWL` run.
    pub report: SimReport,
}

/// The Figure 6/7 sweep for one layer: every `(T, k)` pair measured against
/// a shared baseline run of the same horizon. `thresholds` are the paper's
/// values, mapped through [`ExperimentScale::scaled_threshold`].
///
/// The baseline and all grid points fan out over
/// [`crate::parallel::sweep_threads`] workers; results are bit-identical
/// to a serial sweep.
///
/// # Errors
///
/// Propagates layer failures (baseline first, then grid order).
pub fn overhead_sweep(
    kind: LayerKind,
    scale: &ExperimentScale,
    thresholds: &[u64],
    ks: &[u32],
    horizon_ns: u64,
) -> Result<(SimReport, Vec<OverheadPoint>), SimError> {
    let run = |swl| horizon_run(kind, swl, scale, horizon_ns);
    let (baseline, grid) = grid_sweep(scale, thresholds, ks, run)?;
    let points = grid
        .into_iter()
        .map(|(threshold, k, report)| OverheadPoint {
            threshold,
            k,
            erase_overhead: report.erase_overhead_vs(&baseline).unwrap_or(0.0),
            copy_overhead: report.copy_overhead_vs(&baseline).unwrap_or(0.0),
            report,
        })
        .collect();
    Ok((baseline, points))
}

/// Serves one trace event page by page, each write under the next `token`;
/// returns the pages written.
fn serve<S: Sink>(
    layer: &mut Layer<S>,
    event: &TraceEvent,
    token: &mut u64,
) -> Result<u64, SimError> {
    let mut written = 0;
    for lba in event.pages() {
        match event.op {
            Op::Write => {
                *token += 1;
                layer.write(lba, *token)?;
                written += 1;
            }
            Op::Read => {
                let _ = layer.read(lba)?;
            }
        }
    }
    Ok(written)
}

/// Result of a device-lifetime run (an extension beyond the paper, enabled
/// by bad-block management): blocks that wear out are retired and the run
/// continues until the layer can no longer absorb writes.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeReport {
    /// Host years until the first write was refused.
    pub years: f64,
    /// Host writes absorbed over the whole device life.
    pub host_writes: u64,
    /// Blocks retired by bad-block management by end of life.
    pub retired_blocks: u64,
    /// When the *first* block wore out, for comparison with Figure 5.
    pub first_failure_years: Option<f64>,
    /// Total erases absorbed.
    pub total_erases: u64,
}

/// Runs one configuration with bad-block management until the device can
/// no longer serve writes, measuring usable lifetime instead of
/// first-failure time.
///
/// # Errors
///
/// Propagates unexpected layer failures (end-of-life conditions —
/// reclamation failure or an exhausted free pool — terminate the run
/// normally).
pub fn lifetime_run(
    kind: LayerKind,
    swl: Option<SwlConfig>,
    scale: &ExperimentScale,
) -> Result<LifetimeReport, SimError> {
    let device = scale.device().with_wear_policy(WearPolicy::FailWornBlocks);
    let (mut layer, trace) = setup(kind, device, swl, scale, |spec| spec)?;

    let mut token = 0u64;
    let mut end_ns = 0u64;
    let mut first_failure_ns: Option<u64> = None;
    for (event, _) in trace.zip(0..scale.event_cap()) {
        end_ns = end_ns.max(event.at_ns);
        match serve(&mut layer, &event, &mut token) {
            Ok(_) => {}
            Err(
                SimError::Ftl(ftl::FtlError::NoReclaimableSpace | ftl::FtlError::FreeExhausted)
                | SimError::Nftl(
                    nftl::NftlError::NoReclaimableSpace | nftl::NftlError::FreeExhausted,
                ),
            ) => break,
            Err(other) => return Err(other),
        }
        if first_failure_ns.is_none() && layer.device().first_failure().is_some() {
            first_failure_ns = Some(event.at_ns);
        }
    }

    let counters = layer.counters();
    Ok(LifetimeReport {
        years: end_ns as f64 / NANOS_PER_YEAR,
        host_writes: counters.host_writes,
        retired_blocks: counters.retired_blocks,
        first_failure_years: first_failure_ns.map(|ns| ns as f64 / NANOS_PER_YEAR),
        total_erases: counters.total_erases(),
    })
}

/// Runs a first-failure experiment under the *counting* wear leveler — the
/// full-erase-count-table strawman ([`CountingLeveler`]) the BET design
/// competes against. Every `check_every` host writes the leveler inspects
/// the spread and force-recycles the least-worn block while it exceeds
/// `margin`.
///
/// # Errors
///
/// Propagates layer failures.
pub fn counting_wl_run(
    kind: LayerKind,
    margin: u32,
    check_every: u64,
    scale: &ExperimentScale,
) -> Result<SimReport, SimError> {
    let (mut layer, trace) = setup(kind, scale.device(), None, scale, |spec| spec)?;

    let mut token = 0u64;
    let mut events = 0u64;
    let mut host_span_ns = 0u64;
    let mut writes_since_check = 0u64;
    let cap = scale.event_cap();
    let mut first_failure = None;

    for event in trace {
        events += 1;
        if events > cap {
            break;
        }
        host_span_ns = host_span_ns.max(event.at_ns);
        writes_since_check += serve(&mut layer, &event, &mut token)?;
        if writes_since_check >= check_every {
            writes_since_check = 0;
            let mut wl = CountingLeveler::from_counts(&layer.device().erase_counts(), margin);
            // Level fully: recycle least-worn blocks until the spread drops
            // under the margin (bounded by the block count per check).
            let mut guard = 0u32;
            while let Some(victim) = wl.pick_victim() {
                let erased = layer.force_recycle(victim, 1)?;
                guard += 1;
                if erased == 0 || guard > scale.blocks {
                    break;
                }
                wl = CountingLeveler::from_counts(&layer.device().erase_counts(), margin);
            }
        }
        if first_failure.is_none() {
            if let Some(f) = layer.device().first_failure() {
                first_failure = Some(crate::report::FirstFailure {
                    block: f.block,
                    host_ns: event.at_ns,
                    total_erases: f.total_erases,
                });
                break;
            }
        }
    }

    let device = layer.device();
    Ok(SimReport {
        layer: layer.kind(),
        swl: None,
        events,
        host_span_ns,
        first_failure,
        erase_stats: device.erase_stats(),
        counters: layer.counters(),
        device: device.counters(),
        device_busy_ns: device.busy_ns(),
        write_latency: crate::LatencyStats::new(),
        read_latency: crate::LatencyStats::new(),
    })
}

/// The `(k, T)` corner configurations of Table 4.
pub const TABLE4_CONFIGS: [(u32, u64); 4] = [(0, 100), (0, 1000), (3, 100), (3, 1000)];

/// Host request size (pages) used by the channel-scaling experiment. Eight
/// 2 KiB pages model a 16 KiB host request — wide enough to stripe across
/// every lane count the sweep visits.
pub const CHANNEL_SPAN: u32 = 8;

/// One point of the channel-scaling experiment: the same total capacity and
/// workload served by `channels` lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelPoint {
    /// Lane count.
    pub channels: u32,
    /// Achieved busy-time overlap (`Σ channel busy / makespan`), ×1.0 when
    /// fully serial — `None` when the run recorded no device time at all
    /// (e.g. an empty trace), in which case no overlap claim is meaningful.
    pub overlap: Option<f64>,
    /// Virtual device time to serve the whole run.
    pub makespan_ns: u64,
    /// Host pages served per virtual millisecond of device time.
    pub pages_per_ms: f64,
    /// The full striped report.
    pub report: StripedReport,
}

/// Runs one multi-channel configuration with a telemetry sink shared by
/// every lane, producing the interleaved stream (`Event::Channel` lane
/// markers included) that `swl span` attributes per channel. The workload is
/// the [`CHANNEL_SPAN`]-page widened paper trace, exactly as in
/// [`channel_scaling`]; `channels` must divide `scale.blocks`.
///
/// # Errors
///
/// Propagates layer failures.
pub fn instrumented_striped_run<S: Sink>(
    kind: LayerKind,
    channels: u32,
    swl: Option<SwlConfig>,
    scale: &ExperimentScale,
    sink: S,
    stop: StopCondition,
) -> Result<(StripedReport, S), SimError> {
    assert!(
        channels >= 1 && scale.blocks.is_multiple_of(channels),
        "channel count {channels} must divide {} blocks",
        scale.blocks
    );
    let geometry = ChannelGeometry::new(
        channels,
        1,
        Geometry::new(scale.blocks / channels, scale.pages_per_block, 2048),
    );
    let mut striped = StripedLayer::with_sink(
        kind,
        geometry,
        CellKind::Mlc2.spec().with_endurance(scale.endurance),
        swl,
        SwlCoordination::Global,
        &SimConfig::default(),
        sink,
    )?;
    let pages = striped.logical_pages();
    let trace = SegmentResampler::from_spec(
        paper_workload(pages, scale.seed),
        scale.seed.wrapping_mul(0x9E37_79B9),
    )
    .map(move |e| e.widen(CHANNEL_SPAN, pages));
    let report = Simulator::new().run_striped(&mut striped, trace, stop)?;
    Ok((report, striped.into_sink()))
}

/// The channel-scaling sweep: fixed total capacity, workload, and SWL
/// configuration (`T`, `k`), varying only the lane count. The page-granular
/// paper workload is widened to [`CHANNEL_SPAN`]-page host requests
/// ([`flash_trace::TraceEvent::widen`]) so each op can stripe across lanes;
/// throughput and overlap then measure what the extra channels buy.
///
/// Every `channels` value must divide `scale.blocks` (lanes split the chip
/// evenly). Points fan out over [`crate::parallel::sweep_threads`] workers
/// and come back in input order, bit-identical to a serial sweep.
///
/// # Errors
///
/// Propagates layer failures (the first failing point in input order).
pub fn channel_scaling(
    kind: LayerKind,
    scale: &ExperimentScale,
    channel_counts: &[u32],
    swl: Option<(u64, u32)>,
    events: u64,
) -> Result<Vec<ChannelPoint>, SimError> {
    let reports = crate::parallel::run_indexed_labeled(
        channel_counts.len(),
        |i| format!("{}ch", channel_counts[i]),
        |i| {
            let config = swl.map(|(t, k)| scale.swl_config(t, k));
            let stop = StopCondition::events(events);
            instrumented_striped_run(kind, channel_counts[i], config, scale, NullSink, stop)
                .map(|(report, _)| report)
        },
    );
    let mut points = Vec::with_capacity(channel_counts.len());
    for (&channels, report) in channel_counts.iter().zip(reports) {
        let report = report?;
        let overlap = report.overlap_factor();
        let makespan_ns = report.makespan_ns;
        let pages = report.counters.host_writes + report.counters.host_reads;
        let pages_per_ms = if makespan_ns == 0 {
            0.0
        } else {
            pages as f64 / (makespan_ns as f64 / 1e6)
        };
        points.push(ChannelPoint {
            channels,
            overlap,
            makespan_ns,
            pages_per_ms,
            report,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentScale {
        ExperimentScale::quick()
    }

    #[test]
    fn first_failure_baseline_vs_swl_ftl() {
        let scale = quick();
        let base = first_failure_run(LayerKind::Ftl, None, &scale).unwrap();
        let swl = first_failure_run(
            LayerKind::Ftl,
            Some(SwlConfig::new(scale.scaled_threshold(100), 0).with_seed(scale.seed)),
            &scale,
        )
        .unwrap();
        let base_years = base.first_failure.expect("baseline must fail").years();
        let swl_years = swl
            .first_failure
            .expect("+SWL must fail eventually")
            .years();
        assert!(
            swl_years > base_years,
            "SWL must extend first failure: {swl_years:.3} vs {base_years:.3} years"
        );
    }

    #[test]
    fn first_failure_baseline_vs_swl_nftl() {
        let scale = quick();
        let base = first_failure_run(LayerKind::Nftl, None, &scale).unwrap();
        let swl = first_failure_run(
            LayerKind::Nftl,
            Some(SwlConfig::new(scale.scaled_threshold(100), 0).with_seed(scale.seed)),
            &scale,
        )
        .unwrap();
        let base_years = base.first_failure.expect("baseline must fail").years();
        let swl_years = swl
            .first_failure
            .expect("+SWL must fail eventually")
            .years();
        assert!(
            swl_years > base_years,
            "SWL must extend NFTL first failure: {swl_years:.3} vs {base_years:.3} years"
        );
    }

    #[test]
    fn overhead_is_small_and_positive_in_erases() {
        let scale = quick();
        let horizon = (0.02 * NANOS_PER_YEAR) as u64;
        let (baseline, points) =
            overhead_sweep(LayerKind::Nftl, &scale, &[100], &[0], horizon).unwrap();
        assert!(baseline.counters.host_writes > 0);
        let p = &points[0];
        assert!(
            p.erase_overhead > -0.05 && p.erase_overhead < 0.5,
            "erase overhead out of plausible band: {}",
            p.erase_overhead
        );
    }

    #[test]
    fn table4_shows_dev_reduction() {
        // Table 4's rows are the overhead sweep's baseline and corner points.
        let scale = quick();
        let horizon = (0.05 * NANOS_PER_YEAR) as u64;
        let (ftl_base, points) =
            overhead_sweep(LayerKind::Ftl, &scale, &[100], &[0], horizon).unwrap();
        let ftl_swl = &points[0].report;
        assert!(
            ftl_swl.erase_stats.std_dev <= ftl_base.erase_stats.std_dev,
            "SWL must not worsen FTL erase deviation: {} vs {}",
            ftl_swl.erase_stats.std_dev,
            ftl_base.erase_stats.std_dev
        );
    }

    #[test]
    fn swl_config_clamps_to_stability_condition() {
        let scale = ExperimentScale {
            blocks: 64,
            pages_per_block: 16,
            endurance: 256, // scaled_threshold(100) = 3
            seed: 1,
        };
        assert_eq!(scale.swl_config(100, 0).threshold, 3);
        assert_eq!(scale.swl_config(100, 1).threshold, 3);
        assert_eq!(scale.swl_config(100, 2).threshold, 5); // clamped to 2^2+1
        assert_eq!(scale.swl_config(100, 3).threshold, 9); // clamped to 2^3+1
        assert_eq!(scale.swl_config(1000, 3).threshold, 26); // unclamped
    }

    #[test]
    fn counting_wl_levels_and_extends_life() {
        let scale = quick();
        let base = first_failure_run(LayerKind::Ftl, None, &scale).unwrap();
        let counting = counting_wl_run(LayerKind::Ftl, 32, 500, &scale).unwrap();
        assert!(
            counting.erase_stats.std_dev < base.erase_stats.std_dev,
            "counting WL must flatten wear: {} vs {}",
            counting.erase_stats.std_dev,
            base.erase_stats.std_dev
        );
        let base_years = base.first_failure.unwrap().years();
        let counting_years = counting.first_failure.unwrap().years();
        assert!(
            counting_years > base_years,
            "counting WL must extend life: {counting_years:.4} vs {base_years:.4}"
        );
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let scale = ExperimentScale {
            blocks: 64,
            pages_per_block: 16,
            endurance: 24,
            seed: 7,
        };
        // Parallel sweep (worker count from the environment/machine)...
        let points = first_failure_sweep(LayerKind::Ftl, &scale, &[50, 100], &[0, 1]).unwrap();
        // ...against the hand-rolled serial loop it replaced.
        let mut serial = vec![first_failure_run(LayerKind::Ftl, None, &scale).unwrap()];
        for t in [50u64, 100] {
            for k in [0u32, 1] {
                serial.push(
                    first_failure_run(LayerKind::Ftl, Some(scale.swl_config(t, k)), &scale)
                        .unwrap(),
                );
            }
        }
        assert_eq!(points.len(), serial.len());
        for (point, report) in points.iter().zip(&serial) {
            assert_eq!(&point.report, report, "sweep point diverged from serial");
        }

        let horizon = (0.02 * NANOS_PER_YEAR) as u64;
        let (baseline, overhead) =
            overhead_sweep(LayerKind::Nftl, &scale, &[100], &[0, 1], horizon).unwrap();
        let serial_base = horizon_run(LayerKind::Nftl, None, &scale, horizon).unwrap();
        assert_eq!(baseline, serial_base);
        for (point, k) in overhead.iter().zip([0u32, 1]) {
            let serial = horizon_run(
                LayerKind::Nftl,
                Some(scale.swl_config(100, k)),
                &scale,
                horizon,
            )
            .unwrap();
            assert_eq!(point.report, serial, "overhead point k={k} diverged");
        }
    }

    #[test]
    fn channel_scaling_gains_overlap() {
        let scale = quick();
        let points =
            channel_scaling(LayerKind::Ftl, &scale, &[1, 4], Some((100, 0)), 4_000).unwrap();
        assert_eq!(points.len(), 2);
        let one = &points[0];
        let four = &points[1];
        assert_eq!((one.channels, four.channels), (1, 4));
        // One channel is fully serial by construction.
        let one_overlap = one.overlap.expect("non-empty run has device time");
        assert!((one_overlap - 1.0).abs() < 1e-9);
        assert_eq!(one.makespan_ns, one.report.device_busy_ns);
        // Four channels overlap busy time and serve pages faster.
        let four_overlap = four.overlap.expect("non-empty run has device time");
        assert!(
            four_overlap > 1.5,
            "4 channels must overlap, got ×{four_overlap:.2}"
        );
        assert!(four.pages_per_ms > one.pages_per_ms);
    }

    #[test]
    fn channel_scaling_survives_an_empty_trace() {
        // Zero events means zero device time: the sweep must report the
        // absence of an overlap measurement instead of fabricating ×1.00
        // (or panicking on a division by a zero makespan).
        let scale = quick();
        let points = channel_scaling(LayerKind::Ftl, &scale, &[1, 4], None, 0).unwrap();
        for point in &points {
            assert_eq!(point.overlap, None);
            assert_eq!(point.makespan_ns, 0);
            assert_eq!(point.pages_per_ms, 0.0);
            assert_eq!(point.report.events, 0);
        }
    }

    #[test]
    fn sweep_covers_grid() {
        let scale = ExperimentScale {
            blocks: 64,
            pages_per_block: 16,
            endurance: 24,
            seed: 1,
        };
        let points = first_failure_sweep(LayerKind::Ftl, &scale, &[50], &[0, 1]).unwrap();
        assert_eq!(points.len(), 3); // baseline + 2 grid points
        assert_eq!(points[0].threshold, None);
        assert!(points.iter().all(|p| p.years.is_some()));
    }
}
