//! The multi-channel array fixture of the engine / service benches
//! (`qdbench`, `svcbench`, `chscale`, `healthbench`, `telbench`, and
//! `swl top` / `swl health`): a scale's chip
//! split over lanes, the paper trace widened to span-sized host requests,
//! the virtual-time oracle an engine run is verified against, the health
//! tools' hot-biased write stream, and the argument and formatting helpers
//! those bins share. Each bin keeps its own
//! SWL configuration — they derive it differently, on purpose.

use std::time::Instant;

use flash_sim::experiments::{ExperimentScale, CHANNEL_SPAN};
use flash_sim::{
    LayerKind, SimConfig, Simulator, StopCondition, StripedLayer, StripedReport, SwlCoordination,
};
use flash_trace::{SyntheticTrace, TraceEvent, WorkloadSpec};
use nand::{CellKind, CellSpec, ChannelGeometry, Geometry};
use swl_core::rng::SplitMix64;
use swl_core::SwlConfig;

/// Lanes of the fixed-width benches.
pub const CHANNELS: u32 = 4;

/// The scale's chip split evenly over `channels` lanes.
///
/// # Panics
///
/// Panics when `channels` does not divide the scale's block count.
pub fn geometry(scale: &ExperimentScale, channels: u32) -> ChannelGeometry {
    assert!(
        scale.blocks.is_multiple_of(channels),
        "{channels} channels must divide {} blocks",
        scale.blocks
    );
    ChannelGeometry::new(
        channels,
        1,
        Geometry::new(scale.blocks / channels, scale.pages_per_block, 2048),
    )
}

/// MLC×2 cells at the scale's endurance.
pub fn spec(scale: &ExperimentScale) -> CellSpec {
    CellKind::Mlc2.spec().with_endurance(scale.endurance)
}

/// The paper workload over `logical_pages`, every request widened to
/// [`CHANNEL_SPAN`] pages so it stripes across the lanes.
pub fn trace(logical_pages: u64, seed: u64) -> impl Iterator<Item = TraceEvent> {
    SyntheticTrace::new(WorkloadSpec::paper(logical_pages).with_seed(seed))
        .map(move |e| e.widen(CHANNEL_SPAN, logical_pages))
}

/// The virtual-time [`Simulator::run_striped`] run of `events` trace events
/// that every engine configuration of the same array must reproduce bit for
/// bit, with the wall seconds it took.
///
/// # Panics
///
/// Panics when the array cannot be built or the run fails.
pub fn oracle(
    scale: &ExperimentScale,
    channels: u32,
    swl: SwlConfig,
    coordination: SwlCoordination,
    events: u64,
) -> (f64, StripedReport) {
    let mut striped = StripedLayer::build(
        LayerKind::Ftl,
        geometry(scale, channels),
        spec(scale),
        Some(swl),
        coordination,
        &SimConfig::default(),
    )
    .expect("oracle build failed");
    let pages = striped.logical_pages();
    let start = Instant::now();
    let report = Simulator::new()
        .run_striped(
            &mut striped,
            trace(pages, scale.seed),
            StopCondition::events(events),
        )
        .expect("oracle run failed");
    (start.elapsed().as_secs_f64(), report)
}

/// The health tools' driven workload (`swl health`, `healthbench`):
/// hot-biased single-client writes over ~40 % of the logical space (the
/// svcbench footprint), 90 % of them inside the hot eighth — the cold
/// majority is what static wear leveling exists for, the hot minority is
/// what wears the tail out. Deterministic in `seed`.
pub struct HotWrites {
    rng: SplitMix64,
    span: u64,
    hot_set: u64,
    next_value: u64,
}

impl HotWrites {
    /// The stream over a device of `logical_pages`.
    pub fn new(logical_pages: u64, seed: u64) -> Self {
        let span = (logical_pages * 2 / 5).max(8);
        Self {
            rng: SplitMix64::new(seed ^ 0x5EA1),
            span,
            hot_set: (span / 8).max(4).min(span),
            next_value: 0,
        }
    }

    /// The next write: `(lba, data)`, 1–4 pages, every value unique.
    pub fn next_write(&mut self) -> (u64, Vec<u64>) {
        let len = self.rng.range_usize(1..5).min(self.span as usize);
        let lba = if self.rng.chance(0.9) {
            self.rng.next_below(self.hot_set)
        } else {
            self.rng.next_below(self.span)
        }
        .min(self.span - len as u64);
        let data = (0..len)
            .map(|_| {
                self.next_value += 1;
                self.next_value
            })
            .collect();
        (lba, data)
    }
}

/// The value following `flag` on the command line, if the flag is there.
///
/// # Panics
///
/// Panics when the flag is the last argument.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    args.find(|arg| arg == flag)?;
    Some(
        args.next()
            .unwrap_or_else(|| panic!("{flag} needs a value")),
    )
}

/// The number following `flag` on the command line, or `default`.
///
/// # Panics
///
/// Panics when the value does not parse.
pub fn arg_number<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let parse = |v: String| {
        v.parse()
            .unwrap_or_else(|_| panic!("{flag} needs a number"))
    };
    arg_value(flag).map_or(default, parse)
}

/// A fraction as a percentage with one decimal.
pub fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}
