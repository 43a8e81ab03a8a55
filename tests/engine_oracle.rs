//! Differential oracle for the real-thread channel engine: on the same
//! trace, [`Engine`] must reproduce [`Simulator::run_striped`] **bit for
//! bit** — the full [`flash_sim::StripedReport`] (erase counters, SWL
//! coordination effects, per-page and op-level latency histograms, makespan,
//! first failure), the per-lane device and leveler state, and the logical
//! contents — for every combination of channel count, SWL coordination
//! mode, and worker-thread count — `0` included, the engine that spawns no
//! worker and runs every op where it is submitted (which is also what any
//! other count gets on a host with one CPU). Only wall-clock timing may
//! differ.
//!
//! This extends the `tests/differential.rs` pattern (striped vs. standalone
//! lanes) one level up: the virtual-time striped loop is itself the oracle
//! for the threaded engine.

use flash_sim::{
    Engine, EngineConfig, Layer, LayerKind, SimConfig, SimError, Simulator, SnapshotVerb,
    StopCondition, StripedLayer, StripedReport, SwlCoordination, TranslationLayer,
};
use flash_telemetry::Sink;
use flash_trace::{Op, SyntheticTrace, TraceEvent, WorkloadSpec};
use ftl::{FtlConfig, FtlError, SnapshotConfig};
use hotid::HotDataConfig;
use nand::{CellKind, CellSpec, ChannelGeometry, DeviceCounters, FaultPlan, Geometry, NandError};
use proptest::prelude::*;
use swl_core::{SwlConfig, SwlStats};

const LANE_BLOCKS: u32 = 32;
const PAGES: u32 = 8;
const EVENTS: u64 = 4_000;
/// Host requests span several pages so one op stripes across lanes.
const SPAN: u32 = 4;

fn chip() -> Geometry {
    Geometry::new(LANE_BLOCKS, PAGES, 2048)
}

fn spec(endurance: u32) -> CellSpec {
    CellKind::Mlc2.spec().with_endurance(endurance)
}

fn swl() -> SwlConfig {
    SwlConfig::new(8, 0).with_seed(9)
}

fn trace(logical_pages: u64, seed: u64) -> impl Iterator<Item = TraceEvent> {
    SyntheticTrace::new(WorkloadSpec::paper(logical_pages).with_seed(seed))
        .map(move |e| e.widen(SPAN, logical_pages))
}

/// The virtual-time reference run, returning both the report and the layer
/// for per-lane state comparison.
fn reference(
    kind: LayerKind,
    channels: u32,
    coordination: SwlCoordination,
    endurance: u32,
    stop: StopCondition,
    seed: u64,
) -> (StripedReport, StripedLayer) {
    reference_with(
        kind,
        channels,
        coordination,
        endurance,
        stop,
        seed,
        &SimConfig::default(),
    )
}

fn reference_with(
    kind: LayerKind,
    channels: u32,
    coordination: SwlCoordination,
    endurance: u32,
    stop: StopCondition,
    seed: u64,
    layers: &SimConfig,
) -> (StripedReport, StripedLayer) {
    let mut striped = StripedLayer::build(
        kind,
        ChannelGeometry::new(channels, 1, chip()),
        spec(endurance),
        Some(swl()),
        coordination,
        layers,
    )
    .unwrap();
    let pages = striped.logical_pages();
    let report = Simulator::new()
        .run_striped(&mut striped, trace(pages, seed), stop)
        .unwrap();
    (report, striped)
}

fn engine(
    kind: LayerKind,
    channels: u32,
    coordination: SwlCoordination,
    endurance: u32,
    stop: StopCondition,
    seed: u64,
    config: EngineConfig,
) -> flash_sim::EngineRun {
    engine_with(
        kind,
        channels,
        coordination,
        endurance,
        stop,
        seed,
        config,
        &SimConfig::default(),
    )
}

#[allow(clippy::too_many_arguments)]
fn engine_with(
    kind: LayerKind,
    channels: u32,
    coordination: SwlCoordination,
    endurance: u32,
    stop: StopCondition,
    seed: u64,
    config: EngineConfig,
    layers: &SimConfig,
) -> flash_sim::EngineRun {
    let mut engine = Engine::new(
        kind,
        ChannelGeometry::new(channels, 1, chip()),
        spec(endurance),
        Some(swl()),
        coordination,
        layers,
        config,
    )
    .unwrap();
    let pages = engine.logical_pages();
    engine.run(trace(pages, seed), stop).unwrap();
    engine.finish().unwrap()
}

/// Bit-identity across one configuration: report, per-lane state, contents.
fn engine_matches_oracle(kind: LayerKind, channels: u32, coordination: SwlCoordination) {
    engine_matches_oracle_with(kind, channels, coordination, &[32], &SimConfig::default());
}

/// [`engine_matches_oracle`] at each of `queue_depths`, over lanes built
/// from `layers`.
fn engine_matches_oracle_with(
    kind: LayerKind,
    channels: u32,
    coordination: SwlCoordination,
    queue_depths: &[usize],
    layers: &SimConfig,
) {
    let seed = 0xE7A1 ^ u64::from(channels);
    let stop = StopCondition::events(EVENTS);
    let (reference_report, mut reference_layer) =
        reference_with(kind, channels, coordination, 1_000_000, stop, seed, layers);

    // Snapshot the oracle's per-lane state and contents *before* reading
    // anything back: reads are real device operations and would perturb the
    // counters being compared.
    let oracle_lanes: Vec<_> = reference_layer
        .lanes()
        .iter()
        .map(|lane| {
            (
                lane.counters(),
                lane.device().erase_stats(),
                lane.device().counters(),
                lane.swl().map(|s| (s.ecnt(), s.bet().fcnt())),
            )
        })
        .collect();
    let geometry = ChannelGeometry::new(channels, 1, chip());
    let pages = reference_layer.logical_pages();
    let oracle_contents: Vec<Option<u64>> = (0..pages)
        .map(|lba| reference_layer.read(lba).unwrap())
        .collect();

    let configs = queue_depths
        .iter()
        .flat_map(|&qd| [0u32, 1, 2, 4].map(|threads| (qd, threads)));
    for (qd, threads) in configs {
        let config = EngineConfig::default()
            .with_threads(threads)
            .with_queue_depth(qd);
        let mut run = engine_with(
            kind,
            channels,
            coordination,
            1_000_000,
            stop,
            seed,
            config,
            layers,
        );

        assert_eq!(
            run.report, reference_report,
            "{kind:?} ×{channels}ch {coordination:?} threads={threads} qd={qd}: report diverged"
        );
        // Per-lane device and leveler state, lane for lane.
        for (lane, engine_lane) in run.lanes().iter().enumerate() {
            let (counters, erase_stats, device, swl_state) = &oracle_lanes[lane];
            assert_eq!(
                engine_lane.counters(),
                *counters,
                "lane {lane} counters diverged (threads={threads})"
            );
            assert_eq!(
                engine_lane.device().erase_stats(),
                *erase_stats,
                "lane {lane} erase distribution diverged (threads={threads})"
            );
            assert_eq!(
                engine_lane.device().counters(),
                *device,
                "lane {lane} device counters diverged (threads={threads})"
            );
            assert_eq!(
                engine_lane.swl().map(|s| (s.ecnt(), s.bet().fcnt())),
                *swl_state,
                "lane {lane} SWL/BET state diverged (threads={threads})"
            );
        }

        // The merged per-lane page histograms are the report's histograms.
        let mut merged = flash_sim::LatencyStats::new();
        for lane in &run.lane_write_latency {
            merged.merge(lane);
        }
        assert_eq!(merged, reference_report.write_latency);

        // Full logical contents (after the state comparisons above, since
        // these reads perturb the engine lanes' counters).
        for lba in 0..pages {
            let channel = geometry.channel_of(lba) as usize;
            let got = run.lanes_mut()[channel]
                .read(geometry.lane_lba(lba))
                .unwrap();
            assert_eq!(
                got, oracle_contents[lba as usize],
                "content diverged at lba {lba} (threads={threads})"
            );
        }
    }
}

#[test]
fn ftl_one_channel_per_channel() {
    engine_matches_oracle(LayerKind::Ftl, 1, SwlCoordination::PerChannel);
}

#[test]
fn ftl_two_channels_per_channel() {
    engine_matches_oracle(LayerKind::Ftl, 2, SwlCoordination::PerChannel);
}

#[test]
fn ftl_four_channels_per_channel() {
    engine_matches_oracle(LayerKind::Ftl, 4, SwlCoordination::PerChannel);
}

#[test]
fn ftl_one_channel_global() {
    // One-channel global degrades to per-channel in both implementations.
    engine_matches_oracle(LayerKind::Ftl, 1, SwlCoordination::Global);
}

#[test]
fn ftl_two_channels_global() {
    engine_matches_oracle(LayerKind::Ftl, 2, SwlCoordination::Global);
}

#[test]
fn ftl_four_channels_global() {
    engine_matches_oracle(LayerKind::Ftl, 4, SwlCoordination::Global);
}

#[test]
fn ftl_four_channels_global_across_queue_depths() {
    engine_matches_oracle_with(
        LayerKind::Ftl,
        4,
        SwlCoordination::Global,
        &[1, 4, 256],
        &SimConfig::default(),
    );
}

/// Two write frontiers, so a write's erase depends on what the hot-data
/// identifier made of the pages before it.
#[test]
fn ftl_hot_cold_four_channels_global() {
    let hot = HotDataConfig {
        hot_threshold: 2,
        ..HotDataConfig::default()
    };
    let layers = SimConfig {
        ftl: FtlConfig::default().with_hot_data(hot),
        ..SimConfig::default()
    };
    engine_matches_oracle_with(
        LayerKind::Ftl,
        4,
        SwlCoordination::Global,
        &[4, 32],
        &layers,
    );
}

/// Lanes that fail programs now and then: a failed program abandons its
/// frontier early and erases sooner.
#[test]
fn ftl_program_faults_four_channels_global() {
    let layers = SimConfig {
        fault: Some(FaultPlan::new(5).with_program_fail_prob(0.001)),
        ..SimConfig::default()
    };
    engine_matches_oracle_with(LayerKind::Ftl, 4, SwlCoordination::Global, &[32], &layers);
}

/// Everything a lane's leveler holds: `(ecnt, fcnt, findex, stats)`.
type LevelerState = (u64, usize, usize, SwlStats);

fn leveler_state<S: Sink>(lanes: &[Layer<S>]) -> Vec<LevelerState> {
    lanes
        .iter()
        .map(|lane| {
            let swl = lane.swl().expect("lanes are built with a leveler");
            (swl.ecnt(), swl.fcnt(), swl.findex(), swl.stats())
        })
        .collect()
}

/// Lanes with a snapshot-manifest reserve, driven until every shard has
/// stalled on it: the reserve's flags can never be set, so no interval ever
/// resets and the array sits over threshold for good. Engine and oracle
/// must still agree bit for bit — down to each leveler's step count and
/// cursor, since both run `swl_core::StallRule` — and once the stalls are
/// latched the coordinator must cost nothing: no further SWL step.
#[test]
fn ftl_reserved_lanes_global_past_the_stall() {
    let layers = SimConfig {
        ftl: FtlConfig::default().with_snapshots(SnapshotConfig::new().with_manifest_blocks(1)),
        ..SimConfig::default()
    };
    let (kind, channels, global, seed) = (LayerKind::Ftl, 4, SwlCoordination::Global, 0x57A1);
    // `level_step` counts one activation per coordinator step.
    let steps =
        |state: &[LevelerState]| -> u64 { state.iter().map(|(.., stats)| stats.activations).sum() };
    // Per horizon: the coordinator steps.
    let past_stall = [12_000u64, 16_000].map(|events| {
        let stop = StopCondition::events(events);
        let (reference_report, reference_layer) =
            reference_with(kind, channels, global, 1_000_000, stop, seed, &layers);
        let oracle_state = leveler_state(reference_layer.lanes());
        for &(ecnt, fcnt, ..) in &oracle_state {
            assert_eq!(fcnt, LANE_BLOCKS as usize - 2, "all but the reserve");
            assert!(ecnt >= 8 * fcnt as u64, "every shard over threshold");
        }
        for threads in [0u32, 1, 2] {
            let config = EngineConfig::default()
                .with_threads(threads)
                .with_queue_depth(32);
            let run = engine_with(
                kind, channels, global, 1_000_000, stop, seed, config, &layers,
            );
            assert_eq!(run.report, reference_report, "threads={threads}");
            assert_eq!(
                leveler_state(run.lanes()),
                oracle_state,
                "threads={threads}"
            );
        }
        steps(&oracle_state)
    });
    let [early_steps, late_steps] = past_stall;
    assert_eq!(late_steps, early_steps, "coordinator steps after the stall");
}

#[test]
fn nftl_two_channels_per_channel() {
    engine_matches_oracle(LayerKind::Nftl, 2, SwlCoordination::PerChannel);
}

#[test]
fn nftl_four_channels_global() {
    engine_matches_oracle(LayerKind::Nftl, 4, SwlCoordination::Global);
}

/// The wall-clock metrics layer observes, never perturbs: with the same
/// workload, the metered engine must be bit-identical to the compiled-out
/// engine and to the virtual-time oracle, and the metrics report itself
/// must account for every host op and every lane command exactly once.
#[test]
fn metrics_on_is_bit_identical_to_metrics_off_and_oracle() {
    let stop = StopCondition::events(EVENTS);
    let seed = 0x0B5E;
    let (reference_report, _) = reference(
        LayerKind::Ftl,
        4,
        SwlCoordination::PerChannel,
        1_000_000,
        stop,
        seed,
    );
    for threads in [0u32, 1, 4] {
        let config = EngineConfig::default()
            .with_threads(threads)
            .with_queue_depth(16);
        let off = engine(
            LayerKind::Ftl,
            4,
            SwlCoordination::PerChannel,
            1_000_000,
            stop,
            seed,
            config,
        );
        let on = engine(
            LayerKind::Ftl,
            4,
            SwlCoordination::PerChannel,
            1_000_000,
            stop,
            seed,
            config.with_metrics(true),
        );
        assert_eq!(
            off.report, reference_report,
            "metrics-off diverged from the oracle (threads={threads})"
        );
        assert_eq!(
            on.report, off.report,
            "enabling metrics changed the simulation (threads={threads})"
        );
        assert!(off.metrics.is_none(), "metrics off must not report");
        let metrics = on.metrics.expect("metrics on must report");
        assert_eq!(metrics.snapshot.ops_submitted, EVENTS);
        assert_eq!(metrics.snapshot.ops_completed, EVENTS);
        assert_eq!(metrics.snapshot.workers.len(), on.threads as usize);
        // A command is charged once, to whoever ran it: a worker thread's
        // slot, or `helped_commands` when the front-end held the claim (or,
        // with no workers, the lanes themselves).
        let by_workers: u64 = metrics.snapshot.workers.iter().map(|w| w.commands).sum();
        let commands = by_workers + on.helped_commands;
        assert_eq!(
            metrics.cmd_latency.count(),
            commands,
            "merged command histograms must cover every command (threads={threads})"
        );
        assert_eq!(
            metrics.snapshot.lanes.iter().map(|l| l.commands).sum::<u64>(),
            commands,
            "lane tallies must cover worker and front-end tallies (threads={threads})"
        );
    }
}

/// The metered engine is reproducible: two metrics-on runs agree bit for
/// bit (the wall-clock numbers differ, the simulation does not).
#[test]
fn metered_runs_are_reproducible() {
    let stop = StopCondition::events(EVENTS);
    let config = EngineConfig::default()
        .with_threads(4)
        .with_queue_depth(32)
        .with_metrics(true);
    let first = engine(
        LayerKind::Ftl,
        4,
        SwlCoordination::PerChannel,
        1_000_000,
        stop,
        0x0B5F,
        config,
    );
    let second = engine(
        LayerKind::Ftl,
        4,
        SwlCoordination::PerChannel,
        1_000_000,
        stop,
        0x0B5F,
        config,
    );
    assert_eq!(first.report, second.report);
}

/// Wear-out must surface at exactly the same event with the same array-wide
/// block attribution, and the first-failure stop must halt both runs at the
/// same point.
#[test]
fn first_failure_stop_is_bit_identical() {
    let stop = StopCondition::events(300_000).or_first_failure();
    let arms = [
        (SwlCoordination::PerChannel, 2u32),
        (SwlCoordination::PerChannel, 4),
        (SwlCoordination::Global, 2),
    ];
    for (coordination, channels) in arms {
        let seed = 0xFA11 ^ u64::from(channels);
        let (reference_report, _) =
            reference(LayerKind::Ftl, channels, coordination, 300, stop, seed);
        assert!(
            reference_report.first_failure.is_some(),
            "endurance 300 must wear out within the horizon"
        );
        for threads in [0u32, 1, 2] {
            let run = engine(
                LayerKind::Ftl,
                channels,
                coordination,
                300,
                stop,
                seed,
                EngineConfig::default()
                    .with_threads(threads)
                    .with_queue_depth(64),
            );
            assert_eq!(
                run.report, reference_report,
                "×{channels}ch {coordination:?} threads={threads}: first-failure run diverged"
            );
        }
    }
}

/// A four-lane FTL engine with metrics on, for the failure cases below
/// (where the virtual-time loop is no referee: it gives up at the first
/// failing page, an engine's other lanes do not).
fn failing_engine(threads: u32, qd: usize, layers: &SimConfig) -> Engine {
    Engine::new(
        LayerKind::Ftl,
        ChannelGeometry::new(4, 1, chip()),
        spec(1_000_000),
        Some(swl()),
        SwlCoordination::PerChannel,
        layers,
        EngineConfig::default()
            .with_threads(threads)
            .with_queue_depth(qd)
            .with_metrics(true),
    )
    .unwrap()
}

/// An op's error is its lowest-ordinal page's, whichever lane that is on and
/// whoever ran it; it sticks; the failing lane stops at its page while the
/// other lanes of the op run their shares all the same.
#[test]
fn lane_errors_are_attributed_alike_direct_and_threaded() {
    let layers = SimConfig::default();
    for (threads, qd) in [(0u32, 1usize), (1, 1), (2, 8)] {
        let mut engine = failing_engine(threads, qd, &layers);
        let handle = engine.metrics_handle();
        let end = engine.logical_pages();
        let out_of_range = |lane_lba| {
            SimError::Ftl(FtlError::LbaOutOfRange {
                lba: lane_lba,
                logical_pages: end / 4,
            })
        };
        for i in 0..8 {
            engine.submit(TraceEvent::write_span(i, i * 8, 8)).unwrap();
        }
        // Straddles the end of the logical space: pages 0..6 are in range,
        // so lanes 2 and 3 run two pages each, lanes 0 and 1 one page each
        // before they fail at ordinals 6 and 7.
        let straddling = TraceEvent::write_span(8, end - 6, 8);
        let failed = engine.submit(straddling).and_then(|()| engine.flush());
        assert_eq!(failed, Err(out_of_range(end / 4)), "threads={threads}");
        assert_eq!(engine.submit(TraceEvent::write(9, 0)), failed, "sticky");
        assert_eq!(engine.flush(), failed, "sticky");
        assert_eq!(engine.snapshot(SnapshotVerb::Create(1)), failed, "sticky");
        let programs: Vec<u64> = engine
            .into_devices()
            .iter()
            .map(|device| device.counters().programs)
            .collect();
        assert_eq!(programs, [17, 17, 18, 18], "threads={threads}");
        let pages: Vec<u64> = handle.snapshot().lanes.iter().map(|l| l.pages).collect();
        assert_eq!(pages, programs, "threads={threads}: pages charged");

        // Wholly out of range from lane 2 on: ordinal 0 is on lane 2 and
        // names lane page `end / 4`; lane 0 comes first in lane order, but
        // its first page has ordinal 2 and names the next one.
        let mut engine = failing_engine(threads, qd, &layers);
        let beyond = TraceEvent::write_span(0, end + 2, 8);
        let failed = engine.submit(beyond).and_then(|()| engine.flush());
        assert_eq!(failed, Err(out_of_range(end / 4)), "threads={threads}");
    }
}

/// An op the engine without workers runs in place is metered as one command
/// per lane it touches, carrying that lane's pages, and timed once: its wall
/// time is split evenly between those lanes. At 1, C − 1, C + 1 and 2C
/// pages, from a first page on the last lane (so the op wraps), for a write
/// and for a blocking read of what it wrote.
#[test]
fn metering_charges_one_command_per_touched_lane_direct() {
    const C: u32 = 4;
    const LBA: u64 = 3;
    for len in [1, C - 1, C + 1, 2 * C] {
        let pages: Vec<u64> = (0..u64::from(C))
            .map(|lane| {
                (LBA..LBA + u64::from(len))
                    .filter(|p| p % u64::from(C) == lane)
                    .count() as u64
            })
            .collect();
        let touched = pages.iter().filter(|&&p| p > 0).count() as u64;
        for read in [false, true] {
            let mut engine = failing_engine(0, 1, &SimConfig::default());
            let data: Vec<u64> = (1..=u64::from(len)).collect();
            engine.submit_write_data(0, LBA, &data).unwrap();
            if read {
                let expected: Vec<Option<u64>> = data.iter().copied().map(Some).collect();
                assert_eq!(engine.read(1, LBA, len).unwrap(), expected, "len={len}");
            }
            let run = engine.finish().unwrap();
            let ops = 1 + u64::from(read);
            let metrics = run.metrics.expect("metrics on");
            assert_eq!(metrics.snapshot.ops_completed, ops);
            let lanes = &metrics.snapshot.lanes;
            let charged: Vec<(u64, u64)> = lanes.iter().map(|l| (l.commands, l.pages)).collect();
            let expected: Vec<(u64, u64)> = pages
                .iter()
                .map(|&p| (ops * u64::from(p > 0), ops * p))
                .collect();
            assert_eq!(charged, expected, "len={len} read={read}");
            assert_eq!(run.helped_commands, ops * touched);
            assert_eq!(metrics.cmd_latency.count(), ops * touched);
            let busy: Vec<u64> = lanes
                .iter()
                .filter(|l| l.commands > 0)
                .map(|l| l.busy_wall_ns)
                .collect();
            assert!(busy.windows(2).all(|w| w[0] == w[1]), "len={len}: {busy:?}");
        }
    }
}

/// Under Global coordination a coordinator step is metered as one more
/// command of the lane it steps, beside the one command per touched lane of
/// the write it follows. A low threshold (T = 2) keeps the coordinator
/// stepping.
#[test]
fn metering_charges_one_command_per_coordinator_step_global() {
    const CHANNELS: u32 = 4;
    const OPS: u64 = 8_000;
    let mut engine = Engine::new(
        LayerKind::Ftl,
        ChannelGeometry::new(CHANNELS, 1, chip()),
        spec(1_000_000),
        Some(SwlConfig::new(2, 0).with_seed(9)),
        SwlCoordination::Global,
        &SimConfig::default(),
        EngineConfig::default().with_threads(4).with_metrics(true),
    )
    .unwrap();
    let pages = engine.logical_pages();
    let events: Vec<TraceEvent> = trace(pages, 0x57E9).take(OPS as usize).collect();
    let touched: u64 = events.iter().map(|e| u64::from(e.len.min(CHANNELS))).sum();
    engine.run(events, StopCondition::default()).unwrap();
    let run = engine.finish().unwrap();
    assert_eq!(
        run.threads, 0,
        "Global coordination with SWL has no workers"
    );
    let steps: u64 = leveler_state(run.lanes())
        .iter()
        .map(|(.., stats)| stats.activations)
        .sum();
    assert!(steps > 0, "the coordinator never stepped");
    let metrics = run.metrics.as_ref().expect("metrics on");
    let by_workers: u64 = metrics.snapshot.workers.iter().map(|w| w.commands).sum();
    let executed: u64 = metrics.snapshot.lanes.iter().map(|l| l.commands).sum();
    assert_eq!(run.helped_commands + by_workers, executed);
    assert_eq!(metrics.cmd_latency.count(), executed);
    assert_eq!(executed, touched + steps, "{steps} coordinator steps");
}

/// What a run into a power cut left behind.
#[derive(Debug, PartialEq)]
struct CutRun {
    error: SimError,
    /// Host ops accepted before the error surfaced.
    accepted: u64,
    /// Per-lane device counters at teardown.
    devices: Vec<DeviceCounters>,
    /// The logical contents after a power cycle and a remount of each lane.
    contents: Vec<Option<u64>>,
}

/// Eight-page writes, a flush every four, over lanes that fail programs now
/// and then and lose power at their `cut_at`-th flash operation; then the
/// crash-harness teardown, a power cycle and a remount. Every write a flush
/// acknowledged must read back (or a later, unacknowledged value of its
/// page).
fn run_into_cut(threads: u32, qd: usize, cut_at: u64, torn: bool) -> CutRun {
    let layers = SimConfig {
        fault: Some(
            FaultPlan::new(5)
                .with_program_fail_prob(0.02)
                .with_power_cut(cut_at, torn),
        ),
        ..SimConfig::default()
    };
    let mut engine = failing_engine(threads, qd, &layers);
    let spans = engine.logical_pages() / 8;
    // One page more on lane 0, so the lanes do not all lose power at the
    // same page of the same op.
    engine.submit(TraceEvent::write(0, 0)).unwrap();
    let mut token = 1u64;
    let mut acked = std::collections::HashMap::new();
    let mut pending = vec![(0u64, token)];
    let mut accepted = 0u64;
    let error = loop {
        let base = (accepted * 5 % spans) * 8;
        for page in 0..8 {
            token += 1;
            pending.push((base + page, token));
        }
        let mut step = engine.submit(TraceEvent::write_span(accepted + 1, base, 8));
        if step.is_ok() {
            accepted += 1;
            if accepted.is_multiple_of(4) {
                step = engine.flush();
                if step.is_ok() {
                    acked.extend(pending.drain(..));
                }
            }
        }
        if let Err(e) = step {
            break e;
        }
        assert!(accepted < 10_000, "the cut never surfaced");
    };
    assert_eq!(engine.flush(), Err(error), "sticky");
    assert_eq!(engine.submit(TraceEvent::read(0, 0)), Err(error), "sticky");

    let geometry = ChannelGeometry::new(4, 1, chip());
    let mut devices = engine.into_devices();
    let counters = devices.iter().map(|device| device.counters()).collect();
    let mut lanes: Vec<_> = devices
        .drain(..)
        .map(|mut device| {
            // One power rail: the cut took down the lanes it had not reached.
            device.disarm_power_cut();
            device.power_cycle();
            Layer::mount(LayerKind::Ftl, device, &SimConfig::default()).expect("lane remounts")
        })
        .collect();
    let contents: Vec<Option<u64>> = (0..spans * 8)
        .map(|lba| {
            lanes[geometry.channel_of(lba) as usize]
                .read(geometry.lane_lba(lba))
                .expect("remounted lane serves reads")
        })
        .collect();
    for (&lba, &value) in &acked {
        let got = contents[lba as usize];
        let in_flight = pending.iter().any(|&(l, v)| l == lba && got == Some(v));
        assert!(
            got == Some(value) || in_flight,
            "acked write of lba {lba} lost: read {got:?}, acked {value} \
             (threads={threads} qd={qd} cut_at={cut_at} torn={torn})"
        );
    }
    CutRun {
        error,
        accepted,
        devices: counters,
        contents,
    }
}

/// A power cut in the middle of an op, on lanes that also fail programs:
/// the engine without workers and the threaded engine report the same error
/// and keep reporting it, `into_devices` + remount passes for both, and at
/// queue depth 1 — where neither dispatches anything past the failing op —
/// they leave the very same devices behind.
#[test]
fn power_cut_mid_op_fails_alike_direct_and_threaded() {
    for cut_at in [37u64, 40, 90, 141] {
        for torn in [false, true] {
            let direct = run_into_cut(0, 1, cut_at, torn);
            assert!(
                matches!(
                    direct.error,
                    SimError::Ftl(FtlError::Device(NandError::PowerCut))
                ),
                "cut_at={cut_at}: {:?}",
                direct.error
            );
            let lockstepped = run_into_cut(1, 1, cut_at, torn);
            assert_eq!(lockstepped.error, direct.error);
            assert_eq!(lockstepped.devices, direct.devices, "cut_at={cut_at}");
            assert_eq!(lockstepped.contents, direct.contents, "cut_at={cut_at}");
            // A deep window surfaces the same error later, with younger ops
            // already run on the lanes that still had power.
            let deep = run_into_cut(2, 8, cut_at, torn);
            assert_eq!(deep.error, direct.error);
            assert!(deep.accepted >= direct.accepted);
        }
    }
}

/// What one engine run of the property below produced.
struct Driven {
    run: flash_sim::EngineRun,
    /// What the trace's reads returned, when they were issued as blocking
    /// [`Engine::read`]s the way the service issues them (empty otherwise).
    reads: Vec<Vec<Option<u64>>>,
    /// One command per lane an op touches; under Global a coordinator step
    /// adds one on top, so there this is a lower bound on the commands
    /// executed.
    lane_commands: u64,
}

/// Feeds the first `ops` events of the seeded trace to an engine built with
/// `config` over four lanes, with a flush barrier every `flush_every` ops;
/// with `capture`, its reads go through [`Engine::read`] and come back.
fn drive(
    kind: LayerKind,
    coordination: SwlCoordination,
    config: EngineConfig,
    capture: bool,
    ops: u64,
    flush_every: u64,
    seed: u64,
) -> Driven {
    const CHANNELS: u32 = 4;
    let mut engine = Engine::new(
        kind,
        ChannelGeometry::new(CHANNELS, 1, chip()),
        spec(1_000_000),
        Some(swl()),
        coordination,
        &SimConfig::default(),
        config,
    )
    .unwrap();
    let pages = engine.logical_pages();
    let mut lane_commands = 0u64;
    let mut reads = Vec::new();
    for (i, event) in trace(pages, seed).take(ops as usize).enumerate() {
        lane_commands += u64::from(event.len.min(CHANNELS));
        if capture && event.op == Op::Read {
            reads.push(engine.read(event.at_ns, event.lba, event.len).unwrap());
        } else {
            engine.submit(event).unwrap();
        }
        if (i as u64 + 1).is_multiple_of(flush_every) {
            engine.flush().unwrap();
        }
    }
    engine.flush().unwrap();
    Driven {
        run: engine.finish().unwrap(),
        reads,
        lane_commands,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Who runs a command is nobody's business but the clock's: worker
    /// threads and a front-end that claims idle groups at its barriers share
    /// the commands in some timing-dependent split — or there are no workers
    /// (`threads = 0`) and every lane share runs where its op is submitted —
    /// every command runs exactly once, and the run stays bit-identical to
    /// `run_striped`: direct == threaded == oracle, captured reads included,
    /// on either translation layer, with the meter on or off. The flush interval is drawn so that the bursts
    /// between barriers fall on both sides of the doorbell threshold (half a
    /// window: `qd / 2` ops).
    #[test]
    fn claim_holders_split_the_commands_and_match_the_oracle(
        threads in prop_oneof![Just(0u32), Just(1), Just(2), Just(4)],
        qd in prop_oneof![Just(1usize), Just(8), Just(64)],
        global in any::<bool>(),
        nftl in any::<bool>(),
        capture in any::<bool>(),
        metrics in any::<bool>(),
        flush_every in 1u64..96,
        seed in 0u64..1_000,
    ) {
        const OPS: u64 = 1_500;
        let kind = if nftl { LayerKind::Nftl } else { LayerKind::Ftl };
        let coordination = if global {
            SwlCoordination::Global
        } else {
            SwlCoordination::PerChannel
        };
        let stop = StopCondition::events(OPS);
        let (reference_report, reference_layer) =
            reference(kind, 4, coordination, 1_000_000, stop, seed);
        let read_ops = trace(reference_layer.logical_pages(), seed)
            .take(OPS as usize)
            .filter(|e| e.op == Op::Read)
            .count();

        let config = EngineConfig::default()
            .with_threads(threads)
            .with_queue_depth(qd)
            .with_metrics(metrics);
        let driven = drive(kind, coordination, config, capture, OPS, flush_every, seed);
        let direct = config.with_threads(0);
        let direct = drive(kind, coordination, direct, capture, OPS, flush_every, seed);
        prop_assert_eq!(direct.run.threads, 0);
        prop_assert_eq!(driven.reads.len(), if capture { read_ops } else { 0 });
        prop_assert!(driven.reads == direct.reads, "captured reads diverged");

        for Driven { run, lane_commands, .. } in [&driven, &direct] {
            prop_assert!(run.report == reference_report, "engine diverged from run_striped");
            prop_assert_eq!(run.metrics.is_some(), metrics);
            let Some(metrics) = run.metrics.as_ref() else {
                continue;
            };
            prop_assert_eq!(metrics.snapshot.workers.len(), run.threads as usize);
            let by_workers: u64 = metrics.snapshot.workers.iter().map(|w| w.commands).sum();
            let executed: u64 = metrics.snapshot.lanes.iter().map(|l| l.commands).sum();
            prop_assert_eq!(run.helped_commands + by_workers, executed);
            prop_assert_eq!(metrics.cmd_latency.count(), executed);
            if global {
                prop_assert!(executed >= *lane_commands);
            } else {
                prop_assert_eq!(executed, *lane_commands);
            }
        }
        if threads <= 1 && qd == 1 {
            // Every op ends in a barrier the front-end reaches before a
            // woken worker can have drained the queue every single time.
            prop_assert!(driven.run.helped_commands > 0);
        }
    }
}
