//! Differential oracle for the real-thread channel engine: on the same
//! trace, [`Engine`] must reproduce [`Simulator::run_striped`] **bit for
//! bit** — the full [`flash_sim::StripedReport`] (erase counters, SWL
//! coordination effects, per-page and op-level latency histograms, makespan,
//! first failure), the per-lane device and leveler state, and the logical
//! contents — for every combination of channel count, SWL coordination
//! mode, and worker-thread count. Only wall-clock timing may differ.
//!
//! This extends the `tests/differential.rs` pattern (striped vs. standalone
//! lanes) one level up: the virtual-time striped loop is itself the oracle
//! for the threaded engine.

use flash_sim::{
    Engine, EngineConfig, Layer, LayerKind, SimConfig, Simulator, StopCondition, StripedLayer,
    StripedReport, SwlCoordination, TranslationLayer,
};
use flash_telemetry::Sink;
use flash_trace::{Op, SyntheticTrace, TraceEvent, WorkloadSpec};
use ftl::{FtlConfig, SnapshotConfig};
use hotid::HotDataConfig;
use nand::{CellKind, CellSpec, ChannelGeometry, FaultPlan, Geometry};
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
/// from `layers`. Also pins which path the ops took: only Global
/// coordination over several lanes coordinates any op at all, and there a
/// write runs ahead exactly when its lanes promise erase-free writes — which
/// the fault-free FTL does between erases, and nothing else ever does.
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
    let reads = trace(reference_layer.logical_pages(), seed)
        .take(EVENTS as usize)
        .filter(|e| e.op == Op::Read)
        .count() as u64;

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
        .flat_map(|&qd| [1u32, 2, 4].map(|threads| (qd, threads)));
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
        assert_eq!(run.quiet_ops + run.coordinated_ops, EVENTS);
        let split = (run.quiet_ops, run.coordinated_ops);
        if coordination == SwlCoordination::PerChannel || channels == 1 {
            assert_eq!(split, (EVENTS, 0), "threads={threads} qd={qd}");
        } else if kind == LayerKind::Ftl && layers.fault.is_none() {
            assert!(
                run.quiet_ops > reads && run.coordinated_ops > 0,
                "threads={threads} qd={qd}: {split:?} of {reads} reads took one path only"
            );
        } else {
            assert_eq!(split, (reads, EVENTS - reads), "threads={threads} qd={qd}");
        }

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

/// Two write frontiers: the erase-free bound is a true lower bound, not the
/// exact count, so the drain-and-look-again step of admission matters.
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

/// A plan that fails programs voids every bound: each write coordinates.
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
/// latched the coordinator must cost nothing: no further `SwlStep`, and
/// writes running ahead again instead of every one coordinating.
#[test]
fn ftl_reserved_lanes_global_past_the_stall() {
    let layers = SimConfig {
        ftl: FtlConfig::default().with_snapshots(SnapshotConfig::new().with_manifest_blocks(1)),
        ..SimConfig::default()
    };
    let (kind, channels, global, seed) = (LayerKind::Ftl, 4, SwlCoordination::Global, 0x57A1);
    // `level_step` counts one activation per `SwlStep` command.
    let steps =
        |state: &[LevelerState]| -> u64 { state.iter().map(|(.., stats)| stats.activations).sum() };
    // Per horizon: (`SwlStep` commands, ops that ran ahead, reads).
    let past_stall = [12_000u64, 16_000].map(|events| {
        let stop = StopCondition::events(events);
        let (reference_report, reference_layer) =
            reference_with(kind, channels, global, 1_000_000, stop, seed, &layers);
        let oracle_state = leveler_state(reference_layer.lanes());
        for &(ecnt, fcnt, ..) in &oracle_state {
            assert_eq!(fcnt, LANE_BLOCKS as usize - 2, "all but the reserve");
            assert!(ecnt >= 8 * fcnt as u64, "every shard over threshold");
        }
        let reads = trace(reference_layer.logical_pages(), seed)
            .take(events as usize)
            .filter(|e| e.op == Op::Read)
            .count() as u64;
        let quiet_ops = [1u32, 2].map(|threads| {
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
            run.quiet_ops
        });
        assert_eq!(quiet_ops[0], quiet_ops[1], "thread count changed the split");
        (steps(&oracle_state), quiet_ops[0], reads)
    });
    let [(early_steps, early_quiet, early_reads), (late_steps, late_quiet, late_reads)] =
        past_stall;
    assert_eq!(late_steps, early_steps, "SwlStep commands after the stall");
    assert!(
        late_quiet - early_quiet > late_reads - early_reads,
        "no write ran ahead after the stall"
    );
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
    for threads in [1u32, 4] {
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
        // A command is charged once, to whoever ran it: a worker thread's
        // slot, or `helped_commands` when the front-end held the claim.
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
        for threads in [1u32, 2] {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Who runs a command is nobody's business but the clock's: worker
    /// threads and a front-end that claims idle groups at its barriers share
    /// the commands in some timing-dependent split, every command runs
    /// exactly once, and the run stays bit-identical to `run_striped`. The
    /// flush interval is drawn so that the bursts between barriers fall on
    /// both sides of the doorbell threshold (half a window: `qd / 2` ops).
    #[test]
    fn claim_holders_split_the_commands_and_match_the_oracle(
        threads in prop_oneof![Just(1u32), Just(2), Just(4)],
        qd in prop_oneof![Just(1usize), Just(8), Just(64)],
        global in any::<bool>(),
        flush_every in 1u64..96,
        seed in 0u64..1_000,
    ) {
        const CHANNELS: u32 = 4;
        const OPS: u64 = 1_500;
        let coordination = if global {
            SwlCoordination::Global
        } else {
            SwlCoordination::PerChannel
        };
        let (reference_report, _) = reference(
            LayerKind::Ftl,
            CHANNELS,
            coordination,
            1_000_000,
            StopCondition::events(OPS),
            seed,
        );

        let mut engine = Engine::new(
            LayerKind::Ftl,
            ChannelGeometry::new(CHANNELS, 1, chip()),
            spec(1_000_000),
            Some(swl()),
            coordination,
            &SimConfig::default(),
            EngineConfig::default()
                .with_threads(threads)
                .with_queue_depth(qd)
                .with_metrics(true),
        )
        .unwrap();
        let pages = engine.logical_pages();
        // One command per lane an op touches; a coordinated write adds its
        // per-page commands and SWL steps on top, so under Global this is a
        // lower bound.
        let mut lane_commands = 0u64;
        for (i, event) in trace(pages, seed).take(OPS as usize).enumerate() {
            lane_commands += u64::from(event.len.min(CHANNELS));
            engine.submit(event).unwrap();
            if (i as u64 + 1).is_multiple_of(flush_every) {
                engine.flush().unwrap();
            }
        }
        let run = engine.finish().unwrap();
        prop_assert!(run.report == reference_report, "engine diverged from run_striped");

        let metrics = run.metrics.as_ref().expect("metrics were on");
        let by_workers: u64 = metrics.snapshot.workers.iter().map(|w| w.commands).sum();
        let executed: u64 = metrics.snapshot.lanes.iter().map(|l| l.commands).sum();
        prop_assert_eq!(run.helped_commands + by_workers, executed);
        prop_assert_eq!(metrics.cmd_latency.count(), executed);
        if global {
            prop_assert!(executed >= lane_commands);
        } else {
            prop_assert_eq!(executed, lane_commands);
        }
        if threads == 1 && qd == 1 {
            // Every op ends in a barrier the front-end reaches before a
            // woken worker can have drained the queue every single time.
            prop_assert!(run.helped_commands > 0);
        }
    }
}
