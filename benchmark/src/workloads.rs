//! The seven workloads. Each `*_rep` function builds a fresh stack, times
//! one fixed-size repetition and checks what came back; the `*_oracle` and
//! `*_mirror` functions produce the reference a repetition's report must
//! equal.
//!
//! The reference host is a shared 2-CPU VM whose speed changes by a factor
//! of two within seconds, so a repetition is short (about half a second when
//! the host is quiet), a run makes a fixed number of them, and each is timed
//! in slices of a few milliseconds that end where the stack has drained:
//! slice `j` is the same work in every repetition of a run (see `driver`).

use std::time::Instant;

use flash_sim::service::cache::CacheConfig;
use flash_sim::service::{Service, ServiceConfig};
use flash_sim::{
    Engine, EngineConfig, Layer, LayerCounters, LayerKind, SimConfig, Simulator, StopCondition,
    StripedLayer, StripedReport, SwlCoordination, TranslationLayer,
};
use flash_telemetry::runtime::CacheSample;
use flash_telemetry::LatencyHistogram;
use flash_trace::{Op, TraceEvent};
use ftl::{FtlConfig, PageMappedFtl, SnapshotConfig};
use hotid::HotDataConfig;
use nand::{CellKind, CellSpec, ChannelGeometry, DeviceCounters, EraseStats, Geometry, NandDevice};
use swl_core::SwlConfig;

use crate::host::{Elapsed, Stopwatch};
use crate::ops::{
    client_pages, client_sequence, event_pages, event_pages_written, paper_trace,
    snapshot_sequence, widened_paper_events, ClientOp, ClientSequence, Model, SnapOp, SnapShape,
};

/// The seven workloads, in the order they run. Later issues cite their
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's experiment on the page-mapped FTL.
    PaperFtl,
    /// The paper's experiment on the block-mapped NFTL.
    PaperNftl,
    /// The array through `Engine`, per-channel SWL: the pipelined path.
    EnginePipelined,
    /// The array through `Engine`, Global SWL: the lockstep path.
    EngineLockstep,
    /// The served path, cache off.
    ServiceUncached,
    /// The served path, evicting write cache on.
    ServiceCached,
    /// The FTL with pinning snapshots.
    FtlSnapshots,
}

impl Workload {
    /// Every workload, in running order.
    pub const ALL: [Workload; 7] = [
        Workload::PaperFtl,
        Workload::PaperNftl,
        Workload::EnginePipelined,
        Workload::EngineLockstep,
        Workload::ServiceUncached,
        Workload::ServiceCached,
        Workload::FtlSnapshots,
    ];

    /// The name printed, declared in `BENCHMARK.json` and taken by
    /// `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFtl => "paper_ftl",
            Workload::PaperNftl => "paper_nftl",
            Workload::EnginePipelined => "engine_pipelined",
            Workload::EngineLockstep => "engine_lockstep",
            Workload::ServiceUncached => "service_uncached",
            Workload::ServiceCached => "service_cached",
            Workload::FtlSnapshots => "ftl_snapshots",
        }
    }

    /// One line on why the workload exists (`why` in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperFtl => "The paper's experiment: page-mapped FTL + SW Leveler on the 4096x128 chip, run to first block failure; nothing above Simulator runs, so an engine or service change must not move it.",
            Workload::PaperNftl => "The same leveler and NAND structures under the block-mapped NFTL's merge-based Cleaner (1024x128); guards a shared-Cleaner refactor from trading one translation layer for the other.",
            Workload::EnginePipelined => "4-channel array, per-channel SWL, 8-page host requests through Engine at QD 64: queues, submit_pipelined and finalize do ~15x the FTL's work; batching and pooled op records show here.",
            Workload::EngineLockstep => "Same array and trace prefix under Global SWL coordination: one dispatch-await per page; epoch-batched coordination shows here and pipelined batching should not.",
            Workload::ServiceUncached => "Served path, one client, cache off: writes beside reads, every read pays the all-lane flush barrier; it is also the cache's bypass, so a cache change must not move it.",
            Workload::ServiceCached => "Byte-identical client sequence with the write cache at a quarter of the hot set (evicting): service::cache and hotid do the work; with service_uncached it is the cache-versus-wear trade.",
            Workload::FtlSnapshots => "Page-mapped FTL with 16 pinning copy-on-write snapshots, merge and deletes, read-back checked: refcounted pinned pages; pin-aware victim scoring shows here and must not cost paper_ftl.",
        }
    }

    /// Timed repetitions in a run of 10 `--seconds`: on the reference host
    /// such a run, with its set-up and its checks, then takes about 10 s.
    /// The count follows from the flag alone, never from the clock, so two
    /// commits compared at one `--seconds` take the fastest observation of
    /// each slice from equally many repetitions.
    pub fn reps_per_10s(self) -> usize {
        match self {
            Workload::PaperFtl => 20,
            Workload::PaperNftl => 24,
            Workload::EnginePipelined => 18,
            Workload::EngineLockstep => 9,
            Workload::ServiceUncached | Workload::ServiceCached => 18,
            Workload::FtlSnapshots => 21,
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The translation layer of a `paper_*` workload.
    pub fn paper_kind(self) -> Option<LayerKind> {
        match self {
            Workload::PaperFtl => Some(LayerKind::Ftl),
            Workload::PaperNftl => Some(LayerKind::Nftl),
            _ => None,
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Pages per host request on the array workloads (16 KiB over 2 KiB pages).
pub const CHANNEL_SPAN: u32 = flash_sim::experiments::CHANNEL_SPAN;
/// Host queue depth of every engine in the benchmark.
pub const QUEUE_DEPTH: usize = 64;
/// LBAs advanced per streaming-merge step.
const MERGE_STEP_LBAS: u64 = 256;
/// Ops per timed slice of `ftl_snapshots` (about five milliseconds).
const SNAPSHOT_SLICE_OPS: usize = 4_096;

/// Device-model results of one repetition. With one load-generating thread
/// they repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Flash programs per host page written, fill included.
    pub write_amplification: f64,
    /// Standard deviation of the per-block erase counts at the end.
    pub wear_stddev: f64,
    /// Mean simulated device time per host write, µs.
    pub dev_write_mean_us: f64,
}

/// Per-layer counts read off a repetition's final report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Counts {
    /// Cause-attributed translation-layer counters.
    pub layer: LayerCounters,
    /// Raw device operations.
    pub device: DeviceCounters,
    /// Simulated device busy time, seconds.
    pub busy_s: f64,
    /// 99.9th percentile of the simulated device time per host write, µs:
    /// the upper bound of the log₂ bucket that holds it.
    pub dev_write_p999_us: f64,
    /// Host pages written over the whole workload, fill included.
    pub host_pages_written: u64,
    /// Final write-cache counters (`service_cached`).
    pub cache: Option<CacheSample>,
    /// LBAs merged per wall second by the streaming merge (`ftl_snapshots`).
    pub merge_lbas_per_s: Option<f64>,
}

/// One timed repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Untimed preparation: stack build, op materialisation, fill.
    pub setup_s: f64,
    /// The timed region, in slices that each end at a drain barrier (a
    /// returned single-threaded call, `Engine::run`'s final flush, a client
    /// `flush`), so no work crosses from one slice into the next.
    pub slices: Vec<Elapsed>,
    /// Host pages read plus written inside the timed region.
    pub host_pages: u64,
    /// Top-level calls made (timed ops plus read-back reads).
    pub attempted: u64,
    /// Calls that returned `Err` or read a value the model disagrees with.
    pub failed: u64,
    /// Device-model results.
    pub sim: SimMetrics,
    /// Per-layer counts.
    pub counts: Counts,
    /// The repetition's whole report, for comparison with other
    /// repetitions and with the oracle.
    pub digest: String,
    /// What went wrong, if anything.
    pub notes: Vec<String>,
}

impl Rep {
    /// Wall seconds of the whole timed region.
    pub fn wall_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_s).sum()
    }

    /// Process CPU seconds of the whole timed region.
    pub fn cpu_s(&self) -> f64 {
        self.slices.iter().map(|s| s.cpu_s).sum()
    }

    /// A repetition whose stack returned an error outside the per-op
    /// accounting: one failed op, nothing measured. The simulated metrics
    /// read 0, which no working stack reports.
    fn broken(setup_s: f64, slices: Vec<Elapsed>, note: String) -> Self {
        Self {
            setup_s,
            slices,
            host_pages: 1,
            attempted: 1,
            failed: 1,
            sim: SimMetrics {
                write_amplification: 0.0,
                wear_stddev: 0.0,
                dev_write_mean_us: 0.0,
            },
            counts: Counts::default(),
            digest: String::new(),
            notes: vec![note],
        }
    }
}

/// How much work a repetition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// Tiny op counts on small chips: same code path, same verification.
    Smoke,
}

fn sim_metrics(
    programs: u64,
    host_pages_written: u64,
    wear: &EraseStats,
    host_writes: u64,
    write_hist: &LatencyHistogram,
) -> SimMetrics {
    SimMetrics {
        write_amplification: programs as f64 / host_pages_written.max(1) as f64,
        wear_stddev: wear.std_dev,
        dev_write_mean_us: write_hist.total_ns() as f64 / host_writes.max(1) as f64 / 1e3,
    }
}

fn p999_us(write_hist: &LatencyHistogram) -> f64 {
    write_hist.quantile(0.999) as f64 / 1e3
}

// ---------------------------------------------------------------------------
// paper_ftl / paper_nftl: the paper's experiment on one chip.
// ---------------------------------------------------------------------------

/// Chip, endurance and leveler of a `paper_*` workload.
#[derive(Debug, Clone, Copy)]
pub struct PaperShape {
    /// Which translation layer.
    pub kind: LayerKind,
    /// Blocks on the chip.
    pub blocks: u32,
    /// Pages per block.
    pub pages: u32,
    /// Erase cycles before a block wears out.
    pub endurance: u32,
    /// Unevenness threshold `T` (with `k = 0`).
    pub threshold: u64,
}

impl PaperShape {
    /// The shape a `paper_*` workload runs at.
    pub fn of(kind: LayerKind, scale: Scale) -> Self {
        match (kind, scale) {
            // The paper's 1 GiB MLC×2 chip. Endurance is cut from 10 000 so
            // that a run to first failure is one short repetition.
            (LayerKind::Ftl, Scale::Full) => Self {
                kind,
                blocks: 4096,
                pages: 128,
                endurance: 6,
                threshold: 2,
            },
            // `Layer::build(Nftl)` plus the paper fill runs out of
            // replacement blocks from 1536 × 128 up (see the README), so
            // the NFTL runs on a quarter of the paper's chip.
            (LayerKind::Nftl, Scale::Full) => Self {
                kind,
                blocks: 1024,
                pages: 128,
                endurance: 256,
                threshold: 25,
            },
            (LayerKind::Ftl, Scale::Smoke) => Self {
                kind,
                blocks: 256,
                pages: 32,
                endurance: 6,
                threshold: 2,
            },
            (LayerKind::Nftl, Scale::Smoke) => Self {
                kind,
                blocks: 256,
                pages: 32,
                endurance: 64,
                threshold: 8,
            },
        }
    }

    /// The bare chip.
    pub fn device(&self) -> NandDevice {
        NandDevice::new(
            Geometry::new(self.blocks, self.pages, 2048),
            CellKind::Mlc2.spec().with_endurance(self.endurance),
        )
    }

    /// Builds the layer, with the SW Leveler or (the baseline) without.
    pub fn layer(&self, with_swl: bool, seed: u64) -> Layer {
        let swl = with_swl.then(|| SwlConfig::new(self.threshold, 0).with_seed(seed));
        Layer::build(self.kind, self.device(), swl, &SimConfig::default())
            .expect("paper layer builds")
    }

    /// Safety net for a run that never wears a block out.
    fn event_cap(&self) -> u64 {
        u64::from(self.blocks) * u64::from(self.pages) * u64::from(self.endurance) * 4
    }
}

/// Trace events per timed slice of a `paper_*` repetition (about a
/// millisecond on the FTL).
const PAPER_SLICE_EVENTS: usize = 16_384;

/// One run of the paper's experiment, `experiments::first_failure_run`
/// shaped: fill the footprint (setup), then feed the resampled trace
/// through `Simulator::run` until the first block wears out. The trace is
/// generated a slice at a time (setup: the stack receives only generated
/// events) and each slice's `Simulator::run` call is timed. With
/// `check_data` the whole logical space is then read back and compared with
/// a replay of the same events.
pub fn paper_rep(shape: PaperShape, with_swl: bool, seed: u64, check_data: bool) -> Rep {
    let started = Instant::now();
    let mut layer = shape.layer(with_swl, seed);
    let logical_pages = layer.logical_pages();
    let (fill, mut resampled) = paper_trace(logical_pages, seed);
    let mut sim = Simulator::new();
    let fill = sim
        .run(&mut layer, fill, StopCondition::default())
        .expect("paper fill succeeds");
    let mut setup_s = started.elapsed().as_secs_f64();

    // A report's counters, wear and device time are cumulative; its event
    // count and histograms cover one call.
    let mut slices = Vec::new();
    let mut chunk: Vec<TraceEvent> = Vec::with_capacity(PAPER_SLICE_EVENTS);
    let mut events = 0u64;
    let mut write_hist = fill.write_latency.clone();
    let mut read_hist = fill.read_latency.clone();
    let report = loop {
        let generating = Instant::now();
        chunk.clear();
        chunk.extend(resampled.by_ref().take(PAPER_SLICE_EVENTS));
        setup_s += generating.elapsed().as_secs_f64();

        let timed = Stopwatch::start();
        let run = sim.run(
            &mut layer,
            chunk.iter().copied(),
            StopCondition::first_failure(),
        );
        slices.push(timed.stop());
        let report = match run {
            Ok(report) => report,
            Err(e) => return Rep::broken(setup_s, slices, format!("Simulator::run failed: {e}")),
        };
        events += report.events;
        write_hist.merge(&report.write_latency);
        read_hist.merge(&report.read_latency);
        if report.first_failure.is_some() || events >= shape.event_cap() {
            break report;
        }
    };

    let mut notes = Vec::new();
    if report.first_failure.is_none() {
        notes.push("no block wore out before the event cap".to_string());
    }
    let mut attempted = events;
    let mut failed = 0;
    if check_data {
        let model = paper_model(logical_pages, seed, events);
        for lba in 0..logical_pages {
            attempted += 1;
            match layer.read(lba) {
                Ok(value) if value == model.expected(lba) => {}
                _ => failed += 1,
            }
        }
        if failed > 0 {
            notes.push(format!(
                "{failed} pages read back a value the model disagrees with"
            ));
        }
    }

    let counters = report.counters;
    Rep {
        setup_s,
        slices,
        host_pages: (counters.host_writes + counters.host_reads)
            - (fill.counters.host_writes + fill.counters.host_reads),
        attempted,
        failed,
        sim: sim_metrics(
            report.device.programs,
            counters.host_writes,
            &report.erase_stats,
            write_hist.count(),
            &write_hist,
        ),
        counts: Counts {
            layer: counters,
            device: report.device,
            busy_s: report.device_busy_ns as f64 / 1e9,
            dev_write_p999_us: p999_us(&write_hist),
            host_pages_written: counters.host_writes,
            ..Counts::default()
        },
        digest: format!(
            "{events} {:?} {:?} {counters:?} {:?} {} {write_hist:?} {read_hist:?}",
            report.first_failure, report.erase_stats, report.device, report.device_busy_ns,
        ),
        notes,
    }
}

/// Last-written tokens after the fill and the first `events` resampled
/// events, assigned exactly as `Simulator::run` assigns them.
fn paper_model(logical_pages: u64, seed: u64, events: u64) -> Model {
    let (fill, resampled) = paper_trace(logical_pages, seed);
    let mut model = Model::new(logical_pages);
    let mut token = 0u64;
    let replay = fill.chain(resampled.take(events as usize));
    for event in replay.filter(|e| e.op == Op::Write) {
        for lba in event.pages() {
            token += 1;
            model.write(lba, token);
        }
    }
    model
}

// ---------------------------------------------------------------------------
// The 4-channel array shared by the engine_* and service_* workloads.
// ---------------------------------------------------------------------------

/// The striped array and how long each workload drives it.
///
/// The array is small (32 Ki pages) on purpose: a repetition lasts well
/// under a second, and on a larger array it would end before the garbage
/// collector has started, with write amplification 1 and every block's
/// erase count 0.
#[derive(Debug, Clone, Copy)]
pub struct ArrayShape {
    /// Channels (one chip each).
    pub channels: u32,
    /// Blocks per chip.
    pub blocks: u32,
    /// Pages per block.
    pub pages: u32,
    /// Erase cycles before a block wears out (never reached here).
    pub endurance: u32,
    /// Unevenness threshold `T` of every lane's leveler (`k = 0`).
    pub threshold: u64,
    /// Widened trace events per `engine_pipelined` repetition.
    pub pipelined_events: usize,
    /// The same for `engine_lockstep` (a prefix of the same trace).
    pub lockstep_events: usize,
    /// Client ops per `service_*` repetition.
    pub service_ops: usize,
}

impl ArrayShape {
    /// The array at `scale`.
    pub fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                channels: 4,
                blocks: 64,
                pages: 128,
                endurance: 512,
                threshold: 8,
                pipelined_events: 120_000,
                lockstep_events: 12_000,
                service_ops: 36_000,
            },
            Scale::Smoke => Self {
                channels: 4,
                blocks: 32,
                pages: 32,
                endurance: 512,
                threshold: 8,
                pipelined_events: 8_000,
                lockstep_events: 1_000,
                service_ops: 6_000,
            },
        }
    }

    /// Array geometry.
    pub fn geometry(&self) -> ChannelGeometry {
        ChannelGeometry::new(
            self.channels,
            1,
            Geometry::new(self.blocks, self.pages, 2048),
        )
    }

    /// Cell parameters.
    pub fn spec(&self) -> CellSpec {
        CellKind::Mlc2.spec().with_endurance(self.endurance)
    }

    /// Logical pages the array exports.
    pub fn logical_pages(&self) -> u64 {
        self.geometry().total_pages()
    }

    /// The leveler every lane wears.
    pub fn swl(&self, seed: u64) -> SwlConfig {
        SwlConfig::new(self.threshold, 0).with_seed(seed)
    }

    /// `(events, events per timed slice)` of the `engine_*` workload that
    /// runs under `coordination`.
    fn events_of(&self, coordination: SwlCoordination) -> (usize, usize) {
        match coordination {
            SwlCoordination::PerChannel => (self.pipelined_events, PIPELINED_SLICE_EVENTS),
            SwlCoordination::Global => (self.lockstep_events, LOCKSTEP_SLICE_EVENTS),
        }
    }
}

/// Events per timed slice of `engine_pipelined` (about four milliseconds).
const PIPELINED_SLICE_EVENTS: usize = 1_024;
/// Events per timed slice of `engine_lockstep` (about ten milliseconds).
const LOCKSTEP_SLICE_EVENTS: usize = 128;

/// One worker thread, host queue depth [`QUEUE_DEPTH`], observers off.
pub fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_threads(1)
        .with_queue_depth(QUEUE_DEPTH)
}

/// Builds the engine over the array.
pub fn build_engine(
    shape: &ArrayShape,
    coordination: SwlCoordination,
    seed: u64,
    config: EngineConfig,
) -> Engine {
    Engine::new(
        LayerKind::Ftl,
        shape.geometry(),
        shape.spec(),
        Some(shape.swl(seed)),
        coordination,
        &SimConfig::default(),
        config,
    )
    .expect("engine builds")
}

/// The paper fill and the first `events` widened events of the resampled
/// paper trace over the array.
pub fn engine_inputs(
    shape: &ArrayShape,
    events: usize,
    seed: u64,
) -> (Vec<TraceEvent>, Vec<TraceEvent>) {
    let logical_pages = shape.logical_pages();
    let fill = paper_trace(logical_pages, seed).0.collect();
    (
        fill,
        widened_paper_events(logical_pages, seed, CHANNEL_SPAN, events),
    )
}

fn striped_sim_metrics(
    report: &StripedReport,
    host_pages_written: u64,
    host_writes: u64,
) -> SimMetrics {
    sim_metrics(
        report.device.programs,
        host_pages_written,
        &report.erase_stats,
        host_writes,
        &report.op_write_latency,
    )
}

fn striped_counts(report: &StripedReport, host_pages_written: u64) -> Counts {
    Counts {
        layer: report.counters,
        device: report.device,
        busy_s: report.device_busy_ns as f64 / 1e9,
        dev_write_p999_us: p999_us(&report.op_write_latency),
        host_pages_written,
        ..Counts::default()
    }
}

/// One `engine_*` repetition: the paper fill through the engine (setup),
/// then the measured events through `Engine::run`, a slice per call: it
/// returns once every event it was given has completed and been finalized.
/// `Engine::finish` is the last slice.
pub fn engine_rep(shape: &ArrayShape, coordination: SwlCoordination, seed: u64) -> Rep {
    let started = Instant::now();
    let (events, per_slice) = shape.events_of(coordination);
    let (fill, measured) = engine_inputs(shape, events, seed);
    let mut engine = build_engine(shape, coordination, seed, engine_config());
    let filled = engine.run(fill.iter().copied(), StopCondition::default());
    let setup_s = started.elapsed().as_secs_f64();
    if let Err(e) = filled {
        return Rep::broken(setup_s, Vec::new(), format!("engine fill failed: {e}"));
    }

    let mut slices = Vec::new();
    for slice in measured.chunks(per_slice) {
        let timed = Stopwatch::start();
        let run = engine.run(slice.iter().copied(), StopCondition::default());
        slices.push(timed.stop());
        if let Err(e) = run {
            return Rep::broken(setup_s, slices, format!("Engine::run failed: {e}"));
        }
    }
    let timed = Stopwatch::start();
    let finished = engine.finish();
    slices.push(timed.stop());
    let report = match finished {
        Ok(run) => run.report,
        Err(e) => return Rep::broken(setup_s, slices, format!("Engine::finish failed: {e}")),
    };

    let written = event_pages_written(&fill) + event_pages_written(&measured);
    Rep {
        setup_s,
        slices,
        host_pages: event_pages(&measured),
        attempted: measured.len() as u64,
        failed: 0,
        sim: striped_sim_metrics(&report, written, report.op_write_latency.count()),
        counts: striped_counts(&report, written),
        digest: format!("{report:?}"),
        notes: Vec::new(),
    }
}

/// The virtual-time oracle of an `engine_*` repetition: the same events
/// through `Simulator::run_striped`.
pub fn engine_oracle(
    shape: &ArrayShape,
    coordination: SwlCoordination,
    seed: u64,
) -> StripedReport {
    let (fill, measured) = engine_inputs(shape, shape.events_of(coordination).0, seed);
    let mut striped = StripedLayer::build(
        LayerKind::Ftl,
        shape.geometry(),
        shape.spec(),
        Some(shape.swl(seed)),
        coordination,
        &SimConfig::default(),
    )
    .expect("oracle array builds");
    Simulator::new()
        .run_striped(
            &mut striped,
            fill.into_iter().chain(measured),
            StopCondition::default(),
        )
        .expect("oracle run succeeds")
}

// ---------------------------------------------------------------------------
// service_uncached / service_cached: the served path, one client.
// ---------------------------------------------------------------------------

/// Logical-clock tick per accepted op (the service default).
const OP_INTERVAL_NS: u64 = 1_000;

/// A write cache of `capacity` pages: hot from the second write; watermark
/// at capacity, so the between-call drain runs only when the cache is full.
pub fn cache_config(capacity: usize) -> CacheConfig {
    CacheConfig::sized(capacity)
        .with_hot(HotDataConfig {
            hot_threshold: 2,
            ..HotDataConfig::default()
        })
        .with_watermark(capacity)
}

/// Cache capacity of `service_cached` for a client whose hot set is
/// `hot_set` pages: a quarter of it, so the cache evicts.
pub fn evicting_capacity(hot_set: u64) -> usize {
    (hot_set / 4).max(8) as usize
}

/// Builds the service over the array, with `cache` or without.
pub fn build_service(
    shape: &ArrayShape,
    seed: u64,
    cache: Option<CacheConfig>,
    engine: EngineConfig,
) -> Service {
    let mut config = ServiceConfig::default()
        .with_engine(engine)
        .with_op_interval_ns(OP_INTERVAL_NS);
    if let Some(cache) = cache {
        config = config.with_cache(cache);
    }
    Service::build(
        LayerKind::Ftl,
        shape.geometry(),
        shape.spec(),
        Some(shape.swl(seed)),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        config,
    )
    .expect("service builds")
}

/// One `service_*` repetition: prefill through the client (setup), then the
/// measured ops through `ServiceClient` calls, every read compared with the
/// model as it returns. A slice ends when a client `flush` returns (the
/// sequence holds one every [`crate::ops::FLUSH_EVERY`] ops); joining the
/// server and `Service::finish` end the last one.
pub fn service_rep(shape: &ArrayShape, cached: bool, seed: u64) -> Rep {
    let started = Instant::now();
    let sequence = client_sequence(shape.logical_pages(), shape.service_ops, seed);
    let cache = cached.then(|| cache_config(evicting_capacity(sequence.hot_set)));
    let service = build_service(shape, seed, cache, engine_config());
    let mut model = Model::new(shape.logical_pages());
    let (prefill_written, _) = client_pages(&sequence.prefill);
    let (measured_written, measured_read) = client_pages(&sequence.ops);
    let write_calls = |ops: &[ClientOp]| {
        ops.iter()
            .filter(|op| matches!(op, ClientOp::Write { .. }))
            .count() as u64
    };
    let host_write_calls = write_calls(&sequence.prefill) + write_calls(&sequence.ops);
    let ClientSequence { prefill, ops, .. } = sequence;

    let (server, mut clients) = service.serve(1);
    let mut client = clients.pop().expect("one client");
    let mut failed = 0u64;
    let mut drive = |op: ClientOp| match op {
        ClientOp::Write { lba, data } => {
            for (i, &value) in data.iter().enumerate() {
                model.write(lba + i as u64, value);
            }
            if client.write(lba, data).is_err() {
                failed += 1;
            }
        }
        ClientOp::Read { lba, len } => match client.read(lba, len) {
            Ok(values) if model.matches(lba, &values) => {}
            _ => failed += 1,
        },
        ClientOp::Flush => {
            if client.flush().is_err() {
                failed += 1;
            }
        }
    };
    prefill.into_iter().for_each(&mut drive);
    let setup_s = started.elapsed().as_secs_f64();

    let attempted = ops.len() as u64;
    let mut slices = Vec::new();
    let mut timed = Stopwatch::start();
    for op in ops {
        let drained = op == ClientOp::Flush;
        drive(op);
        if drained {
            slices.push(timed.stop());
            timed = Stopwatch::start();
        }
    }
    let finished = server.join().finish();
    slices.push(timed.stop());
    let run = match finished {
        Ok(run) => run,
        Err(e) => return Rep::broken(setup_s, slices, format!("Service::finish failed: {e}")),
    };
    let report = run.run.report;
    let written = prefill_written + measured_written;
    let mut notes = Vec::new();
    if failed > 0 {
        notes.push(format!(
            "{failed} client calls failed or read a stale value"
        ));
    }
    Rep {
        setup_s,
        slices,
        host_pages: measured_written + measured_read,
        attempted,
        failed,
        sim: striped_sim_metrics(&report, written, host_write_calls),
        counts: Counts {
            cache: run.cache,
            ..striped_counts(&report, written)
        },
        digest: format!("{report:?}"),
        notes,
    }
}

/// The direct-`Engine` mirror of the cache-less service: the same client
/// sequence with the service's logical clock, reads synchronising the
/// pipeline and flushes as barriers. `service_uncached`'s report must equal
/// it; `service_cached` measures its program saving against it.
pub fn service_mirror(shape: &ArrayShape, seed: u64) -> StripedReport {
    let sequence = client_sequence(shape.logical_pages(), shape.service_ops, seed);
    let mut engine = build_engine(shape, SwlCoordination::PerChannel, seed, engine_config());
    let mut clock = 0u64;
    for op in sequence.prefill.iter().chain(&sequence.ops) {
        match op {
            ClientOp::Write { lba, data } => {
                clock += OP_INTERVAL_NS;
                engine
                    .submit_write_data(clock, *lba, data)
                    .expect("mirror write succeeds");
            }
            ClientOp::Read { lba, len } => {
                clock += OP_INTERVAL_NS;
                engine
                    .submit(TraceEvent::read_span(clock, *lba, *len as u32))
                    .expect("mirror read succeeds");
                engine.flush().expect("mirror read barrier succeeds");
            }
            ClientOp::Flush => engine.flush().expect("mirror flush succeeds"),
        }
    }
    engine.finish().expect("mirror finishes").report
}

// ---------------------------------------------------------------------------
// ftl_snapshots: the page-mapped FTL with pinning snapshots.
// ---------------------------------------------------------------------------

/// Chip and op-sequence shape of `ftl_snapshots`.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotShape {
    /// Blocks on the chip.
    pub blocks: u32,
    /// Pages per block.
    pub pages: u32,
    /// Blocks withheld from the logical capacity.
    pub overprovision: u32,
    /// The op sequence.
    pub ops: SnapShape,
}

impl SnapshotShape {
    /// The shape at `scale`: `snapbench`'s chip and spans scaled up 16×
    /// (full) or as they are (smoke). The pinned hammer is short: with
    /// `T = 2` on a mostly empty chip the leveler's fruitless laps make
    /// every later write cost tens of microseconds (see the README).
    pub fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                blocks: 1024,
                pages: 128,
                overprovision: 64,
                ops: SnapShape {
                    span: 24_576,
                    per_phase: 12_288,
                    snapshots: 16,
                    hammer_phases: 6,
                },
            },
            Scale::Smoke => Self {
                blocks: 128,
                pages: 64,
                overprovision: 8,
                ops: SnapShape {
                    span: 1_536,
                    per_phase: 768,
                    snapshots: 16,
                    hammer_phases: 8,
                },
            },
        }
    }

    fn ftl(&self, seed: u64) -> PageMappedFtl {
        let device = NandDevice::new(
            Geometry::new(self.blocks, self.pages, 2048),
            CellKind::Mlc2.spec().with_endurance(u32::MAX),
        );
        let config = FtlConfig::new()
            .with_overprovision_blocks(self.overprovision)
            .with_snapshots(SnapshotConfig::new().with_manifest_blocks(4));
        PageMappedFtl::with_swl(device, config, SwlConfig::new(2, 0).with_seed(seed))
            .expect("snapshot FTL builds")
    }
}

/// One `ftl_snapshots` repetition, every op timed, [`SNAPSHOT_SLICE_OPS`]
/// to a slice: cold fill, create and diverge rounds, the pinned hammer, the
/// streaming merge of the oldest snapshot, deletes, and the read-back
/// checked against the model. With
/// `snapshots == false` the same writes run with no snapshot verbs (the
/// base of `ftl.snapshot_waf_ratio`).
pub fn snapshot_rep(shape: &SnapshotShape, seed: u64, snapshots: bool) -> Rep {
    let started = Instant::now();
    let mut ftl = shape.ftl(seed);
    let ops = snapshot_sequence(shape.ops, ftl.logical_pages(), seed);
    let mut model = Model::new(ftl.logical_pages());
    let mut oldest_image: Option<Model> = None;
    let mut write_hist = LatencyHistogram::new();
    let setup_s = started.elapsed().as_secs_f64();

    let mut failed = 0u64;
    let mut host_pages = 0u64;
    let mut merge_lbas_per_s = None;
    let mut slices = Vec::new();
    for slice in ops.chunks(SNAPSHOT_SLICE_OPS) {
        let timed = Stopwatch::start();
        for &op in slice {
            let outcome = match op {
                SnapOp::Write { lba, value } => {
                    host_pages += 1;
                    model.write(lba, value);
                    let before = ftl.device().busy_ns();
                    let outcome = ftl.write(lba, value);
                    write_hist.record(ftl.device().busy_ns() - before);
                    outcome
                }
                SnapOp::Read(lba) => {
                    host_pages += 1;
                    ftl.read(lba).map(|value| {
                        if value != model.expected(lba) {
                            failed += 1;
                        }
                    })
                }
                _ if !snapshots => Ok(()),
                SnapOp::Create(id) => {
                    if id == 1 {
                        oldest_image = Some(model.clone());
                    }
                    ftl.snapshot_create(id)
                }
                SnapOp::Merge(id) => {
                    let merge_started = Instant::now();
                    let merged = ftl.merge_begin(id).and_then(|()| {
                        while !ftl.merge_step(MERGE_STEP_LBAS)? {}
                        ftl.merge_commit()
                    });
                    merge_lbas_per_s =
                        Some(shape.ops.span as f64 / merge_started.elapsed().as_secs_f64());
                    // The merged device is the origin overlaid with the image.
                    model.overlay(oldest_image.as_ref().expect("snapshot 1 was created"));
                    merged
                }
                SnapOp::Delete(id) => ftl.snapshot_delete(id),
            };
            if outcome.is_err() {
                failed += 1;
            }
        }
        slices.push(timed.stop());
    }

    let mut notes = Vec::new();
    if failed > 0 {
        notes.push(format!(
            "{failed} ops failed or read back a value the model disagrees with"
        ));
    }
    if snapshots {
        let audit = ftl.snapshot_audit().expect("snapshots are enabled");
        if audit.refcount_sum != audit.mapping_count || audit.snapshots != 0 {
            failed += 1;
            notes.push(format!("refcount audit does not balance: {audit:?}"));
        }
    }

    let counters = ftl.counters();
    let device = ftl.device().counters();
    let wear = ftl.device().erase_stats();
    let busy_ns = ftl.device().busy_ns();
    Rep {
        setup_s,
        slices,
        host_pages,
        attempted: ops.len() as u64,
        failed,
        sim: sim_metrics(
            device.programs,
            counters.host_writes,
            &wear,
            write_hist.count(),
            &write_hist,
        ),
        counts: Counts {
            layer: counters,
            device,
            busy_s: busy_ns as f64 / 1e9,
            dev_write_p999_us: p999_us(&write_hist),
            host_pages_written: counters.host_writes,
            merge_lbas_per_s,
            ..Counts::default()
        },
        digest: format!("{counters:?} {device:?} {wear:?} {busy_ns} {write_hist:?}"),
        notes,
    }
}

// ---------------------------------------------------------------------------
// Dispatch by workload.
// ---------------------------------------------------------------------------

/// Runs one repetition of `workload`. `check_data` asks for the (untimed)
/// whole-device read-back on the `paper_*` workloads.
pub fn run_rep(workload: Workload, scale: Scale, seed: u64, check_data: bool) -> Rep {
    let array = ArrayShape::of(scale);
    match workload {
        Workload::PaperFtl | Workload::PaperNftl => {
            let kind = workload.paper_kind().expect("a paper workload");
            paper_rep(PaperShape::of(kind, scale), true, seed, check_data)
        }
        Workload::EnginePipelined => engine_rep(&array, SwlCoordination::PerChannel, seed),
        Workload::EngineLockstep => engine_rep(&array, SwlCoordination::Global, seed),
        Workload::ServiceUncached => service_rep(&array, false, seed),
        Workload::ServiceCached => service_rep(&array, true, seed),
        Workload::FtlSnapshots => snapshot_rep(&SnapshotShape::of(scale), seed, true),
    }
}

/// Floors `service_cached` must meet to count as measuring an evicting
/// cache: write-hit rate, evictions, and programs saved against the
/// cache-less run of the same client sequence.
pub const CACHE_MIN_WRITE_HIT_RATE: f64 = 0.15;
/// See [`CACHE_MIN_WRITE_HIT_RATE`].
pub const CACHE_MIN_PROGRAM_REDUCTION: f64 = 0.10;

/// Share of flash programs `cached` saved against `uncached`.
pub fn program_reduction(cached: &Counts, uncached: &StripedReport) -> f64 {
    1.0 - cached.device.programs as f64 / uncached.device.programs as f64
}

/// Checks a run's repetitions against each other and against the
/// workload's oracle. Returns what disagrees; empty means verified.
pub fn cross_check(workload: Workload, scale: Scale, seed: u64, reps: &[Rep]) -> Vec<String> {
    let mut problems = Vec::new();
    let first = &reps[0];
    // One load-generating thread: every repetition must report the same.
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if rep.digest != first.digest {
            problems.push(format!(
                "repetition {i} reported differently from repetition 0"
            ));
        }
    }
    let array = ArrayShape::of(scale);
    match workload {
        Workload::EnginePipelined | Workload::EngineLockstep => {
            let coordination = if workload == Workload::EnginePipelined {
                SwlCoordination::PerChannel
            } else {
                SwlCoordination::Global
            };
            if format!("{:?}", engine_oracle(&array, coordination, seed)) != first.digest {
                problems.push("Engine report differs from Simulator::run_striped".to_string());
            }
        }
        Workload::ServiceUncached
            if format!("{:?}", service_mirror(&array, seed)) != first.digest =>
        {
            problems.push("Service report differs from the direct-Engine mirror".to_string());
        }
        Workload::ServiceCached => {
            let reduction = program_reduction(&first.counts, &service_mirror(&array, seed));
            let cache = first.counts.cache.expect("cached run has cache counters");
            if cache.write_hit_rate() < CACHE_MIN_WRITE_HIT_RATE {
                problems.push(format!(
                    "write hit rate {:.3} below floor",
                    cache.write_hit_rate()
                ));
            }
            if cache.evicted == 0 {
                problems.push("the cache never evicted".to_string());
            }
            if reduction < CACHE_MIN_PROGRAM_REDUCTION {
                problems.push(format!("program reduction {reduction:.3} below floor"));
            }
        }
        _ => {}
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_verifies_on_the_smoke_shape() {
        for workload in Workload::ALL {
            let rep = run_rep(workload, Scale::Smoke, 7, true);
            assert_eq!(rep.failed, 0, "{workload}: {:?}", rep.notes);
            assert!(rep.attempted > 0 && rep.host_pages > 0, "{workload}");
            assert!(rep.sim.write_amplification > 0.0, "{workload}");
            let problems = cross_check(workload, Scale::Smoke, 7, &[rep.clone(), rep]);
            assert!(problems.is_empty(), "{workload}: {problems:?}");
        }
        assert_eq!(
            Workload::from_name("engine_lockstep"),
            Some(Workload::EngineLockstep)
        );
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn a_repetition_that_differs_from_its_oracle_is_reported() {
        let mut rep = run_rep(Workload::EnginePipelined, Scale::Smoke, 7, false);
        rep.digest.push('x');
        let problems = cross_check(Workload::EnginePipelined, Scale::Smoke, 7, &[rep]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("run_striped"));
    }
}
