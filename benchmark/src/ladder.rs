//! The traced run: the layer-tax ladder.
//!
//! One op sequence is replayed at successive layer boundaries, timing only
//! calls into each layer's public functions. A rung's *tax* is its ns per
//! page divided by the rung below; the difference is its self time. Three
//! ladders cover the stack: single chip (`trace` → `nand` → `ftl`/`nftl` →
//! `Layer` → `Simulator`), array (`StripedLayer` → scheduler → `Engine`)
//! and service (`Service` inline → served → cached), plus micro-rungs for
//! the pieces no op sequence isolates.
//!
//! The ladder does not depend on the workload; only the counts read off a
//! workload's own final report do (see `traced`). Each rung is tried a few
//! times and the fastest try is reported, for the same reason the untraced
//! run reports the fastest of its repetitions.

use std::convert::Infallible;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use flash_sim::engine::queue::ShardQueue;
use flash_sim::service::cache::{CacheConfig, WriteCache, WriteOutcome};
use flash_sim::service::{Service, ServiceClient};
use flash_sim::{
    EngineConfig, Layer, LayerKind, SimConfig, Simulator, StopCondition, StripedLayer,
    SwlCoordination, TranslationLayer,
};
use flash_telemetry::runtime::CacheSample;
use flash_telemetry::{EngineMetricsReport, LatencyHistogram, MetricsAggregator};
use flash_trace::{Op, TraceEvent};
use ftl::{FtlConfig, PageMappedFtl};
use hotid::{HotDataConfig, MultiHashIdentifier};
use nand::{DeviceCounters, NandDevice, PageAddr, SpareArea};
use nftl::{BlockMappedNftl, NftlConfig};
use swl_core::rng::SplitMix64;
use swl_core::{SwLeveler, SwlCleaner, SwlConfig};

use crate::alloc::allocations;
use crate::host::Host;
use crate::ops::{
    client_pages, client_sequence, event_pages, paper_trace, ClientOp, ClientSequence,
};
use crate::spans::Recorder;
use crate::stats::{percentile, Summary};
use crate::workloads::{
    build_engine, build_service, cache_config, engine_config, engine_inputs, evicting_capacity,
    paper_rep, run_rep, snapshot_rep, ArrayShape, PaperShape, Rep, Scale, SnapshotShape, Workload,
};

/// One per-layer metric as measured.
#[derive(Debug, Clone)]
pub struct LayerValue {
    /// Metric name, `<layer>.<metric>`.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// For a ratio: the metric it divides by, and that metric's value.
    pub base: Option<(&'static str, f64)>,
    /// Spread of the samples behind the value, where several were taken.
    pub samples: Option<Summary>,
}

/// Op counts of the ladder's sequences.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Post-fill events of the single-chip ladder on the FTL.
    chip_events: usize,
    /// The same on the NFTL.
    nftl_events: usize,
    /// Iterations of the `core`, `hotid` micro-rungs.
    micro_iters: u64,
    /// Round trips of the queue ping-pong.
    queue_round_trips: u64,
    /// Widened events of the array ladder.
    array_events: usize,
    /// Events of the lockstep rung (a prefix of the same trace).
    lockstep_events: usize,
    /// Client ops of the service ladder.
    service_ops: usize,
    /// Tries per rung; the fastest is reported.
    tries: u64,
}

impl Sizes {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                chip_events: 1_000_000,
                nftl_events: 500_000,
                micro_iters: 2_000_000,
                queue_round_trips: 20_000,
                array_events: 30_000,
                lockstep_events: 2_000,
                service_ops: 15_000,
                tries: 3,
            },
            Scale::Smoke => Self {
                chip_events: 50_000,
                nftl_events: 50_000,
                micro_iters: 100_000,
                queue_round_trips: 2_000,
                array_events: 3_000,
                lockstep_events: 300,
                service_ops: 2_000,
                tries: 1,
            },
        }
    }
}

/// What one timed try of a rung produced.
struct Try<T> {
    seconds: f64,
    allocs: u64,
    out: T,
}

/// The ladder's working state: where spans go, what has been measured.
pub struct Ladder<'a> {
    rec: &'a mut Recorder,
    host: &'a Host,
    seed: u64,
    scale: Scale,
    sizes: Sizes,
    values: Vec<LayerValue>,
}

/// Anything that takes page writes and reads: the boundary the single-chip
/// and striped rungs replay events at.
trait Pages {
    fn put(&mut self, lba: u64, token: u64);
    fn get(&mut self, lba: u64);
}

impl Pages for PageMappedFtl {
    fn put(&mut self, lba: u64, token: u64) {
        self.write(lba, token).expect("ftl write succeeds");
    }
    fn get(&mut self, lba: u64) {
        black_box(self.read(lba).expect("ftl read succeeds"));
    }
}

impl Pages for BlockMappedNftl {
    fn put(&mut self, lba: u64, token: u64) {
        self.write(lba, token).expect("nftl write succeeds");
    }
    fn get(&mut self, lba: u64) {
        black_box(self.read(lba).expect("nftl read succeeds"));
    }
}

impl Pages for Layer {
    fn put(&mut self, lba: u64, token: u64) {
        TranslationLayer::write(self, lba, token).expect("layer write succeeds");
    }
    fn get(&mut self, lba: u64) {
        black_box(TranslationLayer::read(self, lba).expect("layer read succeeds"));
    }
}

impl Pages for StripedLayer {
    fn put(&mut self, lba: u64, token: u64) {
        self.write(lba, token).expect("striped write succeeds");
    }
    fn get(&mut self, lba: u64) {
        black_box(self.read(lba).expect("striped read succeeds"));
    }
}

/// Replays `events` page by page, numbering writes as `Simulator` does.
fn replay(target: &mut impl Pages, events: &[TraceEvent], token: &mut u64) {
    for event in events {
        for lba in event.pages() {
            match event.op {
                Op::Write => {
                    *token += 1;
                    target.put(lba, *token);
                }
                Op::Read => target.get(lba),
            }
        }
    }
}

fn delta(after: DeviceCounters, before: DeviceCounters) -> DeviceCounters {
    DeviceCounters {
        reads: after.reads - before.reads,
        programs: after.programs - before.programs,
        erases: after.erases - before.erases,
    }
}

/// A Cleaner that erases whatever it is asked to and counts it.
struct CountingCleaner {
    erases: u64,
}

impl SwlCleaner for CountingCleaner {
    type Error = Infallible;

    fn erase_block_set(
        &mut self,
        first_block: u32,
        count: u32,
        erased: &mut Vec<u32>,
    ) -> Result<(), Infallible> {
        erased.extend(first_block..first_block + count);
        self.erases += u64::from(count);
        Ok(())
    }
}

/// One engine rung: which path, which events, how it is configured.
#[derive(Clone, Copy)]
struct EngineArm<'e> {
    name: &'e str,
    coordination: SwlCoordination,
    events: &'e [TraceEvent],
    config: EngineConfig,
    pinned: bool,
    /// Take one sample instead of the fastest of several tries.
    single_try: bool,
}

/// Makes one client call and returns its verb and which latency list
/// (write, read, flush) it belongs in.
fn client_call(client: &mut ServiceClient, op: &ClientOp) -> (&'static str, usize) {
    match op {
        ClientOp::Write { lba, data } => {
            client.write(*lba, data.clone()).expect("write succeeds");
            ("write", 0)
        }
        ClientOp::Read { lba, len } => {
            black_box(client.read(*lba, *len).expect("read succeeds"));
            ("read", 1)
        }
        ClientOp::Flush => {
            client.flush().expect("flush succeeds");
            ("flush", 2)
        }
    }
}

/// What one arm of the service ladder measured.
struct ServiceArm {
    seconds: f64,
    allocs: u64,
    pages: u64,
    ops: u64,
    programs: u64,
    cache: Option<CacheSample>,
    write_us: Vec<f64>,
    read_us: Vec<f64>,
    flush_us: Vec<f64>,
}

impl<'a> Ladder<'a> {
    /// A ladder recording into `rec`.
    pub fn new(rec: &'a mut Recorder, host: &'a Host, seed: u64, scale: Scale) -> Self {
        Self {
            rec,
            host,
            seed,
            scale,
            sizes: Sizes::of(scale),
            values: Vec::new(),
        }
    }

    /// Runs every ladder and returns the values in measurement order.
    pub fn run(mut self) -> Vec<LayerValue> {
        self.single_chip();
        self.micro_rungs();
        self.array();
        self.service();
        self.snapshots();
        self.values
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push(LayerValue {
            name,
            value,
            base: None,
            samples: None,
        });
    }

    fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|v| v.name == name)
            .unwrap_or_else(|| panic!("{name} not measured yet"))
            .value
    }

    /// Records `name = numerator / value(base)`.
    fn put_ratio(&mut self, name: &'static str, numerator: f64, base: &'static str) {
        let base_value = self.value(base);
        self.values.push(LayerValue {
            name,
            value: numerator / base_value,
            base: Some((base, base_value)),
            samples: None,
        });
    }

    /// Times `body` under a span named `name`; `prepare` runs untimed
    /// before each try. The fastest try wins.
    fn rung<S, T>(
        &mut self,
        name: &str,
        parent: usize,
        prepare: impl FnMut() -> S,
        body: impl FnMut(&mut Self, S, usize) -> T,
    ) -> Try<T> {
        self.rung_tries(self.sizes.tries, name, parent, prepare, body)
    }

    /// [`Ladder::rung`] with an explicit number of tries.
    fn rung_tries<S, T>(
        &mut self,
        tries: u64,
        name: &str,
        parent: usize,
        mut prepare: impl FnMut() -> S,
        mut body: impl FnMut(&mut Self, S, usize) -> T,
    ) -> Try<T> {
        let mut best: Option<Try<T>> = None;
        for _ in 0..tries {
            let state = prepare();
            let span = self.rec.open(name, Some(parent));
            let before = allocations();
            let out = body(self, state, span);
            let allocs = allocations() - before;
            self.rec.close(span);
            let seconds = self.rec.seconds(span);
            if best.as_ref().is_none_or(|b| seconds < b.seconds) {
                best = Some(Try {
                    seconds,
                    allocs,
                    out,
                });
            }
        }
        best.expect("at least one try")
    }

    // -----------------------------------------------------------------
    // Single chip: trace -> nand -> ftl / nftl -> Layer -> Simulator.
    // -----------------------------------------------------------------

    fn single_chip(&mut self) {
        let ladder = self.rec.open("single-chip ladder", None);
        let seed = self.seed;
        // The op sequence of `paper_ftl`, with endurance out of reach so no
        // rung stops at a worn block.
        let shape = PaperShape {
            endurance: 10_000,
            ..PaperShape::of(LayerKind::Ftl, self.scale)
        };
        let swl = SwlConfig::new(shape.threshold, 0).with_seed(seed);
        let logical_pages = shape.layer(false, seed).logical_pages();
        let n = self.sizes.chip_events;

        let generated = self.rung(
            "trace",
            ladder,
            || paper_trace(logical_pages, seed),
            |_, (_, resampled), _| resampled.take(n).collect::<Vec<TraceEvent>>(),
        );
        self.put("trace.ns_per_event", generated.seconds * 1e9 / n as f64);
        let events = generated.out;
        let fill: Vec<TraceEvent> = paper_trace(logical_pages, seed).0.collect();
        let pages = event_pages(&events) as f64;

        let prepare_ftl = || {
            let mut ftl = PageMappedFtl::with_swl(shape.device(), FtlConfig::default(), swl)
                .expect("ftl builds");
            let mut token = 0;
            replay(&mut ftl, &fill, &mut token);
            (ftl, token)
        };
        let replay_ftl = |_: &mut Self, (mut ftl, mut token): (PageMappedFtl, u64), _| {
            let before = ftl.device().counters();
            replay(&mut ftl, &events, &mut token);
            delta(ftl.device().counters(), before)
        };
        // The first chip-sized stack of the process pays for first-touch
        // page faults the later ones do not; one discarded try absorbs them.
        self.rung_tries(1, "ftl warm-up", ladder, prepare_ftl, replay_ftl);
        let ftl = self.rung("ftl", ladder, prepare_ftl, replay_ftl);
        self.put("ftl.ns_per_page", ftl.seconds * 1e9 / pages);
        self.put("ftl.allocs_per_kpage", ftl.allocs as f64 * 1e3 / pages);

        // The same number of programs, reads and erases on a bare chip.
        let device_ops = ftl.out;
        let nand = self.rung(
            "nand",
            ladder,
            || shape.device(),
            |_, device, _| bare_replay(device, device_ops),
        );
        self.put("nand.ns_per_op", nand.seconds * 1e9 / nand.out as f64);

        let layer = self.rung(
            "layer",
            ladder,
            || {
                let mut layer = shape.layer(true, seed);
                let mut token = 0;
                replay(&mut layer, &fill, &mut token);
                (layer, token)
            },
            |_, (mut layer, mut token), _| replay(&mut layer, &events, &mut token),
        );
        self.put("layer.ns_per_page", layer.seconds * 1e9 / pages);
        self.put_ratio("layer.tax", layer.seconds * 1e9 / pages, "ftl.ns_per_page");

        let simulator = self.rung(
            "simulator",
            ladder,
            || {
                let mut layer = shape.layer(true, seed);
                let mut sim = Simulator::new();
                sim.run(&mut layer, fill.iter().copied(), StopCondition::default())
                    .expect("fill succeeds");
                (layer, sim)
            },
            |_, (mut layer, mut sim), _| {
                sim.run(&mut layer, events.iter().copied(), StopCondition::default())
                    .expect("simulator run succeeds")
                    .events
            },
        );
        self.put("simulator.ns_per_page", simulator.seconds * 1e9 / pages);
        self.put_ratio(
            "simulator.tax",
            simulator.seconds * 1e9 / pages,
            "layer.ns_per_page",
        );

        let aggregated = self.rung(
            "simulator+aggregator",
            ladder,
            || {
                let device = shape.device().with_sink(MetricsAggregator::new());
                let mut layer = Layer::build(shape.kind, device, Some(swl), &SimConfig::default())
                    .expect("instrumented layer builds");
                let mut sim = Simulator::new();
                sim.run(&mut layer, fill.iter().copied(), StopCondition::default())
                    .expect("fill succeeds");
                (layer, sim)
            },
            |_, (mut layer, mut sim), _| {
                sim.run(&mut layer, events.iter().copied(), StopCondition::default())
                    .expect("instrumented run succeeds")
                    .events
            },
        );
        self.put_ratio(
            "telemetry.aggregator_tax",
            aggregated.seconds * 1e9 / pages,
            "simulator.ns_per_page",
        );

        // The NFTL rung replays `paper_nftl`'s own sequence on its chip.
        let shape = PaperShape {
            endurance: 10_000,
            ..PaperShape::of(LayerKind::Nftl, self.scale)
        };
        let swl = SwlConfig::new(shape.threshold, 0).with_seed(seed);
        let logical_pages = shape.layer(false, seed).logical_pages();
        let (fill, resampled) = paper_trace(logical_pages, seed);
        let fill: Vec<TraceEvent> = fill.collect();
        let events: Vec<TraceEvent> = resampled.take(self.sizes.nftl_events).collect();
        let pages = event_pages(&events) as f64;
        let nftl = self.rung(
            "nftl",
            ladder,
            || {
                let mut nftl =
                    BlockMappedNftl::with_swl(shape.device(), NftlConfig::default(), swl)
                        .expect("nftl builds");
                let mut token = 0;
                replay(&mut nftl, &fill, &mut token);
                (nftl, token)
            },
            |_, (mut nftl, mut token), _| replay(&mut nftl, &events, &mut token),
        );
        self.put("nftl.ns_per_page", nftl.seconds * 1e9 / pages);
        self.put("nftl.allocs_per_kpage", nftl.allocs as f64 * 1e3 / pages);
        self.rec.close(ladder);
    }

    // -----------------------------------------------------------------
    // Micro-rungs: pieces no op sequence isolates.
    // -----------------------------------------------------------------

    fn micro_rungs(&mut self) {
        let ladder = self.rec.open("micro-rungs", None);
        let seed = self.seed;
        let iters = self.sizes.micro_iters;
        let blocks = PaperShape::of(LayerKind::Ftl, self.scale).blocks;

        // SWL-BETUpdate + SWL-Procedure per erase, against a Cleaner that
        // costs nothing.
        let core = self.rung(
            "core",
            ladder,
            || {
                let leveler = SwLeveler::new(blocks, SwlConfig::new(2, 0).with_seed(seed))
                    .expect("leveler builds");
                (leveler, SplitMix64::new(seed))
            },
            |_, (mut leveler, mut rng), _| {
                let mut cleaner = CountingCleaner { erases: 0 };
                for _ in 0..iters {
                    // A hot eighth of the blocks takes every erase, so the
                    // unevenness level keeps crossing the threshold.
                    leveler.note_erase(rng.next_below(u64::from(blocks / 8)) as u32);
                    let Ok(outcome) = leveler.level(&mut cleaner);
                    black_box(outcome);
                }
                (cleaner.erases, leveler.bet().ram_bytes())
            },
        );
        self.put("core.ns_per_erase", core.seconds * 1e9 / iters as f64);
        self.put("core.bet_bytes", core.out.1 as f64);

        // The write-page sequence of the service workloads feeds both the
        // hot-data identifier and the cache.
        let array = ArrayShape::of(self.scale);
        let sequence = client_sequence(array.logical_pages(), array.service_ops, seed);
        let writes: Vec<(u64, u64)> = sequence
            .ops
            .iter()
            .flat_map(|op| match op {
                ClientOp::Write { lba, data } => data
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (lba + i as u64, v))
                    .collect::<Vec<_>>(),
                _ => Vec::new(),
            })
            .collect();
        let hotid = self.rung(
            "hotid",
            ladder,
            || MultiHashIdentifier::new(HotDataConfig::default()).expect("identifier builds"),
            |_, mut identifier, _| {
                let mut hot = 0u64;
                for _ in 0..iters.div_ceil(writes.len() as u64) {
                    for &(lba, _) in &writes {
                        hot += u64::from(identifier.record_write(lba));
                    }
                }
                hot
            },
        );
        let records = iters.div_ceil(writes.len() as u64) * writes.len() as u64;
        self.put("hotid.ns_per_record", hotid.seconds * 1e9 / records as f64);

        let capacity = evicting_capacity(sequence.hot_set);
        let cache = self.rung(
            "cache",
            ladder,
            || WriteCache::new(cache_config(capacity)).expect("cache builds"),
            |_, mut cache, _| {
                let mut flushed = 0usize;
                for _ in 0..iters.div_ceil(writes.len() as u64) {
                    for &(lba, value) in &writes {
                        if let WriteOutcome::Admitted { evicted } = cache.write(lba, value) {
                            flushed += evicted.len();
                        }
                        if cache.need_sync() {
                            flushed += cache.take_sync_batch().len();
                        }
                    }
                }
                flushed
            },
        );
        self.put("cache.ns_per_write", cache.seconds * 1e9 / records as f64);

        // Two threads on the pinned CPU hand one item back and forth: the
        // cost of one `ShardQueue` crossing with its wake-up.
        let round_trips = self.sizes.queue_round_trips;
        let queue = self.rung(
            "queue",
            ladder,
            || {
                let ping: Arc<ShardQueue<u64>> = Arc::new(ShardQueue::new(1));
                let pong: Arc<ShardQueue<u64>> = Arc::new(ShardQueue::new(1));
                let echo = {
                    let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
                    std::thread::spawn(move || {
                        while let Some(item) = ping.pop() {
                            if pong.push(item).is_err() {
                                break;
                            }
                        }
                    })
                };
                (ping, pong, echo)
            },
            |_, (ping, pong, echo), _| {
                for i in 0..round_trips {
                    ping.push(i).expect("echo thread is alive");
                    black_box(pong.pop().expect("echo thread answers"));
                }
                ping.close();
                echo.join().expect("echo thread exits cleanly");
            },
        );
        self.put(
            "queue.ns_per_crossing",
            queue.seconds * 1e9 / (2 * round_trips) as f64,
        );
        self.rec.close(ladder);
    }

    // -----------------------------------------------------------------
    // Array: StripedLayer -> scheduler -> Engine.
    // -----------------------------------------------------------------

    /// One engine arm: fill untimed, then `Engine::run` over the arm's
    /// events. Unpinned arms restore the process's full CPU mask before the
    /// engine spawns its threads, and pin again afterwards.
    fn engine_arm(
        &mut self,
        parent: usize,
        shape: &ArrayShape,
        fill: &[TraceEvent],
        arm: EngineArm<'_>,
    ) -> Try<Option<EngineMetricsReport>> {
        let seed = self.seed;
        let host = self.host;
        let tries = if arm.single_try { 1 } else { self.sizes.tries };
        let measured = self.rung_tries(
            tries,
            arm.name,
            parent,
            || {
                if !arm.pinned {
                    host.unpin();
                }
                let mut engine = build_engine(shape, arm.coordination, seed, arm.config);
                engine
                    .run(fill.iter().copied(), StopCondition::default())
                    .expect("engine fill succeeds");
                engine
            },
            |_, mut engine, _| {
                engine
                    .run(arm.events.iter().copied(), StopCondition::default())
                    .expect("engine run succeeds");
                engine.finish().expect("engine finishes").metrics
            },
        );
        if !arm.pinned {
            host.repin();
        }
        measured
    }

    fn array(&mut self) {
        let ladder = self.rec.open("array ladder", None);
        let seed = self.seed;
        let shape = ArrayShape::of(self.scale);
        let (fill, events) = engine_inputs(&shape, self.sizes.array_events, seed);
        let pages = event_pages(&events) as f64;
        let build_striped = |coordination| {
            StripedLayer::build(
                LayerKind::Ftl,
                shape.geometry(),
                shape.spec(),
                Some(shape.swl(seed)),
                coordination,
                &SimConfig::default(),
            )
            .expect("striped layer builds")
        };

        let striped = self.rung(
            "striped",
            ladder,
            || {
                let mut striped = build_striped(SwlCoordination::PerChannel);
                let mut token = 0;
                replay(&mut striped, &fill, &mut token);
                (striped, token)
            },
            |_, (mut striped, mut token), _| replay(&mut striped, &events, &mut token),
        );
        self.put("striped.ns_per_page", striped.seconds * 1e9 / pages);
        self.put_ratio(
            "striped.tax",
            striped.seconds * 1e9 / pages,
            "ftl.ns_per_page",
        );

        let run_striped = |coordination, events: &[TraceEvent]| {
            let fill = fill.clone();
            let events = events.to_vec();
            move || {
                let mut striped = build_striped(coordination);
                let mut sim = Simulator::new();
                sim.run_striped(&mut striped, fill.iter().copied(), StopCondition::default())
                    .expect("striped fill succeeds");
                (striped, sim, events.clone())
            }
        };
        let sched = self.rung(
            "sched",
            ladder,
            run_striped(SwlCoordination::PerChannel, &events),
            |_, (mut striped, mut sim, events), _| {
                sim.run_striped(&mut striped, events, StopCondition::default())
                    .expect("run_striped succeeds")
                    .overlap_factor()
            },
        );
        self.put("sched.ns_per_page", sched.seconds * 1e9 / pages);
        self.put_ratio(
            "sched.tax",
            sched.seconds * 1e9 / pages,
            "striped.ns_per_page",
        );
        self.put("sched.overlap_factor", sched.out.unwrap_or(0.0));

        let pipelined = EngineArm {
            name: "engine",
            coordination: SwlCoordination::PerChannel,
            events: &events,
            config: engine_config(),
            pinned: true,
            single_try: false,
        };
        let engine = self.engine_arm(ladder, &shape, &fill, pipelined);
        let engine_ns = engine.seconds * 1e9 / pages;
        self.put("engine.ns_per_page", engine_ns);
        self.put_ratio("engine.tax", engine_ns, "sched.ns_per_page");
        self.put(
            "engine.allocs_per_op",
            engine.allocs as f64 / events.len() as f64,
        );

        // One op in flight costs a queue round trip per op: a prefix is
        // enough to see it.
        let qd1_events = &events[..events.len() / 3];
        let qd1 = self.engine_arm(
            ladder,
            &shape,
            &fill,
            EngineArm {
                name: "engine qd1",
                events: qd1_events,
                config: engine_config().with_queue_depth(1),
                ..pipelined
            },
        );
        self.put(
            "engine.qd1_ns_per_page",
            qd1.seconds * 1e9 / event_pages(qd1_events) as f64,
        );

        let unpinned = self.engine_arm(
            ladder,
            &shape,
            &fill,
            EngineArm {
                name: "engine unpinned",
                pinned: false,
                ..pipelined
            },
        );
        self.put_ratio(
            "engine.unpinned_slowdown",
            unpinned.seconds * 1e9 / pages,
            "engine.ns_per_page",
        );

        // The parallel arm: two workers, every allowed CPU. Informational
        // until a quiet multi-core host exists, so its spread is kept.
        let two_threads: Vec<f64> = (0..3)
            .map(|_| {
                let arm = EngineArm {
                    name: "engine t2 unpinned",
                    config: engine_config().with_threads(2),
                    pinned: false,
                    single_try: true,
                    ..pipelined
                };
                self.engine_arm(ladder, &shape, &fill, arm).seconds * 1e9 / pages
            })
            .collect();
        let summary = Summary::median_of(&two_threads);
        self.values.push(LayerValue {
            name: "engine.t2_unpinned_ns_per_page",
            value: summary.value,
            base: None,
            samples: Some(summary),
        });

        let metered = self.engine_arm(
            ladder,
            &shape,
            &fill,
            EngineArm {
                name: "engine metered",
                config: engine_config().with_metrics(true),
                ..pipelined
            },
        );
        let report = metered.out.expect("metrics were enabled");
        let snapshot = &report.snapshot;
        self.put("engine.busy_frac", snapshot.busy_frac());
        self.put("engine.starved_frac", snapshot.starved_frac());
        self.put("engine.backpressure_frac", snapshot.backpressure_frac());
        self.put(
            "engine.host_backpressure_frac",
            snapshot.host_backpressure_ns as f64 / snapshot.elapsed_ns.max(1) as f64,
        );
        self.put(
            "engine.cmd_queue_high_water",
            snapshot
                .command_queues
                .iter()
                .map(|q| q.high_water)
                .max()
                .unwrap_or(0) as f64,
        );
        let mut op_wall: LatencyHistogram = report.op_write_wall.clone();
        op_wall.merge(&report.op_read_wall);
        self.put("engine.op_wall_p50_us", op_wall.quantile(0.50) as f64 / 1e3);
        self.put("engine.op_wall_p99_us", op_wall.quantile(0.99) as f64 / 1e3);
        self.put_ratio(
            "engine.metrics_tax",
            metered.seconds * 1e9 / pages,
            "engine.ns_per_page",
        );

        // The other engine path: Global SWL coordination, one
        // dispatch-await per page, against its own oracle.
        let prefix = &events[..self.sizes.lockstep_events.min(events.len())];
        let prefix_pages = event_pages(prefix) as f64;
        let global = SwlCoordination::Global;
        let oracle = self.rung(
            "sched global",
            ladder,
            run_striped(global, prefix),
            |_, (mut striped, mut sim, events), _| {
                sim.run_striped(&mut striped, events, StopCondition::default())
                    .expect("global run_striped succeeds")
                    .events
            },
        );
        let lockstep = self.engine_arm(
            ladder,
            &shape,
            &fill,
            EngineArm {
                name: "engine lockstep",
                coordination: global,
                events: prefix,
                ..pipelined
            },
        );
        let lockstep_ns = lockstep.seconds * 1e9 / prefix_pages;
        self.put("engine.lockstep_ns_per_page", lockstep_ns);
        let oracle_ns = oracle.seconds * 1e9 / prefix_pages;
        self.values.push(LayerValue {
            name: "engine.lockstep_tax",
            value: lockstep_ns / oracle_ns,
            base: Some(("sched.global_ns_per_page", oracle_ns)),
            samples: None,
        });
        self.rec.close(ladder);
    }

    // -----------------------------------------------------------------
    // Service: inline -> served -> cached.
    // -----------------------------------------------------------------

    /// `Service::write/read/flush` called inline, no `serve`.
    fn direct_arm(
        &mut self,
        parent: usize,
        shape: &ArrayShape,
        sequence: &ClientSequence,
    ) -> ServiceArm {
        let seed = self.seed;
        let (written, read) = client_pages(&sequence.ops);
        let ops = sequence.ops.len() as u64;
        let inline = |service: &mut Service, op: &ClientOp| match op {
            ClientOp::Write { lba, data } => service.write(*lba, data).expect("write succeeds"),
            ClientOp::Read { lba, len } => {
                black_box(service.read(*lba, *len).expect("read succeeds"));
            }
            ClientOp::Flush => service.flush().expect("flush succeeds"),
        };
        let arm = self.rung(
            "service direct",
            parent,
            || {
                let mut service = build_service(shape, seed, None, engine_config());
                sequence
                    .prefill
                    .iter()
                    .for_each(|op| inline(&mut service, op));
                service
            },
            |_, mut service, _| {
                sequence.ops.iter().for_each(|op| inline(&mut service, op));
                service
                    .finish()
                    .expect("service finishes")
                    .run
                    .report
                    .device
                    .programs
            },
        );
        ServiceArm {
            seconds: arm.seconds,
            allocs: arm.allocs,
            pages: written + read,
            ops,
            programs: arm.out,
            cache: None,
            write_us: Vec::new(),
            read_us: Vec::new(),
            flush_us: Vec::new(),
        }
    }

    /// The same ops through `Service::serve` and `clients` client threads
    /// (the calling thread is client 0), each call timed by the benchmark
    /// and recorded as a span under the rung.
    fn served_arm(
        &mut self,
        name: &str,
        parent: usize,
        shape: &ArrayShape,
        sequences: &[ClientSequence],
        cache: Option<CacheConfig>,
        pinned: bool,
    ) -> ServiceArm {
        let seed = self.seed;
        let host = self.host;
        let mut pages = 0;
        let mut ops = 0;
        for sequence in sequences {
            let (written, read) = client_pages(&sequence.ops);
            pages += written + read;
            ops += sequence.ops.len() as u64;
        }
        // The unpinned two-client arm is a throughput sample, not a rung.
        let tries = if pinned { self.sizes.tries } else { 1 };
        let arm = self.rung_tries(
            tries,
            name,
            parent,
            || {
                if !pinned {
                    host.unpin();
                }
                let service = build_service(shape, seed, cache, engine_config());
                let (server, mut clients) = service.serve(sequences.len());
                for (client, sequence) in clients.iter_mut().zip(sequences) {
                    for op in &sequence.prefill {
                        client_call(client, op);
                    }
                }
                (server, clients)
            },
            |this, (server, mut clients), span| {
                let mut latencies = [Vec::new(), Vec::new(), Vec::new()];
                std::thread::scope(|scope| {
                    // Clients past the first run on their own threads,
                    // untraced: spans come from the calling thread only.
                    let others: Vec<_> = clients
                        .drain(1..)
                        .zip(&sequences[1..])
                        .map(|(mut client, sequence)| {
                            scope.spawn(move || {
                                for op in &sequence.ops {
                                    client_call(&mut client, op);
                                }
                            })
                        })
                        .collect();
                    for (i, op) in sequences[0].ops.iter().enumerate() {
                        let start = Instant::now();
                        let (verb, list) = client_call(&mut clients[0], op);
                        let ns = this.rec.call(verb, span, i as u64, start);
                        latencies[list].push(ns as f64 / 1e3);
                    }
                    for other in others {
                        other.join().expect("client thread exits cleanly");
                    }
                });
                drop(clients);
                let run = server.join().finish().expect("service finishes");
                (run.run.report.device.programs, run.cache, latencies)
            },
        );
        if !pinned {
            host.repin();
        }
        let (programs, cache, [write_us, read_us, flush_us]) = arm.out;
        ServiceArm {
            seconds: arm.seconds,
            allocs: arm.allocs,
            pages,
            ops,
            programs,
            cache,
            write_us,
            read_us,
            flush_us,
        }
    }

    fn service(&mut self) {
        let ladder = self.rec.open("service ladder", None);
        let seed = self.seed;
        let shape = ArrayShape::of(self.scale);
        let sequence = client_sequence(shape.logical_pages(), self.sizes.service_ops, seed);
        let single = std::slice::from_ref(&sequence);

        let direct = self.direct_arm(ladder, &shape, &sequence);
        let direct_ns = direct.seconds * 1e9 / direct.pages as f64;
        self.put("service.direct_ns_per_page", direct_ns);
        self.put_ratio("service.direct_tax", direct_ns, "engine.ns_per_page");

        let served = self.served_arm("service served", ladder, &shape, single, None, true);
        let served_ns = served.seconds * 1e9 / served.pages as f64;
        self.put("service.served_ns_per_page", served_ns);
        self.put_ratio(
            "service.served_tax",
            served_ns,
            "service.direct_ns_per_page",
        );
        self.put(
            "service.allocs_per_op",
            served.allocs as f64 / served.ops as f64,
        );
        let write_p50 = percentile(&served.write_us, 50.0);
        let read_p50 = percentile(&served.read_us, 50.0);
        self.put("service.write_ack_p50_us", write_p50);
        self.put(
            "service.write_ack_p99_us",
            percentile(&served.write_us, 99.0),
        );
        self.put("service.read_p50_us", read_p50);
        self.put("service.read_p99_us", percentile(&served.read_us, 99.0));
        // What the all-lane flush barrier adds to a read over a write ack.
        self.put("service.read_barrier_us", read_p50 - write_p50);
        self.put("service.flush_p50_us", percentile(&served.flush_us, 50.0));

        // The same rung with per-call spans off: what tracing costs.
        self.rec.per_call = false;
        let untraced = self.served_arm(
            "service served untraced",
            ladder,
            &shape,
            single,
            None,
            true,
        );
        self.rec.per_call = true;
        self.values.push(LayerValue {
            name: "bench.trace_overhead_pct",
            value: (served.seconds / untraced.seconds - 1.0) * 100.0,
            base: Some(("service.served_untraced_s", untraced.seconds)),
            samples: None,
        });

        // Two clients on disjoint halves of the space, every allowed CPU.
        let half = shape.logical_pages() / 2;
        let pair: Vec<ClientSequence> = (0..2u64)
            .map(|c| {
                let mut s = client_sequence(half, self.sizes.service_ops / 2, seed + c);
                let shift = |op: &mut ClientOp| match op {
                    ClientOp::Write { lba, .. } | ClientOp::Read { lba, .. } => *lba += c * half,
                    ClientOp::Flush => {}
                };
                s.prefill.iter_mut().for_each(shift);
                s.ops.iter_mut().for_each(shift);
                s
            })
            .collect();
        let two = self.served_arm("service c2 unpinned", ladder, &shape, &pair, None, false);
        self.put(
            "service.c2_unpinned_ops_per_s",
            two.ops as f64 / two.seconds,
        );

        let evicting = cache_config(evicting_capacity(sequence.hot_set));
        let cached = self.served_arm(
            "service cached",
            ladder,
            &shape,
            single,
            Some(evicting),
            true,
        );
        self.put(
            "service.cached_write_ack_p50_us",
            percentile(&cached.write_us, 50.0),
        );
        self.put(
            "service.cached_write_ack_p99_us",
            percentile(&cached.write_us, 99.0),
        );
        self.put(
            "service.cached_read_p50_us",
            percentile(&cached.read_us, 50.0),
        );
        self.put(
            "service.cached_read_p99_us",
            percentile(&cached.read_us, 99.0),
        );
        let sample = cached.cache.expect("cached arm has cache counters");
        let (_, read_pages) = client_pages(&sequence.ops);
        self.put("cache.write_hit_rate", sample.write_hit_rate());
        self.put(
            "cache.read_hit_rate",
            sample.read_hits as f64 / read_pages.max(1) as f64,
        );
        self.put("cache.admitted", sample.admitted as f64);
        self.put("cache.write_through", sample.write_through as f64);
        self.put("cache.evicted", sample.evicted as f64);
        self.put("cache.flushed_pages", sample.flushed_pages as f64);
        self.put("cache.flush_batches", sample.flush_batches as f64);
        self.values.push(LayerValue {
            name: "cache.program_reduction_frac",
            value: 1.0 - cached.programs as f64 / served.programs as f64,
            base: Some(("service.uncached_programs", served.programs as f64)),
            samples: None,
        });

        // Second arm: the whole hot set fits.
        let fits = cache_config(sequence.hot_set as usize);
        let fitting = self.served_arm(
            "service cached fits",
            ladder,
            &shape,
            single,
            Some(fits),
            true,
        );
        let sample = fitting.cache.expect("cached arm has cache counters");
        self.put("cache.fits_write_hit_rate", sample.write_hit_rate());
        self.rec.close(ladder);
    }

    // -----------------------------------------------------------------
    // Snapshots: the same writes with and without pinning snapshots.
    // -----------------------------------------------------------------

    fn snapshots(&mut self) {
        let ladder = self.rec.open("snapshot arms", None);
        let seed = self.seed;
        let shape = SnapshotShape::of(self.scale);
        let pinned = self.rung(
            "ftl snapshots",
            ladder,
            || (),
            |_, (), _| snapshot_rep(&shape, seed, true),
        );
        let plain = self.rung(
            "ftl no snapshots",
            ladder,
            || (),
            |_, (), _| snapshot_rep(&shape, seed, false),
        );
        let base = plain.out.sim.write_amplification;
        self.values.push(LayerValue {
            name: "ftl.snapshot_waf_ratio",
            value: pinned.out.sim.write_amplification / base,
            base: Some(("ftl.no_snapshot_waf", base)),
            samples: None,
        });
        self.put(
            "ftl.merge_lbas_per_s",
            pinned.out.counts.merge_lbas_per_s.unwrap_or(0.0),
        );
        self.rec.close(ladder);
    }
}

/// Replays `ops.programs` programs, `ops.reads` reads and `ops.erases`
/// erases on a bare chip: blocks are programmed in order and erased as they
/// fill while erases remain; each program is followed by a read of the same
/// page while reads remain. Returns the number of device ops done.
fn bare_replay(mut device: NandDevice, ops: DeviceCounters) -> u64 {
    let geometry = device.geometry();
    let (blocks, pages) = (geometry.blocks(), geometry.pages_per_block());
    let (mut programs, mut reads, mut erases) = (ops.programs, ops.reads, ops.erases);
    let mut last = PageAddr::new(0, 0);
    let mut block = 0;
    'fill: loop {
        for page in 0..pages {
            if programs == 0 {
                break 'fill;
            }
            last = PageAddr::new(block, page);
            device
                .program(last, programs, SpareArea::valid(0))
                .expect("bare program succeeds");
            programs -= 1;
            if reads > 0 {
                black_box(device.read(last).expect("bare read succeeds"));
                reads -= 1;
            }
        }
        if erases > 0 {
            device.erase(block).expect("bare erase succeeds");
            erases -= 1;
        } else {
            // Every program needed a free page, so the FTL's own counts
            // never run past the chip once its erases are spent.
            block += 1;
            assert!(
                block < blocks || programs == 0,
                "bare chip ran out of pages"
            );
        }
    }
    if ops.programs > 0 {
        for _ in 0..reads {
            black_box(device.read(last).expect("bare read succeeds"));
        }
    }
    for _ in 0..erases {
        device.erase(0).expect("bare erase succeeds");
    }
    ops.programs + ops.reads + ops.erases
}

/// Per-layer counts read off `rep`, the workload's own final report.
fn report_counts(rep: &Rep) -> Vec<LayerValue> {
    let layer = rep.counts.layer;
    let device = rep.counts.device;
    [
        ("ftl.gc_erases", layer.gc_erases as f64),
        ("ftl.swl_erases", layer.swl_erases as f64),
        ("ftl.gc_copies", layer.gc_live_copies as f64),
        ("ftl.swl_copies", layer.swl_live_copies as f64),
        (
            "ftl.copies_per_gc_erase",
            layer.avg_live_copies_per_gc_erase(),
        ),
        ("nftl.gc_merges", layer.gc_merges as f64),
        ("nftl.swl_merges", layer.swl_merges as f64),
        ("nftl.full_merges", layer.full_merges as f64),
        ("nand.programs", device.programs as f64),
        ("nand.reads", device.reads as f64),
        ("nand.erases", device.erases as f64),
        ("nand.busy_s", rep.counts.busy_s),
        ("nand.dev_write_p999_us", rep.counts.dev_write_p999_us),
    ]
    .into_iter()
    .map(|(name, value)| LayerValue {
        name,
        value,
        base: None,
        samples: None,
    })
    .collect()
}

/// The counts of `workload`'s own run and, on the `paper_*` workloads, the
/// paper's three figures against a run of the same trace with no leveler.
/// On the other workloads no block wears out and the three read 0.
pub fn workload_counts(workload: Workload, scale: Scale, seed: u64) -> (Rep, Vec<LayerValue>) {
    let rep = run_rep(workload, scale, seed, false);
    let mut values = report_counts(&rep);
    let mut paper = [
        ("swl.first_failure_kpages", 0.0, None),
        ("swl.lifetime_gain", 0.0, None),
        ("swl.erase_overhead_pct", 0.0, None),
    ];
    if let Some(kind) = workload.paper_kind() {
        let baseline = paper_rep(PaperShape::of(kind, scale), false, seed, false);
        let kpages = |r: &Rep| r.counts.host_pages_written as f64 / 1e3;
        let erases_per_write = |r: &Rep| {
            r.counts.layer.total_erases() as f64 / r.counts.layer.host_writes.max(1) as f64
        };
        paper[0].1 = kpages(&rep);
        paper[1].1 = kpages(&rep) / kpages(&baseline);
        paper[1].2 = Some(("swl.baseline_first_failure_kpages", kpages(&baseline)));
        paper[2].1 = (erases_per_write(&rep) / erases_per_write(&baseline) - 1.0) * 100.0;
        paper[2].2 = Some(("swl.baseline_erases_per_write", erases_per_write(&baseline)));
    }
    values.extend(paper.into_iter().map(|(name, value, base)| LayerValue {
        name,
        value,
        base,
        samples: None,
    }));
    (rep, values)
}
