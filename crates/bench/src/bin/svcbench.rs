//! `svcbench` — the block-device service sweep: N concurrent client
//! threads drive a [`flash_sim::Service`] (4-channel FTL + per-channel
//! SWL) at every combination of client count {1, 2, 4}, engine queue
//! depth {1, 8, 64}, and write cache {off, on}, measuring wall-clock
//! throughput, client-observed latency quantiles (p50/p99/p999), write
//! amplification, and SWL work. Emits `BENCH_service.json` next to a
//! human-readable table.
//!
//! Two guarantees are asserted, not just measured:
//!
//! - **Oracle**: every single-client cache-off arm is replayed through
//!   [`flash_sim::Engine`] directly with the identical op sequence and
//!   logical-clock stamps; the reports must be bit-identical (the service
//!   adds no semantics of its own when the cache is off).
//! - **Offered load**: every client executes the same deterministic op
//!   sequence whether the cache is on or off, so cache-on vs cache-off
//!   deltas (write amplification, flash programs, SWL erases) compare like
//!   with like. Each cache-on point carries those deltas against its
//!   matching cache-off point.
//!
//! Client latencies are wall-clock call-to-ack times of verbs run under the
//! service lock — they measure the served front-end (lock wait + cache +
//! engine pipeline), not the virtual-time device model, and scale with
//! host CPU count like every wall-clock figure in this suite.
//!
//! A pair of **first-failure arms** (always at the quick geometry, with
//! the endurance dropped to [`FAILURE_ENDURANCE`] cycles so blocks
//! actually die) drives the same workload until the first block wears
//! out, cache off vs on — the cache's endurance contribution measured the
//! way the paper's Figure 5 measures SWL's, as time-to-first-failure.
//!
//! The sweep's cache is sized *below* the hot working set with its sync
//! watermark parked at capacity, so every cache-on arm capacity-evicts
//! under the paper-shaped workload itself — `evicted > 0` is asserted per
//! arm. A separate **capacity-eviction arm** isolates the same code path
//! at an 8-page cache with multi-page spans of fresh LBAs, so admissions
//! hit a full cache mid-write and must evict (the watermark drain only
//! runs between write calls) — also asserted, and recorded in
//! `BENCH_service.json`.
//!
//! With `--out FILE` the final cache-on run is re-executed with a live
//! sampler that exports `engtop_meta` schema-v3 JSONL through the
//! [`flash_bench::export`] writers — `sample` / `worker` / `lane` / `queue`
//! lines plus the v2 `cache` and v3 `health` lines per tick (the health
//! plane rides the served path: an observer
//! [`flash_telemetry::HealthMonitor`] folds the engine's shared wear-table
//! samples) — so `swl check FILE` can gate the export (CI checks a
//! golden fixture produced this way).
//!
//! Usage: `svcbench [quick|scaled|paper] [--ops N] [--out FILE]`

use std::time::Instant;

use flash_bench::array::{arg_number, arg_value, geometry, spec, CHANNELS};
use flash_bench::export::{self, Stamp};
use flash_bench::{print_table, scale_from_args};
use flash_sim::experiments::ExperimentScale;
use flash_sim::service::cache::CacheConfig;
use flash_sim::service::{Service, ServiceConfig, ServiceRun};
use flash_sim::{
    Engine, EngineConfig, LayerKind, SimConfig, StripedReport, SwlCoordination,
};
use flash_telemetry::json;
use flash_telemetry::runtime::CacheSample;
use flash_telemetry::{HealthMonitor, LatencyHistogram};
use flash_trace::TraceEvent;
use hotid::HotDataConfig;
use nand::CellKind;
use swl_core::rng::SplitMix64;
use swl_core::SwlConfig;

const SWL_THRESHOLD: u64 = 100;
const CLIENTS: [usize; 3] = [1, 2, 4];
const DEPTHS: [u32; 3] = [1, 8, 64];
/// Write-cache capacity (pages) for every cache-on arm: deliberately
/// smaller than the sweep's hot working set (a single client's hot eighth
/// is ~100 LBAs at the quick scale), with the sync watermark parked at
/// capacity, so the steady state overflows and must capacity-evict — the
/// regime a bounded cache actually lives in. The old 256-page config
/// drained at a 3/4 watermark between calls and could never reach
/// capacity; `evicted > 0` is now asserted for every cache-on sweep arm,
/// not just the dedicated eviction arm.
const CACHE_PAGES: usize = 32;
/// Logical-clock tick per accepted op (matches the service default).
const INTERVAL_NS: u64 = 1_000;
/// Client flush cadence: one durability barrier per this many ops.
const FLUSH_EVERY: usize = 64;

fn swl(scale: &ExperimentScale) -> SwlConfig {
    scale.swl_config(SWL_THRESHOLD, 0)
}

/// Endurance of the first-failure arms: low enough that the quick-scale
/// chip wears a block out in seconds of wall time.
const FAILURE_ENDURANCE: u32 = 16;
/// Engine queue depth of the first-failure arms.
const FAILURE_DEPTH: u32 = 8;

/// Admission filter for the cache-on arms: hot from the second write.
fn hot() -> HotDataConfig {
    HotDataConfig {
        hot_threshold: 2,
        ..HotDataConfig::default()
    }
}

fn cache_config() -> CacheConfig {
    // Watermark at capacity: the between-call drain only runs once the
    // cache is full, so mid-span admissions against a full cache take the
    // capacity-eviction path (see `eviction_run` for the focused arm).
    CacheConfig::sized(CACHE_PAGES)
        .with_hot(hot())
        .with_watermark(CACHE_PAGES)
}

/// One deterministic client op. Flushes are part of the sequence so the
/// engine-direct oracle can mirror the exact event stream.
#[derive(Debug, Clone)]
enum ClientOp {
    Write { lba: u64, data: Vec<u64> },
    Read { lba: u64, len: usize },
    Flush,
}

/// The per-client sequence, shaped like the paper's workload: a sequential
/// prefill freezes the whole slice once (cold data that then never moves on
/// its own — the reason static wear leveling exists), then hot-rewrite-
/// biased writes (70 %, 1–4 pages, 90 % inside the hot eighth) and reads,
/// with a flush every [`FLUSH_EVERY`] ops. Values encode (client,
/// sequence) so every write is unique.
fn client_ops(client: usize, base: u64, span: u64, ops: usize, seed: u64) -> Vec<ClientOp> {
    let mut rng = SplitMix64::new(seed ^ (0x5EC0 + client as u64));
    let hot_set = (span / 8).max(4).min(span);
    let mut next_value = 0u64;
    let mut value = |client: usize| {
        next_value += 1;
        ((client as u64 + 1) << 40) + next_value
    };
    let mut sequence: Vec<ClientOp> = Vec::new();
    let mut lba = base;
    while lba < base + span {
        let len = 4.min(base + span - lba) as usize;
        sequence.push(ClientOp::Write {
            lba,
            data: (0..len).map(|_| value(client)).collect(),
        });
        lba += len as u64;
    }
    sequence.push(ClientOp::Flush);
    sequence.extend((0..ops).map(|i| {
        if (i + 1) % FLUSH_EVERY == 0 {
            return ClientOp::Flush;
        }
        let len = rng.range_usize(1..5).min(span as usize);
        let lba = base
            + if rng.chance(0.9) {
                rng.next_below(hot_set)
            } else {
                rng.next_below(span)
            }
            .min(span - len as u64);
        if rng.chance(0.7) {
            ClientOp::Write {
                lba,
                data: (0..len).map(|_| value(client)).collect(),
            }
        } else {
            ClientOp::Read { lba, len }
        }
    }));
    sequence
}

/// Pages written by a sequence (the host side of write amplification).
fn host_pages(ops: &[ClientOp]) -> u64 {
    ops.iter()
        .map(|op| match op {
            ClientOp::Write { data, .. } => data.len() as u64,
            _ => 0,
        })
        .sum()
}

struct Point {
    clients: usize,
    queue_depth: u32,
    cache_on: bool,
    wall_s: f64,
    total_ops: u64,
    host_pages: u64,
    report: StripedReport,
    cache: Option<CacheSample>,
    write_hist: LatencyHistogram,
    read_hist: LatencyHistogram,
    flush_hist: LatencyHistogram,
}

impl Point {
    /// Front-end write amplification: flash programs per host page
    /// written. The cache absorbs hot rewrites before they ever reach the
    /// FTL, so this is the figure the cache moves.
    fn wa(&self) -> f64 {
        self.report.device.programs as f64 / self.host_pages.max(1) as f64
    }
}

/// `observed` turns on both observer planes (wall-clock metrics + health)
/// for the JSONL-exporting run; the sweep arms run bare.
fn service_config(depth: u32, cache_on: bool, observed: bool) -> ServiceConfig {
    let mut config = ServiceConfig::default()
        .with_engine(
            EngineConfig::default()
                .with_threads(CHANNELS)
                .with_queue_depth(depth as usize)
                .with_metrics(observed)
                .with_health(observed),
        )
        .with_op_interval_ns(INTERVAL_NS);
    if cache_on {
        config = config.with_cache(cache_config());
    }
    config
}

fn build_service(
    scale: &ExperimentScale,
    depth: u32,
    cache_on: bool,
    metrics: bool,
) -> Service {
    Service::build(
        LayerKind::Ftl,
        geometry(scale, CHANNELS),
        spec(scale),
        Some(swl(scale)),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        service_config(depth, cache_on, metrics),
    )
    .expect("service build failed")
}

/// Splits ~40 % of the logical space (the default FTL exports the full
/// chip with zero overprovisioning, so near-full footprints would starve
/// GC — the paper's workload writes 36.62 % of its LBA space) into one
/// disjoint slice per client.
fn client_slices(logical_pages: u64, clients: usize) -> Vec<(u64, u64)> {
    let footprint = (logical_pages * 2 / 5).max(clients as u64 * 8);
    let span = footprint / clients as u64;
    (0..clients as u64).map(|c| (c * span, span)).collect()
}

/// One served run: spawns a thread per client, each executing its
/// deterministic sequence, and gathers wall time, latency histograms, and
/// the finished report.
fn served_run(
    scale: &ExperimentScale,
    clients: usize,
    depth: u32,
    cache_on: bool,
    ops_per_client: usize,
) -> (Point, Vec<Vec<ClientOp>>) {
    let service = build_service(scale, depth, cache_on, false);
    let slices = client_slices(service.logical_pages(), clients);
    let sequences: Vec<Vec<ClientOp>> = slices
        .iter()
        .enumerate()
        .map(|(c, &(base, span))| client_ops(c, base, span, ops_per_client, scale.seed))
        .collect();
    let pages: u64 = sequences.iter().map(|s| host_pages(s)).sum();

    let (server, handles) = service.serve(clients);
    let start = Instant::now();
    let workers: Vec<_> = handles
        .into_iter()
        .zip(sequences.iter().cloned())
        .map(|(mut client, ops)| {
            std::thread::spawn(move || {
                for op in ops {
                    match op {
                        ClientOp::Write { lba, data } => {
                            client.write(lba, data).expect("write failed")
                        }
                        ClientOp::Read { lba, len } => {
                            client.read(lba, len).map(drop).expect("read failed")
                        }
                        ClientOp::Flush => client.flush().expect("flush failed"),
                    }
                }
                client
            })
        })
        .collect();
    let mut write_hist = LatencyHistogram::new();
    let mut read_hist = LatencyHistogram::new();
    let mut flush_hist = LatencyHistogram::new();
    for worker in workers {
        let client = worker.join().expect("client thread panicked");
        write_hist.merge(client.write_latency());
        read_hist.merge(client.read_latency());
        flush_hist.merge(client.flush_latency());
    }
    let wall_s = start.elapsed().as_secs_f64();
    let service = server.join();
    let total_ops = service.ops();
    let ServiceRun { run, cache, .. } = service.finish().expect("service finish failed");
    (
        Point {
            clients,
            queue_depth: depth,
            cache_on,
            wall_s,
            total_ops,
            host_pages: pages,
            report: run.report,
            cache,
            write_hist,
            read_hist,
            flush_hist,
        },
        sequences,
    )
}

/// Replays a single client's sequence straight through [`Engine`],
/// mirroring the cache-less service exactly: write/read ops tick the
/// logical clock by [`INTERVAL_NS`], reads synchronize the pipeline, a
/// flush is a barrier without a tick.
fn engine_mirror(
    scale: &ExperimentScale,
    depth: u32,
    ops: &[ClientOp],
) -> StripedReport {
    let mut engine = Engine::new(
        LayerKind::Ftl,
        geometry(scale, CHANNELS),
        spec(scale),
        Some(swl(scale)),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        EngineConfig::default()
            .with_threads(CHANNELS)
            .with_queue_depth(depth as usize),
    )
    .expect("engine build failed");
    let mut clock = 0u64;
    for op in ops {
        match op {
            ClientOp::Write { lba, data } => {
                clock += INTERVAL_NS;
                engine
                    .submit_write_data(clock, *lba, data)
                    .expect("mirror write failed");
            }
            ClientOp::Read { lba, len } => {
                clock += INTERVAL_NS;
                engine
                    .submit(TraceEvent::read_span(clock, *lba, *len as u32))
                    .expect("mirror read failed");
                engine.flush().expect("mirror read flush failed");
            }
            ClientOp::Flush => engine.flush().expect("mirror flush failed"),
        }
    }
    engine.flush().expect("mirror final flush failed");
    engine.finish().expect("mirror finish failed").report
}

/// One first-failure measurement: the op index (logical clock) at which
/// the first block crossed its endurance limit.
struct FailurePoint {
    cache_on: bool,
    /// Accepted host ops (write/read ticks) before the fatal erase.
    ops_to_failure: u64,
    /// Host pages written across those ops.
    host_pages_to_failure: u64,
    /// Chip-wide block erases at the failure.
    total_erases: u64,
}

/// Drives the single-client workload until the first block wears out and
/// reports *when* (in accepted host ops — the service's logical clock, so
/// the figure is deterministic and comparable cache-on vs cache-off).
///
/// Always runs at the quick geometry with [`FAILURE_ENDURANCE`]-cycle
/// blocks: first failure needs every block worn to its limit, which at the
/// sweep scales would take minutes to hours for no extra signal — the
/// paper's Figure 5 ratio logic (scaled endurance preserves the
/// comparison) applies unchanged.
fn failure_run(cache_on: bool) -> FailurePoint {
    let scale = ExperimentScale::quick();
    let mut service = Service::build(
        LayerKind::Ftl,
        geometry(&scale, CHANNELS),
        CellKind::Mlc2.spec().with_endurance(FAILURE_ENDURANCE),
        Some(swl(&scale)),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        service_config(FAILURE_DEPTH, cache_on, false),
    )
    .expect("service build failed");
    let (base, span) = client_slices(service.logical_pages(), 1)[0];
    // Host pages written per accepted (clock-ticking) op, so the page
    // count up to the fatal erase can be reconstructed afterwards.
    let mut pages_per_op: Vec<u64> = Vec::new();
    let prefill_ops = span.div_ceil(4) as usize + 1;
    let mut chunk_seed = scale.seed;
    'drive: loop {
        let chunk = client_ops(0, base, span, 100_000, chunk_seed);
        // Later chunks skip the sequential prefill — it belongs to the
        // workload's one-time cold-data setup, not the steady state.
        let skip = if chunk_seed == scale.seed { 0 } else { prefill_ops };
        for op in chunk.into_iter().skip(skip) {
            match op {
                ClientOp::Write { lba, data } => {
                    pages_per_op.push(data.len() as u64);
                    service.write(lba, &data).expect("failure-arm write failed");
                }
                ClientOp::Read { lba, len } => {
                    pages_per_op.push(0);
                    service.read(lba, len).map(drop).expect("failure-arm read failed");
                }
                ClientOp::Flush => service.flush().expect("failure-arm flush failed"),
            }
            if service.first_failure().is_some() {
                break 'drive;
            }
        }
        chunk_seed = chunk_seed.wrapping_add(1);
    }
    let failure = service.first_failure().expect("loop exits on failure");
    // The engine stamps the fatal erase with its op's logical-clock time;
    // one INTERVAL_NS tick per accepted op maps it back to an op index.
    let ops_to_failure = failure.host_ns / INTERVAL_NS;
    let host_pages_to_failure = pages_per_op
        .iter()
        .take(ops_to_failure as usize)
        .sum();
    FailurePoint {
        cache_on,
        ops_to_failure,
        host_pages_to_failure,
        total_erases: failure.total_erases,
    }
}

/// Write-cache capacity of the eviction arm (tiny on purpose).
const EVICTION_CAPACITY: usize = 8;

/// Drives the write cache into *capacity* eviction, the code path the
/// sweep never reaches (its watermark drain keeps the cache ahead of
/// capacity): the watermark is parked AT capacity so [`need_sync`]'s
/// between-call drain cannot help mid-write, the admission filter admits
/// everything from the first touch, and every write is a 4-page span of
/// fresh LBAs — once the cache fills, admitting the next page of a span
/// must push the oldest entries out. Returns the final counter sample;
/// `evicted > 0` is asserted by the caller.
///
/// [`need_sync`]: flash_sim::service::cache::WriteCache::need_sync
fn eviction_run() -> CacheSample {
    let scale = ExperimentScale::quick();
    let cache = CacheConfig {
        capacity: EVICTION_CAPACITY,
        sync_watermark: EVICTION_CAPACITY,
        batch: 2,
        hot: HotDataConfig {
            hot_threshold: 1,
            ..HotDataConfig::default()
        },
    };
    let config = ServiceConfig::default()
        .with_engine(
            EngineConfig::default()
                .with_threads(CHANNELS)
                .with_queue_depth(FAILURE_DEPTH as usize),
        )
        .with_op_interval_ns(INTERVAL_NS)
        .with_cache(cache);
    let mut service = Service::build(
        LayerKind::Ftl,
        geometry(&scale, CHANNELS),
        spec(&scale),
        Some(swl(&scale)),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        config,
    )
    .expect("service build failed");
    let (base, span) = client_slices(service.logical_pages(), 1)[0];
    let mut value = 0u64;
    for start in (base..base + span - 4).step_by(4).take(64) {
        let data: Vec<u64> = (0..4)
            .map(|_| {
                value += 1;
                value
            })
            .collect();
        service.write(start, &data).expect("eviction-arm write failed");
    }
    let sample = service.cache_sample().expect("cache was enabled");
    service.finish().expect("eviction-arm finish failed");
    sample
}

/// Re-runs the heaviest cache-on configuration with the live sampler and
/// returns `engtop_meta` schema-v3 JSONL (including per-tick `cache` and `health`
/// lines — the latter from an observer monitor over the engine's shared
/// wear table, the served management plane's own data source).
fn observed_run(
    scale: &ExperimentScale,
    ops_per_client: usize,
) -> Vec<String> {
    const INTERVAL_MS: u64 = 25;
    let clients = *CLIENTS.last().unwrap();
    let depth = *DEPTHS.last().unwrap();
    let service = build_service(scale, depth, true, true);
    let slices = client_slices(service.logical_pages(), clients);
    let metrics = service.metrics_handle();
    let cache_runtime = service.cache_runtime().expect("cache was enabled");
    let health_runtime = service.health_runtime().expect("health was enabled");
    let mut monitor = HealthMonitor::new(health_runtime.config());
    let threads = CHANNELS; // one worker per lane at this depth

    let mut jsonl = vec![export::engtop_meta_line(
        CHANNELS,
        threads,
        u64::from(depth),
        (clients * ops_per_client) as u64,
        INTERVAL_MS,
    )];

    let (server, handles) = service.serve(clients);
    let workers: Vec<_> = handles
        .into_iter()
        .zip(slices.iter().enumerate())
        .map(|(mut client, (c, &(base, span)))| {
            let ops = client_ops(c, base, span, ops_per_client, scale.seed);
            std::thread::spawn(move || {
                for op in ops {
                    match op {
                        ClientOp::Write { lba, data } => {
                            client.write(lba, data).expect("write failed")
                        }
                        ClientOp::Read { lba, len } => {
                            client.read(lba, len).map(drop).expect("read failed")
                        }
                        ClientOp::Flush => client.flush().expect("flush failed"),
                    }
                }
            })
        })
        .collect();

    let mut seq = 0u64;
    while !workers.iter().all(std::thread::JoinHandle::is_finished) {
        let snap = metrics.snapshot();
        let cache = cache_runtime.sample();
        export::tick_lines(&mut jsonl, seq, &snap);
        jsonl.push(export::cache_line(seq, snap.elapsed_ns, &cache));
        let report = monitor.report_on(&health_runtime.sample(), Some(cache));
        jsonl.push(export::health_line(seq, Stamp::WallNs(snap.elapsed_ns), &report));
        seq += 1;
        std::thread::sleep(std::time::Duration::from_millis(INTERVAL_MS));
    }
    for worker in workers {
        worker.join().expect("client thread panicked");
    }
    let service = server.join();
    let snap = metrics.snapshot();
    let cache = cache_runtime.sample();
    let report = monitor.report_on(&health_runtime.sample(), Some(cache));
    jsonl.push(export::health_line(seq, Stamp::WallNs(snap.elapsed_ns), &report));
    service.finish().expect("service finish failed");

    jsonl.push(export::final_line(&snap, |o| {
        o.u64("cache_write_hits", cache.write_hits)
            .u64("cache_flushed_pages", cache.flushed_pages);
    }));
    jsonl
}

fn main() {
    let scale = scale_from_args();
    let total_ops: usize = arg_number("--ops", 20_000);
    let out = arg_value("--out");
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "service sweep: FTL x{CHANNELS}ch, {total_ops} total client ops, {} blocks x {} \
         pages, endurance {}, SWL (T={SWL_THRESHOLD}, k=0, per-channel), cache \
         {CACHE_PAGES} pages (hot threshold 2), flush every {FLUSH_EVERY} ops, {cpus} cpu(s)",
        scale.blocks, scale.pages_per_block, scale.endurance
    );

    let mut points: Vec<Point> = Vec::new();
    let mut oracle_arms = 0usize;
    for &clients in &CLIENTS {
        let ops_per_client = total_ops / clients;
        for &depth in &DEPTHS {
            for cache_on in [false, true] {
                let (point, sequences) =
                    served_run(&scale, clients, depth, cache_on, ops_per_client);
                if clients == 1 && !cache_on {
                    let reference = engine_mirror(&scale, depth, &sequences[0]);
                    assert_eq!(
                        point.report, reference,
                        "depth={depth}: cache-off service diverged from the direct engine"
                    );
                    oracle_arms += 1;
                }
                points.push(point);
            }
        }
    }

    let off_wa = |clients: usize, depth: u32| {
        points
            .iter()
            .find(|p| p.clients == clients && p.queue_depth == depth && !p.cache_on)
            .expect("sweep covers cache-off")
    };

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let hit_rate = p
                .cache
                .map_or(0.0, |c| c.write_hit_rate());
            vec![
                p.clients.to_string(),
                p.queue_depth.to_string(),
                if p.cache_on { "on" } else { "off" }.to_string(),
                format!("{:.3}", p.wall_s),
                format!("{:.0}", p.total_ops as f64 / p.wall_s),
                format!("{}", p.write_hist.quantile(0.5) / 1_000),
                format!("{}", p.write_hist.quantile(0.99) / 1_000),
                format!("{}", p.write_hist.quantile(0.999) / 1_000),
                format!("{:.3}", p.wa()),
                format!("{:.1}%", hit_rate * 100.0),
                p.report.counters.swl_erases.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "clients", "depth", "cache", "wall s", "ops/s", "w p50 µs", "w p99 µs",
            "w p999 µs", "WA", "hit rate", "swl erases",
        ],
        &rows,
    );
    println!(
        "\n{oracle_arms} single-client cache-off arm(s) bit-identical to the direct engine"
    );
    for p in points.iter().filter(|p| p.cache_on) {
        let cache = p.cache.as_ref().expect("cache-on arm samples its cache");
        assert!(
            cache.evicted > 0,
            "clients={} depth={}: the {CACHE_PAGES}-page sweep cache must capacity-evict \
             under the paper-shaped workload (admitted {}, evicted {})",
            p.clients,
            p.queue_depth,
            cache.admitted,
            cache.evicted,
        );
    }
    println!(
        "every cache-on sweep arm capacity-evicted ({CACHE_PAGES}-page cache, watermark at \
         capacity)"
    );
    for p in points.iter().filter(|p| p.cache_on) {
        let off = off_wa(p.clients, p.queue_depth);
        println!(
            "clients={} depth={}: cache cut WA {:.3} -> {:.3} ({:.0}% fewer programs), \
             SWL erases {} -> {}",
            p.clients,
            p.queue_depth,
            off.wa(),
            p.wa(),
            (1.0 - p.report.device.programs as f64 / off.report.device.programs.max(1) as f64)
                * 100.0,
            off.report.counters.swl_erases,
            p.report.counters.swl_erases,
        );
    }

    let failure_off = failure_run(false);
    let failure_on = failure_run(true);
    println!(
        "first failure (quick geometry, endurance {FAILURE_ENDURANCE}): cache off at op {} \
         ({} host pages, {} erases), cache on at op {} ({} host pages, {} erases) — \
         x{:.2} more host writes before the first block died",
        failure_off.ops_to_failure,
        failure_off.host_pages_to_failure,
        failure_off.total_erases,
        failure_on.ops_to_failure,
        failure_on.host_pages_to_failure,
        failure_on.total_erases,
        failure_on.host_pages_to_failure as f64 / failure_off.host_pages_to_failure.max(1) as f64,
    );

    let eviction = eviction_run();
    assert!(
        eviction.evicted > 0,
        "the {EVICTION_CAPACITY}-page watermark-at-capacity arm must capacity-evict \
         (admitted {}, evicted {})",
        eviction.admitted,
        eviction.evicted,
    );
    println!(
        "capacity eviction ({EVICTION_CAPACITY}-page cache, watermark at capacity): \
         {} admitted, {} evicted, {} flushed",
        eviction.admitted, eviction.evicted, eviction.flushed_pages,
    );

    let json_text = json::object(|o| {
        o.str("bench", "service_sweep")
            .str("layer", "ftl")
            .u64("channels", u64::from(CHANNELS))
            .u64("blocks", u64::from(scale.blocks))
            .u64("pages_per_block", u64::from(scale.pages_per_block))
            .u64("endurance", u64::from(scale.endurance))
            .u64("total_client_ops", total_ops as u64)
            .u64("cache_pages", CACHE_PAGES as u64)
            .u64("flush_every_ops", FLUSH_EVERY as u64)
            .u64("cpus", cpus as u64)
            .u64("oracle_arms", oracle_arms as u64)
            .bool("bit_identical", true)
            .bool("sweep_arms_evicted", true)
            .str(
                "caveat",
                "latencies and ops/s are wall-clock figures through the served \
                 front-end and scale with host cpus; WA and swl_erases are \
                 virtual-time device figures — deterministic for single-client \
                 arms, arrival-interleaving-dependent when clients > 1",
            )
            .obj("capacity_eviction", |ev| {
                ev.u64("cache_pages", EVICTION_CAPACITY as u64)
                    .u64("admitted", eviction.admitted)
                    .u64("evicted", eviction.evicted)
                    .u64("flushed_pages", eviction.flushed_pages)
                    .bool("evicted_nonzero", eviction.evicted > 0);
            })
            .obj("first_failure", |ff| {
                ff.u64("endurance", u64::from(FAILURE_ENDURANCE))
                    .u64("queue_depth", u64::from(FAILURE_DEPTH))
                    .str("geometry", "quick")
                    .f64(
                        "lifetime_extension",
                        failure_on.host_pages_to_failure as f64
                            / failure_off.host_pages_to_failure.max(1) as f64,
                        4,
                    )
                    .arr("arms", |a| {
                        for f in [&failure_off, &failure_on] {
                            a.obj(|arm| {
                                arm.bool("cache_on", f.cache_on)
                                    .u64("ops_to_failure", f.ops_to_failure)
                                    .u64("host_pages_to_failure", f.host_pages_to_failure)
                                    .u64("total_erases", f.total_erases);
                            });
                        }
                    });
            })
            .arr("points", |a| {
                for p in &points {
                    let off = off_wa(p.clients, p.queue_depth);
                    a.obj(|row| {
                        row.u64("clients", p.clients as u64)
                            .u64("queue_depth", u64::from(p.queue_depth))
                            .bool("cache_on", p.cache_on)
                            .f64("wall_s", p.wall_s, 3)
                            .f64("ops_per_s", p.total_ops as f64 / p.wall_s, 0)
                            .u64("total_ops", p.total_ops)
                            .u64("host_pages_written", p.host_pages)
                            .u64("flash_programs", p.report.device.programs)
                            .f64("write_amplification", p.wa(), 4)
                            .f64(
                                "ftl_write_amplification",
                                p.report.counters.write_amplification(),
                                4,
                            )
                            .u64("gc_erases", p.report.counters.gc_erases)
                            .u64("swl_erases", p.report.counters.swl_erases)
                            .u64("write_p50_ns", p.write_hist.quantile(0.5))
                            .u64("write_p99_ns", p.write_hist.quantile(0.99))
                            .u64("write_p999_ns", p.write_hist.quantile(0.999))
                            .u64("read_p50_ns", p.read_hist.quantile(0.5))
                            .u64("read_p99_ns", p.read_hist.quantile(0.99))
                            .u64("read_p999_ns", p.read_hist.quantile(0.999))
                            .u64("flush_p50_ns", p.flush_hist.quantile(0.5))
                            .u64("flush_p99_ns", p.flush_hist.quantile(0.99));
                        if let Some(cache) = &p.cache {
                            row.u64("cache_write_hits", cache.write_hits)
                                .u64("cache_read_hits", cache.read_hits)
                                .u64("cache_admitted", cache.admitted)
                                .u64("cache_write_through", cache.write_through)
                                .u64("cache_flushed_pages", cache.flushed_pages)
                                .u64("cache_flush_batches", cache.flush_batches)
                                .u64("cache_evicted", cache.evicted)
                                .u64("cache_trimmed", cache.trimmed)
                                .f64("cache_write_hit_rate", cache.write_hit_rate(), 4)
                                .f64("wa_off", off.wa(), 4)
                                .f64(
                                    "program_reduction_frac",
                                    1.0 - p.report.device.programs as f64
                                        / off.report.device.programs.max(1) as f64,
                                    4,
                                )
                                .f64(
                                    "swl_erases_delta",
                                    p.report.counters.swl_erases as f64
                                        - off.report.counters.swl_erases as f64,
                                    0,
                                );
                        }
                    });
                }
            });
    });
    std::fs::write("BENCH_service.json", json_text + "\n").expect("write BENCH_service.json");
    println!("wrote BENCH_service.json");

    if let Some(path) = out {
        let ops_per_client = total_ops / CLIENTS.last().unwrap();
        let jsonl = observed_run(&scale, ops_per_client);
        std::fs::write(&path, jsonl.join("\n") + "\n").expect("write JSONL export");
        println!("wrote {} JSONL lines to {path} (engtop_meta schema v3)", jsonl.len());
    }
}
