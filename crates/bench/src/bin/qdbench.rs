//! `qdbench` — the threaded-engine sweep: the same 4-channel workload
//! pushed through [`flash_sim::Engine`] at every combination of worker
//! threads {0, 1, 2, 4, 8} and host queue depth {1, 8, 64, 256}, each run
//! verified **bit-identical** against the virtual-time
//! [`flash_sim::Simulator::run_striped`] oracle before its wall-clock
//! numbers are reported. `threads = 0` is the engine without workers: no
//! queues, every op run where it is submitted, so its rows do not vary with
//! the depth and have no worker or queue columns to fill. It is also what
//! every other row gets on a one-CPU host (`effective` reads 0 there). One more row per thread count runs the same trace
//! under Global SWL coordination at queue depth 64, verified against its own
//! oracle, and reports how many host ops ran ahead in the pipeline and how
//! many went page by page through the coordinator. Emits `BENCH_engine.json`
//! (one JSON object) next to a human-readable table.
//!
//! Latency quantiles (p50/p99/p999) come from the report's log2 op-write
//! histogram — they are *virtual-time* figures and therefore identical
//! across every thread/depth combination; the sweep prints them once as
//! part of the bit-exactness evidence. What varies is wall-clock
//! throughput, and that is bounded by the host: on a single-CPU machine
//! the engine spawns no worker threads at all, so the JSON records `cpus`
//! and each row's effective thread count alongside every speedup and this
//! bench never asserts on wall-clock ratios.
//!
//! Every run executes with the engine's wall-clock metrics enabled, so each
//! table row and JSON point also attributes where worker time went — busy
//! executing commands, **starved** on the command queue (pop side), or
//! **backpressured** on the completion queue (push side) — plus queue
//! high-water marks and front-end (host) backpressure. That attribution is
//! what explains the sweep's shape: at depth 1 workers starve behind a
//! serialized host; at deep queues the host saturates the lanes and the
//! high-water marks hit the queue bound.
//!
//! Usage: `qdbench [quick|scaled|paper] [--events N]`

use std::time::Instant;

use flash_bench::{json, print_table, scale_from_args};
use flash_sim::experiments::CHANNEL_SPAN;
use flash_sim::{
    Engine, EngineConfig, LayerKind, SimConfig, Simulator, StopCondition, StripedLayer,
    StripedReport, SwlCoordination,
};
use flash_telemetry::EngineMetricsReport;
use flash_trace::{SyntheticTrace, TraceEvent, WorkloadSpec};
use nand::{CellKind, CellSpec, ChannelGeometry, Geometry};
use swl_core::SwlConfig;

const CHANNELS: u32 = 4;
const THREADS: [u32; 5] = [0, 1, 2, 4, 8];
const DEPTHS: [u32; 4] = [1, 8, 64, 256];
/// Queue depth of the Global-coordination rows.
const GLOBAL_DEPTH: u32 = 64;
const SWL_THRESHOLD: u64 = 100;

fn events_from_args(default: u64) -> u64 {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--events" {
            let value = args.next().expect("--events needs a number");
            return value.parse().expect("--events needs a number");
        }
    }
    default
}

fn geometry(scale: &flash_sim::experiments::ExperimentScale) -> ChannelGeometry {
    assert!(
        scale.blocks.is_multiple_of(CHANNELS),
        "{CHANNELS} channels must divide {} blocks",
        scale.blocks
    );
    ChannelGeometry::new(
        CHANNELS,
        1,
        Geometry::new(scale.blocks / CHANNELS, scale.pages_per_block, 2048),
    )
}

fn spec(scale: &flash_sim::experiments::ExperimentScale) -> CellSpec {
    CellKind::Mlc2.spec().with_endurance(scale.endurance)
}

fn swl(scale: &flash_sim::experiments::ExperimentScale) -> SwlConfig {
    SwlConfig::new(SWL_THRESHOLD, 0).with_seed(scale.seed)
}

fn trace(logical_pages: u64, seed: u64) -> impl Iterator<Item = TraceEvent> {
    SyntheticTrace::new(WorkloadSpec::paper(logical_pages).with_seed(seed))
        .map(move |e| e.widen(CHANNEL_SPAN, logical_pages))
}

/// The virtual-time oracle run every engine configuration must reproduce.
fn oracle(
    scale: &flash_sim::experiments::ExperimentScale,
    events: u64,
    coordination: SwlCoordination,
) -> (f64, StripedReport) {
    let mut striped = StripedLayer::build(
        LayerKind::Ftl,
        geometry(scale),
        spec(scale),
        Some(swl(scale)),
        coordination,
        &SimConfig::default(),
    )
    .expect("oracle build failed");
    let pages = striped.logical_pages();
    let start = Instant::now();
    let report = Simulator::new()
        .run_striped(&mut striped, trace(pages, scale.seed), StopCondition::events(events))
        .expect("oracle run failed");
    (start.elapsed().as_secs_f64(), report)
}

struct Point {
    threads: u32,
    effective_threads: u32,
    queue_depth: u32,
    wall_s: f64,
    ops_per_s: f64,
    quiet_ops: u64,
    coordinated_ops: u64,
    metrics: EngineMetricsReport,
}

fn engine_run(
    scale: &flash_sim::experiments::ExperimentScale,
    events: u64,
    threads: u32,
    queue_depth: u32,
    coordination: SwlCoordination,
    reference: &StripedReport,
) -> Point {
    let mut engine = Engine::new(
        LayerKind::Ftl,
        geometry(scale),
        spec(scale),
        Some(swl(scale)),
        coordination,
        &SimConfig::default(),
        EngineConfig::default()
            .with_threads(threads)
            .with_queue_depth(queue_depth as usize)
            .with_metrics(true),
    )
    .expect("engine build failed");
    let pages = engine.logical_pages();
    let effective_threads = engine.threads();
    let start = Instant::now();
    engine
        .run(trace(pages, scale.seed), StopCondition::events(events))
        .expect("engine run failed");
    let run = engine.finish().expect("engine finish failed");
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(
        run.report, *reference,
        "threads={threads} depth={queue_depth} {}: engine diverged from the oracle",
        coordination.token()
    );
    Point {
        threads,
        effective_threads,
        queue_depth,
        wall_s,
        ops_per_s: events as f64 / wall_s,
        quiet_ops: run.quiet_ops,
        coordinated_ops: run.coordinated_ops,
        metrics: run.metrics.expect("metrics were enabled"),
    }
}

fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

fn main() {
    let scale = scale_from_args();
    let events = events_from_args(20_000);
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "engine qd sweep: FTL x{CHANNELS}ch, {CHANNEL_SPAN}-page host requests, \
         {events} events, {} blocks x {} pages total, endurance {}, \
         SWL (T={SWL_THRESHOLD}, k=0, per-channel), {cpus} cpu(s)",
        scale.blocks, scale.pages_per_block, scale.endurance
    );

    let (oracle_s, reference) = oracle(&scale, events, SwlCoordination::PerChannel);
    println!("virtual-time oracle: {oracle_s:.2} s\n");

    let mut points = Vec::new();
    for &threads in &THREADS {
        for &depth in &DEPTHS {
            points.push(engine_run(
                &scale,
                events,
                threads,
                depth,
                SwlCoordination::PerChannel,
                &reference,
            ));
        }
    }
    let (global_oracle_s, global_reference) = oracle(&scale, events, SwlCoordination::Global);
    let global_points: Vec<Point> = THREADS
        .iter()
        .map(|&threads| {
            engine_run(
                &scale,
                events,
                threads,
                GLOBAL_DEPTH,
                SwlCoordination::Global,
                &global_reference,
            )
        })
        .collect();

    // Speedup baseline: 1 worker thread at the same queue depth.
    let baseline = |depth: u32| -> f64 {
        points
            .iter()
            .find(|p| p.threads == 1 && p.queue_depth == depth)
            .expect("sweep covers threads=1")
            .wall_s
    };

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let snap = &p.metrics.snapshot;
            vec![
                p.threads.to_string(),
                p.effective_threads.to_string(),
                p.queue_depth.to_string(),
                format!("{:.3}", p.wall_s),
                format!("{:.0}", p.ops_per_s),
                format!("x{:.2}", baseline(p.queue_depth) / p.wall_s),
                pct(snap.busy_frac()),
                pct(snap.starved_frac()),
                pct(snap.backpressure_frac()),
                format!(
                    "{}/{}",
                    snap.command_high_water(),
                    snap.command_queues.first().map_or(0, |q| q.capacity)
                ),
                format!("{:.0}", snap.host_backpressure_ns as f64 / 1e6),
            ]
        })
        .collect();
    print_table(
        &[
            "threads", "effective", "depth", "wall s", "ops/s", "vs 1 thread", "busy",
            "starv", "bp", "cmd hw", "host bp ms",
        ],
        &rows,
    );
    println!(
        "\nGlobal SWL coordination at depth {GLOBAL_DEPTH} (its own oracle: \
         {global_oracle_s:.2} s):"
    );
    let global_rows: Vec<Vec<String>> = global_points
        .iter()
        .map(|p| {
            vec![
                p.threads.to_string(),
                p.effective_threads.to_string(),
                format!("{:.3}", p.wall_s),
                format!("{:.0}", p.ops_per_s),
                p.quiet_ops.to_string(),
                p.coordinated_ops.to_string(),
                pct(p.quiet_ops as f64 / events as f64),
            ]
        })
        .collect();
    print_table(
        &[
            "threads",
            "effective",
            "wall s",
            "ops/s",
            "quiet ops",
            "coordinated",
            "quiet",
        ],
        &global_rows,
    );
    println!(
        "\nall {} + {} configurations bit-identical to the virtual-time oracle \
         (metrics enabled in every run)",
        points.len(),
        global_points.len()
    );
    println!(
        "op write latency (virtual time, identical in every run): \
         p50 {} ns, p99 {} ns, p999 {} ns",
        reference.op_write_latency.quantile(0.5),
        reference.op_write_latency.quantile(0.99),
        reference.op_write_latency.quantile(0.999),
    );

    let json = json::object(|o| {
        o.str("bench", "engine_qd_sweep")
            .str("layer", "ftl")
            .u64("channels", u64::from(CHANNELS))
            .u64("blocks", u64::from(scale.blocks))
            .u64("pages_per_block", u64::from(scale.pages_per_block))
            .u64("endurance", u64::from(scale.endurance))
            .u64("events", events)
            .u64("cpus", cpus as u64)
            .str(
                "caveat",
                "wall-clock speedups are bounded by cpus; on a 1-cpu host the \
                 engine spawns no workers and every row runs as threads = 0",
            )
            .f64("oracle_s", oracle_s, 3)
            .bool("bit_identical", true)
            .u64("p50_ns", reference.op_write_latency.quantile(0.5))
            .u64("p99_ns", reference.op_write_latency.quantile(0.99))
            .u64("p999_ns", reference.op_write_latency.quantile(0.999))
            .arr("points", |a| {
                for p in &points {
                    let snap = &p.metrics.snapshot;
                    a.obj(|row| {
                        row.u64("threads", u64::from(p.threads))
                            .u64("effective_threads", u64::from(p.effective_threads))
                            .u64("queue_depth", u64::from(p.queue_depth))
                            .f64("wall_s", p.wall_s, 3)
                            .f64("ops_per_s", p.ops_per_s, 0)
                            .f64("speedup_vs_1t", baseline(p.queue_depth) / p.wall_s, 3)
                            .f64("busy_frac", snap.busy_frac(), 4)
                            .f64("starved_frac", snap.starved_frac(), 4)
                            .f64("backpressure_frac", snap.backpressure_frac(), 4)
                            .f64("host_backpressure_ms", snap.host_backpressure_ns as f64 / 1e6, 3)
                            .u64("cmd_queue_high_water", snap.command_high_water() as u64)
                            .u64(
                                "completion_queue_high_water",
                                snap.completion_queue.high_water as u64,
                            )
                            .u64("op_wall_p50_ns", p.metrics.op_write_wall.quantile(0.5))
                            .u64("op_wall_p99_ns", p.metrics.op_write_wall.quantile(0.99))
                            .arr("worker_busy_frac", |w| {
                                for worker in &snap.workers {
                                    w.f64(worker.busy_frac(), 4);
                                }
                            })
                            .arr("worker_idle_frac", |w| {
                                for worker in &snap.workers {
                                    w.f64(worker.idle_frac(), 4);
                                }
                            })
                            .arr("worker_starved_frac", |w| {
                                for worker in &snap.workers {
                                    w.f64(worker.starved_frac(), 4);
                                }
                            })
                            .arr("worker_backpressure_frac", |w| {
                                for worker in &snap.workers {
                                    w.f64(worker.backpressure_frac(), 4);
                                }
                            });
                    });
                }
            })
            .f64("global_oracle_s", global_oracle_s, 3)
            .arr("global_points", |a| {
                for p in &global_points {
                    a.obj(|row| {
                        row.u64("threads", u64::from(p.threads))
                            .u64("effective_threads", u64::from(p.effective_threads))
                            .u64("queue_depth", u64::from(p.queue_depth))
                            .f64("wall_s", p.wall_s, 3)
                            .f64("ops_per_s", p.ops_per_s, 0)
                            .u64("quiet_ops", p.quiet_ops)
                            .u64("coordinated_ops", p.coordinated_ops);
                    });
                }
            });
    });
    std::fs::write("BENCH_engine.json", json + "\n").expect("write BENCH_engine.json");
    println!("wrote BENCH_engine.json");
}
