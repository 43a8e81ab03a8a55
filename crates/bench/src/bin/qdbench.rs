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

use flash_bench::array::{arg_number, geometry, oracle, pct, spec, trace, CHANNELS};
use flash_bench::{print_table, scale_from_args};
use flash_sim::experiments::{ExperimentScale, CHANNEL_SPAN};
use flash_sim::{
    Engine, EngineConfig, LayerKind, SimConfig, StopCondition, StripedReport, SwlCoordination,
};
use flash_telemetry::json;
use flash_telemetry::EngineMetricsReport;
use swl_core::SwlConfig;

const THREADS: [u32; 5] = [0, 1, 2, 4, 8];
const DEPTHS: [u32; 4] = [1, 8, 64, 256];
/// Queue depth of the Global-coordination rows.
const GLOBAL_DEPTH: u32 = 64;
const SWL_THRESHOLD: u64 = 100;

fn swl(scale: &ExperimentScale) -> SwlConfig {
    SwlConfig::new(SWL_THRESHOLD, 0).with_seed(scale.seed)
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
    scale: &ExperimentScale,
    events: u64,
    threads: u32,
    queue_depth: u32,
    coordination: SwlCoordination,
    reference: &StripedReport,
) -> Point {
    let mut engine = Engine::new(
        LayerKind::Ftl,
        geometry(scale, CHANNELS),
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

fn main() {
    let scale = scale_from_args();
    let events = arg_number("--events", 20_000);
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!(
        "engine qd sweep: FTL x{CHANNELS}ch, {CHANNEL_SPAN}-page host requests, \
         {events} events, {} blocks x {} pages total, endurance {}, \
         SWL (T={SWL_THRESHOLD}, k=0, per-channel), {cpus} cpu(s)",
        scale.blocks, scale.pages_per_block, scale.endurance
    );

    let (oracle_s, reference) =
        oracle(&scale, CHANNELS, swl(&scale), SwlCoordination::PerChannel, events);
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
    let (global_oracle_s, global_reference) =
        oracle(&scale, CHANNELS, swl(&scale), SwlCoordination::Global, events);
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
