//! `chscale` — the channel-scaling experiment: the same total capacity,
//! workload, and SWL configuration served by 1, 2, and 4 channels, printed
//! as a throughput / overlap table. The page-granular paper workload is
//! widened to [`flash_sim::experiments::CHANNEL_SPAN`]-page host requests
//! so each op stripes across the lanes; the virtual-time scheduler then
//! reports how much busy time the channels overlap and what that buys in
//! served pages per device millisecond.
//!
//! A second, wall-clock section replays the sweep through the threaded
//! [`flash_sim::Engine`] (one worker per lane, per-channel SWL so the
//! pipelined path is exercised, metrics enabled) and attributes where the
//! worker seconds went — busy, starved on the command queue, or
//! backpressured on completions — plus per-lane busy shares and queue
//! high-water marks. Each engine run is verified bit-identical against its
//! virtual-time oracle before its numbers are reported. Both sections land
//! in `BENCH_channels.json` via the shared [`flash_bench::json`] writer.
//!
//! Usage: `chscale [quick|scaled|paper] [--events N]`

use std::time::Instant;

use flash_bench::array::{arg_number, geometry, oracle, pct, spec, trace};
use flash_bench::{print_table, scale_from_args};
use flash_sim::experiments::{channel_scaling, ExperimentScale, CHANNEL_SPAN};
use flash_sim::{Engine, EngineConfig, LayerKind, SimConfig, StopCondition, SwlCoordination};
use flash_telemetry::json;
use flash_telemetry::EngineMetricsReport;

/// The lane counts the sweep visits (all divide every preset's block count).
const CHANNELS: [u32; 3] = [1, 2, 4];
/// Host queue depth for the wall-clock engine pass: deep enough that the
/// front-end is not the bottleneck and lane overlap is what gets measured.
const ENGINE_DEPTH: usize = 64;

/// One wall-clock engine run at `channels` lanes, verified against the
/// virtual-time oracle of the identical configuration.
struct EnginePoint {
    channels: u32,
    wall_s: f64,
    metrics: EngineMetricsReport,
}

fn engine_point(scale: &ExperimentScale, channels: u32, events: u64) -> EnginePoint {
    let swl = scale.swl_config(100, 0);
    let coordination = SwlCoordination::PerChannel;
    let (_, reference) = oracle(scale, channels, swl, coordination, events);

    let mut engine = Engine::new(
        LayerKind::Ftl,
        geometry(scale, channels),
        spec(scale),
        Some(swl),
        coordination,
        &SimConfig::default(),
        EngineConfig::default()
            .with_threads(channels)
            .with_queue_depth(ENGINE_DEPTH)
            .with_metrics(true),
    )
    .expect("engine build failed");
    let pages = engine.logical_pages();
    let start = Instant::now();
    engine
        .run(trace(pages, scale.seed), StopCondition::events(events))
        .expect("engine run failed");
    let run = engine.finish().expect("engine finish failed");
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(
        run.report, reference,
        "{channels} channels: engine diverged from the virtual-time oracle"
    );
    EnginePoint {
        channels,
        wall_s,
        metrics: run.metrics.expect("metrics were enabled"),
    }
}

fn main() {
    let scale = scale_from_args();
    let events = arg_number("--events", 6_000);
    println!(
        "channel scaling: FTL, {}-page host requests, {} events, \
         {} blocks x {} pages total, endurance {}, SWL (T=100, k=0, global)",
        CHANNEL_SPAN, events, scale.blocks, scale.pages_per_block, scale.endurance
    );

    let points = channel_scaling(LayerKind::Ftl, &scale, &CHANNELS, Some((100, 0)), events)
        .expect("simulation failed");

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.channels.to_string(),
                format!("{:.3}", p.makespan_ns as f64 / 1e6),
                match p.overlap {
                    Some(overlap) => format!("x{overlap:.2}"),
                    None => "n/a".to_string(),
                },
                format!("{:.1}", p.pages_per_ms),
                format!("{:.1}", p.report.op_write_latency.mean_ns() / 1e3),
                format!("{:.1}", p.report.op_read_latency.mean_ns() / 1e3),
                p.report.counters.swl_erases.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "channels",
            "makespan ms",
            "overlap",
            "pages/ms",
            "write µs",
            "read µs",
            "swl erases",
        ],
        &rows,
    );

    // An empty trace (e.g. `--events 0`, or a horizon before the first
    // request) records no device time anywhere: report that plainly and
    // exit instead of asserting on measurements that were never taken.
    if points.iter().all(|p| p.makespan_ns == 0) {
        println!(
            "\nno device time recorded (empty trace?) — \
             no overlap or throughput to compare"
        );
        return;
    }

    // The single-channel row anchors the comparison: it must be fully
    // serial, and adding channels must never slow the array down.
    let one = &points[0];
    let one_overlap = one.overlap.expect("non-empty run records device time");
    assert!(
        (one_overlap - 1.0).abs() < 1e-9,
        "one channel must be serial, got x{one_overlap:.3}"
    );
    for pair in points.windows(2) {
        assert!(
            pair[1].pages_per_ms >= pair[0].pages_per_ms,
            "throughput regressed from {} to {} channels",
            pair[0].channels,
            pair[1].channels
        );
    }
    let last = points.last().expect("sweep is non-empty");
    println!(
        "\n{} channels serve x{:.2} the single-channel throughput",
        last.channels,
        last.pages_per_ms / one.pages_per_ms
    );

    // Wall-clock pass: the same lane counts through the threaded engine
    // (per-channel SWL, one worker per lane, metrics on), each verified
    // bit-identical to its virtual-time oracle.
    println!(
        "\nwall-clock engine pass (1 worker/lane, depth {ENGINE_DEPTH}, \
         per-channel SWL, metrics on):"
    );
    let engine_points: Vec<EnginePoint> = CHANNELS
        .iter()
        .map(|&c| engine_point(&scale, c, events))
        .collect();
    let engine_rows: Vec<Vec<String>> = engine_points
        .iter()
        .map(|p| {
            let snap = &p.metrics.snapshot;
            let lane_busy: u64 = snap.lanes.iter().map(|l| l.busy_wall_ns).sum();
            let lane_share = snap
                .lanes
                .iter()
                .map(|l| {
                    if lane_busy == 0 {
                        "0".to_string()
                    } else {
                        format!("{:.0}", 100.0 * l.busy_wall_ns as f64 / lane_busy as f64)
                    }
                })
                .collect::<Vec<_>>()
                .join("/");
            vec![
                p.channels.to_string(),
                format!("{:.3}", p.wall_s),
                pct(snap.busy_frac()),
                pct(snap.starved_frac()),
                pct(snap.backpressure_frac()),
                lane_share,
                snap.command_high_water().to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "channels", "wall s", "busy", "starv", "bp", "lane busy %", "cmd hw",
        ],
        &engine_rows,
    );
    println!("all engine runs bit-identical to their virtual-time oracles");

    let json = json::object(|o| {
        o.str("bench", "channel_scaling")
            .str("layer", "ftl")
            .u64("events", events)
            .u64("blocks", u64::from(scale.blocks))
            .u64("pages_per_block", u64::from(scale.pages_per_block))
            .u64("endurance", u64::from(scale.endurance))
            .bool("bit_identical", true)
            .arr("virtual_points", |a| {
                for p in &points {
                    a.obj(|row| {
                        row.u64("channels", u64::from(p.channels))
                            .f64("makespan_ms", p.makespan_ns as f64 / 1e6, 3)
                            .f64("overlap", p.overlap.unwrap_or(f64::NAN), 3)
                            .f64("pages_per_ms", p.pages_per_ms, 1)
                            .u64("swl_erases", p.report.counters.swl_erases);
                    });
                }
            })
            .arr("engine_points", |a| {
                for p in &engine_points {
                    let snap = &p.metrics.snapshot;
                    a.obj(|row| {
                        row.u64("channels", u64::from(p.channels))
                            .f64("wall_s", p.wall_s, 3)
                            .f64("busy_frac", snap.busy_frac(), 4)
                            .f64("starved_frac", snap.starved_frac(), 4)
                            .f64("backpressure_frac", snap.backpressure_frac(), 4)
                            .f64(
                                "host_backpressure_ms",
                                snap.host_backpressure_ns as f64 / 1e6,
                                3,
                            )
                            .u64("cmd_queue_high_water", snap.command_high_water() as u64)
                            .u64(
                                "completion_queue_high_water",
                                snap.completion_queue.high_water as u64,
                            )
                            .arr("lane_busy_ms", |w| {
                                for lane in &snap.lanes {
                                    w.f64(lane.busy_wall_ns as f64 / 1e6, 3);
                                }
                            });
                    });
                }
            });
    });
    std::fs::write("BENCH_channels.json", json + "\n").expect("write BENCH_channels.json");
    println!("wrote BENCH_channels.json");
}
