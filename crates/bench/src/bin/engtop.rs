//! `engtop` — a live, `top`-style view of the threaded execution engine:
//! runs the 4-channel FTL + per-channel-SWL workload through
//! [`flash_sim::Engine`] with wall-clock metrics enabled, and refreshes a
//! per-worker / per-lane utilization table while the run is in flight by
//! sampling the engine's [`flash_sim::EngineMetricsHandle`] from the main
//! thread (the run itself is driven on a separate thread). Each worker row
//! attributes wall time to **busy** (executing commands), **starved**
//! (blocked popping the command queue), **backpressured** (blocked pushing
//! completions), and derived **idle**; queue gauges show live occupancy
//! against the high-water mark and capacity.
//!
//! With `--out FILE` every sample is also exported as JSONL (one flat
//! object per line: an `engtop_meta` header, then `sample` / `worker` /
//! `lane` / `queue` lines per tick and one trailing `final` line).
//! `engtop --check FILE` validates such an export and exits non-zero on any
//! schema drift, so CI can gate on a golden fixture. The line writers and
//! the validator are [`flash_bench::export`], shared with `svcbench --out`
//! (which adds the v2 `cache` and v3 `health` lines to the same stream —
//! engtop itself drives a bare engine and never emits either) and with
//! `swlhealth`, whose dialect of the format meets the same `health` rules.
//!
//! ```text
//! engtop [quick|scaled|paper] [--events N] [--threads N] [--depth N]
//!        [--interval-ms N] [--out FILE]
//! engtop --check FILE
//! ```

use std::io::{IsTerminal, Write};
use std::process::ExitCode;
use std::time::Duration;

use flash_bench::array::{geometry, pct, spec, trace, CHANNELS};
use flash_bench::export::{self, ENGTOP};
use flash_sim::experiments::{ExperimentScale, CHANNEL_SPAN};
use flash_sim::{Engine, EngineConfig, EngineRun, LayerKind, SimConfig, StopCondition, SwlCoordination};
use flash_telemetry::{EngineSnapshot, LatencyHistogram};

const SWL_THRESHOLD: u64 = 100;

struct Options {
    scale: ExperimentScale,
    events: u64,
    threads: u32,
    depth: usize,
    interval_ms: u64,
    out: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        scale: ExperimentScale::scaled(),
        events: 20_000,
        threads: CHANNELS,
        depth: 64,
        interval_ms: 250,
        out: None,
        check: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "quick" => options.scale = ExperimentScale::quick(),
            "scaled" => options.scale = ExperimentScale::scaled(),
            "paper" => options.scale = ExperimentScale::paper(),
            "--events" => {
                options.events = value(&mut args, "--events")?
                    .parse()
                    .map_err(|_| "--events needs a number")?;
            }
            "--threads" => {
                options.threads = value(&mut args, "--threads")?
                    .parse()
                    .map_err(|_| "--threads needs a number")?;
            }
            "--depth" => {
                options.depth = value(&mut args, "--depth")?
                    .parse()
                    .map_err(|_| "--depth needs a number")?;
            }
            "--interval-ms" => {
                options.interval_ms = value(&mut args, "--interval-ms")?
                    .parse()
                    .map_err(|_| "--interval-ms needs a number")?;
            }
            "--out" => options.out = Some(value(&mut args, "--out")?),
            "--check" => options.check = Some(value(&mut args, "--check")?),
            "--help" | "-h" => {
                return Err(
                    "usage: engtop [quick|scaled|paper] [--events N] [--threads N] \
                     [--depth N] [--interval-ms N] [--out FILE] | engtop --check FILE"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(options)
}

/// One refresh frame: aggregate header, per-worker rows, per-lane row, and
/// queue gauges, as terminal lines.
fn frame(snap: &EngineSnapshot) -> Vec<String> {
    let mut lines = Vec::new();
    lines.push(format!(
        "t {:8.1} ms | ops {} submitted / {} completed | busy {:>6} starv {:>6} bp {:>6} | \
         host bp {:.1} ms",
        snap.elapsed_ns as f64 / 1e6,
        snap.ops_submitted,
        snap.ops_completed,
        pct(snap.busy_frac()),
        pct(snap.starved_frac()),
        pct(snap.backpressure_frac()),
        snap.host_backpressure_ns as f64 / 1e6,
    ));
    lines.push(format!(
        "{:>7}  {:>6}  {:>6}  {:>6}  {:>6}  {:>9}  {:>11}",
        "worker", "busy", "starv", "bp", "idle", "cmds", "queue l/h/c"
    ));
    for (w, worker) in snap.workers.iter().enumerate() {
        let queue = &snap.command_queues[w];
        lines.push(format!(
            "{:>7}  {:>6}  {:>6}  {:>6}  {:>6}  {:>9}  {:>5}/{}/{}",
            w,
            pct(worker.busy_frac()),
            pct(worker.starved_frac()),
            pct(worker.backpressure_frac()),
            pct(worker.idle_frac()),
            worker.commands,
            queue.len,
            queue.high_water,
            queue.capacity,
        ));
    }
    let lanes = snap
        .lanes
        .iter()
        .enumerate()
        .map(|(l, lane)| format!("{l}:{:.0}ms/{}p", lane.busy_wall_ns as f64 / 1e6, lane.pages))
        .collect::<Vec<_>>()
        .join("  ");
    lines.push(format!("  lanes  {lanes}"));
    lines.push(format!(
        "  completion queue {}/{}/{}",
        snap.completion_queue.len, snap.completion_queue.high_water, snap.completion_queue.capacity
    ));
    lines
}

fn run(options: &Options) -> Result<(), String> {
    let scale = &options.scale;
    let mut engine = Engine::new(
        LayerKind::Ftl,
        geometry(scale, CHANNELS),
        spec(scale),
        Some(scale.swl_config(SWL_THRESHOLD, 0)),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        EngineConfig::default()
            .with_threads(options.threads)
            .with_queue_depth(options.depth)
            .with_metrics(true),
    )
    .map_err(|e| format!("engine build failed: {e}"))?;
    let pages = engine.logical_pages();
    let effective_threads = engine.threads();
    let handle = engine.metrics_handle();
    let events = options.events;
    let seed = scale.seed;

    println!(
        "engtop: FTL x{CHANNELS}ch, {CHANNEL_SPAN}-page host requests, {events} events, \
         {effective_threads} worker(s), depth {}, SWL (T={SWL_THRESHOLD}, k=0, per-channel)",
        options.depth
    );

    let mut jsonl = vec![export::engtop_meta_line(
        CHANNELS,
        effective_threads,
        options.depth as u64,
        events,
        options.interval_ms,
    )];

    let driver = std::thread::spawn(move || -> Result<EngineRun, flash_sim::SimError> {
        engine.run(trace(pages, seed), StopCondition::events(events))?;
        engine.finish()
    });

    let live = std::io::stdout().is_terminal();
    let mut seq = 0u64;
    let mut last_height = 0usize;
    while !driver.is_finished() {
        let snap = handle.snapshot();
        export::tick_lines(&mut jsonl, seq, &snap);
        let lines = frame(&snap);
        if live {
            // Refresh in place: move the cursor back over the previous frame.
            if last_height > 0 {
                print!("\x1b[{last_height}A");
            }
            for line in &lines {
                println!("\x1b[2K{line}");
            }
            last_height = lines.len();
            std::io::stdout().flush().ok();
        }
        seq += 1;
        std::thread::sleep(Duration::from_millis(options.interval_ms));
    }
    let run = driver
        .join()
        .map_err(|_| "engine driver thread panicked".to_owned())?
        .map_err(|e| format!("engine run failed: {e}"))?;
    let metrics = run.metrics.expect("metrics were enabled");
    let snap = &metrics.snapshot;

    // Final frame (printed plainly so non-TTY runs still show the summary).
    if live && last_height > 0 {
        print!("\x1b[{last_height}A");
    }
    for line in frame(snap) {
        if live {
            println!("\x1b[2K{line}");
        } else {
            println!("{line}");
        }
    }
    let q = |h: &LatencyHistogram, p: f64| h.quantile(p);
    println!(
        "done: {} samples; cmd exec p50 {} µs p99 {} µs; op wall p50 {} µs p99 {} µs",
        seq,
        q(&metrics.cmd_latency, 0.5) / 1_000,
        q(&metrics.cmd_latency, 0.99) / 1_000,
        q(&metrics.op_write_wall, 0.5) / 1_000,
        q(&metrics.op_write_wall, 0.99) / 1_000,
    );

    jsonl.push(export::final_line(snap, |o| {
        o.u64("cmd_p50_ns", q(&metrics.cmd_latency, 0.5))
            .u64("cmd_p99_ns", q(&metrics.cmd_latency, 0.99))
            .u64("op_wall_p50_ns", q(&metrics.op_write_wall, 0.5))
            .u64("op_wall_p99_ns", q(&metrics.op_write_wall, 0.99));
    }));
    if let Some(path) = &options.out {
        std::fs::write(path, jsonl.join("\n") + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {} JSONL lines to {path}", jsonl.len());
    }
    Ok(())
}

/// `engtop --check`: validates an export in this tool's dialect, returning
/// its sample-tick count or every violation found.
fn check(text: &str) -> Result<u64, Vec<String>> {
    export::check(text, &ENGTOP)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &options.check {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("engtop: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match check(&text) {
            Ok(samples) => {
                println!("engtop: OK — {samples} sample tick(s), schema v{}", ENGTOP.schema);
                ExitCode::SUCCESS
            }
            Err(errors) => {
                for error in &errors {
                    eprintln!("engtop: {error}");
                }
                ExitCode::FAILURE
            }
        };
    }
    if let Err(message) = run(&options) {
        eprintln!("engtop: {message}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::check;

    const META: &str = "{\"kind\":\"engtop_meta\",\"schema\":1,\"channels\":4,\
                        \"threads\":2,\"queue_depth\":8,\"events\":100,\"interval_ms\":50}";
    const FINAL: &str = "{\"kind\":\"final\",\"t_ms\":9.0,\"ops_submitted\":100,\
                         \"ops_completed\":100,\"busy_frac\":0.5,\"starved_frac\":0.25,\
                         \"backpressure_frac\":0.1,\"host_backpressure_ms\":1.0,\
                         \"cmd_high_water\":4,\"completion_high_water\":2,\
                         \"cmd_p50_ns\":100,\"cmd_p99_ns\":200,\
                         \"op_wall_p50_ns\":300,\"op_wall_p99_ns\":400}";

    fn sample(t_ms: f64) -> String {
        format!(
            "{{\"kind\":\"sample\",\"seq\":0,\"t_ms\":{t_ms},\"ops_submitted\":1,\
             \"ops_completed\":0,\"busy_frac\":0.1,\"starved_frac\":0.2,\
             \"backpressure_frac\":0.0,\"host_backpressure_ms\":0.0,\
             \"cmd_high_water\":1,\"completion_high_water\":1}}"
        )
    }

    #[test]
    fn accepts_a_minimal_valid_export() {
        let text = format!("{META}\n{}\n{FINAL}\n", sample(1.0));
        assert_eq!(check(&text), Ok(1));
    }

    #[test]
    fn rejects_missing_meta_and_missing_final() {
        assert!(check(&format!("{}\n{FINAL}\n", sample(1.0))).is_err());
        assert!(check(&format!("{META}\n{}\n", sample(1.0))).is_err());
        assert!(check("").is_err());
    }

    #[test]
    fn rejects_time_regression_and_bad_fractions() {
        let back = format!("{META}\n{}\n{}\n{FINAL}\n", sample(5.0), sample(1.0));
        assert!(check(&back).is_err());
        let bad = sample(1.0).replace("\"busy_frac\":0.1", "\"busy_frac\":1.5");
        assert!(check(&format!("{META}\n{bad}\n{FINAL}\n")).is_err());
    }

    #[test]
    fn rejects_queue_high_water_regression() {
        let q = |t: f64, high: u64| {
            format!(
                "{{\"kind\":\"queue\",\"seq\":0,\"t_ms\":{t},\"queue\":\"cmd0\",\
                 \"len\":0,\"high_water\":{high},\"capacity\":8}}"
            )
        };
        let ok = format!("{META}\n{}\n{}\n{FINAL}\n", q(1.0, 2), q(2.0, 3));
        assert_eq!(check(&ok), Ok(0));
        let regressed = format!("{META}\n{}\n{}\n{FINAL}\n", q(1.0, 3), q(2.0, 2));
        assert!(check(&regressed).is_err());
        let over = q(1.0, 9);
        assert!(check(&format!("{META}\n{over}\n{FINAL}\n")).is_err());
    }

    fn cache(t_ms: f64, dirty: u64, capacity: u64) -> String {
        format!(
            "{{\"kind\":\"cache\",\"seq\":0,\"t_ms\":{t_ms},\"write_hits\":5,\
             \"read_hits\":2,\"admitted\":3,\"write_through\":1,\"flushed_pages\":4,\
             \"flush_batches\":2,\"evicted\":0,\"trimmed\":0,\
             \"dirty\":{dirty},\"capacity\":{capacity}}}"
        )
    }

    #[test]
    fn cache_lines_need_schema_v2() {
        let meta_v2 = META.replace("\"schema\":1", "\"schema\":2");
        let ok = format!("{meta_v2}\n{}\n{FINAL}\n", cache(1.0, 3, 8));
        assert_eq!(check(&ok), Ok(0));
        let v1 = format!("{META}\n{}\n{FINAL}\n", cache(1.0, 3, 8));
        assert!(check(&v1).is_err(), "cache lines are not part of schema v1");
    }

    #[test]
    fn rejects_cache_dirty_over_capacity_and_future_schema() {
        let meta_v2 = META.replace("\"schema\":1", "\"schema\":2");
        let over = format!("{meta_v2}\n{}\n{FINAL}\n", cache(1.0, 9, 8));
        assert!(check(&over).is_err());
        let future = META.replace("\"schema\":1", "\"schema\":4");
        assert!(check(&format!("{future}\n{FINAL}\n")).is_err());
    }

    fn health(t_ms: f64, state: u64, p90: u64, max: u64, band: Option<(u64, u64, u64)>) -> String {
        let forecast = band.map_or(String::new(), |(lo, mid, hi)| {
            format!(
                ",\"forecast_earliest\":{lo},\"forecast_central\":{mid},\
                 \"forecast_latest\":{hi}"
            )
        });
        format!(
            "{{\"kind\":\"health\",\"seq\":0,\"t_ms\":{t_ms},\"state\":{state},\
             \"life_used\":0.25,\"host_pages\":100,\"wear_max\":{max},\
             \"wear_p90\":{p90},\"wear_mean\":3.5,\"retired\":0,\
             \"tail_rate\":0.01,\"mean_rate\":0.008,\"unevenness\":1.2{forecast}}}"
        )
    }

    #[test]
    fn health_lines_need_schema_v3() {
        let meta_v3 = META.replace("\"schema\":1", "\"schema\":3");
        let ok = format!("{meta_v3}\n{}\n{FINAL}\n", health(1.0, 1, 4, 6, None));
        assert_eq!(check(&ok), Ok(0));
        let v2 = META.replace("\"schema\":1", "\"schema\":2");
        let rejected = format!("{v2}\n{}\n{FINAL}\n", health(1.0, 1, 4, 6, None));
        assert!(check(&rejected).is_err(), "health lines are not part of schema v2");
    }

    #[test]
    fn rejects_bad_health_state_tail_and_band() {
        let meta_v3 = META.replace("\"schema\":1", "\"schema\":3");
        let bad_state = format!("{meta_v3}\n{}\n{FINAL}\n", health(1.0, 5, 4, 6, None));
        assert!(check(&bad_state).is_err());
        let bad_tail = format!("{meta_v3}\n{}\n{FINAL}\n", health(1.0, 0, 9, 6, None));
        assert!(check(&bad_tail).is_err());
        let good_band = format!(
            "{meta_v3}\n{}\n{FINAL}\n",
            health(1.0, 0, 4, 6, Some((50, 80, 120)))
        );
        assert_eq!(check(&good_band), Ok(0));
        let bad_band = format!(
            "{meta_v3}\n{}\n{FINAL}\n",
            health(1.0, 0, 4, 6, Some((80, 50, 120)))
        );
        assert!(check(&bad_band).is_err());
    }

    #[test]
    fn rejects_partial_forecast_band() {
        let meta_v3 = META.replace("\"schema\":1", "\"schema\":3");
        let whole = health(1.0, 0, 4, 6, Some((50, 80, 120)));
        for dropped in [",\"forecast_latest\":120", ",\"forecast_central\":80"] {
            let partial = whole.replace(dropped, "");
            let errors = check(&format!("{meta_v3}\n{partial}\n{FINAL}\n")).unwrap_err();
            assert!(errors[0].contains("all together"), "{errors:?}");
        }
    }

    #[test]
    fn rejects_health_counters_that_regress() {
        let meta_v3 = META.replace("\"schema\":1", "\"schema\":3");
        let first = health(1.0, 0, 4, 6, None).replace("\"retired\":0", "\"retired\":1");
        let next = first.replace("\"seq\":0", "\"seq\":1");
        let ok = format!("{meta_v3}\n{first}\n{next}\n{FINAL}\n");
        assert_eq!(check(&ok), Ok(0));
        for (from, to, what) in [
            ("\"wear_max\":6", "\"wear_max\":5", "wear_max 5 regressed from 6"),
            ("\"host_pages\":100", "\"host_pages\":99", "host_pages 99 regressed from 100"),
            ("\"retired\":1", "\"retired\":0", "retired 0 regressed from 1"),
            ("\"seq\":1", "\"seq\":2", "health seq 2, expected 1"),
        ] {
            let bad = format!("{meta_v3}\n{first}\n{}\n{FINAL}\n", next.replace(from, to));
            let errors = check(&bad).unwrap_err();
            assert!(errors[0].contains(what), "{errors:?}");
        }
    }

    #[test]
    fn rejects_unknown_kinds_and_out_of_range_indices() {
        let unknown = "{\"kind\":\"mystery\",\"t_ms\":1.0}";
        assert!(check(&format!("{META}\n{unknown}\n{FINAL}\n")).is_err());
        let worker = "{\"kind\":\"worker\",\"t_ms\":1.0,\"worker\":7,\"busy_frac\":0.1,\
                      \"starved_frac\":0.1,\"backpressure_frac\":0.1,\"idle_frac\":0.7,\
                      \"commands\":1,\"pages\":1}";
        assert!(check(&format!("{META}\n{worker}\n{FINAL}\n")).is_err());
    }
}
