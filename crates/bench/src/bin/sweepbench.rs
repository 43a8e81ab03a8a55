//! Times the Figure 5 sweep serially and with the parallel fan-out,
//! verifies the two produce bit-identical points, and emits the wall-clock
//! comparison as `BENCH_sweep.json` (one JSON object) next to a
//! human-readable summary on stdout.
//!
//! Usage: `sweepbench [quick|scaled|paper]`

use std::time::Instant;

use flash_bench::scale_from_args;
use flash_sim::experiments::{first_failure_sweep, PAPER_KS, PAPER_THRESHOLDS};
use flash_sim::{parallel, LayerKind};
use flash_telemetry::json;

fn timed_sweep(
    threads: usize,
    scale: &flash_sim::experiments::ExperimentScale,
) -> (f64, Vec<flash_sim::experiments::FailurePoint>) {
    // The sweeps read the worker count from the environment; pin it for
    // this measurement. Single-threaded main, so this is race-free.
    std::env::set_var(parallel::THREADS_ENV, threads.to_string());
    let start = Instant::now();
    let points = first_failure_sweep(LayerKind::Ftl, scale, &PAPER_THRESHOLDS, &PAPER_KS)
        .expect("simulation failed");
    (start.elapsed().as_secs_f64(), points)
}

fn main() {
    let scale = scale_from_args();
    let threads = parallel::sweep_threads();
    let grid_points = PAPER_THRESHOLDS.len() * PAPER_KS.len() + 1;
    println!(
        "sweep timing: FTL first-failure sweep, {grid_points} points, \
         {} blocks x {} pages, endurance {}",
        scale.blocks, scale.pages_per_block, scale.endurance
    );

    let (serial_s, serial) = timed_sweep(1, &scale);
    println!("serial   (1 thread):   {serial_s:8.2} s");
    let (parallel_s, parallel) = timed_sweep(threads, &scale);
    println!("parallel ({threads} threads):  {parallel_s:8.2} s");

    let identical = serial == parallel;
    let speedup = serial_s / parallel_s;
    println!("speedup: {speedup:.2}x   bit-identical: {identical}");
    assert!(identical, "parallel sweep diverged from serial");

    let json = json::object(|o| {
        o.str("bench", "first_failure_sweep")
            .str("layer", "ftl")
            .u64("blocks", u64::from(scale.blocks))
            .u64("pages_per_block", u64::from(scale.pages_per_block))
            .u64("endurance", u64::from(scale.endurance))
            .u64("grid_points", grid_points as u64)
            .u64("threads", threads as u64)
            .f64("serial_s", serial_s, 3)
            .f64("parallel_s", parallel_s, 3)
            .f64("speedup", speedup, 3)
            .bool("bit_identical", identical);
    }) + "\n";
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    println!("wrote BENCH_sweep.json");
}
