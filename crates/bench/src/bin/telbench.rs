//! `telbench` — measures and asserts the zero-cost claims of the telemetry
//! layer.
//!
//! **Sink arms** (the original gate): a quick-scale first-failure run (the
//! Figure 5 workload) through a [`flash_telemetry::NullSink`]-instrumented
//! stack must cost the same as the uninstrumented path, because `NullSink`
//! monomorphisation compiles every emission site out. Three arms,
//! interleaved:
//!
//! - `plain` — [`first_failure_run`], the pre-telemetry default path;
//! - `null` — [`instrumented_run`] with `NullSink` (must be free);
//! - `count` — [`instrumented_run`] with a counting sink (the real cost of
//!   instrumentation when a sink IS installed, reported for context).
//!
//! **Engine arms** (the runtime-metrics gate): the same 4-channel
//! per-channel-SWL workload through [`flash_sim::Engine`] with wall-clock
//! metrics off and on. The disabled path is a separate monomorphisation of
//! the worker loop that takes no timestamps at all, so metrics-off must
//! match the seed engine's cost; metrics-on is allowed at most 2% over
//! metrics-off, and both runs (plus the virtual-time oracle) must produce
//! bit-identical simulation reports — the metrics layer observes, never
//! perturbs.
//!
//! In release builds the `null` arm is asserted within 1% of `plain` and
//! the metrics-on arm within 2% of metrics-off; all
//! report-equality assertions run in every build. Overheads are computed
//! as the best *paired* per-rep ratio (arm vs its baseline measured
//! back-to-back), so common-mode machine noise cancels instead of flaking
//! the gate. The last stdout line is a machine-readable JSON summary.
//!
//! Usage: `telbench [reps]` (default 5).

use std::process::ExitCode;
use std::time::Instant;

use flash_bench::array::{geometry, spec};
use flash_sim::experiments::{first_failure_run, instrumented_run, ExperimentScale};
use flash_sim::{
    Engine, EngineConfig, LayerKind, SimConfig, SimReport, Simulator, StopCondition, StripedLayer,
    StripedReport, SwlCoordination,
};
use flash_telemetry::json;
use flash_telemetry::{CountSink, NullSink};
use flash_trace::{SyntheticTrace, TraceEvent, WorkloadSpec};

/// Allowed `null` vs `plain` overhead in release mode.
const MAX_OVERHEAD: f64 = 0.01;
/// Allowed engine metrics-on vs metrics-off overhead in release mode.
const MAX_ENGINE_OVERHEAD: f64 = 0.02;
/// Host ops pushed through the engine arms each rep.
const ENGINE_EVENTS: u64 = 1_500;
/// Pages per host op in the engine arms: 512 KiB requests (256 × 2 KiB
/// pages), the classic large-sequential-I/O benchmark shape. Striped over
/// 4 channels this is 64 pages of simulated work per lane command, so the
/// metered path's one clock read per command is measured as arithmetic
/// overhead rather than drowned in per-command queueing noise.
const ENGINE_SPAN: u32 = 256;
const ENGINE_CHANNELS: u32 = 4;

fn timed(run: impl FnOnce() -> SimReport) -> (f64, SimReport) {
    let start = Instant::now();
    let report = run();
    (start.elapsed().as_secs_f64(), report)
}

fn engine_trace(logical_pages: u64, seed: u64) -> impl Iterator<Item = TraceEvent> {
    SyntheticTrace::new(WorkloadSpec::paper(logical_pages).with_seed(seed))
        .map(move |e| e.widen(ENGINE_SPAN, logical_pages))
}

/// The virtual-time oracle for the engine arms' configuration.
fn engine_oracle(scale: &ExperimentScale) -> StripedReport {
    let mut striped = StripedLayer::build(
        LayerKind::Ftl,
        geometry(scale, ENGINE_CHANNELS),
        spec(scale),
        Some(scale.swl_config(100, 0)),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
    )
    .expect("oracle build failed");
    let pages = striped.logical_pages();
    Simulator::new()
        .run_striped(
            &mut striped,
            engine_trace(pages, scale.seed),
            StopCondition::events(ENGINE_EVENTS),
        )
        .expect("oracle run failed")
}

/// One engine run with wall-clock metrics toggled; wall seconds and the
/// report.
fn engine_arm(scale: &ExperimentScale, metrics: bool) -> (f64, StripedReport) {
    let mut engine = Engine::new(
        LayerKind::Ftl,
        geometry(scale, ENGINE_CHANNELS),
        spec(scale),
        Some(scale.swl_config(100, 0)),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        EngineConfig::default()
            .with_threads(ENGINE_CHANNELS)
            .with_queue_depth(64)
            .with_metrics(metrics),
    )
    .expect("engine build failed");
    let pages = engine.logical_pages();
    let start = Instant::now();
    engine
        .run(
            engine_trace(pages, scale.seed),
            StopCondition::events(ENGINE_EVENTS),
        )
        .expect("engine run failed");
    let run = engine.finish().expect("engine finish failed");
    assert_eq!(
        run.metrics.is_some(),
        metrics,
        "metrics report presence must match the configuration"
    );
    (start.elapsed().as_secs_f64(), run.report)
}

fn main() -> ExitCode {
    let reps: u32 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("reps must be a positive integer"))
        .unwrap_or(5)
        .max(1);
    let scale = ExperimentScale::quick();
    let kind = LayerKind::Ftl;
    let swl = Some(scale.swl_config(100, 0));
    let stop = StopCondition::first_failure();

    let mut plain_min = f64::INFINITY;
    let mut null_min = f64::INFINITY;
    let mut count_min = f64::INFINITY;
    let mut engine_off_min = f64::INFINITY;
    let mut engine_on_min = f64::INFINITY;
    // Overheads are gated on the best *paired* per-rep ratio, not on the
    // quotient of independent minima: an arm and its baseline run
    // back-to-back inside one rep, so common-mode machine noise (frequency
    // drift, a noisy neighbour) hits both sides of a pair roughly equally,
    // and since noise only ever inflates a measurement the cleanest pair
    // bounds the true overhead from above.
    let mut null_ratio = f64::INFINITY;
    let mut count_ratio = f64::INFINITY;
    let mut engine_ratio = f64::INFINITY;
    let mut reference: Option<SimReport> = None;
    let mut events = 0u64;
    let engine_reference = engine_oracle(&scale);

    for rep in 0..reps {
        let (plain_s, plain) = timed(|| first_failure_run(kind, swl, &scale).expect("plain run"));
        let (null_s, null) = timed(|| {
            instrumented_run(kind, swl, &scale, NullSink, stop)
                .expect("null-sink run")
                .0
        });
        let (count_s, (count, sink)) = timed_pair(|| {
            instrumented_run(kind, swl, &scale, CountSink::default(), stop).expect("count-sink run")
        });
        let (engine_off_s, engine_off) = engine_arm(&scale, false);
        let (engine_on_s, engine_on) = engine_arm(&scale, true);
        plain_min = plain_min.min(plain_s);
        null_min = null_min.min(null_s);
        count_min = count_min.min(count_s);
        engine_off_min = engine_off_min.min(engine_off_s);
        engine_on_min = engine_on_min.min(engine_on_s);
        null_ratio = null_ratio.min(null_s / plain_s);
        count_ratio = count_ratio.min(count_s / plain_s);
        engine_ratio = engine_ratio.min(engine_on_s / engine_off_s);
        events = sink.events;

        assert_eq!(plain, null, "NullSink run diverged from the plain path");
        assert_eq!(plain, count, "CountSink run perturbed the simulation");
        assert_eq!(
            engine_off, engine_reference,
            "metrics-off engine diverged from the virtual-time oracle"
        );
        assert_eq!(
            engine_on, engine_reference,
            "metrics-on engine diverged from the virtual-time oracle"
        );
        if let Some(reference) = &reference {
            assert_eq!(reference, &plain, "rep {rep} not reproducible");
        } else {
            reference = Some(plain);
        }
    }

    let null_overhead = null_ratio - 1.0;
    let count_overhead = count_ratio - 1.0;
    let engine_overhead = engine_ratio - 1.0;
    println!(
        "telemetry overhead, quick-scale fig5 workload, \
         min times / best-pair overheads over {reps} reps:"
    );
    println!("  plain       {:>9.2} ms", plain_min * 1e3);
    println!(
        "  null sink   {:>9.2} ms  ({:+.2}%)",
        null_min * 1e3,
        null_overhead * 100.0
    );
    println!(
        "  count sink  {:>9.2} ms  ({:+.2}%, {events} events)",
        count_min * 1e3,
        count_overhead * 100.0
    );
    println!(
        "engine runtime metrics, {ENGINE_EVENTS} events x{ENGINE_CHANNELS}ch, \
         min times / best-pair overhead over {reps} reps:"
    );
    println!("  metrics off {:>9.2} ms", engine_off_min * 1e3);
    println!(
        "  metrics on  {:>9.2} ms  ({:+.2}%)",
        engine_on_min * 1e3,
        engine_overhead * 100.0
    );
    println!("  all engine reports bit-identical to the virtual-time oracle");

    let sink_pass = cfg!(debug_assertions) || null_overhead <= MAX_OVERHEAD;
    let engine_pass = cfg!(debug_assertions) || engine_overhead <= MAX_ENGINE_OVERHEAD;
    let pass = sink_pass && engine_pass;
    println!(
        "{}",
        json::object(|o| {
            o.str("bench", "telemetry_overhead")
                .u64("reps", u64::from(reps))
                .f64("plain_ms", plain_min * 1e3, 3)
                .f64("null_sink_ms", null_min * 1e3, 3)
                .f64("count_sink_ms", count_min * 1e3, 3)
                .f64("null_overhead", null_overhead, 4)
                .f64("count_overhead", count_overhead, 4)
                .u64("events", events)
                .f64("engine_off_ms", engine_off_min * 1e3, 3)
                .f64("engine_on_ms", engine_on_min * 1e3, 3)
                .f64("engine_overhead", engine_overhead, 4)
                .bool("engine_bit_identical", true)
                .bool("pass", pass);
        })
    );
    if !sink_pass {
        eprintln!(
            "telbench: NullSink overhead {:.2}% exceeds the {:.0}% budget",
            null_overhead * 100.0,
            MAX_OVERHEAD * 100.0
        );
    }
    if !engine_pass {
        eprintln!(
            "telbench: engine metrics overhead {:.2}% exceeds the {:.0}% budget",
            engine_overhead * 100.0,
            MAX_ENGINE_OVERHEAD * 100.0
        );
    }
    if !pass {
        return ExitCode::FAILURE;
    }
    if cfg!(debug_assertions) {
        eprintln!("telbench: debug build — overhead assertions skipped (run with --release)");
    }
    ExitCode::SUCCESS
}

fn timed_pair<T>(run: impl FnOnce() -> (SimReport, T)) -> (f64, (SimReport, T)) {
    let start = Instant::now();
    let out = run();
    (start.elapsed().as_secs_f64(), out)
}
