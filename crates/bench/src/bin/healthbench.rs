//! `healthbench` — the health plane's honesty gate: drives endurance-
//! limited runs to **actual first block failure** and scores the forecast
//! against reality, instead of trusting the model's own math.
//!
//! Two arms, both at the quick geometry (4-channel FTL + per-channel SWL,
//! cache-off service so every host page reaches flash):
//!
//! - **rated** — every block honours its rated endurance exactly (the
//!   assumption the forecast is built on). The forecast taken nearest 50 %
//!   of the device's realized life must predict the failure point within
//!   [`HALF_LIFE_ERROR_BOUND`].
//! - **faulty** — fault injection gives every block a private endurance
//!   drawn below the rating ([`FaultPlan::with_endurance_range`]), so
//!   blocks die *earlier* than the health plane believes. The forecast is
//!   structurally optimistic here; the gate allows [`FAULT_SLACK`] extra
//!   error and the run documents how far reality diverged.
//!
//! Reports are taken every [`DEFAULT_RECORD_EVERY`] accepted ops at a
//! durability barrier (`flush()` before `stats()`), so each arm's error
//! figure is deterministic and the gate cannot flake: barrier-free
//! polling samples the shared atomics mid-flight, and which wear table a
//! record happens to see moves the scored forecast by double-digit
//! percents run to run. (Barrier-free polling itself is exercised — and
//! pinned harmless to the run's outcome — by `tests/service_oracle.rs`.)
//! The JSON summary lands in
//! `BENCH_health.json`; any gate miss exits non-zero. The rated arm must
//! also end in the `critical` state — a device at first failure that still
//! reports otherwise would make the state ladder a lie.
//!
//! Usage: `healthbench [--endurance N] [--record-every N]`
//!
//! [`FaultPlan::with_endurance_range`]: nand::FaultPlan::with_endurance_range

use std::process::ExitCode;

use flash_bench::array::{arg_number, geometry, HotWrites, CHANNELS};
use flash_sim::experiments::ExperimentScale;
use flash_sim::service::{Service, ServiceConfig};
use flash_sim::{EngineConfig, LayerKind, SimConfig, SwlCoordination};
use flash_telemetry::health::{HealthReport, HALF_LIFE_ERROR_BOUND};
use flash_telemetry::json;
use nand::{CellKind, FaultPlan};
use swl_core::SwlConfig;

const SWL_THRESHOLD: u64 = 100;
/// Rated per-block endurance of both arms (low: failure in seconds).
const DEFAULT_ENDURANCE: u32 = 24;
/// Ops between forecast records.
const DEFAULT_RECORD_EVERY: u64 = 200;
/// Extra error the faulty arm is allowed: its blocks die up to 25 % before
/// the rating the forecast assumes, so the forecast overshoots by
/// construction. The slack equals that injected shortfall.
const FAULT_SLACK: f64 = 0.25;
/// Faulty arm: private block endurances drawn uniformly from
/// `[3/4 * rated, rated]`.
const FAULT_LO_FRAC: f64 = 0.75;

/// One mid-run forecast record.
struct Record {
    host_pages: u64,
    central: Option<u64>,
    earliest: Option<u64>,
    latest: Option<u64>,
}

struct Arm {
    name: &'static str,
    fault_range: Option<(u64, u64)>,
    records: Vec<Record>,
    /// Host pages on flash when the first block died.
    total_pages: u64,
    final_report: HealthReport,
}

/// Drives one arm to first failure, recording the forecast as it goes.
fn run_arm(
    name: &'static str,
    endurance: u32,
    fault_range: Option<(u64, u64)>,
    record_every: u64,
) -> Arm {
    let scale = ExperimentScale::quick();
    let mut sim = SimConfig::default();
    if let Some((lo, hi)) = fault_range {
        sim.fault = Some(FaultPlan::new(scale.seed).with_endurance_range(lo, hi));
    }
    let mut service = Service::build(
        LayerKind::Ftl,
        geometry(&scale, CHANNELS),
        CellKind::Mlc2.spec().with_endurance(endurance),
        Some(SwlConfig::new(SWL_THRESHOLD, 0).with_seed(scale.seed)),
        SwlCoordination::PerChannel,
        &sim,
        ServiceConfig::default().with_engine(
            EngineConfig::default()
                .with_threads(CHANNELS)
                .with_queue_depth(8)
                .with_health(true),
        ),
    )
    .expect("service build failed");
    let mut workload = HotWrites::new(service.logical_pages(), scale.seed);
    let runtime = service.health_runtime().expect("health was enabled");
    let mut records = Vec::new();
    let mut ops = 0u64;
    // First block death, whichever way it comes: organic wear-out at the
    // rating (rated arm), or a fault-injected erase failure retiring the
    // block below it (faulty arm — the rated wear-out record never fires
    // there, the block is grown-bad first).
    while service.first_failure().is_none() && runtime.sample().retired == 0 {
        let (lba, data) = workload.next_write();
        service.write(lba, &data).expect("write failed");
        ops += 1;
        if ops.is_multiple_of(record_every) {
            // Quiesce so the record (and the scored error) is deterministic.
            service.flush().expect("record flush failed");
            let report = service.stats().expect("health was enabled");
            records.push(Record {
                host_pages: report.host_pages,
                central: report.forecast.central,
                earliest: report.forecast.earliest,
                latest: report.forecast.latest,
            });
        }
    }
    // Quiesce so the final sample counts every page that reached flash.
    service.flush().expect("post-failure flush failed");
    let final_report = service.stats().expect("health was enabled");
    let total_pages = final_report.host_pages;
    service.finish().expect("service finish failed");
    println!(
        "{name}: first block death after {ops} ops / {total_pages} host pages \
         ({} records, final state {}, life {:.2})",
        records.len(),
        final_report.state.token(),
        final_report.life_used,
    );
    Arm {
        name,
        fault_range,
        records,
        total_pages,
        final_report,
    }
}

/// The record nearest 50 % of the arm's realized life that carried a
/// bounded central forecast.
fn record_at_half(arm: &Arm) -> &Record {
    let half = arm.total_pages / 2;
    arm.records
        .iter()
        .filter(|r| r.central.is_some())
        .min_by_key(|r| r.host_pages.abs_diff(half))
        .expect("a failing run produces bounded forecasts")
}

/// Relative error of the half-life forecast against the realized failure.
fn half_life_error(arm: &Arm) -> f64 {
    let at = record_at_half(arm);
    let predicted = at.host_pages + at.central.expect("record filtered on Some");
    (predicted as f64 - arm.total_pages as f64).abs() / arm.total_pages.max(1) as f64
}

fn main() -> ExitCode {
    let endurance = arg_number("--endurance", DEFAULT_ENDURANCE);
    let record_every = arg_number("--record-every", DEFAULT_RECORD_EVERY).max(1);
    let fault_lo = ((f64::from(endurance) * FAULT_LO_FRAC).floor() as u64).max(1);
    println!(
        "healthbench: quick geometry, FTL x{CHANNELS}ch, rated endurance {endurance}, \
         faulty arm draws {fault_lo}..={endurance}, record every {record_every} ops"
    );

    let rated = run_arm("rated", endurance, None, record_every);
    let faulty = run_arm(
        "faulty",
        endurance,
        Some((fault_lo, u64::from(endurance))),
        record_every,
    );

    let mut pass = true;
    let mut failures: Vec<String> = Vec::new();
    let arms = [(&rated, HALF_LIFE_ERROR_BOUND), (&faulty, HALF_LIFE_ERROR_BOUND + FAULT_SLACK)];
    for (arm, bound) in &arms {
        let at = record_at_half(arm);
        let error = half_life_error(arm);
        let central = at.central.expect("record filtered on Some");
        println!(
            "{}: at {} pages forecast {} more (band {}..{}), reality {} more — \
             error {:.1}% (bound {:.0}%)",
            arm.name,
            at.host_pages,
            central,
            at.earliest.unwrap_or(0),
            at.latest.unwrap_or(0),
            arm.total_pages - at.host_pages.min(arm.total_pages),
            error * 100.0,
            bound * 100.0,
        );
        if error > *bound {
            pass = false;
            failures.push(format!(
                "healthbench: {} half-life forecast error {:.1}% exceeds the {:.0}% bound",
                arm.name,
                error * 100.0,
                bound * 100.0
            ));
        }
    }
    if rated.final_report.state.code() != 2 {
        pass = false;
        failures.push(format!(
            "healthbench: rated arm ended {} at first failure, expected critical",
            rated.final_report.state.token()
        ));
    }

    let json_text = json::object(|o| {
        o.str("bench", "health_forecast")
            .str("geometry", "quick")
            .u64("channels", u64::from(CHANNELS))
            .u64("endurance", u64::from(endurance))
            .u64("record_every", record_every)
            .f64("half_life_error_bound", HALF_LIFE_ERROR_BOUND, 4)
            .f64("fault_slack", FAULT_SLACK, 4)
            .bool("pass", pass)
            .arr("arms", |a| {
                for (arm, bound) in &arms {
                    let at = record_at_half(arm);
                    let central = at.central.expect("record filtered on Some");
                    let predicted = at.host_pages + central;
                    a.obj(|row| {
                        row.str("name", arm.name)
                            .u64("host_pages_to_failure", arm.total_pages)
                            .u64("records", arm.records.len() as u64)
                            .u64("forecast_at_pages", at.host_pages)
                            .u64("forecast_central", central)
                            .u64("forecast_earliest", at.earliest.unwrap_or(0))
                            .u64("forecast_latest", at.latest.unwrap_or(0))
                            .u64("predicted_total", predicted)
                            .f64("error_frac", half_life_error(arm), 4)
                            .f64("error_bound", *bound, 4)
                            .bool(
                                "band_brackets_reality",
                                at.earliest.zip(at.latest).is_some_and(|(lo, hi)| {
                                    (at.host_pages + lo..=at.host_pages + hi)
                                        .contains(&arm.total_pages)
                                }),
                            )
                            .str("final_state", arm.final_report.state.token())
                            .f64("final_life_used", arm.final_report.life_used, 4)
                            .u64("retired", arm.final_report.retired);
                        if let Some((lo, hi)) = arm.fault_range {
                            row.u64("fault_endurance_lo", lo).u64("fault_endurance_hi", hi);
                        }
                    });
                }
            });
    });
    std::fs::write("BENCH_health.json", json_text + "\n").expect("write BENCH_health.json");
    println!("wrote BENCH_health.json");
    for failure in &failures {
        eprintln!("{failure}");
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
