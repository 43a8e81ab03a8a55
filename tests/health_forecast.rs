//! End-to-end honesty of the health plane's failure forecast: real
//! endurance-limited runs to actual first block failure, each scored against
//! the forecast the plane gave at half of the device's realized life, so the
//! [`HALF_LIFE_ERROR_BOUND`] documented in `flash_telemetry::health` stays an
//! asserted contract, not a hope. Two inputs: every block honours its rated
//! endurance (the assumption the forecast is built on), or fault injection
//! gives every block a private endurance below the rating, so blocks die
//! earlier than the plane believes.
//!
//! Every write here is followed by a durability barrier, so where a run
//! stops, every report and the resulting error figures are the same on any
//! number of CPUs.

use flash_bench::array::HotWrites;
use flash_sim::service::{Service, ServiceConfig};
use flash_sim::{EngineConfig, LayerKind, SimConfig, SwlCoordination};
use flash_telemetry::health::{HealthReport, HealthState, HALF_LIFE_ERROR_BOUND};
use nand::{CellKind, ChannelGeometry, FaultPlan, Geometry};
use swl_core::SwlConfig;

const CHANNELS: u32 = 4;
/// Low rated endurance so the quick geometry fails in test time: short
/// enough for seconds-scale runs, long enough that the wear-rate estimator
/// is settled by half life.
const ENDURANCE: u32 = 24;
const RECORD_EVERY: u64 = 200;
/// The faulty input's private block endurances: uniform over
/// `[3/4 × rated, rated]`.
const FAULT_RANGE: (u64, u64) = (18, 24);
/// Extra error the faulty input is allowed: its blocks die up to 25 % before
/// the rating the forecast assumes, so the forecast overshoots by
/// construction. The slack equals that injected shortfall.
const FAULT_SLACK: f64 = 0.25;

fn build_service(sim: &SimConfig) -> Service {
    let geometry = ChannelGeometry::new(CHANNELS, 1, Geometry::new(16, 32, 2048));
    Service::build(
        LayerKind::Ftl,
        geometry,
        CellKind::Mlc2.spec().with_endurance(ENDURANCE),
        Some(SwlConfig::new(100, 0).with_seed(42)),
        SwlCoordination::PerChannel,
        sim,
        ServiceConfig::default().with_engine(
            EngineConfig::default()
                .with_threads(CHANNELS)
                .with_queue_depth(8),
        ),
    )
    .expect("service build failed")
}

/// Drives hot-biased writes until the first block dies — organic wear-out
/// at the rating, or a fault-injected erase failure retiring a block below
/// it. Returns `(host_pages, forecast)` at each poll and the report
/// at the failure. Every write is followed by a barrier, so the run stops at
/// the write that killed the block however far the workers had got.
fn run_to_first_failure(sim: &SimConfig) -> (Vec<(u64, Option<u64>)>, HealthReport) {
    let mut service = build_service(sim);
    let mut workload = HotWrites::new(service.logical_pages(), 42);
    let mut records: Vec<(u64, Option<u64>)> = Vec::new();
    for ops in 1u64.. {
        let (lba, data) = workload.next_write();
        service.write(lba, &data).expect("write failed");
        service.flush().expect("flush failed");
        let retired = service
            .health_sample()
            .expect("health sample failed")
            .retired;
        if service.first_failure().is_some() || retired > 0 {
            break;
        }
        if ops.is_multiple_of(RECORD_EVERY) {
            let report = service.stats().expect("stats failed");
            records.push((report.host_pages, report.forecast));
        }
        assert!(ops < 2_000_000, "run must reach first failure");
    }
    let final_report = service.stats().expect("stats failed");
    service.finish().expect("service finish failed");
    (records, final_report)
}

/// Relative error of the forecast taken nearest 50 % of the realized life,
/// with its context for a failure message.
fn half_life_error(records: &[(u64, Option<u64>)], total: u64) -> (f64, String) {
    let (at_pages, left) = records
        .iter()
        .filter_map(|&(pages, forecast)| forecast.map(|left| (pages, left)))
        .min_by_key(|&(pages, _)| pages.abs_diff(total / 2))
        .expect("a failing run produces bounded forecasts");
    let predicted = at_pages + left;
    let error = (predicted as f64 - total as f64).abs() / total as f64;
    let context = format!("at {at_pages} pages predicted {predicted}, reality {total}");
    (error, context)
}

#[test]
fn half_life_forecast_predicts_first_failure_within_bound() {
    let (records, final_report) = run_to_first_failure(&SimConfig::default());

    // At the realized failure the plane must say so, in every field.
    assert_eq!(
        final_report.state,
        HealthState::Critical,
        "a device at first failure must report critical"
    );
    assert!(
        final_report.life_used >= 1.0,
        "life_used {} below 1.0 at first failure",
        final_report.life_used
    );
    assert_eq!(
        final_report.forecast,
        Some(0),
        "the forecast must hit zero once a block is at its rating"
    );

    // Score the forecast taken nearest 50 % of the realized life.
    let (error, context) = half_life_error(&records, final_report.host_pages);
    assert!(
        error <= HALF_LIFE_ERROR_BOUND,
        "half-life forecast error {error:.3} exceeds the documented bound \
         {HALF_LIFE_ERROR_BOUND} ({context})"
    );
}

#[test]
fn half_life_forecast_on_blocks_rated_above_their_endurance_within_slack() {
    let (lo, hi) = FAULT_RANGE;
    let sim = SimConfig {
        fault: Some(FaultPlan::new(42).with_endurance_range(lo, hi)),
        ..SimConfig::default()
    };
    let (records, final_report) = run_to_first_failure(&sim);
    assert_eq!(final_report.retired, 1, "a grown-bad block ends the run");
    let bound = HALF_LIFE_ERROR_BOUND + FAULT_SLACK;
    let (error, context) = half_life_error(&records, final_report.host_pages);
    assert!(
        error <= bound,
        "faulty half-life forecast error {error:.3} exceeds {bound} ({context})"
    );
}
