//! End-to-end gate for causal-span latency attribution.
//!
//! `attributed_horizon_run` rides a `MetricsAggregator` on the device while
//! the simulator measures per-op latency its own way (bracketing
//! `busy_ns` around each host op). The span layer brackets exactly the same
//! window, so the aggregator's histograms must equal the report's
//! **bit-exactly** — same counts, same buckets, same totals — and every
//! nanosecond of host-op device time must land in exactly one attribution
//! cause.

use flash_sim::experiments::{attributed_horizon_run, ExperimentScale, NANOS_PER_YEAR};
use flash_sim::LayerKind;
use flash_telemetry::{SpanCause, SpanKind};

#[test]
fn aggregator_matches_simulator_latency_bit_exactly() {
    let scale = ExperimentScale::quick();
    let horizon = (0.01 * NANOS_PER_YEAR) as u64;
    for kind in [LayerKind::Ftl, LayerKind::Nftl] {
        let (report, metrics) =
            attributed_horizon_run(kind, Some(scale.swl_config(100, 0)), &scale, horizon)
                .expect("instrumented run");
        assert!(report.counters.host_writes > 0, "{kind}: run must do work");

        let check = metrics.span_check();
        assert!(check.is_clean(), "{kind}: span structure broken: {check:?}");

        // The two latency measurements are independent implementations of
        // the same bracket; equality is exact, including bucket contents.
        assert_eq!(
            metrics.op_latency(SpanKind::HostWrite).unwrap(),
            &report.write_latency,
            "{kind}: write histograms diverged"
        );
        assert_eq!(
            metrics.op_latency(SpanKind::HostRead).unwrap(),
            &report.read_latency,
            "{kind}: read histograms diverged"
        );

        // 100% attribution: per-cause totals partition the host-op totals.
        let cause_total: u64 = SpanCause::ALL
            .iter()
            .map(|&c| metrics.cause_latency(c).total_ns())
            .sum();
        assert_eq!(
            cause_total,
            report.write_latency.total_ns() + report.read_latency.total_ns(),
            "{kind}: attribution must cover every nanosecond exactly once"
        );

        // Every host op completed as a root span.
        assert_eq!(
            metrics.spans_completed(),
            report.counters.host_writes + report.counters.host_reads,
            "{kind}: one root span per host op"
        );

        // Write amplification: at least one program per host write.
        assert!(
            metrics.write_amplification() >= 1.0,
            "{kind}: WA {} < 1",
            metrics.write_amplification()
        );
        assert!(metrics.max_write_programs() >= 1);
    }
}

#[test]
fn swl_time_shows_up_under_leveling() {
    // With an aggressive threshold the FTL runs SWL passes synchronously
    // under host writes; the swl cause histogram must see them.
    let scale = ExperimentScale::quick();
    let horizon = (0.01 * NANOS_PER_YEAR) as u64;
    let (_, metrics) = attributed_horizon_run(
        LayerKind::Ftl,
        Some(scale.swl_config(100, 0)),
        &scale,
        horizon,
    )
    .expect("instrumented run");
    let swl = metrics.cause_latency(SpanCause::Swl);
    let gc = metrics.cause_latency(SpanCause::Gc);
    assert!(
        swl.count() + gc.count() > 0,
        "an SWL-enabled run must attribute some time beyond the host cause"
    );
    // The baseline run never invokes SWL, so its swl cause stays empty.
    let (_, baseline) = attributed_horizon_run(LayerKind::Ftl, None, &scale, horizon)
        .expect("baseline instrumented run");
    assert_eq!(baseline.cause_latency(SpanCause::Swl).count(), 0);
    assert_eq!(baseline.cause_latency(SpanCause::Merge).count(), 0);
}
