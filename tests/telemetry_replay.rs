//! Round-trip property of the telemetry pipeline: a simulation streamed
//! through a [`JsonlSink`], re-parsed line by line, and folded through a
//! [`MetricsAggregator`] must reproduce the run's [`FlashCounters`] totals
//! *exactly* — events are a lossless superset of the counters, across both
//! translation layers, with and without the SW Leveler. The same holds for a
//! striped array's one interleaved stream, whose per-lane block ids must also
//! fold back into the run's array-wide wear distribution.

use proptest::prelude::*;

use flash_sim::experiments::{instrumented_run, instrumented_striped_run, ExperimentScale};
use flash_sim::{LayerKind, SimReport, StopCondition, StripedReport};
use flash_telemetry::{parse_line, Event, JsonlSink, MetricsAggregator, Sink, SCHEMA_VERSION};

/// Runs a quick-scale simulation with a JSONL sink, replays the produced log
/// through an aggregator, and returns both ends of the pipe.
fn run_and_replay(
    kind: LayerKind,
    with_swl: bool,
    events: u64,
) -> (SimReport, MetricsAggregator, u64) {
    let scale = ExperimentScale::quick();
    let swl = with_swl.then(|| scale.swl_config(100, 0));
    let stop = StopCondition::events(events).or_first_failure();
    let (report, sink) = instrumented_run(kind, swl, &scale, JsonlSink::new(Vec::new()), stop)
        .expect("instrumented run");
    let (agg, parsed) = replay(sink);
    (report, agg, parsed)
}

/// [`run_and_replay`] over a `channels`-lane striped array: one stream
/// shared by every lane, with its `Event::Channel` markers.
fn striped_run_and_replay(
    kind: LayerKind,
    channels: u32,
    with_swl: bool,
    events: u64,
) -> (StripedReport, MetricsAggregator) {
    let scale = ExperimentScale::quick();
    let swl = with_swl.then(|| scale.swl_config(100, 0));
    let stop = StopCondition::events(events).or_first_failure();
    let sink = JsonlSink::new(Vec::new());
    let (report, sink) = instrumented_striped_run(kind, channels, swl, &scale, sink, stop)
        .expect("instrumented striped run");
    (report, replay(sink).0)
}

/// Parses a finished JSONL log line by line into an aggregator; returns it
/// and the number of lines.
fn replay(sink: JsonlSink<Vec<u8>>) -> (MetricsAggregator, u64) {
    let lines = sink.lines();
    let bytes = sink.finish().expect("Vec<u8> writer cannot fail");
    let text = String::from_utf8(bytes).expect("JSONL is UTF-8");

    let mut agg = MetricsAggregator::new();
    let mut parsed = 0u64;
    for (n, line) in text.lines().enumerate() {
        let event = parse_line(line).unwrap_or_else(|e| panic!("line {}: {e}", n + 1));
        if n == 0 {
            assert!(
                matches!(event, Event::Meta { .. }),
                "log must start with a meta header, got {event:?}"
            );
        }
        agg.event(event);
        parsed += 1;
    }
    assert_eq!(parsed, lines, "sink line count disagrees with the log");
    (agg, parsed)
}

/// Asserts the exactness contract for one pipeline run.
fn assert_replay_exact(kind: LayerKind, with_swl: bool, events: u64) {
    let scale = ExperimentScale::quick();
    let (report, agg, parsed) = run_and_replay(kind, with_swl, events);
    assert!(parsed > 0, "log is empty");
    assert_eq!(
        agg.meta(),
        Some((SCHEMA_VERSION, scale.blocks, scale.pages_per_block)),
        "meta header must carry the device geometry"
    );
    assert_eq!(
        agg.counters(),
        report.counters,
        "replayed counters diverge from the live run ({kind}, swl={with_swl})"
    );
    if with_swl {
        assert!(
            agg.swl_invokes() > 0,
            "quick-scale SWL run should activate the leveler at least once"
        );
    } else {
        assert_eq!(agg.swl_invokes(), 0);
        assert_eq!(report.counters.swl_erases, 0);
    }
}

#[test]
fn ftl_replay_reproduces_counters_exactly() {
    assert_replay_exact(LayerKind::Ftl, true, 30_000);
    assert_replay_exact(LayerKind::Ftl, false, 30_000);
}

#[test]
fn nftl_replay_reproduces_counters_exactly() {
    assert_replay_exact(LayerKind::Nftl, true, 30_000);
    assert_replay_exact(LayerKind::Nftl, false, 30_000);
}

/// A striped array's stream replays its counters exactly, and its wear
/// summary is the run's erase statistics over every lane's blocks — which
/// holds only if each erase lands on the block of the lane its marker names.
#[test]
fn striped_replay_reproduces_counters_and_wear_exactly() {
    let scale = ExperimentScale::quick();
    for channels in [1, 2, 4] {
        for kind in [LayerKind::Ftl, LayerKind::Nftl] {
            for with_swl in [true, false] {
                let (report, agg) = striped_run_and_replay(kind, channels, with_swl, 20_000);
                let case = format!("{kind} x{channels}ch swl={with_swl}");
                assert_eq!(
                    agg.meta(),
                    Some((SCHEMA_VERSION, scale.blocks, scale.pages_per_block)),
                    "{case}: the header covers the whole array"
                );
                assert_eq!(agg.counters(), report.counters, "{case}: counters");
                let (wear, stats) = (agg.wear_summary(), report.erase_stats);
                assert!(stats.total > 0, "{case}: the run must erase");
                assert_eq!(wear.mean, stats.mean, "{case}: wear mean");
                assert_eq!((wear.min, wear.max), (stats.min, stats.max), "{case}");
                // Two formulas for the same population σ (sum of squared
                // deviations vs mean of squares): equal up to rounding.
                let tolerance = 1e-9 * stats.std_dev.max(1.0);
                assert!(
                    (wear.std_dev - stats.std_dev).abs() <= tolerance,
                    "{case}: wear sigma {} vs {}",
                    wear.std_dev,
                    stats.std_dev
                );
            }
        }
    }
}

#[test]
fn replay_is_deterministic() {
    let (report_a, agg_a, lines_a) = run_and_replay(LayerKind::Ftl, true, 20_000);
    let (report_b, agg_b, lines_b) = run_and_replay(LayerKind::Ftl, true, 20_000);
    assert_eq!(report_a, report_b);
    assert_eq!(lines_a, lines_b);
    assert_eq!(agg_a.counters(), agg_b.counters());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replay exactness holds for arbitrary stop points, not just the ones
    /// the deterministic tests pick: truncating the run anywhere mid-GC or
    /// mid-merge must still leave the event stream and the counters in
    /// lockstep.
    #[test]
    fn replay_is_exact_at_arbitrary_stop_points(
        events in 500u64..12_000,
        nftl in any::<bool>(),
        with_swl in any::<bool>(),
    ) {
        let kind = if nftl { LayerKind::Nftl } else { LayerKind::Ftl };
        let (report, agg, _) = run_and_replay(kind, with_swl, events);
        prop_assert_eq!(agg.counters(), report.counters);
    }
}
