//! The trace-driven simulation loop.

use flash_trace::{Op, TraceEvent};

use crate::error::SimError;
use crate::latency::LatencyStats;
use crate::layer::TranslationLayer;
use crate::report::{FirstFailure, SimReport};

/// When to stop a run. Conditions combine with OR; the first one hit ends
/// the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StopCondition {
    /// Stop at the first block wear-out (Figure 5 runs).
    pub at_first_failure: bool,
    /// Stop when an event's host time passes this horizon (Table 4 runs).
    pub horizon_ns: Option<u64>,
    /// Stop after this many trace events.
    pub max_events: Option<u64>,
}

impl StopCondition {
    /// Run until the first wear-out.
    pub fn first_failure() -> Self {
        Self {
            at_first_failure: true,
            ..Self::default()
        }
    }

    /// Run until host time reaches `horizon_ns`.
    pub fn horizon(horizon_ns: u64) -> Self {
        Self {
            horizon_ns: Some(horizon_ns),
            ..Self::default()
        }
    }

    /// Run for a fixed number of events.
    pub fn events(max_events: u64) -> Self {
        Self {
            max_events: Some(max_events),
            ..Self::default()
        }
    }

    /// Additionally stop at the first wear-out (builder style).
    pub fn or_first_failure(mut self) -> Self {
        self.at_first_failure = true;
        self
    }

    /// Whether the run ends before `event`, the next one of a trace of which
    /// `events` have been processed: the horizon or the event budget is hit.
    pub(crate) fn ends_before(&self, event: &TraceEvent, events: u64) -> bool {
        self.horizon_ns.is_some_and(|h| event.at_ns >= h)
            || self.max_events.is_some_and(|m| events >= m)
    }
}

/// Trace-driven simulator.
///
/// Writes carry a monotonically increasing data token so correctness checks
/// can verify version ordering; reads exercise the lookup path (misses on
/// never-written pages are fine and are not errors).
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    pub(crate) next_token: u64,
}

impl Simulator {
    /// A fresh simulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds `trace` into `layer` until `stop` triggers or the trace ends.
    ///
    /// # Errors
    ///
    /// Propagates layer failures and rejects trace events outside the
    /// layer's logical space.
    pub fn run<L, I>(
        &mut self,
        layer: &mut L,
        trace: I,
        stop: StopCondition,
    ) -> Result<SimReport, SimError>
    where
        L: TranslationLayer,
        I: IntoIterator<Item = TraceEvent>,
    {
        let logical_pages = layer.logical_pages();
        let mut events = 0u64;
        let mut host_span_ns = 0u64;
        let mut first_failure: Option<FirstFailure> = None;
        let mut write_latency = LatencyStats::new();
        let mut read_latency = LatencyStats::new();

        for event in trace {
            if stop.ends_before(&event, events) {
                break;
            }
            events += 1;
            host_span_ns = host_span_ns.max(event.at_ns);

            for lba in event.pages() {
                if lba >= logical_pages {
                    return Err(SimError::TraceOutOfRange { lba, logical_pages });
                }
                let busy_before = layer.device().busy_ns();
                match event.op {
                    Op::Write => {
                        self.next_token += 1;
                        layer.write(lba, self.next_token)?;
                        write_latency.record(layer.device().busy_ns() - busy_before);
                    }
                    Op::Read => {
                        let _ = layer.read(lba)?;
                        read_latency.record(layer.device().busy_ns() - busy_before);
                    }
                }
            }

            if first_failure.is_none() {
                if let Some(f) = layer.device().first_failure() {
                    first_failure = Some(FirstFailure {
                        block: f.block,
                        host_ns: event.at_ns,
                        total_erases: f.total_erases,
                    });
                    if stop.at_first_failure {
                        break;
                    }
                }
            }
        }

        let device = layer.device();
        Ok(SimReport {
            layer: layer.kind(),
            swl: layer.swl().map(|s| (s.config().threshold, s.config().k)),
            events,
            host_span_ns,
            first_failure,
            erase_stats: device.erase_stats(),
            counters: layer.counters(),
            device: device.counters(),
            device_busy_ns: device.busy_ns(),
            write_latency,
            read_latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, LayerKind, SimConfig};
    use flash_trace::{SyntheticTrace, WorkloadSpec};
    use nand::{CellKind, Geometry, NandDevice};

    fn build(kind: LayerKind, endurance: u32) -> Layer {
        let device = NandDevice::new(
            Geometry::new(64, 8, 2048),
            CellKind::Mlc2.spec().with_endurance(endurance),
        );
        Layer::build(kind, device, None, &SimConfig::default()).unwrap()
    }

    fn trace(layer: &Layer, seed: u64) -> SyntheticTrace {
        SyntheticTrace::new(WorkloadSpec::paper(layer.logical_pages()).with_seed(seed))
    }

    #[test]
    fn event_budget_respected() {
        let mut layer = build(LayerKind::Ftl, 1_000_000);
        let t = trace(&layer, 1);
        let report = Simulator::new()
            .run(&mut layer, t, StopCondition::events(5000))
            .unwrap();
        assert_eq!(report.events, 5000);
        assert!(report.counters.host_writes > 0);
        assert!(report.counters.host_reads > 0);
    }

    #[test]
    fn horizon_respected() {
        let mut layer = build(LayerKind::Nftl, 1_000_000);
        let t = trace(&layer, 2);
        let horizon = 3_600 * 1_000_000_000u64; // one hour
        let report = Simulator::new()
            .run(&mut layer, t, StopCondition::horizon(horizon))
            .unwrap();
        assert!(report.host_span_ns < horizon);
        assert!(report.events > 0);
    }

    #[test]
    fn first_failure_stops_run() {
        let mut layer = build(LayerKind::Ftl, 12);
        let t = trace(&layer, 3);
        let report = Simulator::new()
            .run(&mut layer, t, StopCondition::first_failure())
            .unwrap();
        let ff = report.first_failure.expect("tiny endurance must fail");
        assert!(ff.years() > 0.0);
        assert!(report.erase_stats.max >= 12);
    }

    #[test]
    fn deterministic_reports() {
        let run = || {
            let mut layer = build(LayerKind::Nftl, 1_000_000);
            let t = trace(&layer, 7);
            Simulator::new()
                .run(&mut layer, t, StopCondition::events(20_000))
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn out_of_range_event_rejected() {
        let mut layer = build(LayerKind::Ftl, 1_000_000);
        let events = vec![TraceEvent::write(0, layer.logical_pages())];
        let err = Simulator::new()
            .run(&mut layer, events, StopCondition::default())
            .unwrap_err();
        assert!(matches!(err, SimError::TraceOutOfRange { .. }));
    }

    #[test]
    fn finite_trace_ends_run() {
        let mut layer = build(LayerKind::Ftl, 1_000_000);
        let events = vec![TraceEvent::write(0, 1), TraceEvent::read(10, 1)];
        let report = Simulator::new()
            .run(&mut layer, events, StopCondition::default())
            .unwrap();
        assert_eq!(report.events, 2);
        assert_eq!(report.counters.host_writes, 1);
        assert_eq!(report.counters.host_reads, 1);
    }
}
