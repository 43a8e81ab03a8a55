//! Crash flight recorder: a fixed-size ring of the most recent events.
//!
//! Aircraft flight recorders keep the last few minutes of everything so the
//! crash site comes with context. This sink does the same for the FTL: it
//! retains the newest [`capacity`](FlightRecorder::capacity) events in a
//! ring and, the instant a [`Event::FaultInjected`] or [`Event::PowerCut`]
//! fires, snapshots the ring as a JSONL document (the trigger event
//! included). Crash-sweep postmortems then see the spans, GC picks, and
//! SWL activity *leading up to* the cut, not just the cut itself.
//!
//! The recorder is cheap enough to leave always-on: one `VecDeque`
//! push/pop per event and zero allocation outside dump points.

use crate::{json, Event, Sink, SCHEMA_VERSION};
use std::collections::VecDeque;

/// A ring-buffer [`Sink`] that dumps recent history on fault or power cut.
///
/// The stream's [`Event::Meta`] header is held out of the ring so every dump
/// starts with a valid schema header line no matter how far the ring has
/// wrapped.
///
/// # Example
///
/// ```
/// use flash_telemetry::{Event, FaultKind, FlightRecorder, Sink};
///
/// let mut fr = FlightRecorder::with_capacity(4);
/// fr.event(Event::Meta { version: flash_telemetry::SCHEMA_VERSION, blocks: 8, pages_per_block: 4 });
/// for lba in 0..100 {
///     fr.event(Event::HostWrite { lba });
/// }
/// fr.event(Event::FaultInjected { block: 3, kind: FaultKind::EraseFail });
/// let dumps = fr.dumps();
/// assert_eq!(dumps.len(), 1);
/// assert!(dumps[0].lines().next().unwrap().contains("meta"));
/// assert!(dumps[0].lines().last().unwrap().contains("fault"));
/// ```
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    meta: Option<Event>,
    ring: VecDeque<Event>,
    capacity: usize,
    seen: u64,
    dumps: Vec<String>,
}

impl FlightRecorder {
    /// Default ring size: enough for a few dozen host ops with their spans.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A recorder with [`Self::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A recorder retaining the newest `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            meta: None,
            ring: VecDeque::with_capacity(capacity),
            capacity,
            seen: 0,
            dumps: Vec::new(),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events observed, including ones the ring has already evicted.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Snapshots the current ring as a JSONL document: a `meta` header line
    /// (synthesized at [`SCHEMA_VERSION`] if the stream never sent one)
    /// followed by the retained events, oldest first.
    pub fn dump(&self) -> String {
        let mut out = String::with_capacity(48 * (self.ring.len() + 1));
        let meta = self.meta.unwrap_or(Event::Meta {
            version: SCHEMA_VERSION,
            blocks: 0,
            pages_per_block: 0,
        });
        json::write_line(&mut out, &meta);
        out.push('\n');
        for event in &self.ring {
            json::write_line(&mut out, event);
            out.push('\n');
        }
        out
    }

    /// Dumps captured automatically on faults/power cuts, oldest first.
    pub fn dumps(&self) -> &[String] {
        &self.dumps
    }

    /// Takes ownership of the captured dumps, leaving none behind.
    pub fn take_dumps(&mut self) -> Vec<String> {
        std::mem::take(&mut self.dumps)
    }

    /// Retained events, oldest first (the ring, not the full stream).
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Sink for FlightRecorder {
    fn event(&mut self, event: Event) {
        self.seen += 1;
        if let Event::Meta { .. } = event {
            self.meta = Some(event);
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(event);
        if matches!(
            event,
            Event::FaultInjected { .. } | Event::PowerCut { .. }
        ) {
            self.dumps.push(self.dump());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;

    #[test]
    fn ring_wraps_keeping_newest() {
        let mut fr = FlightRecorder::with_capacity(3);
        for lba in 0..10u64 {
            fr.event(Event::HostWrite { lba });
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.seen(), 10);
        let lbas: Vec<u64> = fr
            .events()
            .map(|e| match e {
                Event::HostWrite { lba } => *lba,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(lbas, [7, 8, 9]);
    }

    #[test]
    fn meta_survives_wraparound() {
        let mut fr = FlightRecorder::with_capacity(2);
        fr.event(Event::Meta {
            version: SCHEMA_VERSION,
            blocks: 64,
            pages_per_block: 32,
        });
        for lba in 0..50u64 {
            fr.event(Event::HostWrite { lba });
        }
        let dump = fr.dump();
        let first = dump.lines().next().unwrap();
        assert!(first.contains("\"e\":\"meta\""), "got {first}");
        assert!(first.contains("\"blocks\":64"));
        assert_eq!(dump.lines().count(), 3); // meta + 2 ring entries
    }

    #[test]
    fn fault_triggers_dump_including_trigger() {
        let mut fr = FlightRecorder::with_capacity(8);
        fr.event(Event::HostWrite { lba: 1 });
        fr.event(Event::FaultInjected {
            block: 5,
            kind: FaultKind::ProgramFail,
        });
        assert_eq!(fr.dumps().len(), 1);
        let last = fr.dumps()[0].lines().last().unwrap();
        assert!(last.contains("\"e\":\"fault\""), "got {last}");
    }

    #[test]
    fn power_cut_triggers_dump() {
        let mut fr = FlightRecorder::new();
        fr.event(Event::PowerCut {
            at_op: 42,
            torn: false,
        });
        assert_eq!(fr.dumps().len(), 1);
        assert_eq!(fr.take_dumps().len(), 1);
        assert!(fr.dumps().is_empty());
    }

    #[test]
    fn dump_lines_parse_back() {
        let mut fr = FlightRecorder::with_capacity(4);
        fr.event(Event::Meta {
            version: SCHEMA_VERSION,
            blocks: 8,
            pages_per_block: 4,
        });
        fr.event(Event::HostWrite { lba: 9 });
        fr.event(Event::PowerCut {
            at_op: 1,
            torn: true,
        });
        for line in fr.dumps()[0].lines() {
            json::parse_line(line).unwrap();
        }
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut fr = FlightRecorder::with_capacity(0);
        fr.event(Event::HostWrite { lba: 1 });
        fr.event(Event::HostWrite { lba: 2 });
        assert_eq!(fr.len(), 1);
    }
}
