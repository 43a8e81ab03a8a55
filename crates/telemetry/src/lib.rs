//! Structured telemetry for the wear-leveling stack.
//!
//! The flash device, both translation layers, and the static wear leveler can
//! emit a stream of [`Event`]s into a [`Sink`]. Instrumented types are generic
//! over the sink and default to [`NullSink`], whose `ENABLED = false` constant
//! lets every emission site compile down to nothing — uninstrumented builds
//! pay zero cost (see the `telbench` bench in `flash-bench` for the release
//! -mode assertion).
//!
//! On top of the raw stream sit several consumers:
//!
//! - [`JsonlSink`]: streams events as JSON Lines through a
//!   bounded buffer, so scaled runs can dump logs without holding them in
//!   memory.
//! - [`MetricsAggregator`]: folds a stream
//!   (live or replayed from JSONL) into wear histograms, unevenness-level time
//!   series, per-interval erase/copy attribution, depth gauges, and per-cause
//!   latency histograms built from spans. Events are a lossless superset of
//!   the translation-layer counters, so replaying a log reproduces
//!   [`FlashCounters`] totals exactly.
//! - The `swl` binary in `flash-bench`, whose `stat` and `span` subcommands
//!   render a replayed log as human-readable reports and whose `check`
//!   gates one.
//!
//! A multi-channel array writes one stream, too: its lanes share one sink
//! through a [`SharedSink`] and mark each change of the active lane with an
//! [`Event::Channel`]. Block ids in the events that follow a marker are that
//! lane's, and the [`MetricsAggregator`] keys its per-block tables by lane
//! and block accordingly.
//!
//! The event vocabulary follows the quantities the DAC 2007 paper reasons
//! about: erase cause attribution (GC vs SWL), the unevenness level
//! `ecnt/fcnt`, and resetting-interval cadence. Schema v3 adds **causal
//! spans** ([`Event::SpanBegin`] / [`Event::SpanEnd`]): every host op opens a
//! root span and GC, SWL, and merge work nest underneath it with device-time
//! stamps, so each host write gets an exact breakdown of where its latency
//! went (see the [`span`] module).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aggregate;
mod counters;
pub mod health;
pub mod hist;
pub mod json;
pub mod jsonl;
pub mod runtime;
pub mod shared;
pub mod span;

pub use aggregate::{IntervalStats, MetricsAggregator, RetirementAudit, Snapshot, WearSummary};
pub use counters::FlashCounters;
pub use health::{
    forecast, HealthConfig, HealthMonitor, HealthReport, HealthSample, HealthState,
    WearRateEstimator, HALF_LIFE_ERROR_BOUND,
};
pub use hist::LatencyHistogram;
pub use json::{parse_line, to_line, write_line, ParseError};
pub use jsonl::JsonlSink;
pub use runtime::{
    CacheSample, EngineMetricsReport, EngineRuntime, EngineSnapshot, LaneSample, QueueSample,
    WorkerSample,
};
pub use shared::SharedSink;
pub use span::{ClosedSpan, OpBreakdown, SpanCause, SpanCheck, SpanReplayer, SpanTracker};

/// Version of the JSONL event schema, recorded in the [`Event::Meta`] header
/// line. `swl check` fails on logs with an unknown version.
///
/// Version history:
/// - 1: initial vocabulary (host ops, program/erase/copy, GC picks, merges,
///   retires, SWL invocations, interval resets).
/// - 2: adds the fault-injection events [`Event::FaultInjected`] and
///   [`Event::PowerCut`].
/// - 3: adds the causal-span events [`Event::SpanBegin`] and
///   [`Event::SpanEnd`] with device-time stamps; every host op opens a root
///   span and GC/SWL/merge work nests underneath it. Multi-channel streams
///   additionally carry [`Event::Channel`] markers (a compatible v3
///   extension: markers appear only when the active lane changes, so
///   single-channel logs are unchanged).
/// - 4: adds the [`Event::Endurance`] stream header carrying the device's
///   rated erase endurance, emitted right after [`Event::Meta`] when the
///   cell spec is known, so a replayed log carries the rating the
///   [`MetricsAggregator`] reports without out-of-band configuration.
///   Optional: streams without it still parse.
pub const SCHEMA_VERSION: u32 = 4;

/// Why a block was erased (or a set of pages live-copied).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// Garbage collection reclaiming invalidated space.
    Gc,
    /// The static wear leveler moving cold data off young blocks.
    Swl,
    /// Direct caller-driven erase outside GC/SWL (formatting, tests).
    External,
}

impl Cause {
    /// Short stable token used in the JSONL encoding.
    pub fn token(self) -> &'static str {
        match self {
            Cause::Gc => "gc",
            Cause::Swl => "swl",
            Cause::External => "ext",
        }
    }
}

/// Which NFTL merge path retired a replacement block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeKind {
    /// Forced merge because the replacement block filled up.
    Full,
    /// Merge chosen by the garbage collector.
    Gc,
    /// Merge requested by the static wear leveler.
    Swl,
}

impl MergeKind {
    /// Short stable token used in the JSONL encoding.
    pub fn token(self) -> &'static str {
        match self {
            MergeKind::Full => "full",
            MergeKind::Gc => "gc",
            MergeKind::Swl => "swl",
        }
    }
}

/// Which kind of device fault the injection layer fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A page program failed; the target page is consumed (torn) and the
    /// block is marked grown-bad.
    ProgramFail,
    /// A block erase failed permanently; the block must be retired.
    EraseFail,
}

impl FaultKind {
    /// Short stable token used in the JSONL encoding.
    pub fn token(self) -> &'static str {
        match self {
            FaultKind::ProgramFail => "prog",
            FaultKind::EraseFail => "erase",
        }
    }
}

/// What a causal span covers. Root spans are the host operations; the other
/// kinds nest underneath them (or under each other, e.g. a merge inside an
/// SWL pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Root span of one host write, from entry into the translation layer to
    /// return — including any SWL-Procedure pass the write triggered.
    HostWrite,
    /// Root span of one host read.
    HostRead,
    /// Root span of one host trim.
    HostTrim,
    /// A garbage-collection episode (victim pick + relocation + erase).
    Gc,
    /// An SWL-Procedure activation (Algorithm 1 driving the Cleaner).
    Swl,
    /// An NFTL merge (copy phase + erasure of the old pair).
    Merge,
}

impl SpanKind {
    /// Short stable token used in the JSONL encoding.
    pub fn token(self) -> &'static str {
        match self {
            SpanKind::HostWrite => "host_write",
            SpanKind::HostRead => "host_read",
            SpanKind::HostTrim => "host_trim",
            SpanKind::Gc => "gc",
            SpanKind::Swl => "swl",
            SpanKind::Merge => "merge",
        }
    }

    /// The latency-attribution bucket device time inside this span (and
    /// outside any child span) is charged to.
    pub fn cause(self) -> SpanCause {
        match self {
            SpanKind::HostWrite | SpanKind::HostRead | SpanKind::HostTrim => SpanCause::Host,
            SpanKind::Gc => SpanCause::Gc,
            SpanKind::Swl => SpanCause::Swl,
            SpanKind::Merge => SpanCause::Merge,
        }
    }

    /// Whether this kind opens a root (host-operation) span.
    pub fn is_root(self) -> bool {
        matches!(
            self,
            SpanKind::HostWrite | SpanKind::HostRead | SpanKind::HostTrim
        )
    }
}

/// One structured telemetry event.
///
/// Counter-bearing events are emitted exactly once per counter increment in
/// the translation layers, which is what makes aggregator replay reproduce
/// [`FlashCounters`] totals exactly (asserted by the `telemetry_replay`
/// integration test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Stream header: schema version and device geometry. Emitted when a sink
    /// is attached to a device, always first in a JSONL log.
    Meta {
        /// JSONL schema version ([`SCHEMA_VERSION`]).
        version: u32,
        /// Number of physical blocks in the device.
        blocks: u32,
        /// Pages per block.
        pages_per_block: u32,
    },
    /// Stream header (schema v4): the device's rated erase endurance.
    /// Emitted right after [`Event::Meta`] when the cell spec is known, so
    /// a replayed log carries its rating without out-of-band config.
    /// Optional — streams without it still parse.
    Endurance {
        /// Rated program/erase cycles per block.
        limit: u64,
    },
    /// A host-issued logical write was accepted.
    HostWrite {
        /// Logical page address.
        lba: u64,
    },
    /// A host-issued logical read was served.
    HostRead {
        /// Logical page address.
        lba: u64,
    },
    /// A host-issued trim/discard invalidated a logical page.
    HostTrim {
        /// Logical page address.
        lba: u64,
    },
    /// A physical page program completed on the device.
    Program {
        /// Physical block index.
        block: u32,
        /// Page index within the block.
        page: u32,
    },
    /// A block erase completed on the device.
    Erase {
        /// Physical block index.
        block: u32,
        /// The block's cumulative erase count *after* this erase.
        wear: u64,
        /// What triggered the erase.
        cause: Cause,
    },
    /// One still-live page was copied out of a victim block before erase.
    LiveCopy {
        /// Source physical block.
        from_block: u32,
        /// Destination physical block.
        to_block: u32,
        /// Whether GC or SWL paid for the copy.
        cause: Cause,
    },
    /// The garbage collector picked a victim; carries depth gauges sampled at
    /// pick time.
    GcPick {
        /// Victim key (physical block for the FTL, virtual block for NFTL).
        key: u32,
        /// Invalid pages in the victim at pick time.
        invalid: u32,
        /// Valid pages that will need copying.
        valid: u32,
        /// Free-pool depth (blocks in the free ladder) at pick time.
        free_depth: u32,
        /// Number of candidate victims indexed by the `VictimIndex`.
        candidates: u32,
    },
    /// NFTL merged a (primary, replacement) pair back into one block.
    Merge {
        /// Virtual block address that was merged.
        vba: u32,
        /// Which merge path ran.
        kind: MergeKind,
    },
    /// A block exceeded its endurance budget and was retired from rotation.
    Retire {
        /// Physical block index.
        block: u32,
    },
    /// The fault-injection layer fired a deterministic device fault.
    FaultInjected {
        /// Physical block the fault hit.
        block: u32,
        /// What failed.
        kind: FaultKind,
    },
    /// The fault-injection layer cut power mid-run; every device operation
    /// fails until the harness power-cycles the chip.
    PowerCut {
        /// Index of the mutating operation (programs + erases) at which the
        /// cut fired.
        at_op: u64,
        /// Whether the in-flight operation was torn (partially applied)
        /// rather than cleanly dropped.
        torn: bool,
    },
    /// The static wear leveler activated (`ecnt/fcnt > T`, Algorithm 1).
    SwlInvoke {
        /// Total erases in the current resetting interval.
        ecnt: u64,
        /// BET flags set in the current resetting interval.
        fcnt: u64,
        /// Configured unevenness threshold `T`.
        threshold: u64,
    },
    /// The BET filled up and a new resetting interval began.
    IntervalReset {
        /// Index of the interval that just *ended* (0-based).
        interval: u64,
        /// `ecnt` at the moment of reset.
        ecnt: u64,
        /// `fcnt` at the moment of reset (all flags set).
        fcnt: u64,
    },
    /// A causal span opened (schema v3). Stamped with the device's
    /// cumulative busy time, so `end.at_ns - begin.at_ns` is exactly the
    /// device time spent inside the span.
    SpanBegin {
        /// Span id, unique within the stream (1-based; 0 is reserved).
        id: u64,
        /// Id of the enclosing span, or 0 for a root span.
        parent: u64,
        /// What the span covers.
        kind: SpanKind,
        /// Device busy time ([`nand` `busy_ns`]) when the span opened.
        at_ns: u64,
    },
    /// A causal span closed (schema v3). Spans close in LIFO order; a parent
    /// end implicitly closes any children the error path left open.
    SpanEnd {
        /// Id from the matching [`Event::SpanBegin`].
        id: u64,
        /// Device busy time when the span closed.
        at_ns: u64,
    },
    /// The active channel changed (schema v3 extension for multi-channel
    /// arrays): every following event belongs to channel `id` until the next
    /// marker. Emitted only when the active lane actually changes, so
    /// single-channel streams carry no markers and stay byte-identical to
    /// pre-channel logs. Consumers must treat the channel as 0 until the
    /// first marker.
    Channel {
        /// Channel (lane) index, 0-based.
        id: u32,
    },
}

/// Receiver for telemetry events.
///
/// Instrumented types are generic over `S: Sink` and guard every emission
/// with `if S::ENABLED { ... }`. [`NullSink`] sets `ENABLED = false`, so the
/// default monomorphization contains no telemetry code at all.
pub trait Sink {
    /// Whether this sink observes events. Emission sites are compiled out
    /// when `false`.
    const ENABLED: bool = true;

    /// Receive one event. Must not panic on any well-formed event.
    fn event(&mut self, event: Event);
}

/// The default sink: discards everything and disables emission sites at
/// compile time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl Sink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _event: Event) {}
}

/// A sink that only counts events — the cheapest *enabled* sink, used by the
/// overhead bench to bound the cost of the emission plumbing itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountSink {
    /// Number of events received.
    pub events: u64,
}

impl Sink for CountSink {
    #[inline(always)]
    fn event(&mut self, _event: Event) {
        self.events += 1;
    }
}

/// A sink that records every event in memory. Test helper; unbounded, so use
/// only on small runs.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// All events received, in emission order.
    pub events: Vec<Event>,
}

impl Sink for VecSink {
    #[inline]
    fn event(&mut self, event: Event) {
        self.events.push(event);
    }
}

impl<S: Sink> Sink for &mut S {
    const ENABLED: bool = S::ENABLED;

    #[inline(always)]
    fn event(&mut self, event: Event) {
        (**self).event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled<S: Sink>() -> bool {
        S::ENABLED
    }

    #[test]
    fn null_sink_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NullSink>(), 0);
        assert!(!enabled::<NullSink>());
        assert!(enabled::<CountSink>());
    }

    #[test]
    fn count_sink_counts() {
        let mut s = CountSink::default();
        s.event(Event::Retire { block: 1 });
        s.event(Event::HostRead { lba: 9 });
        assert_eq!(s.events, 2);
    }

    #[test]
    fn mut_ref_sink_forwards_and_inherits_enabled() {
        let mut s = VecSink::default();
        {
            let mut r = &mut s;
            <&mut VecSink as Sink>::event(&mut r, Event::Retire { block: 7 });
        }
        assert_eq!(s.events.len(), 1);
        assert!(enabled::<&mut VecSink>());
        assert!(!enabled::<&mut NullSink>());
    }
}
