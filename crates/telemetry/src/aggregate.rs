//! Fold an event stream into the metrics the paper reasons about.
//!
//! [`MetricsAggregator`] is itself a [`Sink`], so it can be attached to a
//! live run or fed a replayed JSONL log — the two produce identical results.
//! It reconstructs [`FlashCounters`] exactly (each counter increment in the
//! translation layers pairs with exactly one event), and derives what the
//! counters alone cannot show: wear-histogram percentiles and σ over time,
//! an unevenness-level time series, per-resetting-interval erase/copy
//! attribution, and free-pool / victim-index depth gauges.
//!
//! The aggregator tracks unevenness at block granularity (a `k = 0` view):
//! `ecnt` counts erases since the last interval reset and `fcnt` counts
//! distinct blocks erased in that window. For group factors `k > 0` the
//! leveler's own BET-granularity numbers arrive in [`Event::SwlInvoke`] /
//! [`Event::IntervalReset`] and may differ slightly.
//!
//! A multi-channel stream names blocks lane-locally: after an
//! [`Event::Channel`] marker, block ids are those of the lane it names. So
//! every per-block table is kept per lane, keyed by the last marker's lane
//! and the block; a stream without markers is all lane 0. Counters, intervals
//! and the wear summary stay array-wide.

use crate::span::{OpBreakdown, SpanCause, SpanCheck, SpanReplayer};
use crate::{Cause, Event, FlashCounters, LatencyHistogram, MergeKind, Sink, SpanKind};

/// Consistency audit of retirement bookkeeping, derived while folding the
/// stream. `swl check` rejects logs where either violation count is
/// non-zero: a retired block must never be erased again, and no block may be
/// retired twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetirementAudit {
    /// Distinct blocks with at least one [`Event::Retire`].
    pub distinct_retired: u64,
    /// [`Event::Retire`] events naming an already-retired block.
    pub duplicate_retires: u64,
    /// [`Event::Erase`] events on a block after its retirement — the wear
    /// map moved for a block the log claims is out of rotation.
    pub erases_after_retire: u64,
}

/// Default number of erases between periodic [`Snapshot`]s.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 1024;

/// Summary statistics over the per-block wear (erase-count) distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WearSummary {
    /// Mean erase count.
    pub mean: f64,
    /// Population standard deviation of erase counts.
    pub std_dev: f64,
    /// Minimum erase count.
    pub min: u64,
    /// Maximum erase count.
    pub max: u64,
    /// Median (50th percentile, nearest-rank).
    pub p50: u64,
    /// 90th percentile (nearest-rank).
    pub p90: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
}

impl WearSummary {
    /// Summary of an arbitrary collection of per-block erase counts.
    /// Returns the default (all-zero) summary for an empty collection.
    pub fn from_counts<I: IntoIterator<Item = u64>>(counts: I) -> Self {
        let mut sorted: Vec<u64> = counts.into_iter().collect();
        if sorted.is_empty() {
            return WearSummary::default();
        }
        sorted.sort_unstable();
        let n = sorted.len();
        let sum: u64 = sorted.iter().sum();
        let mean = sum as f64 / n as f64;
        let var = sorted
            .iter()
            .map(|&w| {
                let d = w as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        let rank = |q: f64| -> u64 {
            let idx = ((q * n as f64).ceil() as usize).max(1) - 1;
            sorted[idx.min(n - 1)]
        };
        WearSummary {
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
        }
    }
}

/// Erase/copy attribution for one resetting interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntervalStats {
    /// 0-based interval index.
    pub index: u64,
    /// Erases observed during the interval (all causes).
    pub erases: u64,
    /// Distinct blocks erased during the interval (block-granularity fcnt).
    pub distinct_blocks: u64,
    /// Erases attributed to garbage collection.
    pub gc_erases: u64,
    /// Erases attributed to the SW Leveler.
    pub swl_erases: u64,
    /// Live copies attributed to garbage collection.
    pub gc_copies: u64,
    /// Live copies attributed to the SW Leveler.
    pub swl_copies: u64,
    /// SWL activations ([`Event::SwlInvoke`]) during the interval.
    pub swl_invokes: u64,
    /// Device faults injected ([`Event::FaultInjected`]) during the interval.
    pub faults: u64,
    /// Blocks retired ([`Event::Retire`]) during the interval.
    pub retires: u64,
}

/// A periodic sample of run state, taken every `snapshot_every` erases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// Total erases (all causes) when the sample was taken.
    pub at_erase: u64,
    /// Wear distribution at sample time.
    pub wear: WearSummary,
    /// Block-granularity unevenness level `ecnt / fcnt` of the current
    /// resetting interval (0.0 before any erase).
    pub unevenness: f64,
    /// 0-based index of the resetting interval in progress.
    pub interval: u64,
    /// Cumulative GC erases.
    pub gc_erases: u64,
    /// Cumulative SWL erases.
    pub swl_erases: u64,
    /// Free-pool depth from the most recent [`Event::GcPick`] (0 before any).
    pub free_depth: u32,
    /// Victim-index candidate count from the most recent [`Event::GcPick`].
    pub victim_candidates: u32,
}

/// What the stream has shown of one block.
#[derive(Debug, Clone, Copy, Default)]
struct BlockState {
    wear: u64,
    erased_in_interval: bool,
    retired: bool,
}

/// Streaming metrics aggregator over telemetry events.
#[derive(Debug, Clone)]
pub struct MetricsAggregator {
    counters: FlashCounters,
    meta: Option<(u32, u32, u32)>,
    endurance: Option<u64>,
    events: u64,
    programs: u64,
    external_erases: u64,
    /// Per-block state, one table per lane the stream has named.
    lanes: Vec<Vec<BlockState>>,
    /// The lane named by the last [`Event::Channel`] marker (0 before one).
    lane: usize,
    current: IntervalStats,
    completed: Vec<IntervalStats>,
    snapshot_every: u64,
    snapshots: Vec<Snapshot>,
    total_erases_seen: u64,
    swl_invokes: u64,
    free_depth: u32,
    victim_candidates: u32,
    faults: u64,
    power_cuts: u64,
    audit: RetirementAudit,
    spans: SpanReplayer,
    /// Per-cause device-time histograms, indexed by [`SpanCause::index`].
    /// One sample per completed root op *per cause with non-zero time*, so
    /// e.g. the `gc` histogram answers "when a write pays for GC at all,
    /// how much does it pay?" rather than being drowned in zeros.
    cause_hist: [LatencyHistogram; 4],
    write_latency: LatencyHistogram,
    read_latency: LatencyHistogram,
    trim_latency: LatencyHistogram,
    write_programs: u64,
    max_write_programs: u64,
}

impl Default for MetricsAggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsAggregator {
    /// Aggregator with the default snapshot cadence.
    pub fn new() -> Self {
        Self::with_snapshot_every(DEFAULT_SNAPSHOT_EVERY)
    }

    /// Aggregator sampling a [`Snapshot`] every `snapshot_every` erases.
    /// A value of 0 disables periodic snapshots.
    pub fn with_snapshot_every(snapshot_every: u64) -> Self {
        Self {
            counters: FlashCounters::default(),
            meta: None,
            endurance: None,
            events: 0,
            programs: 0,
            external_erases: 0,
            lanes: vec![Vec::new()],
            lane: 0,
            current: IntervalStats::default(),
            completed: Vec::new(),
            snapshot_every,
            snapshots: Vec::new(),
            total_erases_seen: 0,
            swl_invokes: 0,
            free_depth: 0,
            victim_candidates: 0,
            faults: 0,
            power_cuts: 0,
            audit: RetirementAudit::default(),
            spans: SpanReplayer::new(),
            cause_hist: Default::default(),
            write_latency: LatencyHistogram::new(),
            read_latency: LatencyHistogram::new(),
            trim_latency: LatencyHistogram::new(),
            write_programs: 0,
            max_write_programs: 0,
        }
    }

    /// Counters reconstructed from the stream. After replaying a complete
    /// log these equal the live run's counters exactly.
    pub fn counters(&self) -> FlashCounters {
        self.counters
    }

    /// `(schema_version, blocks, pages_per_block)` from the stream header,
    /// if a [`Event::Meta`] was seen.
    pub fn meta(&self) -> Option<(u32, u32, u32)> {
        self.meta
    }

    /// Rated erase endurance from the stream's [`Event::Endurance`] header
    /// (schema v4), if one was seen.
    pub fn endurance(&self) -> Option<u64> {
        self.endurance
    }

    /// Total events folded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Physical page programs observed.
    pub fn programs(&self) -> u64 {
        self.programs
    }

    /// Erases with [`Cause::External`] — outside both GC and SWL, hence not
    /// part of [`FlashCounters`].
    pub fn external_erases(&self) -> u64 {
        self.external_erases
    }

    /// Erases of any cause, `counters().total_erases() + external_erases()`.
    pub fn total_erases_seen(&self) -> u64 {
        self.total_erases_seen
    }

    /// SWL activations observed.
    pub fn swl_invokes(&self) -> u64 {
        self.swl_invokes
    }

    /// Injected device faults observed ([`Event::FaultInjected`]).
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Power cuts observed ([`Event::PowerCut`]).
    pub fn power_cuts(&self) -> u64 {
        self.power_cuts
    }

    /// Retirement bookkeeping audit; see [`RetirementAudit`].
    pub fn retirement_audit(&self) -> RetirementAudit {
        self.audit
    }

    /// Most recent free-pool depth and victim-candidate gauges (both 0
    /// before the first [`Event::GcPick`]).
    pub fn gauges(&self) -> (u32, u32) {
        (self.free_depth, self.victim_candidates)
    }

    /// Completed resetting intervals, oldest first.
    pub fn intervals(&self) -> &[IntervalStats] {
        &self.completed
    }

    /// The interval currently in progress.
    pub fn current_interval(&self) -> IntervalStats {
        self.current
    }

    /// Periodic samples, oldest first.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Block-granularity unevenness level of the interval in progress:
    /// erases divided by distinct blocks erased (0.0 before any erase).
    pub fn unevenness(&self) -> f64 {
        if self.current.distinct_blocks == 0 {
            0.0
        } else {
            self.current.erases as f64 / self.current.distinct_blocks as f64
        }
    }

    /// Summary of the current per-block wear distribution over every lane.
    /// Blocks never erased count as wear 0; the population size comes from
    /// the stream header when present, else from the highest block index
    /// seen on each lane.
    pub fn wear_summary(&self) -> WearSummary {
        let mut wear: Vec<u64> = self.lanes.iter().flatten().map(|b| b.wear).collect();
        if let Some((_, blocks, _)) = self.meta {
            wear.resize((blocks as usize).max(wear.len()), 0);
        }
        WearSummary::from_counts(wear)
    }

    /// Block `block` of the current lane, its table grown to hold it.
    fn block(&mut self, block: u32) -> &mut BlockState {
        let (lane, index) = (&mut self.lanes[self.lane], block as usize);
        if lane.len() <= index {
            lane.resize(index + 1, BlockState::default());
        }
        &mut lane[index]
    }

    fn take_snapshot(&mut self) {
        let snap = Snapshot {
            at_erase: self.total_erases_seen,
            wear: self.wear_summary(),
            unevenness: self.unevenness(),
            interval: self.current.index,
            gc_erases: self.counters.gc_erases,
            swl_erases: self.counters.swl_erases,
            free_depth: self.free_depth,
            victim_candidates: self.victim_candidates,
        };
        self.snapshots.push(snap);
    }

    /// Take a final snapshot of the current state (used by `swl stat` so the
    /// last partial sampling window still appears in time series).
    pub fn snapshot_now(&mut self) {
        self.take_snapshot();
    }

    /// Structural health of the span stream (balance, nesting, bounds).
    /// `swl check` rejects schema-v3 logs where this is not clean.
    pub fn span_check(&self) -> SpanCheck {
        self.spans.check()
    }

    /// Root spans (host operations) completed so far.
    pub fn spans_completed(&self) -> u64 {
        self.spans.completed_roots()
    }

    /// Device-time histogram for one attribution cause.
    ///
    /// Each completed root op contributes one sample *per cause with
    /// non-zero time*, so counts differ across causes: `host` sees nearly
    /// every op, `swl` only the ops that actually paid for a leveling pass.
    pub fn cause_latency(&self, cause: SpanCause) -> &LatencyHistogram {
        &self.cause_hist[cause.index()]
    }

    /// Total-device-time histogram for completed root spans of `kind`
    /// (`None` for non-root kinds). Matches the simulator's own per-op
    /// latency stats bit-exactly when fed the same run's events.
    pub fn op_latency(&self, kind: SpanKind) -> Option<&LatencyHistogram> {
        match kind {
            SpanKind::HostWrite => Some(&self.write_latency),
            SpanKind::HostRead => Some(&self.read_latency),
            SpanKind::HostTrim => Some(&self.trim_latency),
            SpanKind::Gc | SpanKind::Swl | SpanKind::Merge => None,
        }
    }

    /// Mean physical programs per completed host-write span — the per-op
    /// write-amplification figure (0.0 before any write span completes).
    pub fn write_amplification(&self) -> f64 {
        let writes = self.write_latency.count();
        if writes == 0 {
            0.0
        } else {
            self.write_programs as f64 / writes as f64
        }
    }

    /// Largest program count observed under a single host-write span.
    pub fn max_write_programs(&self) -> u64 {
        self.max_write_programs
    }

    fn fold_op(&mut self, op: OpBreakdown) {
        for cause in SpanCause::ALL {
            let ns = op.ns(cause);
            if ns > 0 {
                self.cause_hist[cause.index()].record(ns);
            }
        }
        match op.kind {
            SpanKind::HostWrite => {
                self.write_latency.record(op.total_ns());
                self.write_programs += op.programs;
                self.max_write_programs = self.max_write_programs.max(op.programs);
            }
            SpanKind::HostRead => self.read_latency.record(op.total_ns()),
            SpanKind::HostTrim => self.trim_latency.record(op.total_ns()),
            SpanKind::Gc | SpanKind::Swl | SpanKind::Merge => {}
        }
    }
}

impl Sink for MetricsAggregator {
    fn event(&mut self, event: Event) {
        self.events += 1;
        // The span replayer watches the whole stream (it counts Program
        // events under open roots and PowerCuts for its checker) and yields
        // a breakdown whenever a host-op span completes.
        if let Some(op) = self.spans.observe(&event) {
            self.fold_op(op);
        }
        match event {
            Event::Meta {
                version,
                blocks,
                pages_per_block,
            } => {
                self.meta = Some((version, blocks, pages_per_block));
            }
            Event::Endurance { limit } => self.endurance = Some(limit),
            Event::HostWrite { .. } => self.counters.host_writes += 1,
            Event::HostRead { .. } => self.counters.host_reads += 1,
            Event::HostTrim { .. } => self.counters.trims += 1,
            Event::Program { .. } => self.programs += 1,
            Event::Erase { block, wear, cause } => {
                let state = self.block(block);
                let retired = state.retired;
                let first = !std::mem::replace(&mut state.erased_in_interval, true);
                state.wear = wear;
                self.audit.erases_after_retire += u64::from(retired);
                self.current.distinct_blocks += u64::from(first);
                self.total_erases_seen += 1;
                self.current.erases += 1;
                match cause {
                    Cause::Gc => {
                        self.counters.gc_erases += 1;
                        self.current.gc_erases += 1;
                    }
                    Cause::Swl => {
                        self.counters.swl_erases += 1;
                        self.current.swl_erases += 1;
                    }
                    Cause::External => self.external_erases += 1,
                }
                if self.snapshot_every > 0
                    && self.total_erases_seen.is_multiple_of(self.snapshot_every)
                {
                    self.take_snapshot();
                }
            }
            Event::LiveCopy { cause, .. } => match cause {
                Cause::Swl => {
                    self.counters.swl_live_copies += 1;
                    self.current.swl_copies += 1;
                }
                _ => {
                    self.counters.gc_live_copies += 1;
                    self.current.gc_copies += 1;
                }
            },
            Event::GcPick {
                free_depth,
                candidates,
                ..
            } => {
                self.counters.gc_collections += 1;
                self.free_depth = free_depth;
                self.victim_candidates = candidates;
            }
            Event::Merge { kind, .. } => match kind {
                MergeKind::Full => self.counters.full_merges += 1,
                MergeKind::Gc => self.counters.gc_merges += 1,
                MergeKind::Swl => self.counters.swl_merges += 1,
            },
            Event::Retire { block } => {
                self.counters.retired_blocks += 1;
                self.current.retires += 1;
                if std::mem::replace(&mut self.block(block).retired, true) {
                    self.audit.duplicate_retires += 1;
                } else {
                    self.audit.distinct_retired += 1;
                }
            }
            Event::FaultInjected { .. } => {
                self.faults += 1;
                self.current.faults += 1;
            }
            Event::PowerCut { .. } => self.power_cuts += 1,
            Event::SwlInvoke { .. } => {
                self.swl_invokes += 1;
                self.current.swl_invokes += 1;
            }
            Event::IntervalReset { .. } => {
                let index = self.current.index;
                self.completed.push(self.current);
                self.current = IntervalStats {
                    index: index + 1,
                    ..IntervalStats::default()
                };
                for state in self.lanes.iter_mut().flatten() {
                    state.erased_in_interval = false;
                }
            }
            // Handled by the span replayer above.
            Event::SpanBegin { .. } | Event::SpanEnd { .. } => {}
            Event::Channel { id } => {
                self.lane = id as usize;
                if self.lanes.len() <= self.lane {
                    self.lanes.resize_with(self.lane + 1, Vec::new);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn erase(block: u32, wear: u64, cause: Cause) -> Event {
        Event::Erase { block, wear, cause }
    }

    #[test]
    fn counters_match_event_stream() {
        let mut agg = MetricsAggregator::new();
        agg.event(Event::Meta {
            version: 1,
            blocks: 4,
            pages_per_block: 8,
        });
        agg.event(Event::HostWrite { lba: 1 });
        agg.event(Event::HostWrite { lba: 2 });
        agg.event(Event::HostRead { lba: 1 });
        agg.event(Event::HostTrim { lba: 2 });
        agg.event(Event::GcPick {
            key: 0,
            invalid: 6,
            valid: 2,
            free_depth: 3,
            candidates: 2,
        });
        agg.event(Event::LiveCopy {
            from_block: 0,
            to_block: 1,
            cause: Cause::Gc,
        });
        agg.event(erase(0, 1, Cause::Gc));
        agg.event(erase(1, 1, Cause::Swl));
        agg.event(erase(2, 1, Cause::External));
        agg.event(Event::Merge {
            vba: 0,
            kind: MergeKind::Full,
        });
        agg.event(Event::Retire { block: 3 });
        let c = agg.counters();
        assert_eq!(c.host_writes, 2);
        assert_eq!(c.host_reads, 1);
        assert_eq!(c.trims, 1);
        assert_eq!(c.gc_collections, 1);
        assert_eq!(c.gc_erases, 1);
        assert_eq!(c.swl_erases, 1);
        assert_eq!(c.gc_live_copies, 1);
        assert_eq!(c.full_merges, 1);
        assert_eq!(c.retired_blocks, 1);
        assert_eq!(agg.external_erases(), 1);
        assert_eq!(agg.total_erases_seen(), 3);
        assert_eq!(agg.gauges(), (3, 2));
    }

    #[test]
    fn unevenness_tracks_interval_resets() {
        let mut agg = MetricsAggregator::new();
        agg.event(erase(0, 1, Cause::Gc));
        agg.event(erase(0, 2, Cause::Gc));
        agg.event(erase(1, 1, Cause::Gc));
        // 3 erases over 2 distinct blocks.
        assert_eq!(agg.unevenness(), 1.5);
        agg.event(Event::IntervalReset {
            interval: 0,
            ecnt: 3,
            fcnt: 2,
        });
        assert_eq!(agg.unevenness(), 0.0);
        assert_eq!(agg.intervals().len(), 1);
        assert_eq!(agg.intervals()[0].erases, 3);
        assert_eq!(agg.intervals()[0].distinct_blocks, 2);
        assert_eq!(agg.current_interval().index, 1);
        // Distinct-block tracking restarts after the reset.
        agg.event(erase(0, 3, Cause::Gc));
        assert_eq!(agg.unevenness(), 1.0);
    }

    #[test]
    fn wear_summary_pads_unseen_blocks() {
        let mut agg = MetricsAggregator::new();
        agg.event(Event::Meta {
            version: 1,
            blocks: 4,
            pages_per_block: 8,
        });
        agg.event(erase(0, 10, Cause::Gc));
        let w = agg.wear_summary();
        assert_eq!(w.min, 0);
        assert_eq!(w.max, 10);
        assert_eq!(w.mean, 2.5);
        assert_eq!(w.p99, 10);
        assert_eq!(w.p50, 0);
    }

    #[test]
    fn channel_markers_key_blocks_by_lane() {
        let mut agg = MetricsAggregator::new();
        agg.event(Event::Meta {
            version: 4,
            blocks: 4,
            pages_per_block: 8,
        });
        agg.event(erase(0, 1, Cause::Gc));
        agg.event(Event::Channel { id: 1 });
        agg.event(erase(0, 1, Cause::Gc));
        agg.event(Event::Retire { block: 1 });
        agg.event(Event::Channel { id: 0 });
        agg.event(Event::Retire { block: 1 });
        // Block 0 of each lane: two blocks worn once, two never erased.
        let w = agg.wear_summary();
        assert_eq!((w.mean, w.min, w.max), (0.5, 0, 1));
        assert_eq!(agg.current_interval().distinct_blocks, 2);
        let audit = agg.retirement_audit();
        assert_eq!((audit.distinct_retired, audit.duplicate_retires), (2, 0));
    }

    #[test]
    fn spans_fold_into_cause_histograms() {
        let mut agg = MetricsAggregator::new();
        // write #1: 200 ns, pure host, 1 program.
        agg.event(Event::SpanBegin {
            id: 1,
            parent: 0,
            kind: SpanKind::HostWrite,
            at_ns: 0,
        });
        agg.event(Event::Program { block: 0, page: 0 });
        agg.event(Event::SpanEnd { id: 1, at_ns: 200 });
        // write #2: 1000 ns total, 600 of it in a GC episode, 3 programs.
        agg.event(Event::SpanBegin {
            id: 2,
            parent: 0,
            kind: SpanKind::HostWrite,
            at_ns: 200,
        });
        agg.event(Event::Program { block: 1, page: 0 });
        agg.event(Event::SpanBegin {
            id: 3,
            parent: 2,
            kind: SpanKind::Gc,
            at_ns: 400,
        });
        agg.event(Event::Program { block: 2, page: 0 });
        agg.event(Event::Program { block: 2, page: 1 });
        agg.event(Event::SpanEnd { id: 3, at_ns: 1000 });
        agg.event(Event::SpanEnd { id: 2, at_ns: 1200 });
        assert_eq!(agg.spans_completed(), 2);
        assert!(agg.span_check().is_clean());
        let writes = agg.op_latency(SpanKind::HostWrite).unwrap();
        assert_eq!(writes.count(), 2);
        assert_eq!(writes.total_ns(), 1200);
        assert_eq!(writes.max_ns(), 1000);
        // host: both ops contribute (200 and 400); gc: only op #2 (600).
        assert_eq!(agg.cause_latency(SpanCause::Host).count(), 2);
        assert_eq!(agg.cause_latency(SpanCause::Host).total_ns(), 600);
        assert_eq!(agg.cause_latency(SpanCause::Gc).count(), 1);
        assert_eq!(agg.cause_latency(SpanCause::Gc).total_ns(), 600);
        assert_eq!(agg.cause_latency(SpanCause::Swl).count(), 0);
        // Attribution is exhaustive: causes sum to op totals.
        let cause_total: u64 = SpanCause::ALL
            .iter()
            .map(|&c| agg.cause_latency(c).total_ns())
            .sum();
        assert_eq!(cause_total, writes.total_ns());
        assert_eq!(agg.write_amplification(), 2.0); // 4 programs / 2 writes
        assert_eq!(agg.max_write_programs(), 3);
        assert!(agg.op_latency(SpanKind::Gc).is_none());
    }

    #[test]
    fn snapshots_fire_on_cadence() {
        let mut agg = MetricsAggregator::with_snapshot_every(2);
        for i in 0..5 {
            agg.event(erase(i % 3, (i / 3 + 1) as u64, Cause::Gc));
        }
        assert_eq!(agg.snapshots().len(), 2);
        assert_eq!(agg.snapshots()[0].at_erase, 2);
        assert_eq!(agg.snapshots()[1].at_erase, 4);
        agg.snapshot_now();
        assert_eq!(agg.snapshots().len(), 3);
        assert_eq!(agg.snapshots()[2].at_erase, 5);
    }
}
