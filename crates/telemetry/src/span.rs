//! Causal spans: per-host-op latency attribution.
//!
//! Schema v3 adds [`Event::SpanBegin`]/[`Event::SpanEnd`] pairs stamped with
//! the device's cumulative busy time. Every host operation opens a *root*
//! span; GC episodes, SWL-Procedure passes, and NFTL merges nest underneath
//! it. Because the stamps come from the same latency model the simulator's
//! per-op histogram uses, replaying the spans reproduces each op's total
//! device time bit-exactly and splits it across causes with nothing left
//! over:
//!
//! ```text
//! total = end − begin = host + gc + swl + merge        (exact, u64)
//! ```
//!
//! *Self time* — a span's total minus the totals of its direct children —
//! is charged to the cause of the span's own [`SpanKind`]. Nested work is
//! therefore charged to the innermost enclosing span: a merge run by SWL
//! counts as `merge`, the BET bookkeeping around it as `swl`.
//!
//! Three consumers live here:
//!
//! - [`SpanTracker`] — emission side; allocates ids and maintains the open
//!   stack inside an instrumented translation layer.
//! - [`SpanReplayer`] — replay side; folds a stream of events into one
//!   [`OpBreakdown`] per completed root span.
//! - [`SpanCheck`] — structural validation (balance, nesting, bounds) used
//!   by `swl check`.

use crate::{Event, SpanKind};

/// The four attribution buckets device time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanCause {
    /// The host operation's own programs/reads.
    Host,
    /// Garbage collection triggered under the op.
    Gc,
    /// An SWL-Procedure pass triggered under the op.
    Swl,
    /// NFTL merge work (charged to merge even when SWL drove it).
    Merge,
}

impl SpanCause {
    /// All causes, in [`Self::index`] order.
    pub const ALL: [SpanCause; 4] = [
        SpanCause::Host,
        SpanCause::Gc,
        SpanCause::Swl,
        SpanCause::Merge,
    ];

    /// Position of this cause in per-cause arrays.
    pub fn index(self) -> usize {
        match self {
            SpanCause::Host => 0,
            SpanCause::Gc => 1,
            SpanCause::Swl => 2,
            SpanCause::Merge => 3,
        }
    }

    /// Short stable token (`host`/`gc`/`swl`/`merge`) for reports.
    pub fn token(self) -> &'static str {
        match self {
            SpanCause::Host => "host",
            SpanCause::Gc => "gc",
            SpanCause::Swl => "swl",
            SpanCause::Merge => "merge",
        }
    }
}

/// Emission-side span bookkeeping for an instrumented translation layer.
///
/// Ids are allocated from 1 (0 is the "no parent"/disabled sentinel), so a
/// layer whose sink is disabled can use id 0 to skip emission without
/// branching on the sink type twice.
#[derive(Debug, Clone, Default)]
pub struct SpanTracker {
    next_id: u64,
    stack: Vec<u64>,
}

impl SpanTracker {
    /// A tracker with no open spans.
    pub fn new() -> Self {
        Self {
            next_id: 1,
            stack: Vec::new(),
        }
    }

    /// Opens a span; returns `(id, parent_id)` where `parent_id` is 0 for a
    /// root span.
    pub fn begin(&mut self) -> (u64, u64) {
        if self.next_id == 0 {
            self.next_id = 1; // Default::default() starts at 0.
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        (id, parent)
    }

    /// Closes span `id`, calling `emit` for it and — first — for every
    /// descendant an error path left open, in innermost-to-outermost order.
    ///
    /// This keeps the event stream balanced even when `?` unwinds through a
    /// GC or SWL call without reaching its own `span_end`. Unknown ids are
    /// ignored.
    pub fn end(&mut self, id: u64, mut emit: impl FnMut(u64)) {
        let Some(pos) = self.stack.iter().rposition(|&open| open == id) else {
            return;
        };
        while self.stack.len() > pos {
            let popped = self.stack.pop().expect("len > pos implies non-empty");
            emit(popped);
        }
    }

    /// Id of the innermost open span (0 when none).
    pub fn current(&self) -> u64 {
        self.stack.last().copied().unwrap_or(0)
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

/// Where one completed host operation's device time went.
///
/// Produced by [`SpanReplayer`] when a root span closes. The invariant the
/// span layer exists for: `cause_ns` sums to `total_ns()` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpBreakdown {
    /// Root span id.
    pub id: u64,
    /// Root span kind (a host operation).
    pub kind: SpanKind,
    /// Device busy time when the op entered the translation layer.
    pub begin_ns: u64,
    /// Device busy time when the op returned.
    pub end_ns: u64,
    /// Device time per cause, indexed by [`SpanCause::index`].
    pub cause_ns: [u64; 4],
    /// Page programs issued anywhere under the op (host + relocation), the
    /// numerator of per-op write amplification.
    pub programs: u64,
}

impl OpBreakdown {
    /// Total device time the op spent in the translation layer.
    pub fn total_ns(&self) -> u64 {
        self.end_ns - self.begin_ns
    }

    /// Device time for one cause.
    pub fn ns(&self, cause: SpanCause) -> u64 {
        self.cause_ns[cause.index()]
    }

    /// Device time charged to anything other than the host's own work.
    pub fn overhead_ns(&self) -> u64 {
        self.total_ns() - self.ns(SpanCause::Host)
    }
}

/// Structural-health summary of a span stream.
///
/// All-zero counters mean the stream is well formed. Unclosed spans at end
/// of log are tolerated only when a power cut was observed — a cut
/// legitimately tears the stream mid-op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCheck {
    /// `SpanEnd` events whose id matched no open span.
    pub orphan_ends: u64,
    /// `SpanEnd` events that closed a span out of LIFO order (descendants
    /// were force-closed to recover).
    pub id_mismatches: u64,
    /// Begins before their parent's begin, ends before their own begin, or
    /// child time exceeding the parent's total.
    pub bounds_violations: u64,
    /// Spans still open when the stream ended.
    pub unclosed: u64,
    /// Whether a [`Event::PowerCut`] appeared (excuses `unclosed`).
    pub power_cut_seen: bool,
}

impl SpanCheck {
    /// True when the stream is structurally sound (unclosed spans are
    /// allowed after a power cut).
    pub fn is_clean(&self) -> bool {
        self.orphan_ends == 0
            && self.id_mismatches == 0
            && self.bounds_violations == 0
            && (self.unclosed == 0 || self.power_cut_seen)
    }

    /// Human-readable error lines, empty when [`Self::is_clean`].
    pub fn errors(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.orphan_ends > 0 {
            out.push(format!(
                "{} span_end event(s) without a matching open span",
                self.orphan_ends
            ));
        }
        if self.id_mismatches > 0 {
            out.push(format!(
                "{} span_end event(s) closed spans out of LIFO order",
                self.id_mismatches
            ));
        }
        if self.bounds_violations > 0 {
            out.push(format!(
                "{} span(s) with begin/end stamps outside their parent's bounds",
                self.bounds_violations
            ));
        }
        if self.unclosed > 0 && !self.power_cut_seen {
            out.push(format!(
                "{} span(s) left open at end of log with no power cut to excuse them",
                self.unclosed
            ));
        }
        out
    }
}

/// One span as it closes, children before their parent — what `swl span`
/// draws its trees from (see [`SpanReplayer::observe_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedSpan {
    /// What the span did.
    pub kind: SpanKind,
    /// Open ancestors when it closed: 0 for a root (host-op) span.
    pub depth: usize,
    /// End minus begin.
    pub total_ns: u64,
    /// Total minus the totals of its direct children.
    pub self_ns: u64,
}

#[derive(Debug, Clone)]
struct OpenSpan {
    id: u64,
    kind: SpanKind,
    begin_ns: u64,
    /// Sum of direct children's totals, subtracted to get self time.
    child_ns: u64,
}

/// Replays a span-instrumented event stream into per-op breakdowns.
///
/// Feed every event (span or not) to [`observe`](Self::observe); it returns
/// `Some(OpBreakdown)` whenever a root span completes. [`Event::Program`]
/// events between a root's begin and end are counted into
/// [`OpBreakdown::programs`].
#[derive(Debug, Clone, Default)]
pub struct SpanReplayer {
    stack: Vec<OpenSpan>,
    /// Per-cause accumulation for the current root op.
    cause_ns: [u64; 4],
    programs: u64,
    check: SpanCheck,
    /// Completed root spans, for the checker's books.
    completed_roots: u64,
}

impl SpanReplayer {
    /// A replayer with no open spans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of root spans completed so far.
    pub fn completed_roots(&self) -> u64 {
        self.completed_roots
    }

    /// Number of currently open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Structural findings so far; `unclosed` reflects the current depth,
    /// so call this after the last event for an end-of-log verdict.
    pub fn check(&self) -> SpanCheck {
        SpanCheck {
            unclosed: self.stack.len() as u64,
            ..self.check
        }
    }

    /// Folds one event in; returns a breakdown when a root span closes.
    pub fn observe(&mut self, event: &Event) -> Option<OpBreakdown> {
        self.observe_with(event, |_| {})
    }

    /// [`observe`](Self::observe), also handing `closed` every span the
    /// event closes — including the descendants an out-of-order close
    /// force-closes — so a viewer follows the same recovery rules as the
    /// accounting without a copy of them.
    pub fn observe_with(
        &mut self,
        event: &Event,
        mut closed: impl FnMut(ClosedSpan),
    ) -> Option<OpBreakdown> {
        match *event {
            Event::SpanBegin {
                id,
                parent,
                kind,
                at_ns,
            } => {
                if let Some(top) = self.stack.last() {
                    if parent != top.id || at_ns < top.begin_ns {
                        self.check.bounds_violations += 1;
                    }
                } else {
                    if parent != 0 {
                        self.check.bounds_violations += 1;
                    }
                    // A fresh root op: reset per-op accumulators.
                    self.cause_ns = [0; 4];
                    self.programs = 0;
                }
                self.stack.push(OpenSpan {
                    id,
                    kind,
                    begin_ns: at_ns,
                    child_ns: 0,
                });
                None
            }
            Event::SpanEnd { id, at_ns } => {
                let Some(pos) = self.stack.iter().rposition(|open| open.id == id) else {
                    self.check.orphan_ends += 1;
                    return None;
                };
                if pos + 1 != self.stack.len() {
                    // Out-of-order close: force-close the descendants at the
                    // same stamp so accounting still balances, and note it.
                    self.check.id_mismatches += 1;
                }
                let mut result = None;
                while self.stack.len() > pos {
                    let open = self.stack.pop().expect("len > pos implies non-empty");
                    if at_ns < open.begin_ns {
                        self.check.bounds_violations += 1;
                    }
                    let total = at_ns.saturating_sub(open.begin_ns);
                    if open.child_ns > total {
                        self.check.bounds_violations += 1;
                    }
                    let self_ns = total.saturating_sub(open.child_ns);
                    self.cause_ns[open.kind.cause().index()] += self_ns;
                    closed(ClosedSpan {
                        kind: open.kind,
                        depth: self.stack.len(),
                        total_ns: total,
                        self_ns,
                    });
                    if let Some(parent) = self.stack.last_mut() {
                        parent.child_ns += total;
                    } else {
                        self.completed_roots += 1;
                        result = Some(OpBreakdown {
                            id: open.id,
                            kind: open.kind,
                            begin_ns: open.begin_ns,
                            end_ns: at_ns,
                            cause_ns: self.cause_ns,
                            programs: self.programs,
                        });
                    }
                }
                result
            }
            Event::Program { .. } => {
                if !self.stack.is_empty() {
                    self.programs += 1;
                }
                None
            }
            Event::PowerCut { .. } => {
                self.check.power_cut_seen = true;
                None
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(id: u64, parent: u64, kind: SpanKind, at_ns: u64) -> Event {
        Event::SpanBegin {
            id,
            parent,
            kind,
            at_ns,
        }
    }

    fn end(id: u64, at_ns: u64) -> Event {
        Event::SpanEnd { id, at_ns }
    }

    #[test]
    fn tracker_allocates_and_nests() {
        let mut t = SpanTracker::new();
        let (a, pa) = t.begin();
        assert_eq!((a, pa), (1, 0));
        let (b, pb) = t.begin();
        assert_eq!((b, pb), (2, 1));
        assert_eq!(t.current(), 2);
        let mut closed = Vec::new();
        t.end(b, |id| closed.push(id));
        t.end(a, |id| closed.push(id));
        assert_eq!(closed, [2, 1]);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn tracker_closes_orphaned_descendants() {
        let mut t = SpanTracker::new();
        let (root, _) = t.begin();
        let (_child, _) = t.begin();
        let (_grandchild, _) = t.begin();
        // Error path unwound straight to the root's close.
        let mut closed = Vec::new();
        t.end(root, |id| closed.push(id));
        assert_eq!(closed, [3, 2, 1]);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn tracker_ignores_unknown_ids() {
        let mut t = SpanTracker::new();
        let (a, _) = t.begin();
        t.end(99, |_| panic!("nothing should close"));
        assert_eq!(t.current(), a);
    }

    #[test]
    fn flat_op_is_all_host_time() {
        let mut r = SpanReplayer::new();
        assert!(r.observe(&begin(1, 0, SpanKind::HostWrite, 100)).is_none());
        let op = r.observe(&end(1, 700)).expect("root closed");
        assert_eq!(op.total_ns(), 600);
        assert_eq!(op.ns(SpanCause::Host), 600);
        assert_eq!(op.overhead_ns(), 0);
        assert!(r.check().is_clean());
    }

    #[test]
    fn nested_time_attributes_to_innermost_cause() {
        // host_write [0, 1000]
        //   gc [100, 400]
        //     merge [200, 300]
        //   swl [500, 900]
        let mut r = SpanReplayer::new();
        r.observe(&begin(1, 0, SpanKind::HostWrite, 0));
        r.observe(&begin(2, 1, SpanKind::Gc, 100));
        r.observe(&begin(3, 2, SpanKind::Merge, 200));
        r.observe(&end(3, 300));
        r.observe(&end(2, 400));
        r.observe(&begin(4, 1, SpanKind::Swl, 500));
        r.observe(&end(4, 900));
        let op = r.observe(&end(1, 1000)).expect("root closed");
        assert_eq!(op.ns(SpanCause::Host), 300); // 1000 − 300 (gc) − 400 (swl)
        assert_eq!(op.ns(SpanCause::Gc), 200); // 300 total − 100 merge
        assert_eq!(op.ns(SpanCause::Merge), 100);
        assert_eq!(op.ns(SpanCause::Swl), 400);
        assert_eq!(op.cause_ns.iter().sum::<u64>(), op.total_ns());
        assert!(r.check().is_clean());
    }

    #[test]
    fn programs_counted_per_op() {
        let mut r = SpanReplayer::new();
        r.observe(&begin(1, 0, SpanKind::HostWrite, 0));
        r.observe(&Event::Program { block: 0, page: 0 });
        r.observe(&Event::Program { block: 1, page: 0 });
        let op = r.observe(&end(1, 10)).unwrap();
        assert_eq!(op.programs, 2);
        // Next op starts from zero.
        r.observe(&begin(2, 0, SpanKind::HostWrite, 10));
        let op = r.observe(&end(2, 20)).unwrap();
        assert_eq!(op.programs, 0);
    }

    #[test]
    fn orphan_end_is_flagged() {
        let mut r = SpanReplayer::new();
        assert!(r.observe(&end(7, 10)).is_none());
        assert_eq!(r.check().orphan_ends, 1);
        assert!(!r.check().is_clean());
    }

    #[test]
    fn out_of_order_close_recovers_and_is_flagged() {
        let mut r = SpanReplayer::new();
        r.observe(&begin(1, 0, SpanKind::HostWrite, 0));
        r.observe(&begin(2, 1, SpanKind::Gc, 100));
        // Root closed while the GC span is still open.
        let op = r.observe(&end(1, 500)).expect("root closed");
        assert_eq!(r.check().id_mismatches, 1);
        assert_eq!(op.cause_ns.iter().sum::<u64>(), op.total_ns());
    }

    #[test]
    fn observe_with_reports_every_closed_span_children_first() {
        let mut r = SpanReplayer::new();
        let mut seen = Vec::new();
        r.observe_with(&begin(1, 0, SpanKind::HostWrite, 0), |s| seen.push(s));
        r.observe_with(&begin(2, 1, SpanKind::Gc, 100), |s| seen.push(s));
        r.observe_with(&begin(3, 2, SpanKind::Merge, 200), |s| seen.push(s));
        r.observe_with(&end(3, 300), |s| seen.push(s));
        // The root closes over the still-open GC span: both are reported.
        let op = r.observe_with(&end(1, 500), |s| seen.push(s)).unwrap();
        let span = |kind, depth, total_ns, self_ns| ClosedSpan {
            kind,
            depth,
            total_ns,
            self_ns,
        };
        assert_eq!(
            seen,
            [
                span(SpanKind::Merge, 2, 100, 100),
                span(SpanKind::Gc, 1, 400, 300),
                span(SpanKind::HostWrite, 0, 500, 100),
            ]
        );
        assert_eq!(op.total_ns(), 500);
        // An orphan end closes nothing.
        r.observe_with(&end(9, 600), |_| panic!("nothing closed"));
    }

    #[test]
    fn unclosed_needs_power_cut() {
        let mut r = SpanReplayer::new();
        r.observe(&begin(1, 0, SpanKind::HostWrite, 0));
        assert_eq!(r.check().unclosed, 1);
        assert!(!r.check().is_clean());
        assert!(!r.check().errors().is_empty());
        r.observe(&Event::PowerCut {
            at_op: 1,
            torn: true,
        });
        assert!(r.check().is_clean());
    }

    #[test]
    fn child_out_of_parent_bounds_is_flagged() {
        let mut r = SpanReplayer::new();
        r.observe(&begin(1, 0, SpanKind::HostWrite, 1000));
        r.observe(&begin(2, 1, SpanKind::Gc, 500)); // begins before parent
        r.observe(&end(2, 600));
        r.observe(&end(1, 2000));
        assert!(r.check().bounds_violations > 0);
    }

    #[test]
    fn cause_tokens_and_indices_are_stable() {
        for (i, cause) in SpanCause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i);
        }
        assert_eq!(SpanCause::Host.token(), "host");
        assert_eq!(SpanCause::Merge.token(), "merge");
        assert_eq!(SpanKind::Gc.cause(), SpanCause::Gc);
        assert_eq!(SpanKind::HostTrim.cause(), SpanCause::Host);
        assert!(SpanKind::HostRead.is_root());
        assert!(!SpanKind::Merge.is_root());
    }
}
