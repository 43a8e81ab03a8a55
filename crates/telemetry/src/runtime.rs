//! Wall-clock runtime metrics for the threaded execution engine.
//!
//! The virtual-time telemetry in the rest of this crate explains *device*
//! time; this module explains *host* time: where each worker thread's
//! wall-clock seconds went while the engine ran. The accounting follows the
//! worker loop's three states, measured from monotonic timestamps around
//! each transition:
//!
//! - **busy** — executing lane commands (flash sub-requests, SWL steps);
//! - **starved** — blocked on the *pop* side, waiting for the front-end to
//!   send the next command (the queue was empty), or for the lane group's
//!   claim while the front-end runs the queued commands itself;
//! - **backpressured** — blocked on the *push* side, waiting for queue
//!   capacity (completions piling up faster than the front-end drains them).
//!
//! Whatever is left of a worker's wall time is **idle** overhead (loop
//! bookkeeping, scheduler preemption) and is derived, never measured.
//!
//! Everything here is a plain atomic counter updated with relaxed ordering:
//! the numbers are monotone sums, readable at any instant by an observer
//! thread without stopping the workers ([`EngineSnapshot`]). None of it
//! feeds back into the simulation, so enabling metrics cannot perturb the
//! bit-exact virtual-time results — the `engine_oracle` suite pins that.
//!
//! The final [`EngineMetricsReport`] adds wall-clock latency histograms
//! ([`LatencyHistogram`], the same mergeable type the virtual-time report
//! uses): per-worker command-execution histograms merged into one, plus the
//! front-end's submit-to-finalize completion histograms per op kind.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::LatencyHistogram;

/// Atomic busy/starved/backpressure accounting for one worker thread.
///
/// Workers add to these counters with [`Ordering::Relaxed`]; observers read
/// a consistent-enough [`WorkerSample`] at any time (the fields are
/// independent monotone sums, so a torn multi-field read can only lag, never
/// invent time).
#[derive(Debug, Default)]
pub struct WorkerRuntime {
    busy_ns: AtomicU64,
    starved_ns: AtomicU64,
    backpressure_ns: AtomicU64,
    wall_ns: AtomicU64,
    commands: AtomicU64,
    pages: AtomicU64,
}

impl WorkerRuntime {
    /// Adds command-execution time and the command/page tally it covered.
    /// Workers batch several commands into one call (see the engine's
    /// flush cadence), so all three deltas are explicit.
    pub fn add_busy(&self, ns: u64, commands: u64, pages: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.commands.fetch_add(commands, Ordering::Relaxed);
        self.pages.fetch_add(pages, Ordering::Relaxed);
    }

    /// Adds pop-side wait time (no command was available).
    pub fn add_starved(&self, ns: u64) {
        self.starved_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds push-side wait time (the completion queue was full).
    pub fn add_backpressure(&self, ns: u64) {
        self.backpressure_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records the worker's total wall time, set once when it exits.
    pub fn set_wall(&self, ns: u64) {
        self.wall_ns.store(ns, Ordering::Relaxed);
    }

    /// Reads the counters into a plain sample. For a still-running worker
    /// (`wall_ns` not yet set) the caller's `elapsed_ns` stands in as the
    /// wall-time denominator.
    pub fn sample(&self, elapsed_ns: u64) -> WorkerSample {
        let wall = self.wall_ns.load(Ordering::Relaxed);
        WorkerSample {
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            starved_ns: self.starved_ns.load(Ordering::Relaxed),
            backpressure_ns: self.backpressure_ns.load(Ordering::Relaxed),
            wall_ns: if wall == 0 { elapsed_ns } else { wall },
            commands: self.commands.load(Ordering::Relaxed),
            pages: self.pages.load(Ordering::Relaxed),
        }
    }
}

/// Atomic per-lane (per-channel) wall-clock execution tallies.
#[derive(Debug, Default)]
pub struct LaneRuntime {
    busy_wall_ns: AtomicU64,
    commands: AtomicU64,
    pages: AtomicU64,
}

impl LaneRuntime {
    /// Adds a batch of executed commands' wall time and page count.
    pub fn add_commands(&self, ns: u64, commands: u64, pages: u64) {
        self.busy_wall_ns.fetch_add(ns, Ordering::Relaxed);
        self.commands.fetch_add(commands, Ordering::Relaxed);
        self.pages.fetch_add(pages, Ordering::Relaxed);
    }

    /// Reads the counters into a plain sample.
    pub fn sample(&self) -> LaneSample {
        LaneSample {
            busy_wall_ns: self.busy_wall_ns.load(Ordering::Relaxed),
            commands: self.commands.load(Ordering::Relaxed),
            pages: self.pages.load(Ordering::Relaxed),
        }
    }
}

/// The shared atomics block for one engine run: per-worker and per-lane
/// counters plus front-end op progress, all readable mid-run.
#[derive(Debug)]
pub struct EngineRuntime {
    started: Instant,
    workers: Vec<WorkerRuntime>,
    lanes: Vec<LaneRuntime>,
    ops_submitted: AtomicU64,
    ops_completed: AtomicU64,
    host_backpressure_ns: AtomicU64,
}

impl EngineRuntime {
    /// A zeroed runtime for `workers` threads over `lanes` channels,
    /// starting its wall clock now.
    pub fn new(workers: usize, lanes: usize) -> Self {
        Self {
            started: Instant::now(),
            workers: (0..workers).map(|_| WorkerRuntime::default()).collect(),
            lanes: (0..lanes).map(|_| LaneRuntime::default()).collect(),
            ops_submitted: AtomicU64::new(0),
            ops_completed: AtomicU64::new(0),
            host_backpressure_ns: AtomicU64::new(0),
        }
    }

    /// Wall nanoseconds since this runtime was created.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The per-worker counter block for worker `w`.
    pub fn worker(&self, w: usize) -> &WorkerRuntime {
        &self.workers[w]
    }

    /// The per-lane counter block for channel `lane`.
    pub fn lane(&self, lane: usize) -> &LaneRuntime {
        &self.lanes[lane]
    }

    /// Counts one host op accepted by the front-end.
    pub fn op_submitted(&self) {
        self.ops_submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one host op finalized in submission order.
    pub fn op_completed(&self) {
        self.ops_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds time the *front-end* spent blocked because the in-flight window
    /// was at queue depth (the submit-side mirror of worker starvation).
    pub fn add_host_backpressure(&self, ns: u64) {
        self.host_backpressure_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Reads every counter into an [`EngineSnapshot`]. Queue gauges are
    /// owned by the engine's queues, so the caller supplies them.
    pub fn snapshot(
        &self,
        command_queues: Vec<QueueSample>,
        completion_queue: QueueSample,
    ) -> EngineSnapshot {
        let elapsed_ns = self.elapsed_ns();
        EngineSnapshot {
            elapsed_ns,
            ops_submitted: self.ops_submitted.load(Ordering::Relaxed),
            ops_completed: self.ops_completed.load(Ordering::Relaxed),
            host_backpressure_ns: self.host_backpressure_ns.load(Ordering::Relaxed),
            workers: self.workers.iter().map(|w| w.sample(elapsed_ns)).collect(),
            lanes: self.lanes.iter().map(LaneRuntime::sample).collect(),
            command_queues,
            completion_queue,
        }
    }
}

/// One worker's accounting at a point in time (plain numbers; see
/// [`WorkerRuntime`]).
///
/// A slot describes the worker *thread*. Lane commands are executed by
/// whoever holds the lane group's claim, and the engine's front-end takes it
/// wherever it would otherwise park, so a worker may run few commands or
/// none: behind a blocking caller `busy_frac` reads near 0 because the
/// caller does the work. An engine that spawned no workers — on a one-CPU
/// host they could only pre-empt the caller — has no slots at all. What
/// the front-end ran is charged to the lanes ([`LaneSample`]) and counted in
/// the engine's `EngineRun::helped_commands`, never here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSample {
    /// Wall time spent executing lane commands.
    pub busy_ns: u64,
    /// Wall time blocked waiting for the next command (pop side), or for the
    /// group's claim while the front-end ran the backlog.
    pub starved_ns: u64,
    /// Wall time blocked pushing completions (push side).
    pub backpressure_ns: u64,
    /// Total wall time: the worker's lifetime once it exited, the run's
    /// elapsed time while it is still running.
    pub wall_ns: u64,
    /// Lane commands executed.
    pub commands: u64,
    /// Flash pages served by those commands.
    pub pages: u64,
}

impl WorkerSample {
    fn frac(&self, part: u64) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            part as f64 / self.wall_ns as f64
        }
    }

    /// Fraction of wall time spent executing commands.
    pub fn busy_frac(&self) -> f64 {
        self.frac(self.busy_ns)
    }

    /// Fraction of wall time starved on the command queue.
    pub fn starved_frac(&self) -> f64 {
        self.frac(self.starved_ns)
    }

    /// Fraction of wall time backpressured on the completion queue.
    pub fn backpressure_frac(&self) -> f64 {
        self.frac(self.backpressure_ns)
    }

    /// Derived remainder: wall time in none of the measured states.
    pub fn idle_frac(&self) -> f64 {
        (1.0 - self.busy_frac() - self.starved_frac() - self.backpressure_frac()).max(0.0)
    }
}

/// One lane's wall-clock execution tallies at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSample {
    /// Wall time somebody — a worker thread, the front-end under the group's
    /// claim, or the front-end of an engine without workers — spent
    /// executing this lane's commands.
    pub busy_wall_ns: u64,
    /// Commands executed on this lane, by either.
    pub commands: u64,
    /// Flash pages served on this lane.
    pub pages: u64,
}

/// Occupancy gauges for one bounded queue.
///
/// The engine's consumers take a whole burst off a queue per crossing and
/// work through it privately, so occupancy means *accepted and not yet
/// taken*: a command a worker holds in its drained inbox, or a completion
/// the front-end has drained but not absorbed, is no longer counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueSample {
    /// Items queued at sampling time: pushed, and not yet taken by the
    /// consumer (see the type docs). In-flight work is `ops_submitted -
    /// ops_completed`, not this.
    pub len: usize,
    /// Highest occupancy ever observed (monotone over a run, at most
    /// `capacity`): how far the producer got ahead between two drains.
    pub high_water: usize,
    /// Bound the queue blocks at.
    pub capacity: usize,
}

/// A consistent-enough point-in-time view of a running engine: worker and
/// lane accounting plus queue gauges. Produced by
/// [`EngineRuntime::snapshot`]; readable mid-run without stopping workers.
///
/// `workers` accounts for the worker threads only, `lanes` for every command
/// executed: the lane tallies exceed the worker tallies by what the
/// front-end ran itself at its barriers (see [`WorkerSample`]). An engine
/// without workers (one CPU, or zero threads asked for) reports no worker
/// slots and no queue gauges: `workers` and `command_queues` are empty and
/// `completion_queue` is all zero, capacity included. The aggregate
/// fractions below are over worker wall time, so there
/// [`EngineSnapshot::busy_frac`] reads 0 with the engine saturated; the lane
/// tallies say what ran.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Wall nanoseconds since the engine was built.
    pub elapsed_ns: u64,
    /// Host ops accepted by the front-end.
    pub ops_submitted: u64,
    /// Host ops finalized in submission order.
    pub ops_completed: u64,
    /// Wall time the front-end spent blocked with the in-flight window full.
    pub host_backpressure_ns: u64,
    /// Per-worker accounting, worker-index order (empty without workers).
    pub workers: Vec<WorkerSample>,
    /// Per-lane accounting, channel order.
    pub lanes: Vec<LaneSample>,
    /// Per-worker command queue gauges, worker-index order (empty without
    /// workers): commands dispatched to the worker's lane group that no claim
    /// holder has *taken* yet (the queue is drained a burst at a time, so
    /// this excludes the burst being executed).
    pub command_queues: Vec<QueueSample>,
    /// The shared completion queue's gauges: completions handed over by
    /// workers (a burst at a time, when a worker's inbox runs dry) that the
    /// front-end has not yet taken. Completions of commands the front-end
    /// ran itself never pass through here; an engine without workers has no
    /// such queue and reports the all-zero sample.
    pub completion_queue: QueueSample,
}

impl EngineSnapshot {
    /// Aggregate busy fraction: total worker busy time over total worker
    /// wall time (0 when no wall time has accumulated).
    pub fn busy_frac(&self) -> f64 {
        let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        let wall: u64 = self.workers.iter().map(|w| w.wall_ns).sum();
        if wall == 0 {
            0.0
        } else {
            busy as f64 / wall as f64
        }
    }

    /// Aggregate pop-side starvation fraction across workers.
    pub fn starved_frac(&self) -> f64 {
        let starved: u64 = self.workers.iter().map(|w| w.starved_ns).sum();
        let wall: u64 = self.workers.iter().map(|w| w.wall_ns).sum();
        if wall == 0 {
            0.0
        } else {
            starved as f64 / wall as f64
        }
    }

    /// Aggregate push-side backpressure fraction across workers.
    pub fn backpressure_frac(&self) -> f64 {
        let bp: u64 = self.workers.iter().map(|w| w.backpressure_ns).sum();
        let wall: u64 = self.workers.iter().map(|w| w.wall_ns).sum();
        if wall == 0 {
            0.0
        } else {
            bp as f64 / wall as f64
        }
    }

    /// Highest command-queue occupancy across all workers.
    pub fn command_high_water(&self) -> usize {
        self.command_queues
            .iter()
            .map(|q| q.high_water)
            .max()
            .unwrap_or(0)
    }
}

/// Everything the metrics layer produced for one finished engine run: the
/// final [`EngineSnapshot`] plus the wall-clock latency histograms that
/// cannot be kept in atomics.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineMetricsReport {
    /// The counters at the instant the last worker exited.
    pub snapshot: EngineSnapshot,
    /// Per-worker command-execution wall latency, worker-index order.
    pub worker_cmd_latency: Vec<LatencyHistogram>,
    /// The merge of every executor's command histogram (identical to
    /// recording all commands into one stream — see the merge property
    /// tests): [`EngineMetricsReport::new`] merges the workers', and the
    /// engine merges in the histogram of the commands its front-end ran
    /// under a claim, so the count covers every command executed.
    pub cmd_latency: LatencyHistogram,
    /// Submit-to-finalize wall latency of host write ops.
    pub op_write_wall: LatencyHistogram,
    /// Submit-to-finalize wall latency of host read ops.
    pub op_read_wall: LatencyHistogram,
}

impl EngineMetricsReport {
    /// Assembles the report, deriving the merged command histogram.
    pub fn new(
        snapshot: EngineSnapshot,
        worker_cmd_latency: Vec<LatencyHistogram>,
        op_write_wall: LatencyHistogram,
        op_read_wall: LatencyHistogram,
    ) -> Self {
        let mut cmd_latency = LatencyHistogram::new();
        for worker in &worker_cmd_latency {
            cmd_latency.merge(worker);
        }
        Self {
            snapshot,
            worker_cmd_latency,
            cmd_latency,
            op_write_wall,
            op_read_wall,
        }
    }
}

/// The service layer's RAM write-cache counters (plain numbers): the cache
/// bumps them as it works and hands out a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSample {
    /// Writes absorbed in place by an existing dirty entry.
    pub write_hits: u64,
    /// Reads served from a dirty entry.
    pub read_hits: u64,
    /// Writes admitted as new dirty entries.
    pub admitted: u64,
    /// Writes the admission filter passed straight to flash.
    pub write_through: u64,
    /// Dirty entries flushed back to flash (all causes).
    pub flushed_pages: u64,
    /// Flush-back batches issued (watermark, capacity, or explicit flush).
    pub flush_batches: u64,
    /// Dirty entries flushed specifically to make room (capacity pressure).
    pub evicted: u64,
    /// Dirty entries dropped by trims before ever reaching flash.
    pub trimmed: u64,
    /// Dirty entries held right now.
    pub dirty: u64,
    /// Bound on dirty entries.
    pub capacity: u64,
}

impl CacheSample {
    /// Cached pages written per host write page: the fraction of write
    /// traffic the flash array never saw. `write_hits / (write_hits +
    /// admitted + write_through)`; 0 when nothing was written.
    pub fn write_hit_rate(&self) -> f64 {
        let total = self.write_hits + self.admitted + self.write_through;
        if total == 0 {
            0.0
        } else {
            self.write_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        assert_eq!(CacheSample::default().write_hit_rate(), 0.0);
    }

    #[test]
    fn worker_fractions_partition_wall_time() {
        let runtime = WorkerRuntime::default();
        runtime.add_busy(600, 1, 4);
        runtime.add_starved(250);
        runtime.add_backpressure(50);
        runtime.set_wall(1_000);
        let sample = runtime.sample(0);
        assert_eq!(sample.busy_ns, 600);
        assert_eq!(sample.commands, 1);
        assert_eq!(sample.pages, 4);
        assert!((sample.busy_frac() - 0.6).abs() < 1e-12);
        assert!((sample.starved_frac() - 0.25).abs() < 1e-12);
        assert!((sample.backpressure_frac() - 0.05).abs() < 1e-12);
        assert!((sample.idle_frac() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn running_worker_uses_elapsed_as_denominator() {
        let runtime = WorkerRuntime::default();
        runtime.add_busy(500, 1, 1);
        let sample = runtime.sample(2_000);
        assert_eq!(sample.wall_ns, 2_000);
        assert!((sample.busy_frac() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn snapshot_aggregates_across_workers() {
        let runtime = EngineRuntime::new(2, 4);
        runtime.worker(0).add_busy(800, 1, 8);
        runtime.worker(0).set_wall(1_000);
        runtime.worker(1).add_busy(200, 1, 2);
        runtime.worker(1).add_starved(700);
        runtime.worker(1).set_wall(1_000);
        runtime.lane(3).add_commands(123, 1, 2);
        runtime.op_submitted();
        runtime.op_completed();
        let snapshot = runtime.snapshot(
            vec![
                QueueSample {
                    len: 0,
                    high_water: 3,
                    capacity: 8,
                },
                QueueSample {
                    len: 1,
                    high_water: 7,
                    capacity: 8,
                },
            ],
            QueueSample {
                len: 0,
                high_water: 2,
                capacity: 16,
            },
        );
        assert_eq!(snapshot.ops_submitted, 1);
        assert_eq!(snapshot.ops_completed, 1);
        assert!((snapshot.busy_frac() - 0.5).abs() < 1e-12);
        assert!((snapshot.starved_frac() - 0.35).abs() < 1e-12);
        assert_eq!(snapshot.command_high_water(), 7);
        assert_eq!(snapshot.lanes[3].pages, 2);
    }

    #[test]
    fn report_merges_worker_histograms() {
        let mut a = LatencyHistogram::new();
        a.record(100);
        a.record(200);
        let mut b = LatencyHistogram::new();
        b.record(50_000);
        let runtime = EngineRuntime::new(2, 1);
        let snapshot = runtime.snapshot(
            Vec::new(),
            QueueSample {
                len: 0,
                high_water: 0,
                capacity: 1,
            },
        );
        let report = EngineMetricsReport::new(
            snapshot,
            vec![a, b],
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        assert_eq!(report.cmd_latency.count(), 3);
        assert_eq!(report.cmd_latency.total_ns(), 50_300);
    }

    #[test]
    fn empty_snapshot_fractions_are_zero() {
        let runtime = EngineRuntime::new(0, 0);
        let snapshot = runtime.snapshot(
            Vec::new(),
            QueueSample {
                len: 0,
                high_water: 0,
                capacity: 1,
            },
        );
        assert_eq!(snapshot.busy_frac(), 0.0);
        assert_eq!(snapshot.starved_frac(), 0.0);
        assert_eq!(snapshot.backpressure_frac(), 0.0);
        assert_eq!(snapshot.command_high_water(), 0);
    }
}
