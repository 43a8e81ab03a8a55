//! Real-thread channel execution engine.
//!
//! [`Simulator::run_striped`](crate::Simulator::run_striped) overlaps
//! channels only in *virtual* time: one thread walks the trace and a
//! [`ChannelScheduler`] replays the per-lane busy deltas. This module runs
//! the same array on real cores: the channel lanes (translation layer +
//! NAND device) are dealt into one group per worker thread, each group fed
//! through a bounded command queue ([`ShardQueue`]) and drained through a
//! shared completion queue. A group's commands are executed by whoever holds
//! its *claim* — its worker, or the front-end at a point where it would
//! otherwise sit and wait for that worker (see *Who runs a command*). The
//! front-end ([`Engine`]) accepts in-flight host requests up to a
//! configurable queue depth and finalizes them strictly in submission order.
//! Where the host has no core for a worker to run on there are no workers and
//! no queues: the engine keeps its lanes and runs each op where it is
//! submitted (*No core, no queue*, below).
//!
//! # Determinism
//!
//! The engine must reproduce `run_striped` **bit for bit** — lane contents,
//! erase counters, SWL/BET state, histograms, the whole
//! [`StripedReport`] — with only wall-clock timing allowed to differ. That
//! holds by construction:
//!
//! - all wear/GC/SWL state is lane-local and each lane executes its
//!   sub-request stream in submission order (a FIFO queue per group,
//!   consumed by one claim holder at a time — or no queue at all, the
//!   submitting thread running the op's pages before it returns), so lane
//!   state never depends on cross-lane interleaving — or on which thread did
//!   the executing;
//! - write tokens are assigned by the front-end in global trace order,
//!   exactly as the virtual-time loop does;
//! - everything *derived across lanes* (op latencies, makespan, first
//!   failure) is computed when the op retires, in op order, from per-op
//!   deltas — never from live lane state, which in a threaded engine may
//!   already be ahead of the op being finalized. Every op retires through the
//!   one `retire` function, whoever executed it and however.
//!
//! Under [`SwlCoordination::Global`] with SWL over more than one channel,
//! the virtual-time loop runs the coordinator after *every page write*, and
//! the coordinator reads every lane's `(ecnt, fcnt)`. Such an engine has no
//! workers ([`EngineConfig::threads`]): its writes run where they are
//! submitted, page by page in host order, as `run_striped` runs them. What
//! the coordinator reads moves only in SWL-BETUpdate, when a lane erases, and
//! the coordinator — a pure function of the views and the [`StallRule`]
//! latches — is at rest whenever it returns. So the engine does not run it
//! after every page. It compares the written lane's view with the one it
//! cached, and only when the page moved it does it replay the
//! `coordinate_swl` loop against the cached views, which are exact because
//! the engine owns every lane. Reads and snapshot verbs move no view (a debug
//! build checks the verbs). Per-channel SWL and SWL-less runs keep their
//! workers and full run-ahead at any queue depth.
//!
//! # Who runs a command
//!
//! A simulated page costs the lane about 50 ns; waking a parked thread costs
//! about 5 µs. A front-end that hands a command over and then parks until a
//! worker has been woken to run it pays a hundred times the work in hand-off.
//! So the work is not tied to a thread, and what crosses a queue is kept to
//! the one thing worth queueing:
//!
//! - **What crosses a queue.** A lane's share of a *pipelined* op — a
//!   `LaneCommand`: the op's pages for that lane — and nothing else. It is
//!   the only work the front-end can get ahead of: the op is accepted, its
//!   shares are queued, and `submit` returns while they wait their turn.
//! - **A barrier is a call.** What the front-end must see the result of
//!   before it can go on runs where it is issued, with no command record,
//!   page buffer or completion. A blocking read is one page loop in host
//!   order (`submit_direct`, the loop `run_striped` runs); a snapshot verb
//!   on a lane is a closure `run_here` runs on the lane. Either hands back
//!   the lane's acknowledgement: busy delta, first failure, leveler view.
//! - **The claim.** Each group's lanes live behind one mutex (`LaneClaim`),
//!   and holding its guard is the right to run the group: *only the claim
//!   holder pops the group's command queue, it executes what it popped in
//!   order, and it hands the completions over before it lets the claim go.*
//!   That keeps per-lane FIFO and per-lane acknowledgement order no matter
//!   how holders alternate. For queued work the lock is taken once per burst
//!   — not per command, and not per field of the lane. A barrier call takes
//!   it with a blocking `lock`, once per group and op: every such caller has
//!   drained the pipeline, so the holder, if there is one, is a worker that
//!   found its queue empty and is on its way back to `wait`.
//! - **Help-or-wait.** Wherever the front-end would park on the pipeline —
//!   `flush` (and so the head of every barrier), the window backpressure of a
//!   pipelined submit — it first takes what has already completed; else it
//!   `try_lock`s every group, and for each claim it gets drains the
//!   completion queue (acknowledgements the group's worker handed over
//!   earlier are older, so they go first), pops the group's commands and
//!   executes them straight into its own `acks`. It parks on the completion
//!   queue only if all of that produced nothing: then every awaited command
//!   is in the hands of a worker that is running right now.
//! - **The deferred doorbell.** `dispatch` enqueues with
//!   [`ShardQueue::push_deferred`], which wakes a parked worker only once
//!   the backlog reaches half the queue's capacity — half an in-flight
//!   window, so the worker has that much to run while the front-end fills
//!   the other half. A worker parks with [`ShardQueue::wait`], *without
//!   taking* anything, holding no claim, and **only on an empty queue**;
//!   woken (or finding the queue non-empty), it takes the claim and pops in
//!   a loop while commands keep arriving. [`Engine::new`] returns with every
//!   worker parked, so the first thing a worker ever sees is a doorbell.
//! - **No core, no queue.** Half a window is worth a wake only if the worker
//!   then runs *beside* the front-end. The workers inherit the affinity mask
//!   of the thread that builds the engine; when that mask (as
//!   [`std::thread::available_parallelism`] counts it) holds a single CPU, a
//!   woken worker can only pre-empt the caller, and every pooled record would
//!   carry work from a thread to itself at more than the cost of the work
//!   (EXPERIMENTS.md). So there [`Engine::new`] spawns no workers and builds
//!   no queues and no claims, and the engine runs every op the way
//!   `run_striped` does, where it is submitted: one loop over its pages in
//!   host order, one acknowledgement per lane it touched, the op retired
//!   before `submit` returns. [`EngineConfig::with_threads`]`(0)` asks for
//!   this engine anywhere (oracle tests do); nothing else selects it. It
//!   reports [`EngineRun::threads`]` == 0` and is bit-identical to the
//!   threaded engine and to `run_striped`, lowest-ordinal error included — a
//!   lane that fails stops at its page, the op's other lanes run on, the
//!   error sticks.
//!
//! No wake-up can be lost, because of what those two rules leave possible. A
//! parked worker holds no claim, so a front-end that needs a backlog run can
//! always claim a parked worker's group and run it. And a front-end whose
//! `try_lock` fails is failing against a worker that is awake and will look
//! at its queue again before it parks — it cannot park on a non-empty queue
//! — so everything queued so far gets executed, and its completions pushed
//! (an eager, waiter-gated wake) to the completion queue the front-end is
//! parked on.
//!
//! Hence the threshold on the producer side and the empty-queue rule on the
//! consumer side; the two nearby designs that were measured and rejected — an
//! eager doorbell, a consumer-side threshold — are in ARCHITECTURE.md.
//!
//! A claim holder that panics poisons the claim. The next party to touch it
//! — helping, or calling a barrier — panics in turn (`lane worker N panicked
//! …`) instead of waiting for the lanes, or for acknowledgements that will
//! never come, and a worker that unwinds closes
//! the completion queue so that a front-end already parked there fails its
//! assert too.
//!
//! # Crossings and pooled records
//!
//! Even an uncontended queue crossing is a lock round trip. So the engine
//! with workers (the one without has neither queues nor records) crosses its
//! queues once per *burst*, and reuses the records that cross:
//!
//! - A claim holder takes everything on the group's command queue in one
//!   [`ShardQueue::try_pop_all`] into a private inbox and executes it in
//!   order. A worker keeps the completions in a private outbox and hands
//!   them over at *inbox dry*, in one `push_all`, before it looks at the
//!   command queue again: earlier would be a crossing per command; later —
//!   after the claim has gone, or after parking — could reorder a lane's
//!   acknowledgements or leave the front-end waiting for completions nobody
//!   is going to send. The front-end's completions never cross at all.
//!   Burst size is nobody's setting: it is however far the producer got
//!   ahead before somebody took the claim, 1 at queue depth 1 and up to the
//!   whole in-flight window when the threads share a core.
//! - The front-end drains the completion queue the same way (into `acks`)
//!   in `submit_pipelined` and `flush`, and always consumes what it drained
//!   before returning.
//! - A `Vec<PageCmd>` is owned by exactly one party at a time: the
//!   front-end filling it with a lane's pages, the `LaneCommand` that carries
//!   it to the group, the claim holder filling in page latencies and cutting
//!   it back to the pages that executed, the `LaneCompletion` that carries it
//!   back, the `PendingOp` that holds it until the op is finalized in
//!   submission order, and then the front-end's pool, *cleared*, so the next
//!   op re-initialises every slot it uses. A finalized `PendingOp` likewise
//!   returns its `results`, empty.
//!   The pools hold at most what the in-flight window had in use at its
//!   peak (queue depth × lanes page buffers), and a steady-state op
//!   allocates nothing on either thread (`tests/engine_allocs.rs`): the
//!   front-end's inbox is one reused `VecDeque`, so helping allocates
//!   nothing either.
//!
//! None of this touches what the determinism argument rests on: per-lane
//! execution order, token assignment, finalize order and lowest-ordinal
//! error attribution are as before.
//!
//! # Wall-clock observability
//!
//! With [`EngineConfig::with_metrics`] the engine additionally accounts for
//! where *wall-clock* time goes, without touching any simulation state:
//! per-worker busy/starved/backpressured time from monotonic timestamps,
//! per-lane wall busy time, queue occupancy gauges with high-water marks,
//! and wall-clock latency histograms (command execution, and front-end
//! submit-to-finalize per host op). A command is timed and charged once, by
//! whoever ran it: always to its lane and to the merged command histogram,
//! and to a worker slot only when a worker *thread* ran it — what the
//! front-end ran itself, a queued command under a claim or a barrier call, is
//! counted in [`EngineRun::helped_commands`] instead (a barrier never shows
//! in a worker slot), so a worker's `busy_frac` near 0 behind a blocking
//! caller means the caller did the work, not that nothing happened. An op run
//! in place (every op without workers, a blocking read with them) is timed
//! with one clock read and counted as one command per lane it touched, each
//! charged an even share; a Global coordinator step is one more command of
//! the lane it steps. So `Σ lane.commands == Σ worker.commands +
//! helped_commands == cmd_latency.count()` holds for both kinds of engine;
//! one without workers has no worker slots and no queue gauges. Counters
//! live in a shared [`EngineRuntime`] atomics block, so an [`EngineSnapshot`]
//! can be read mid-run through [`Engine::metrics_handle`] while workers keep
//! running; the final [`EngineMetricsReport`] lands on
//! [`EngineRun::metrics`]. The disabled path is monomorphized out of the
//! worker loop (`METRICS = false` takes no timestamps at all), and enabling
//! metrics cannot perturb the bit-exact virtual-time results —
//! `tests/engine_oracle.rs` pins both.

pub mod queue;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::thread::JoinHandle;
use std::time::Instant;

use flash_telemetry::buffer::{merge_lane_buffers, LaneBuffer};
use flash_telemetry::health::{HealthConfig, HealthRuntime};
use flash_telemetry::runtime::{EngineMetricsReport, EngineRuntime, EngineSnapshot, QueueSample};
use flash_telemetry::{Event, LatencyHistogram, Sink};
use flash_trace::{Op, TraceEvent};
use nand::{CellSpec, ChannelGeometry, FailureRecord, NandDevice};
use swl_core::{ShardView, StallRule, SwlConfig};

use crate::error::SimError;
use crate::latency::LatencyStats;
use crate::layer::{Layer, LayerKind, SimConfig, SnapshotVerb, TranslationLayer};
use crate::report::FirstFailure;
use crate::sched::ChannelScheduler;
use crate::simulator::StopCondition;
use crate::striped::{
    first_failure_of, lane_swl_config, lane_totals, StripedReport, SwlCoordination,
};

use queue::ShardQueue;

/// Per-lane telemetry sink for worker threads: a [`LaneBuffer`] whose epoch
/// stamp is driven by the worker through a shared cell (the worker sets it
/// to the host-op sequence number before executing each command). With
/// telemetry disabled the buffer stays empty and emission is a no-op.
#[derive(Debug)]
pub struct EngineSink {
    enabled: bool,
    epoch: Arc<AtomicU64>,
    buffer: LaneBuffer,
    /// Health-plane tap: the shared wear table plus this lane's flat-block
    /// base. Rides the emission sites the device already has — no clock
    /// reads, no locks, just relaxed stores on wear-bearing events — and is
    /// independent of `enabled`, so health stays live with telemetry
    /// buffering off.
    health: Option<(Arc<HealthRuntime>, u64)>,
}

impl EngineSink {
    fn new(
        lane: u32,
        enabled: bool,
        epoch: Arc<AtomicU64>,
        health: Option<(Arc<HealthRuntime>, u64)>,
    ) -> Self {
        Self {
            enabled,
            epoch,
            buffer: LaneBuffer::new(lane),
            health,
        }
    }

    /// The buffered per-lane stream (empty when telemetry was disabled).
    pub fn into_buffer(self) -> LaneBuffer {
        self.buffer
    }
}

impl Sink for EngineSink {
    #[inline]
    fn event(&mut self, event: Event) {
        if let Some((health, base)) = &self.health {
            health.observe_event(*base, &event);
        }
        if self.enabled {
            self.buffer.set_epoch(self.epoch.load(Ordering::Relaxed));
            self.buffer.event(event);
        }
    }
}

/// One page of a queued host op, routed to a lane. The record makes the
/// round trip: the front-end fills the request half, the claim holder fills
/// the result slot in place, and the same buffer comes back on the completion.
#[derive(Debug, Clone)]
struct PageCmd {
    lane_lba: u64,
    /// Write token ([`Engine::take_tokens`]); unused by a read.
    token: u64,
    /// Position of this page within the host op (for deterministic error
    /// attribution).
    ordinal: u32,
    /// Result slot: device busy time the page added to its lane.
    latency: u64,
}

/// The one thing that crosses a command queue: a lane's share of a
/// pipelined host op — its pages of op `op_seq`, to be executed in order.
#[derive(Debug)]
struct LaneCommand {
    op_seq: u64,
    lane: u32,
    op: Op,
    pages: Vec<PageCmd>,
}

/// What a lane reports after anything has run on it.
#[derive(Debug)]
struct LaneAck {
    /// Device busy time the work added to the lane.
    busy_delta: u64,
    /// The lane's first wear-out as of this work.
    failure: Option<FailureRecord>,
    /// The lane's leveler view as of this work ([`view_of`]).
    view: ShardView,
}

/// A lane's acknowledgement of one queued command.
#[derive(Debug)]
struct LaneCompletion {
    op_seq: u64,
    lane: u32,
    /// The command's own page buffer, cut back to the pages that executed.
    pages: Vec<PageCmd>,
    /// First error hit, with the ordinal of the offending page.
    error: Option<(u32, SimError)>,
    ack: LaneAck,
}

/// One lane. With workers it is one of a group and nobody owns it outright:
/// whoever holds the group's [`LaneClaim`] executes on it.
struct WorkerLane {
    channel: u32,
    layer: Layer<EngineSink>,
    epoch: Arc<AtomicU64>,
}

/// The lanes of one worker's group, behind the lock that *is* the claim:
/// holding the guard is the right to pop the group's command queue and to
/// execute on its lanes (module docs, *Who runs a command*). Taken once per
/// burst, never per field or per command.
type LaneClaim = Arc<Mutex<Vec<WorkerLane>>>;

/// Whether a woken lane worker would have a CPU to run on beside the
/// caller's. The threads an engine spawns inherit the affinity mask of the
/// thread that builds it, which is what `available_parallelism` counts (an
/// unknown count is taken to mean there is one).
fn spare_core() -> bool {
    std::thread::available_parallelism().map_or(true, |cpus| cpus.get() > 1)
}

/// A group's claim is poisoned or its worker's join failed: somebody
/// panicked mid-command, the lanes are in no known state, and the caller
/// must fail rather than wait for acknowledgements that will never come.
#[cold]
#[inline(never)]
fn worker_died(group: usize) -> ! {
    panic!("lane worker {group} panicked (or a front-end running its lanes did) mid-command")
}

/// The lane's leveler view (all zero when no SWL is attached).
fn view_of(layer: &Layer<EngineSink>) -> ShardView {
    layer.swl().map(ShardView::of).unwrap_or_default()
}

/// Runs `pages` on `layer` in order, filling in their latencies, and stops at
/// the first page that fails, cutting `pages` back to those that executed:
/// their count, and the failure with its page's ordinal. The page loop of a
/// queued command.
fn run_pages(
    layer: &mut Layer<EngineSink>,
    op: Op,
    pages: &mut Vec<PageCmd>,
) -> (u32, Option<(u32, SimError)>) {
    for executed in 0..pages.len() {
        let page = &mut pages[executed];
        let page_before = layer.device().busy_ns();
        let result = match op {
            Op::Write => layer.write(page.lane_lba, page.token),
            Op::Read => layer.read(page.lane_lba).map(drop),
        };
        if let Err(e) = result {
            let failed = Some((page.ordinal, e));
            pages.truncate(executed);
            return (executed as u32, failed);
        }
        page.latency = layer.device().busy_ns() - page_before;
    }
    (pages.len() as u32, None)
}

/// Runs `work` — a queued command, or a `run_here` call — on the lane as host
/// op `op_seq`: epoch stamp, the work, the acknowledgement. The caller holds
/// the lane's group claim, or owns the lane. `work` returns the pages it
/// executed beside its result; `meter` times it and charges it once, to the
/// lane and to the command histogram.
#[inline]
fn run_on<R>(
    wl: &mut WorkerLane,
    op_seq: u64,
    meter: &mut Option<WorkerMeter>,
    work: impl FnOnce(&mut Layer<EngineSink>) -> (u32, R),
) -> (R, LaneAck) {
    wl.epoch.store(op_seq, Ordering::Relaxed);
    let busy_before = wl.layer.device().busy_ns();
    let (executed, result) = work(&mut wl.layer);
    if let Some(meter) = meter {
        meter.commands([(wl.channel, executed)].into_iter());
    }
    let ack = LaneAck {
        busy_delta: wl.layer.device().busy_ns() - busy_before,
        failure: wl.layer.device().first_failure(),
        view: view_of(&wl.layer),
    };
    (result, ack)
}

/// Lane `lane` of the claimed group `lanes`.
fn lane_of(lanes: &mut [WorkerLane], lane: u32) -> &mut WorkerLane {
    lanes
        .iter_mut()
        .find(|w| w.channel == lane)
        .expect("work routed to a group that does not hold the lane")
}

/// Runs one queued command on the lane of `lanes` it addresses, for whoever
/// popped it under the group's claim.
fn execute(
    lanes: &mut [WorkerLane],
    command: LaneCommand,
    meter: &mut Option<WorkerMeter>,
) -> LaneCompletion {
    let LaneCommand {
        op_seq,
        lane,
        op,
        mut pages,
    } = command;
    let wl = lane_of(lanes, lane);
    let (error, ack) = run_on(wl, op_seq, meter, |layer| run_pages(layer, op, &mut pages));
    LaneCompletion {
        op_seq,
        lane,
        pages,
        error,
        ack,
    }
}

/// Signature shared by both monomorphizations of [`worker_loop`], so
/// [`Engine::new`] can pick the instrumented or the compiled-out body at
/// runtime while each stays a static, fully inlined function. A worker
/// returns its wall-clock command-latency histogram (empty when metrics were
/// off); the lanes stay behind in the claim.
type WorkerBody = fn(
    usize,
    usize,
    LaneClaim,
    Arc<ShardQueue<LaneCommand>>,
    Arc<ShardQueue<LaneCompletion>>,
    Arc<EngineRuntime>,
) -> LatencyHistogram;

/// Saturating nanoseconds since `t` (monotonic).
fn since_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Saturating nanoseconds from `a` to `b` (monotonic instants).
fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// Commands a worker accumulates locally before flushing its counters to
/// the shared atomics. Snapshots taken mid-run lag by at most one window;
/// blocking boundaries (empty command queue, full completion queue) flush
/// eagerly so a parked worker never holds back its numbers.
const FLUSH_EVERY: u64 = 64;

/// Thread-local metrics accumulator for one executor of lane commands: a
/// worker thread, or the front-end while it runs commands itself.
///
/// The instrumented fast path takes one `Instant::now()` per command, or per
/// op run in place: `mark` chains from one to the next, so busy spans absorb
/// the queue handling around them and *idle* is reduced to scheduler
/// preemption plus shutdown drain. Counter deltas stay local and hit the
/// [`EngineRuntime`] atomics only every [`FLUSH_EVERY`] commands or when the
/// executor is about to block or is done helping — that keeps the
/// metrics-on overhead inside the `telbench` budget even on a single
/// hardware thread, where every clock read is serial work.
struct WorkerMeter {
    spawned: Instant,
    /// When the previous command finished (or the executor last unparked or
    /// took a claim).
    mark: Instant,
    busy_ns: u64,
    starved_ns: u64,
    backpressure_ns: u64,
    commands: u64,
    pages: u64,
    /// Per-lane `(busy_ns, commands, pages)` deltas, channel-indexed.
    lanes: Vec<(u64, u64, u64)>,
    since_flush: u64,
    /// Wall-clock latency of every command this executor ran.
    cmd_latency: LatencyHistogram,
}

impl WorkerMeter {
    fn new(channels: usize) -> Self {
        let now = Instant::now();
        Self {
            spawned: now,
            mark: now,
            busy_ns: 0,
            starved_ns: 0,
            backpressure_ns: 0,
            commands: 0,
            pages: 0,
            lanes: vec![(0, 0, 0); channels],
            since_flush: 0,
            cmd_latency: LatencyHistogram::new(),
        }
    }

    /// Times the work that has just run (from `mark` to now: one clock read)
    /// and charges it once: one command per `(lane, pages executed)`, each an
    /// even share, to the executor and to the lane.
    fn commands(&mut self, commands: impl ExactSizeIterator<Item = (u32, u32)>) {
        let ns = self.lap() / commands.len().max(1) as u64;
        for (lane, pages) in commands {
            self.cmd_latency.record(ns);
            let pages = u64::from(pages);
            self.busy_ns += ns;
            self.commands += 1;
            self.pages += pages;
            let lane = &mut self.lanes[lane as usize];
            lane.0 += ns;
            lane.1 += 1;
            lane.2 += pages;
            self.since_flush += 1;
        }
    }

    /// Nanoseconds since `mark`, restarting the chain from now.
    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = ns_between(self.mark, now);
        self.mark = now;
        ns
    }

    /// Before worker thread `worker` blocks: the time since the last command
    /// was queue handling, and a parked worker holds back no numbers.
    fn blocking(&mut self, runtime: &EngineRuntime, worker: usize) {
        self.busy_ns += self.lap();
        self.flush(runtime, Some(worker));
    }

    /// [`WorkerMeter::flush`], once [`FLUSH_EVERY`] commands have accumulated.
    fn flush_if_due(&mut self, runtime: &EngineRuntime, worker: Option<usize>) {
        if self.since_flush >= FLUSH_EVERY {
            self.flush(runtime, worker);
        }
    }

    /// Publishes the accumulated deltas to the shared atomics and resets:
    /// the lane tallies always, the executor's own only into a `worker`
    /// slot — the slots describe the worker *threads*, so what the front-end
    /// ran under a claim shows in the lanes and nowhere else.
    fn flush(&mut self, runtime: &EngineRuntime, worker: Option<usize>) {
        if let Some(worker) = worker {
            let slot = runtime.worker(worker);
            if self.commands > 0 {
                slot.add_busy(self.busy_ns, self.commands, self.pages);
            }
            if self.starved_ns > 0 {
                slot.add_starved(self.starved_ns);
            }
            if self.backpressure_ns > 0 {
                slot.add_backpressure(self.backpressure_ns);
            }
        }
        for (channel, (ns, commands, pages)) in self.lanes.iter_mut().enumerate() {
            if *commands > 0 {
                runtime.lane(channel).add_commands(*ns, *commands, *pages);
            }
            *ns = 0;
            *commands = 0;
            *pages = 0;
        }
        self.busy_ns = 0;
        self.starved_ns = 0;
        self.backpressure_ns = 0;
        self.commands = 0;
        self.pages = 0;
        self.since_flush = 0;
    }
}

/// Closes the completion queue if the worker unwinds, so a front-end already
/// parked on it fails its "closed with ops in flight" assert instead of
/// waiting forever for acknowledgements that will never come. (One that is
/// not parked yet finds the claim poisoned.)
struct CloseOnPanic<'a>(&'a ShardQueue<LaneCompletion>);

impl Drop for CloseOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

fn worker_loop<const METRICS: bool>(
    worker: usize,
    channels: usize,
    claim: LaneClaim,
    commands: Arc<ShardQueue<LaneCommand>>,
    completions: Arc<ShardQueue<LaneCompletion>>,
    runtime: Arc<EngineRuntime>,
) -> LatencyHistogram {
    let _close_on_panic = CloseOnPanic(&completions);
    let mut meter = METRICS.then(|| WorkerMeter::new(channels));
    // The burst in hand: commands taken off the queue in one crossing, and
    // the acknowledgements of those already executed.
    let mut inbox: VecDeque<LaneCommand> = VecDeque::new();
    let mut outbox: Vec<LaneCompletion> = Vec::new();
    // Both monomorphizations make the same queue and lock calls, so
    // metrics-on differs from metrics-off only by the timestamp and counter
    // arithmetic — not by locking or wakeup patterns. The clock is read only
    // around an actual block, and the meter is flushed before parking.
    loop {
        // Park without taking, holding nothing, and only on an empty queue.
        if commands.is_empty() {
            if let Some(meter) = meter.as_mut() {
                meter.blocking(&runtime, worker);
            }
            if !commands.wait() {
                // Closed and drained: the wait for shutdown lands in the
                // derived idle remainder, not starvation.
                break;
            }
            if let Some(meter) = meter.as_mut() {
                meter.starved_ns += meter.lap();
            }
        }
        // Something is queued: take the claim — waiting out a front-end that
        // is running this group's backlog itself is starvation too.
        let mut lanes = match claim.try_lock() {
            Ok(lanes) => lanes,
            Err(TryLockError::WouldBlock) => {
                if let Some(meter) = meter.as_mut() {
                    meter.blocking(&runtime, worker);
                }
                let lanes = claim.lock().unwrap_or_else(|_| worker_died(worker));
                if let Some(meter) = meter.as_mut() {
                    meter.starved_ns += meter.lap();
                }
                lanes
            }
            Err(TryLockError::Poisoned(_)) => worker_died(worker),
        };
        // Under the claim: pop, execute in order, and hand the burst's
        // completions over *before* the claim goes — the next holder's
        // acknowledgements for these lanes must queue up behind them. Keep
        // going while commands keep arriving; whatever arrives after the
        // last look is seen by the `is_empty` above before this thread can
        // park. A closed completion queue means the front-end is tearing
        // down and no longer consumes acknowledgements; `push_all` drops
        // them.
        while commands.try_pop_all(&mut inbox) {
            for command in inbox.drain(..) {
                outbox.push(execute(&mut lanes, command, &mut meter));
                if let Some(meter) = meter.as_mut() {
                    meter.flush_if_due(&runtime, Some(worker));
                }
            }
            if !completions.try_push_all(&mut outbox) {
                if let Some(meter) = meter.as_mut() {
                    meter.flush(&runtime, Some(worker));
                }
                completions.push_all(&mut outbox);
                if let Some(meter) = meter.as_mut() {
                    meter.backpressure_ns += meter.lap();
                }
            }
        }
    }
    let Some(mut meter) = meter else {
        return LatencyHistogram::new();
    };
    meter.flush(&runtime, Some(worker));
    runtime.worker(worker).set_wall(since_ns(meter.spawned));
    meter.cmd_latency
}

/// Front-end tuning for an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads (capped at the channel count). `0` asks for the engine
    /// that has none and runs every op where it is submitted — the one a
    /// host with no CPU for a worker gets anyway (*Who runs a command*), and
    /// the one Global coordination with SWL over more than one channel always
    /// gets (module docs).
    pub threads: u32,
    /// Maximum in-flight host ops (clamped to 1..=256).
    pub queue_depth: usize,
    /// Buffer per-lane telemetry for an ordered merge at the end.
    pub telemetry: bool,
    /// Account wall-clock worker/queue runtime metrics (see the module
    /// docs' *Wall-clock observability* section).
    pub metrics: bool,
    /// Maintain the shared [`HealthRuntime`] wear table for mid-run health
    /// sampling ([`Engine::health_runtime`]). Rides the existing telemetry
    /// emission sites: no clock reads or locks added to workers.
    pub health: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            queue_depth: 1,
            telemetry: false,
            metrics: false,
            health: false,
        }
    }
}

impl EngineConfig {
    /// `threads` worker threads (see [`EngineConfig::threads`] for `0`).
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Host queue depth (in-flight ops; clamped to 1..=256).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.clamp(1, 256);
        self
    }

    /// Enables buffered per-lane telemetry.
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Enables wall-clock runtime metrics (worker utilization, stall
    /// attribution, queue gauges, wall latency histograms).
    pub fn with_metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Enables the live health plane (see [`EngineConfig::health`]).
    pub fn with_health(mut self, enabled: bool) -> Self {
        self.health = enabled;
        self
    }
}

/// One host op awaiting its lane completions. Its vector is pooled
/// ([`Engine::op_pool`]): a finalized op hands it back empty, capacity kept,
/// for a later op to start from.
struct PendingOp {
    op: Op,
    at_ns: u64,
    /// Wall-clock submission stamp (set only when metrics are on).
    submitted: Option<Instant>,
    /// Lanes the op touches: one completion is due from each.
    expected: usize,
    /// What the lanes reported, as received; applied when the op is
    /// finalized in submission order.
    results: Vec<LaneCompletion>,
}

/// Keeps the lowest-ordinal of the page errors an op's lanes report.
fn keep_lowest(error: &mut Option<(u32, SimError)>, failed: Option<(u32, SimError)>) {
    if let Some((ordinal, _)) = failed {
        if error.is_none_or(|(lowest, _)| ordinal < lowest) {
            *error = failed;
        }
    }
}

/// Gauge read of one bounded queue.
fn queue_sample<T>(q: &ShardQueue<T>) -> QueueSample {
    QueueSample {
        len: q.len(),
        high_water: q.high_water(),
        capacity: q.capacity(),
    }
}

/// Assembles an [`EngineSnapshot`] from the shared runtime block plus live
/// queue gauges (for the observer handle, and for the final report).
fn snapshot_of(
    runtime: &EngineRuntime,
    command_queues: &[Arc<ShardQueue<LaneCommand>>],
    completions: &Option<Arc<ShardQueue<LaneCompletion>>>,
) -> EngineSnapshot {
    runtime.snapshot(
        command_queues.iter().map(|q| queue_sample(q)).collect(),
        completions.as_ref().map(|q| queue_sample(q)).unwrap_or_default(),
    )
}

/// A cloneable observer over a running [`Engine`]'s metrics: samples
/// [`EngineSnapshot`]s from any thread while the engine runs elsewhere.
/// Obtained from [`Engine::metrics_handle`]; outliving the engine is safe
/// (the counters just stop moving).
#[derive(Clone)]
pub struct EngineMetricsHandle {
    runtime: Arc<EngineRuntime>,
    command_queues: Vec<Arc<ShardQueue<LaneCommand>>>,
    completions: Option<Arc<ShardQueue<LaneCompletion>>>,
}

impl EngineMetricsHandle {
    /// Reads the counters and queue gauges right now.
    pub fn snapshot(&self) -> EngineSnapshot {
        snapshot_of(&self.runtime, &self.command_queues, &self.completions)
    }
}

/// The multi-threaded channel execution engine (see module docs).
///
/// Build with [`Engine::new`], feed it with [`Engine::submit`] or
/// [`Engine::run`], wait with [`Engine::flush`], and tear down with
/// [`Engine::finish`] (report + lanes) or [`Engine::into_devices`]
/// (crash-harness teardown).
pub struct Engine {
    kind: LayerKind,
    geometry: ChannelGeometry,
    logical_pages: u64,
    swl: Option<(u64, u32)>,
    coordination: SwlCoordination,
    queue_depth: usize,
    threads: u32,
    telemetry: bool,
    metrics: bool,
    /// Global coordination with >1 channel and SWL attached: no workers,
    /// and every write runs through [`Engine::submit_global`] (module docs).
    lockstep: bool,
    /// The lanes of an engine without workers (`threads == 0`), in channel
    /// order; the queues, claims and worker handles below then stay empty.
    lanes: Vec<WorkerLane>,
    command_queues: Vec<Arc<ShardQueue<LaneCommand>>>,
    /// The lane groups, in worker order beside `command_queues`.
    claims: Vec<LaneClaim>,
    completions: Option<Arc<ShardQueue<LaneCompletion>>>,
    workers: Vec<JoinHandle<LatencyHistogram>>,
    runtime: Arc<EngineRuntime>,
    health: Option<Arc<HealthRuntime>>,
    endurance: u32,
    // Front-end (submission-order) state.
    next_token: u64,
    next_seq: u64,
    finalize_next: u64,
    pending: VecDeque<PendingOp>,
    /// Completions of queued commands not yet absorbed: taken off the queue in
    /// one crossing, or produced right here under a claim. Empty between
    /// calls: whoever drains a burst consumes all of it.
    acks: VecDeque<LaneCompletion>,
    /// The burst of commands the front-end popped under a claim (reused).
    inbox: VecDeque<LaneCommand>,
    /// Meters what the front-end runs itself (metrics mode only): lane
    /// tallies and the command histogram, no worker slot.
    helper: Option<WorkerMeter>,
    helped_commands: u64,
    /// Recycled page buffers (empty, capacity kept). With the buffers in
    /// flight, never more than the in-flight window needs: a new buffer is
    /// allocated only when every existing one is in use.
    page_pool: Vec<Vec<PageCmd>>,
    /// Recycled [`PendingOp::results`] vectors: empty, capacity kept. At
    /// most the queue depth of them.
    op_pool: Vec<Vec<LaneCompletion>>,
    scheduler: ChannelScheduler,
    events: u64,
    host_span_ns: u64,
    first_failure: Option<FirstFailure>,
    lane_failure: Vec<Option<FailureRecord>>,
    /// Each lane's leveler view, for the Global coordinator (exact there: the
    /// engine owns every lane) and the health plane's BET gauges.
    views: Vec<ShardView>,
    /// When the Global coordinator steps and when it gives up — the rule
    /// `StripedLayer::coordinate_swl` runs under.
    stall: StallRule,
    /// Per-channel busy deltas of the op being executed right here or
    /// retired; all zero in between ([`Engine::retire`] takes them).
    lane_busy: Vec<u64>,
    /// Per channel, of the op running in place: the pages the lane executed,
    /// and whether it has stopped at a failing page.
    op_lanes: Vec<(u32, bool)>,
    lane_write_latency: Vec<LatencyStats>,
    lane_read_latency: Vec<LatencyStats>,
    op_write_latency: LatencyStats,
    op_read_latency: LatencyStats,
    /// Wall-clock submit-to-finalize histograms (metrics mode only).
    op_write_wall: LatencyHistogram,
    op_read_wall: LatencyHistogram,
    error: Option<SimError>,
}

/// Everything an [`Engine`] run produced: the virtual-time report (directly
/// comparable with [`Simulator::run_striped`](crate::Simulator::run_striped)
/// output via `==`), per-lane page histograms, and the lanes themselves for
/// state inspection.
pub struct EngineRun {
    /// The virtual-time report, bit-identical to `run_striped` on the same
    /// trace.
    pub report: StripedReport,
    /// Per-page write latency per lane (their merge, in lane order, is
    /// `report.write_latency`).
    pub lane_write_latency: Vec<LatencyStats>,
    /// Per-page read latency per lane.
    pub lane_read_latency: Vec<LatencyStats>,
    /// Effective worker-thread count (`0`: no core for one, or none asked for).
    pub threads: u32,
    /// Configured host queue depth.
    pub queue_depth: usize,
    /// Lane commands the front-end executed itself: queued ones it ran under
    /// a group's claim at a point where it would otherwise have parked, and
    /// every barrier call; the rest ran on the worker threads. How the
    /// queued work split depends on thread timing and so varies from run to
    /// run — nothing simulated does. Without workers: every command.
    pub helped_commands: u64,
    /// The wall-clock runtime metrics report (`None` unless the engine was
    /// built with [`EngineConfig::with_metrics`]).
    pub metrics: Option<EngineMetricsReport>,
    telemetry: bool,
    geometry: ChannelGeometry,
    endurance: u32,
    lanes: Vec<Layer<EngineSink>>,
}

impl EngineRun {
    /// The lanes in channel order, for state comparison.
    pub fn lanes(&self) -> &[Layer<EngineSink>] {
        &self.lanes
    }

    /// Mutable lane access (reading logical contents needs `&mut`).
    pub fn lanes_mut(&mut self) -> &mut [Layer<EngineSink>] {
        &mut self.lanes
    }

    /// Consumes the run and produces the merged telemetry stream: one
    /// array-level [`Event::Meta`] header and an [`Event::Endurance`]
    /// header (schema v4) followed by the deterministic `(op epoch, lane,
    /// emission index)` merge of the per-lane buffers. Empty when telemetry
    /// was disabled.
    pub fn into_telemetry(self) -> Vec<Event> {
        if !self.telemetry {
            return Vec::new();
        }
        let buffers: Vec<LaneBuffer> = self
            .lanes
            .into_iter()
            .map(|l| l.into_device().into_sink().into_buffer())
            .collect();
        let mut events = vec![
            Event::Meta {
                version: flash_telemetry::SCHEMA_VERSION,
                blocks: self
                    .geometry
                    .total_blocks()
                    .try_into()
                    .expect("array block count exceeds u32"),
                pages_per_block: self.geometry.chip().pages_per_block(),
            },
            Event::Endurance {
                limit: self.endurance as u64,
            },
        ];
        events.extend(merge_lane_buffers(buffers));
        events
    }
}

impl Engine {
    /// Builds the lanes (identically seeded to [`crate::StripedLayer`], so
    /// state is comparable bit for bit) and spawns the worker threads — none
    /// where the host has no CPU for one, or `engine.threads` is 0.
    ///
    /// # Errors
    ///
    /// Propagates layer construction failures.
    pub fn new(
        kind: LayerKind,
        geometry: ChannelGeometry,
        spec: CellSpec,
        swl: Option<SwlConfig>,
        coordination: SwlCoordination,
        config: &SimConfig,
        engine: EngineConfig,
    ) -> Result<Self, SimError> {
        Self::build(
            kind,
            geometry,
            spec,
            swl,
            coordination,
            config,
            engine,
            spare_core(),
        )
    }

    /// [`Engine::new`] with the host's answer to "would a woken worker have
    /// a CPU of its own?" passed in, so that tests cover both answers on any
    /// host.
    #[allow(clippy::too_many_arguments)]
    fn build(
        kind: LayerKind,
        geometry: ChannelGeometry,
        spec: CellSpec,
        swl: Option<SwlConfig>,
        coordination: SwlCoordination,
        config: &SimConfig,
        engine: EngineConfig,
        spare_core: bool,
    ) -> Result<Self, SimError> {
        let channels = geometry.channels();
        let deferred = channels > 1 && coordination == SwlCoordination::Global;
        let lockstep = deferred && swl.is_some();
        // No core, no queue: a worker that could only pre-empt the caller is
        // not spawned, and its lanes stay with the engine. Nor is one whose
        // lanes the Global coordinator must see idle after every erase.
        let threads = if spare_core && !lockstep {
            engine.threads.min(channels)
        } else {
            0
        };
        let queue_depth = engine.queue_depth.clamp(1, 256);

        // The health runtime's estimator work constant scales with expected
        // device lifetime in host pages (~ blocks × endurance × ppb / 8 at
        // write amplification ≈ 2), so the forecast averages over recent
        // life, not just the last few samples.
        let health = engine.health.then(|| {
            let blocks = geometry.total_blocks();
            let ppb = u64::from(geometry.chip().pages_per_block());
            let lifetime_pages = blocks
                .saturating_mul(u64::from(spec.endurance))
                .saturating_mul(ppb)
                / 2;
            let tau = (lifetime_pages / 8).max(1024) as f64;
            Arc::new(HealthRuntime::new(
                blocks as usize,
                HealthConfig::new(u64::from(spec.endurance)).with_tau_pages(tau),
            ))
        });
        let mut lanes = Vec::with_capacity(channels as usize);
        let mut logical_pages = 0u64;
        let mut views = Vec::with_capacity(channels as usize);
        for lane in 0..channels {
            let epoch = Arc::new(AtomicU64::new(0));
            let lane_health = health
                .as_ref()
                .map(|h| (Arc::clone(h), geometry.flat_block(lane, 0)));
            let sink = EngineSink::new(lane, engine.telemetry, Arc::clone(&epoch), lane_health);
            let device = NandDevice::new(geometry.lane_geometry(), spec).with_sink_silent(sink);
            let lane_swl = swl.map(|base| lane_swl_config(base, lane, deferred));
            let layer = Layer::build(kind, device, lane_swl, config)?;
            if lane == 0 {
                logical_pages = layer.logical_pages() * u64::from(channels);
            }
            views.push(view_of(&layer));
            lanes.push(WorkerLane {
                channel: lane,
                layer,
                epoch,
            });
        }

        let runtime = Arc::new(EngineRuntime::new(threads as usize, channels as usize));
        let mut command_queues = Vec::with_capacity(threads as usize);
        let mut claims = Vec::with_capacity(threads as usize);
        let mut workers = Vec::with_capacity(threads as usize);
        let mut completions = None;
        if threads > 0 {
            let mut groups: Vec<Vec<WorkerLane>> = (0..threads).map(|_| Vec::new()).collect();
            for lane in lanes.drain(..) {
                groups[(lane.channel % threads) as usize].push(lane);
            }
            // Sized so workers can never block pushing completions: at most
            // `queue_depth` ops × one command per lane are ever outstanding.
            let acks: Arc<ShardQueue<LaneCompletion>> =
                Arc::new(ShardQueue::new((queue_depth + 2) * channels as usize + 8));
            // Pick the monomorphization once: the disabled body contains no
            // timestamp reads or counter updates at all.
            let body: WorkerBody = if engine.metrics {
                worker_loop::<true>
            } else {
                worker_loop::<false>
            };
            for (w, lanes) in groups.into_iter().enumerate() {
                let commands: Arc<ShardQueue<LaneCommand>> =
                    Arc::new(ShardQueue::new(queue_depth * lanes.len().max(1) + 2));
                let claim: LaneClaim = Arc::new(Mutex::new(lanes));
                let handle = {
                    let claim = Arc::clone(&claim);
                    let commands = Arc::clone(&commands);
                    let completions = Arc::clone(&acks);
                    let runtime = Arc::clone(&runtime);
                    std::thread::Builder::new()
                        .name(format!("lane-worker-{w}"))
                        .spawn(move || {
                            body(w, channels as usize, claim, commands, completions, runtime)
                        })
                        .expect("failed to spawn lane worker")
                };
                command_queues.push(commands);
                claims.push(claim);
                workers.push(handle);
            }
            // Return with every worker parked. One still on its way to its
            // first `wait` would find whatever the caller queues first and
            // run it — once, at a moment of the scheduler's choosing.
            for (commands, worker) in command_queues.iter().zip(&workers) {
                while commands.parked_consumers() == 0 && !worker.is_finished() {
                    std::thread::yield_now();
                }
            }
            completions = Some(acks);
        }

        let inbox_capacity = command_queues.first().map_or(0, |q| q.capacity());
        Ok(Self {
            kind,
            geometry,
            logical_pages,
            swl: swl.map(|s| (s.threshold, s.k)),
            coordination,
            queue_depth,
            threads,
            telemetry: engine.telemetry,
            metrics: engine.metrics,
            lockstep,
            lanes,
            command_queues,
            claims,
            completions,
            workers,
            runtime,
            health,
            endurance: spec.endurance,
            next_token: 0,
            next_seq: 0,
            finalize_next: 0,
            pending: VecDeque::new(),
            acks: VecDeque::new(),
            // Sized like the deepest command queue (group 0's): `try_pop_all`
            // swaps buffers, so this one ends up inside a queue.
            inbox: VecDeque::with_capacity(inbox_capacity),
            helper: engine.metrics.then(|| WorkerMeter::new(channels as usize)),
            helped_commands: 0,
            page_pool: Vec::new(),
            op_pool: Vec::new(),
            scheduler: ChannelScheduler::new(channels),
            events: 0,
            host_span_ns: 0,
            first_failure: None,
            lane_failure: vec![None; channels as usize],
            views,
            stall: StallRule::new(channels as usize),
            lane_busy: vec![0; channels as usize],
            op_lanes: vec![(0, false); channels as usize],
            lane_write_latency: vec![LatencyStats::new(); channels as usize],
            lane_read_latency: vec![LatencyStats::new(); channels as usize],
            op_write_latency: LatencyStats::new(),
            op_read_latency: LatencyStats::new(),
            op_write_wall: LatencyHistogram::new(),
            op_read_wall: LatencyHistogram::new(),
            error: None,
        })
    }

    /// Trace events accepted so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Exported logical capacity in pages (striped over all channels),
    /// identical to the matching [`crate::StripedLayer`]'s.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// First wear-out finalized so far (op-order accurate).
    pub fn first_failure(&self) -> Option<FirstFailure> {
        self.first_failure
    }

    /// Effective worker-thread count (`0`: see [`EngineRun::threads`]).
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// A cloneable observer handle for sampling [`EngineSnapshot`]s — the
    /// runtime counters and queue gauges, read without stopping the workers —
    /// from another thread while [`Engine::run`] holds the engine mutably: the
    /// live-view path `swl top` uses. All-zero (except queue capacities) unless
    /// the engine was built with [`EngineConfig::with_metrics`]; without
    /// workers there are no worker slots and no queues to gauge.
    pub fn metrics_handle(&self) -> EngineMetricsHandle {
        EngineMetricsHandle {
            runtime: Arc::clone(&self.runtime),
            command_queues: self.command_queues.clone(),
            completions: self.completions.clone(),
        }
    }

    /// The shared health-plane wear table, sampleable from any thread while
    /// the engine runs (the `metrics_handle` idiom for wear instead of
    /// wall-clock). `None` unless built with [`EngineConfig::with_health`].
    pub fn health_runtime(&self) -> Option<Arc<HealthRuntime>> {
        self.health.as_ref().map(Arc::clone)
    }

    /// Puts a lane's share of a pipelined op on its group's command queue.
    fn dispatch(&mut self, command: LaneCommand) {
        let lane = command.lane;
        // Deferred doorbell: a parked worker is woken once half a window is
        // queued, not for this command; below that the backlog is run by
        // whoever gets to it first — at the latest by this thread, at the
        // next point where it would otherwise park.
        self.command_queues[(lane % self.threads) as usize]
            .push_deferred(command)
            .unwrap_or_else(|_| panic!("lane {lane} worker queue closed mid-run"));
    }

    /// Runs `work` on `lane` right now, where the caller stands (module docs,
    /// *A barrier is a call*): on the lane the engine owns, or under the claim
    /// of the lane's group. Timed from the front-end meter's mark
    /// ([`Engine::stamp`] at the start of the op, the end of the previous
    /// command after that) and counted in `helped_commands`.
    #[inline]
    fn run_here<R>(
        &mut self,
        lane: u32,
        op_seq: u64,
        work: impl FnOnce(&mut Layer<EngineSink>) -> (u32, R),
    ) -> (R, LaneAck) {
        self.helped_commands += 1;
        let ran = if self.threads == 0 {
            let wl = &mut self.lanes[lane as usize];
            run_on(wl, op_seq, &mut self.helper, work)
        } else {
            let group = (lane % self.threads) as usize;
            let mut lanes = self.claims[group]
                .lock()
                .unwrap_or_else(|_| worker_died(group));
            run_on(lane_of(&mut lanes, lane), op_seq, &mut self.helper, work)
        };
        if let Some(meter) = self.helper.as_mut() {
            meter.flush_if_due(&self.runtime, None);
        }
        ran
    }

    /// The wall-clock stamp of an op that starts now (metrics mode only); the
    /// front-end's meter times the first command of the op from it.
    fn stamp(&mut self) -> Option<Instant> {
        let meter = self.helper.as_mut()?;
        meter.mark = Instant::now();
        Some(meter.mark)
    }

    /// Accepts one host op. May block on backpressure (the op queue is at
    /// depth, or a lane's command queue is full); ops finalized while
    /// waiting can surface earlier lane errors.
    ///
    /// # Errors
    ///
    /// Returns the first finalized lane error, in deterministic op/page
    /// order. The error is sticky: all later calls return it too.
    pub fn submit(&mut self, event: TraceEvent) -> Result<(), SimError> {
        self.submit_inner(event, None)
    }

    /// Accepts one host *write* carrying explicit page values instead of
    /// front-end-assigned write tokens — the block-device service path,
    /// where clients supply the data and expect to read it back. `data`
    /// holds one value per page; the op spans `[lba, lba + data.len())`.
    /// The global write-token counter does not advance, so runs must not
    /// mix token writes and data writes on the same engine (the service
    /// never does).
    ///
    /// # Errors
    ///
    /// Exactly as [`Engine::submit`]: first finalized lane error, sticky.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or longer than `u32::MAX` pages.
    pub fn submit_write_data(
        &mut self,
        at_ns: u64,
        lba: u64,
        data: &[u64],
    ) -> Result<(), SimError> {
        assert!(!data.is_empty(), "a data write must carry at least one page");
        let len = u32::try_from(data.len()).expect("write span exceeds u32 pages");
        self.submit_inner(TraceEvent::write_span(at_ns, lba, len), Some(data))
    }

    fn submit_inner(&mut self, event: TraceEvent, data: Option<&[u64]>) -> Result<(), SimError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.accept(&event);
        // The coordinator runs only after writes.
        if self.lockstep && event.op == Op::Write {
            self.submit_global(event, data)
        } else if self.threads == 0 {
            self.submit_direct(event, data, None)
        } else {
            self.submit_pipelined(event, data)
        }
    }

    /// Counts a host op in: the event tally, the host span, and the live
    /// metrics and health planes.
    fn accept(&mut self, event: &TraceEvent) {
        self.events += 1;
        self.host_span_ns = self.host_span_ns.max(event.at_ns);
        if self.metrics {
            self.runtime.op_submitted();
        }
        if let Some(h) = &self.health {
            if event.op == Op::Write {
                h.add_host_pages(u64::from(event.len));
            }
        }
    }

    /// Help-or-wait, what the front-end does wherever it used to park: leaves
    /// at least one completion in `acks`. Takes what the workers already
    /// handed over; failing that, claims every group nobody is running and
    /// executes its queued commands right here, straight into `acks`; and
    /// parks on the completion queue only when that, too, yielded nothing —
    /// then a running worker holds everything awaited, and it hands over
    /// before it lets its claim go (module docs, *Who runs a command*).
    fn help_or_wait(&mut self) {
        debug_assert!(self.acks.is_empty());
        let completions = self
            .completions
            .as_ref()
            .expect("an engine without workers has nothing in flight to wait for");
        if completions.try_pop_all(&mut self.acks) {
            return;
        }
        for (group, claim) in self.claims.iter().enumerate() {
            let mut lanes = match claim.try_lock() {
                Ok(lanes) => lanes,
                Err(TryLockError::WouldBlock) => continue,
                Err(TryLockError::Poisoned(_)) => worker_died(group),
            };
            // What this group's worker acknowledged before it let the claim
            // go is older than anything executed below: it goes first.
            completions.try_pop_all(&mut self.acks);
            if !self.command_queues[group].try_pop_all(&mut self.inbox) {
                continue;
            }
            self.helped_commands += self.inbox.len() as u64;
            if let Some(meter) = self.helper.as_mut() {
                meter.mark = Instant::now();
            }
            for command in self.inbox.drain(..) {
                self.acks
                    .push_back(execute(&mut lanes, command, &mut self.helper));
            }
        }
        if let Some(meter) = self.helper.as_mut() {
            meter.flush(&self.runtime, None);
        }
        if self.acks.is_empty() {
            let open = completions.pop_all(&mut self.acks);
            assert!(
                open,
                "completion queue closed with ops in flight: a lane worker panicked"
            );
        }
    }

    /// Absorbs every completion there is, in one queue crossing; with
    /// `wait`, helps or parks until there is at least one.
    fn absorb_ready(&mut self, wait: bool) {
        if wait {
            self.help_or_wait();
        } else if let Some(completions) = &self.completions {
            completions.try_pop_all(&mut self.acks);
        }
        while let Some(completion) = self.acks.pop_front() {
            self.absorb(completion);
        }
    }

    /// Runs an op right here, before returning, the way `run_striped` does —
    /// one loop over its pages in host order, each on its lane, its busy time
    /// added to the op's and to the lane's page histogram; then one
    /// acknowledgement per lane it touched (epoch, first failure, and the
    /// leveler view for the health plane), and the op retires. The executor
    /// of every pipelined op of an engine without workers, and of a blocking
    /// read on either engine, which has drained the pipeline and takes the
    /// claim of each group the read touches once.
    fn submit_direct(
        &mut self,
        event: TraceEvent,
        data: Option<&[u64]>,
        mut values: Option<&mut [Option<u64>]>,
    ) -> Result<(), SimError> {
        let submitted = self.stamp();
        let tokens = self.take_tokens(&event, data);
        let geometry = self.geometry;
        let start = (geometry.channel_of(event.lba), geometry.lane_lba(event.lba));
        let mut error = None;
        if self.threads == 0 {
            let mut lanes = std::mem::take(&mut self.lanes);
            let own = |lane: u32| Some(lane as usize);
            error = self.run_in_place(&mut lanes, own, &event, start, &tokens, values);
            self.lanes = lanes;
        } else {
            let t = self.threads;
            for group in 0..t {
                // Group `g` holds lanes `g`, `g + t`, `g + 2t`, … in that order.
                let slot = |lane: u32| (lane % t == group).then_some((lane / t) as usize);
                let mut touched = self.touched_lanes(event.len, start.0);
                if !touched.any(|lane| slot(lane).is_some()) {
                    continue;
                }
                let claim = Arc::clone(&self.claims[group as usize]);
                let mut lanes = claim.lock().unwrap_or_else(|_| worker_died(group as usize));
                let values = values.as_deref_mut();
                let failed = self.run_in_place(&mut lanes, slot, &event, start, &tokens, values);
                keep_lowest(&mut error, failed);
            }
        }
        self.settle(&event, start.0, submitted, error.map(|(_, e)| e))
    }

    /// The tail of an op run in place, once its pages have run: one command
    /// per lane it touched, with the pages the lane executed, then the failure
    /// that stopped it, which sticks, or its retirement. Forced inline: left
    /// to the inliner, the call cost `service_uncached` 2–3 % (EXPERIMENTS.md).
    #[inline(always)]
    fn settle(
        &mut self,
        event: &TraceEvent,
        first: u32,
        submitted: Option<Instant>,
        failed: Option<SimError>,
    ) -> Result<(), SimError> {
        let touched = self.touched_lanes(event.len, first);
        self.helped_commands += touched.len() as u64;
        if let Some(meter) = self.helper.as_mut() {
            meter.commands(touched.map(|lane| (lane, self.op_lanes[lane as usize].0)));
            meter.flush_if_due(&self.runtime, None);
        }
        self.next_seq += 1;
        if let Some(e) = failed {
            self.error = Some(e);
            return Err(e);
        }
        let wall_ns = self.helper.as_ref().zip(submitted);
        let wall_ns = wall_ns.map(|(meter, submitted)| ns_between(submitted, meter.mark));
        self.retire(event.op, event.at_ns, wall_ns);
        Ok(())
    }

    /// The op's write tokens by page, in host order: the client's data, or
    /// one per page off the trace-order counter, which this moves past the
    /// op — as the virtual-time loop assigns them. A read takes none.
    fn take_tokens<'a>(
        &mut self,
        event: &TraceEvent,
        data: Option<&'a [u64]>,
    ) -> impl Fn(usize) -> u64 + 'a {
        let first = self.next_token + 1;
        if event.op == Op::Write && data.is_none() {
            self.next_token += u64::from(event.len);
        }
        move |page| data.map_or(first + page as u64, |data| data[page])
    }

    /// The lanes an op of `len` pages whose first page is on lane `first`
    /// touches, in host order: those of its first pages, one per channel.
    fn touched_lanes(&self, len: u32, first: u32) -> impl ExactSizeIterator<Item = u32> {
        let channels = self.geometry.channels();
        let wrap = move |lane: u32| lane.checked_sub(channels).unwrap_or(lane);
        (first..first + len.min(channels)).map(wrap)
    }

    /// [`Engine::submit_direct`]'s loop over op `next_seq`'s pages on `lanes`
    /// (the engine's own, or a claimed group: `slot` gives a lane's place in
    /// them), from `(lane, lane_lba)` on, then those lanes' acknowledgements.
    /// A lane that fails stops at its page; the lowest-ordinal failure is
    /// returned.
    fn run_in_place(
        &mut self,
        lanes: &mut [WorkerLane],
        slot: impl Fn(u32) -> Option<usize>,
        event: &TraceEvent,
        (first, mut lane_lba): (u32, u64),
        token: impl Fn(usize) -> u64,
        mut values: Option<&mut [Option<u64>]>,
    ) -> Option<(u32, SimError)> {
        for lane in self.touched_lanes(event.len, first) {
            if let Some(at) = slot(lane) {
                lanes[at].epoch.store(self.next_seq, Ordering::Relaxed);
                self.op_lanes[lane as usize] = (0, false);
            }
        }
        // Striped without a division per page: the next page is on the next
        // lane, and after the last lane on lane 0, one lane page further on.
        let mut lane = first;
        let mut error = None;
        for ordinal in 0..event.len as usize {
            let (executed, stopped) = &mut self.op_lanes[lane as usize];
            let at = slot(lane).filter(|_| !*stopped);
            if let Some(layer) = at.map(|at| &mut lanes[at].layer) {
                let before = layer.device().busy_ns();
                let result = match event.op {
                    Op::Write => layer.write(lane_lba, token(ordinal)),
                    Op::Read => layer.read(lane_lba).map(|value| {
                        if let Some(values) = values.as_deref_mut() {
                            values[ordinal] = value;
                        }
                    }),
                };
                if let Err(e) = result {
                    *stopped = true;
                    keep_lowest(&mut error, Some((ordinal as u32, e)));
                } else {
                    *executed += 1;
                    let busy = layer.device().busy_ns() - before;
                    self.lane_busy[lane as usize] += busy;
                    self.page_latency(event.op, lane as usize).record(busy);
                }
            }
            lane += 1;
            if lane == self.geometry.channels() {
                lane = 0;
                lane_lba += 1;
            }
        }
        let touched = self.touched_lanes(event.len, first);
        for (lane, at) in touched.filter_map(|lane| Some((lane, slot(lane)?))) {
            let wl = &mut lanes[at];
            self.lane_failure[lane as usize] = wl.layer.device().first_failure();
            // Only the health plane reads the views here: under Global
            // coordination this loop runs reads, which move none.
            if self.health.is_some() {
                self.views[lane as usize] = view_of(&wl.layer);
                self.publish_bet_gauges();
            }
        }
        error
    }

    fn submit_pipelined(&mut self, event: TraceEvent, data: Option<&[u64]>) -> Result<(), SimError> {
        let submitted = self.metrics.then(Instant::now);

        // Backpressure: hold the op until the in-flight window has room.
        // The wait is attributed to the host as submit-side blocked time —
        // the front-end mirror of worker pop-side starvation. The charge
        // reuses the `submitted` stamp to keep the metered path at one extra
        // clock read per blocked op.
        if self.pending.len() >= self.queue_depth {
            let waited = loop {
                self.absorb_ready(true);
                let finalized = self.finalize_ready();
                if finalized.is_err() || self.pending.len() < self.queue_depth {
                    break finalized;
                }
            };
            if let Some(submitted) = submitted {
                self.runtime.add_host_backpressure(since_ns(submitted));
            }
            waited?;
        }

        let op_seq = self.next_seq;
        self.next_seq += 1;
        let first = self.geometry.channel_of(event.lba);
        let results = self.op_pool.pop().unwrap_or_default();
        debug_assert!(results.is_empty());
        self.pending.push_back(PendingOp {
            op: event.op,
            at_ns: event.at_ns,
            submitted,
            expected: self.touched_lanes(event.len, first).len(),
            results,
        });
        // The `i`-th lane the op touches takes its pages `i`, `i + C`, ….
        let token = self.take_tokens(&event, data);
        let channels = self.geometry.channels() as usize;
        for (i, lane) in self.touched_lanes(event.len, first).enumerate() {
            let ordinals = (i..event.len as usize).step_by(channels);
            let mut pages = self.page_pool.pop().unwrap_or_default();
            pages.extend(ordinals.map(|ordinal| PageCmd {
                lane_lba: self.geometry.lane_lba(event.lba + ordinal as u64),
                token: token(ordinal),
                ordinal: ordinal as u32,
                latency: 0,
            }));
            self.dispatch(LaneCommand {
                op_seq,
                lane,
                op: event.op,
                pages,
            });
        }

        // Opportunistically drain whatever already completed.
        self.absorb_ready(false);
        self.finalize_ready()
    }

    fn absorb(&mut self, completion: LaneCompletion) {
        self.views[completion.lane as usize] = completion.ack.view;
        self.publish_bet_gauges();
        let index = (completion.op_seq - self.finalize_next) as usize;
        self.pending[index].results.push(completion);
    }

    fn finalize_ready(&mut self) -> Result<(), SimError> {
        // One clock read shared by every op this call retires: completions
        // arrive in bursts, and per-op precision below the burst width
        // isn't worth a syscall-rate of timestamps.
        let mut now: Option<Instant> = None;
        while self
            .pending
            .front()
            .is_some_and(|op| op.results.len() == op.expected)
        {
            let mut op = self.pending.pop_front().expect("front checked");
            self.finalize_next += 1;
            let mut error = None;
            for done in &op.results {
                // Per-lane wear-out state advances in op order, so the scan
                // in `retire` sees exactly what the virtual-time loop saw
                // after this op — even when lanes already ran ahead.
                self.lane_failure[done.lane as usize] = done.ack.failure;
                self.lane_busy[done.lane as usize] = done.ack.busy_delta;
                keep_lowest(&mut error, done.error);
            }
            if let Some((_, e)) = error {
                self.error = Some(e);
                return Err(e);
            }
            let wall_ns = op
                .submitted
                .map(|submitted| ns_between(submitted, *now.get_or_insert_with(Instant::now)));
            self.retire(op.op, op.at_ns, wall_ns);
            // Back to the pools, clean: no page of this op may show through
            // the next one.
            for mut done in op.results.drain(..) {
                let stats = self.page_latency(op.op, done.lane as usize);
                for page in done.pages.drain(..) {
                    stats.record(page.latency);
                }
                self.page_pool.push(done.pages);
            }
            self.op_pool.push(op.results);
        }
        Ok(())
    }

    /// The histogram of `lane`'s `op` page latencies.
    fn page_latency(&mut self, op: Op, lane: usize) -> &mut LatencyStats {
        match op {
            Op::Write => &mut self.lane_write_latency[lane],
            Op::Read => &mut self.lane_read_latency[lane],
        }
    }

    /// The tail every host op ends in, whichever way it was executed, once
    /// all its lanes have reported and none of them an error: the wall-clock
    /// op histogram, the scheduler's replay of the per-lane busy deltas in
    /// `lane_busy` (left zeroed for the next op), the op latency and the
    /// first-failure scan. (Each executor records its pages' latencies.)
    fn retire(&mut self, op: Op, at_ns: u64, wall_ns: Option<u64>) {
        if let Some(wall_ns) = wall_ns {
            match op {
                Op::Write => self.op_write_wall.record(wall_ns),
                Op::Read => self.op_read_wall.record(wall_ns),
            }
            self.runtime.op_completed();
        }
        self.scheduler.op_begin();
        for (channel, delta) in self.lane_busy.iter_mut().enumerate() {
            if *delta > 0 {
                self.scheduler.submit(channel as u32, std::mem::take(delta));
            }
        }
        let op_latency = self.scheduler.op_complete();
        match op {
            Op::Write => self.op_write_latency.record(op_latency),
            Op::Read => self.op_read_latency.record(op_latency),
        }
        self.note_first_failure(at_ns);
    }

    /// Publishes the array-wide BET interval gauges (summed over the cached
    /// lane views) to the health runtime. Front-end-only work on the
    /// completion-absorb path; no-op without the health plane.
    fn publish_bet_gauges(&self) {
        if let Some(h) = &self.health {
            let (ecnt, fcnt) = self
                .views
                .iter()
                .fold((0u64, 0u64), |(e, f), v| (e + v.ecnt, f + v.fcnt));
            h.set_bet(ecnt, fcnt);
        }
    }

    fn note_first_failure(&mut self, at_ns: u64) {
        if self.first_failure.is_none() {
            let failures = self.lane_failure.iter().copied();
            self.first_failure = first_failure_of(&self.geometry, failures, at_ns);
        }
    }

    /// A write under Global coordination, run right here the way
    /// `run_striped` runs it: page by page in host order, and after a page
    /// that moved its lane's leveler view, the coordinator (module docs). The
    /// first failure, of a page or of a coordinator step, ends the op.
    fn submit_global(&mut self, event: TraceEvent, data: Option<&[u64]>) -> Result<(), SimError> {
        debug_assert!(event.op == Op::Write && self.threads == 0);
        let submitted = self.stamp();
        let token = self.take_tokens(&event, data);
        let first = self.geometry.channel_of(event.lba);
        for lane in self.touched_lanes(event.len, first) {
            let lane = lane as usize;
            self.lanes[lane]
                .epoch
                .store(self.next_seq, Ordering::Relaxed);
            self.op_lanes[lane] = (0, false);
        }
        let lane_lba = self.geometry.lane_lba(event.lba);
        let ran = self.global_pages(&event, first, lane_lba, token);
        for lane in self.touched_lanes(event.len, first) {
            let device = self.lanes[lane as usize].layer.device();
            self.lane_failure[lane as usize] = device.first_failure();
        }
        self.settle(&event, first, submitted, ran.err())
    }

    /// [`Engine::submit_global`]'s page loop, from `(lane, lane_lba)` on. A
    /// page's latency includes the coordinator steps that landed on its lane:
    /// the virtual-time loop measures it across the whole
    /// `StripedLayer::write`.
    fn global_pages(
        &mut self,
        event: &TraceEvent,
        mut lane: u32,
        mut lane_lba: u64,
        token: impl Fn(usize) -> u64,
    ) -> Result<(), SimError> {
        for ordinal in 0..event.len as usize {
            let at = lane as usize;
            let layer = &mut self.lanes[at].layer;
            let before = layer.device().busy_ns();
            layer.write(lane_lba, token(ordinal))?;
            let mut latency = layer.device().busy_ns() - before;
            let view = view_of(layer);
            self.op_lanes[at].0 += 1;
            self.lane_busy[at] += latency;
            if view != self.views[at] {
                self.views[at] = view;
                latency += self.replay_coordinator(at)?;
            }
            self.lane_write_latency[at].record(latency);
            lane += 1;
            if lane == self.geometry.channels() {
                lane = 0;
                lane_lba += 1;
            }
        }
        Ok(())
    }

    /// Replays `StripedLayer::coordinate_swl` against the views, under the
    /// same [`StallRule`]: while it names a shard, step it — one command of
    /// that lane, its busy time added to the op's. Returns the steps' busy
    /// time on `page_lane`.
    fn replay_coordinator(&mut self, page_lane: usize) -> Result<u64, SimError> {
        let (threshold, _) = self.swl.expect("Global coordination runs with a leveler");
        let mut on_page_lane = 0;
        while let Some(worst) = self.stall.next_step(&self.views, threshold) {
            let wl = &mut self.lanes[worst];
            wl.epoch.store(self.next_seq, Ordering::Relaxed);
            let before = wl.layer.device().busy_ns();
            let stepped = wl.layer.run_swl_step();
            let busy = wl.layer.device().busy_ns() - before;
            self.lane_failure[worst] = wl.layer.device().first_failure();
            let swl = wl
                .layer
                .swl()
                .expect("a shard with set flags has a leveler");
            let (view, flags) = (ShardView::of(swl), swl.bet().flags() as u64);
            self.helped_commands += 1;
            if let Some(meter) = self.helper.as_mut() {
                meter.commands(std::iter::once((worst as u32, 0)));
                meter.flush_if_due(&self.runtime, None);
            }
            stepped?;
            self.lane_busy[worst] += busy;
            if worst == page_lane {
                on_page_lane += busy;
            }
            let before = std::mem::replace(&mut self.views[worst], view);
            if !self.stall.stepped(worst, before, view, flags) {
                break;
            }
        }
        self.publish_bet_gauges();
        Ok(on_page_lane)
    }

    /// Points the finalize cursor at the next op, where nothing is pending,
    /// so that it indexes `pending` correctly after an op that took a
    /// sequence number without a pending entry (a snapshot verb, a blocking
    /// read).
    fn realign_idle(&mut self) {
        debug_assert!(self.pending.is_empty());
        self.finalize_next = self.next_seq;
    }

    /// Drain barrier: blocks until every accepted op has completed and been
    /// finalized in order.
    ///
    /// # Errors
    ///
    /// Returns the first finalized lane error (sticky).
    pub fn flush(&mut self) -> Result<(), SimError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        while !self.pending.is_empty() {
            self.absorb_ready(true);
            self.finalize_ready()?;
        }
        Ok(())
    }

    /// Runs a snapshot verb on every lane. Barrier semantics: the engine is
    /// flushed first (so a snapshot covers every submitted write), then the
    /// verb runs lane by lane, right here, on **every** lane even after one
    /// has refused — a successful return means it is durable on all
    /// channels. The caller owns invalidating any host-side caches of an
    /// image a [`SnapshotVerb::Clone`] rolled back. The verb's device time
    /// is charged to the lanes' busy clocks but not to the virtual-time op
    /// scheduler — snapshot verbs sit outside the host op stream (they do
    /// not count as engine events), so per-op latency stats stay comparable
    /// with snapshot-free runs.
    ///
    /// # Errors
    ///
    /// The sticky engine error if one is already set, or the lowest failing
    /// lane's error. A refusal shared by *every* lane (duplicate id, unknown
    /// snapshot, full manifest) mutated nothing, left the array consistent
    /// and is not sticky; divergent per-lane outcomes — some lanes applied
    /// the verb, others refused — are a real inconsistency and wedge the
    /// engine like any lane error.
    pub fn snapshot(&mut self, verb: SnapshotVerb) -> Result<(), SimError> {
        self.flush()?;
        self.stamp();
        let channels = self.geometry.channels();
        let op_seq = self.next_seq;
        self.next_seq += 1;
        let mut first: Option<SimError> = None;
        let mut refusals = 0u32;
        let mut uniform = true;
        for lane in 0..channels {
            let (result, ack) = self.run_here(lane, op_seq, |layer| (0, layer.snapshot(verb)));
            // A manifest erase is not reported to SWL-BETUpdate, and a merge
            // step touches no flash: the Global coordinator stays at rest.
            debug_assert!(
                !self.lockstep || ack.view == self.views[lane as usize],
                "snapshot verb {verb:?} moved lane {lane}'s leveler view"
            );
            self.views[lane as usize] = ack.view;
            self.lane_failure[lane as usize] = ack.failure;
            if let Err(e) = result {
                refusals += 1;
                uniform = uniform && *first.get_or_insert(e) == e;
            }
        }
        self.publish_bet_gauges();
        self.realign_idle();
        let Some(e) = first else {
            return Ok(());
        };
        if !(uniform && refusals == channels) {
            self.error = Some(e);
        }
        Err(e)
    }

    /// A blocking read of `len` pages from `lba`: one value per page in host
    /// order, `None` for a never-written page. Flushes, then runs the read's
    /// page loop right here and retires the op — in everything simulated, and
    /// in every count, [`Engine::submit`] of the same read followed by
    /// [`Engine::flush`], except that the data comes back.
    ///
    /// # Errors
    ///
    /// Exactly as [`Engine::submit`]: first finalized lane error, sticky.
    pub fn read(&mut self, at_ns: u64, lba: u64, len: u32) -> Result<Vec<Option<u64>>, SimError> {
        self.flush()?;
        let event = TraceEvent::read_span(at_ns, lba, len);
        self.accept(&event);
        let mut values = vec![None; len as usize];
        let ran = self.submit_direct(event, None, Some(&mut values));
        self.realign_idle();
        ran.map(|()| values)
    }

    /// Feeds `trace` through the engine with `run_striped`'s stop handling:
    /// horizon/event-count checks at submission, and — under
    /// [`StopCondition::first_failure`] — a per-op barrier so the run stops
    /// at exactly the same event the virtual-time loop would.
    ///
    /// # Errors
    ///
    /// Propagates lane errors in deterministic order.
    pub fn run<I>(&mut self, trace: I, stop: StopCondition) -> Result<(), SimError>
    where
        I: IntoIterator<Item = TraceEvent>,
    {
        for event in trace {
            if stop.ends_before(&event, self.events) {
                break;
            }
            self.submit(event)?;
            if stop.at_first_failure {
                self.flush()?;
                if self.first_failure.is_some() {
                    break;
                }
            }
        }
        self.flush()
    }

    /// Closes the queues and joins the workers — which wake, run any backlog
    /// nobody rang the doorbell for, and exit — returning the
    /// per-worker wall-clock command histograms in worker order (empty when
    /// metrics were off). Either way the front-end's meter is published.
    fn join_workers(&mut self) -> Vec<std::thread::Result<LatencyHistogram>> {
        if let Some(meter) = self.helper.as_mut() {
            meter.flush(&self.runtime, None);
        }
        for q in &self.command_queues {
            q.close();
        }
        // Nobody consumes acknowledgements from here on; a worker must not
        // wait for room to deliver one.
        if let Some(completions) = &self.completions {
            completions.close();
        }
        std::mem::take(&mut self.workers)
            .into_iter()
            .map(JoinHandle::join)
            .collect()
    }

    /// Tears the engine down: joins the workers and takes the lanes out of
    /// the claims (or out of the engine that kept them), in channel order.
    fn shutdown(&mut self) -> (Vec<Layer<EngineSink>>, Vec<LatencyHistogram>) {
        let worker_hists = self
            .join_workers()
            .into_iter()
            .enumerate()
            .map(|(w, joined)| joined.unwrap_or_else(|_| worker_died(w)))
            .collect();
        let mut lanes = std::mem::take(&mut self.lanes);
        for (group, claim) in self.claims.iter().enumerate() {
            let mut claimed = claim.lock().unwrap_or_else(|_| worker_died(group));
            lanes.append(&mut claimed);
        }
        lanes.sort_by_key(|lane| lane.channel);
        (
            lanes.into_iter().map(|lane| lane.layer).collect(),
            worker_hists,
        )
    }

    /// Flushes, joins the workers, and assembles the run report.
    ///
    /// # Errors
    ///
    /// Returns the first finalized lane error; the engine is torn down
    /// either way.
    pub fn finish(mut self) -> Result<EngineRun, SimError> {
        let flushed = self.flush();
        let (lanes, worker_hists) = self.shutdown();
        flushed?;
        // Snapshot after the join so every worker's wall time is final.
        let metrics = self.helper.take().map(|helper| {
            let mut report = EngineMetricsReport::new(
                snapshot_of(&self.runtime, &self.command_queues, &self.completions),
                worker_hists,
                std::mem::take(&mut self.op_write_wall),
                std::mem::take(&mut self.op_read_wall),
            );
            // A command is timed once, by whoever ran it: the merged
            // histogram covers the workers' and the front-end's.
            report.cmd_latency.merge(&helper.cmd_latency);
            report
        });

        let (erase_stats, counters, device, device_busy_ns) = lane_totals(&lanes);
        let mut write_latency = LatencyStats::new();
        let mut read_latency = LatencyStats::new();
        for lane in 0..lanes.len() {
            write_latency.merge(&self.lane_write_latency[lane]);
            read_latency.merge(&self.lane_read_latency[lane]);
        }

        let report = StripedReport {
            layer: self.kind,
            channels: self.geometry.channels(),
            swl: self.swl,
            coordination: self.coordination,
            events: self.events,
            host_span_ns: self.host_span_ns,
            first_failure: self.first_failure,
            erase_stats,
            counters,
            device,
            device_busy_ns,
            makespan_ns: self.scheduler.makespan_ns(),
            channel_busy_ns: self.scheduler.channel_busy_ns().to_vec(),
            write_latency,
            read_latency,
            op_write_latency: self.op_write_latency.clone(),
            op_read_latency: self.op_read_latency.clone(),
        };
        Ok(EngineRun {
            report,
            lane_write_latency: std::mem::take(&mut self.lane_write_latency),
            lane_read_latency: std::mem::take(&mut self.lane_read_latency),
            threads: self.threads,
            queue_depth: self.queue_depth,
            helped_commands: self.helped_commands,
            metrics,
            telemetry: self.telemetry,
            geometry: self.geometry,
            endurance: self.endurance,
            lanes,
        })
    }

    /// Crash-harness teardown: joins the workers (letting already-queued
    /// in-flight commands run — they are unacknowledged, so the host makes
    /// no claim about them) and returns the raw devices in channel order,
    /// ready for `disarm_power_cut` / `power_cycle` / re-mount.
    pub fn into_devices(mut self) -> Vec<NandDevice<EngineSink>> {
        self.shutdown()
            .0
            .into_iter()
            .map(Layer::into_device)
            .collect()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Workers not already joined by `shutdown` are woken by the close,
        // run what is still queued, and exit. A worker's panic has been (or
        // would have been) reported on the path that awaited its work; a
        // destructor does not raise it again.
        for joined in self.join_workers() {
            drop(joined);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::Simulator;
    use crate::striped::StripedLayer;
    use flash_trace::{SyntheticTrace, WorkloadSpec};
    use ftl::{FtlConfig, SnapshotConfig};
    use nand::{CellKind, Geometry};

    fn chip() -> Geometry {
        Geometry::new(64, 8, 2048)
    }

    fn spec() -> CellSpec {
        CellKind::Mlc2.spec().with_endurance(1_000_000)
    }

    fn striped_reference(
        kind: LayerKind,
        channels: u32,
        swl: Option<SwlConfig>,
        coordination: SwlCoordination,
        events: u64,
        seed: u64,
    ) -> StripedReport {
        let mut layer = StripedLayer::build(
            kind,
            ChannelGeometry::new(channels, 1, chip()),
            spec(),
            swl,
            coordination,
            &SimConfig::default(),
        )
        .unwrap();
        let pages = layer.logical_pages();
        let trace =
            SyntheticTrace::new(WorkloadSpec::paper(pages).with_seed(seed)).map(move |e| {
                e.widen(4, pages)
            });
        Simulator::new()
            .run_striped(&mut layer, trace, StopCondition::events(events))
            .unwrap()
    }

    fn engine_run(
        kind: LayerKind,
        channels: u32,
        swl: Option<SwlConfig>,
        coordination: SwlCoordination,
        events: u64,
        seed: u64,
        config: EngineConfig,
    ) -> EngineRun {
        let geometry = ChannelGeometry::new(channels, 1, chip());
        let mut engine = Engine::new(
            kind,
            geometry,
            spec(),
            swl,
            coordination,
            &SimConfig::default(),
            config,
        )
        .unwrap();
        let logical = engine.logical_pages();
        let trace = SyntheticTrace::new(WorkloadSpec::paper(logical).with_seed(seed))
            .map(move |e| e.widen(4, logical));
        engine.run(trace, StopCondition::events(events)).unwrap();
        engine.finish().unwrap()
    }

    #[test]
    fn pipelined_engine_matches_virtual_time_report() {
        for threads in [0u32, 1, 2] {
            let reference = striped_reference(
                LayerKind::Ftl,
                2,
                Some(SwlConfig::new(64, 0).with_seed(11)),
                SwlCoordination::PerChannel,
                3_000,
                7,
            );
            let run = engine_run(
                LayerKind::Ftl,
                2,
                Some(SwlConfig::new(64, 0).with_seed(11)),
                SwlCoordination::PerChannel,
                3_000,
                7,
                EngineConfig::default()
                    .with_threads(threads)
                    .with_queue_depth(16),
            );
            assert_eq!(run.report, reference, "threads={threads}");
        }
    }

    #[test]
    fn lockstep_engine_matches_global_coordination() {
        let reference = striped_reference(
            LayerKind::Nftl,
            2,
            Some(SwlConfig::new(16, 0).with_seed(3)),
            SwlCoordination::Global,
            2_000,
            5,
        );
        for threads in [0u32, 2] {
            let run = engine_run(
                LayerKind::Nftl,
                2,
                Some(SwlConfig::new(16, 0).with_seed(3)),
                SwlCoordination::Global,
                2_000,
                5,
                EngineConfig::default()
                    .with_threads(threads)
                    .with_queue_depth(8),
            );
            assert_eq!(run.report, reference, "threads={threads}");
        }
    }

    /// Global coordination with SWL over several channels runs its writes in
    /// place, whatever was asked for: no workers, and the oracle's report. The
    /// same build keeps its workers when any of the three is missing.
    #[test]
    fn global_engine_has_no_workers() {
        let swl = Some(SwlConfig::new(16, 0).with_seed(3));
        let build_with = |channels: u32, swl: Option<SwlConfig>, coordination| {
            Engine::build(
                LayerKind::Ftl,
                ChannelGeometry::new(channels, 1, chip()),
                spec(),
                swl,
                coordination,
                &SimConfig::default(),
                EngineConfig::default().with_threads(4).with_queue_depth(8),
                true,
            )
            .unwrap()
        };
        let mut global = build_with(2, swl, SwlCoordination::Global);
        assert_eq!(global.threads(), 0);
        assert!(global.workers.is_empty() && global.completions.is_none());
        let logical = global.logical_pages();
        let trace = SyntheticTrace::new(WorkloadSpec::paper(logical).with_seed(5))
            .map(move |e| e.widen(4, logical));
        global.run(trace, StopCondition::events(3_000)).unwrap();
        let run = global.finish().unwrap();
        assert_eq!(run.threads, 0);
        let reference =
            striped_reference(LayerKind::Ftl, 2, swl, SwlCoordination::Global, 3_000, 5);
        assert_eq!(run.report, reference);

        for (channels, swl, coordination) in [
            (2, swl, SwlCoordination::PerChannel),
            (2, None, SwlCoordination::Global),
            (1, swl, SwlCoordination::Global),
        ] {
            let engine = build_with(channels, swl, coordination);
            let case = (channels, swl.is_some(), coordination);
            assert_eq!(engine.threads(), channels, "{case:?}");
            assert_eq!(engine.finish().unwrap().threads, channels, "{case:?}");
        }
    }

    #[test]
    fn telemetry_merge_starts_with_meta_and_is_thread_invariant() {
        let run_with = |threads: u32| {
            engine_run(
                LayerKind::Ftl,
                2,
                None,
                SwlCoordination::PerChannel,
                500,
                21,
                EngineConfig::default()
                    .with_threads(threads)
                    .with_queue_depth(8)
                    .with_telemetry(true),
            )
            .into_telemetry()
        };
        let one = run_with(1);
        assert!(matches!(one.first(), Some(Event::Meta { .. })));
        assert!(one.len() > 1);
        for threads in [0, 2] {
            let other = run_with(threads);
            assert_eq!(one, other, "merged stream must not depend on thread count");
        }
    }

    #[test]
    fn metrics_account_for_work_and_stay_in_bounds() {
        let run = engine_run(
            LayerKind::Ftl,
            2,
            Some(SwlConfig::new(64, 0).with_seed(11)),
            SwlCoordination::PerChannel,
            2_000,
            7,
            EngineConfig::default()
                .with_threads(2)
                .with_queue_depth(8)
                .with_metrics(true),
        );
        let metrics = run.metrics.as_ref().expect("metrics were enabled");
        let snapshot = &metrics.snapshot;
        assert_eq!(snapshot.ops_submitted, 2_000);
        assert_eq!(snapshot.ops_completed, 2_000);
        // Two worker slots, or none on a host with no core to run them on.
        assert_eq!(snapshot.workers.len(), run.threads as usize);
        assert_eq!(snapshot.lanes.len(), 2);
        // A command is run, timed and charged once, by whoever held the
        // claim: a worker thread (its slot) or the front-end (no slot).
        let by_workers: u64 = snapshot.workers.iter().map(|w| w.commands).sum();
        let commands = by_workers + run.helped_commands;
        assert!(commands >= 2_000, "every op is at least one command");
        assert_eq!(
            metrics.cmd_latency.count(),
            commands,
            "merged command histogram must cover every command"
        );
        assert_eq!(
            metrics
                .worker_cmd_latency
                .iter()
                .map(LatencyHistogram::count)
                .sum::<u64>(),
            by_workers,
            "per-worker histograms cover what the worker threads ran"
        );
        assert_eq!(
            snapshot.lanes.iter().map(|l| l.commands).sum::<u64>(),
            commands,
            "lane tallies must cover worker and front-end tallies"
        );
        for worker in &snapshot.workers {
            // A worker may never have run: the front-end can get to every
            // backlog first.
            assert!(
                worker.commands == 0 || worker.busy_ns > 0,
                "a worker that ran must have busy time"
            );
            assert!(worker.wall_ns >= worker.busy_ns);
            let fractions = worker.busy_frac()
                + worker.starved_frac()
                + worker.backpressure_frac()
                + worker.idle_frac();
            assert!((fractions - 1.0).abs() < 1e-9);
        }
        for queue in snapshot
            .command_queues
            .iter()
            .chain(std::iter::once(&snapshot.completion_queue))
        {
            assert!(queue.high_water <= queue.capacity);
        }
        assert_eq!(
            metrics.op_write_wall.count() + metrics.op_read_wall.count(),
            2_000,
            "every host op must have a wall completion latency"
        );
    }

    #[test]
    fn metrics_handle_reads_mid_run_and_disabled_run_reports_none() {
        let geometry = ChannelGeometry::new(2, 1, chip());
        let mut engine = Engine::new(
            LayerKind::Ftl,
            geometry,
            spec(),
            None,
            SwlCoordination::PerChannel,
            &SimConfig::default(),
            EngineConfig::default()
                .with_threads(2)
                .with_queue_depth(4)
                .with_metrics(true),
        )
        .unwrap();
        let handle = engine.metrics_handle();
        for i in 0..100u64 {
            engine.submit(TraceEvent::write(i * 1_000, i % 64)).unwrap();
        }
        let mid = handle.snapshot();
        assert_eq!(mid.ops_submitted, 100);
        assert!(mid.ops_completed <= 100);
        engine.flush().unwrap();
        let after_flush = handle.snapshot();
        assert_eq!(after_flush.ops_completed, 100);
        drop(engine.finish().unwrap());
        // The handle outlives the engine; counters just stop moving.
        assert_eq!(handle.snapshot().ops_completed, 100);

        let run = engine_run(
            LayerKind::Ftl,
            1,
            None,
            SwlCoordination::PerChannel,
            200,
            3,
            EngineConfig::default(),
        );
        assert!(run.metrics.is_none(), "metrics off must report None");
    }

    #[test]
    fn queue_depth_window_is_enforced() {
        // Submitting more ops than the depth must still complete exactly
        // once each (backpressure, no lost acks).
        let config = EngineConfig::default().with_threads(2).with_queue_depth(4);
        let mut engine = build(4, None, config, true);
        for i in 0..200u64 {
            engine
                .submit(TraceEvent::write(i * 1_000, i % 64))
                .unwrap();
        }
        engine.flush().unwrap();
        let run = engine.finish().unwrap();
        assert_eq!(run.report.events, 200);
        assert_eq!(run.report.counters.host_writes, 200);
    }

    /// [`Engine::build`] over `channels` FTL lanes with per-channel SWL (or
    /// none), with the host's answer to "is there a core for a worker?"
    /// forced to `spare_core`.
    fn build(
        channels: u32,
        swl: Option<SwlConfig>,
        config: EngineConfig,
        spare_core: bool,
    ) -> Engine {
        Engine::build(
            LayerKind::Ftl,
            ChannelGeometry::new(channels, 1, chip()),
            spec(),
            swl,
            SwlCoordination::PerChannel,
            &SimConfig::default(),
            config,
            spare_core,
        )
        .unwrap()
    }

    /// A one-worker engine (whatever the host: the tests below are about its
    /// queue) over `channels` lanes at queue depth 64, so that a handful of
    /// queued commands stays far below the doorbell threshold.
    fn deep_engine(channels: u32, metrics: bool) -> Engine {
        let config = EngineConfig::default()
            .with_queue_depth(64)
            .with_metrics(metrics);
        build(channels, None, config, true)
    }

    /// Dispatches `n` single-page writes without waiting for them: nobody is
    /// woken for so few, and an engine starts with its workers parked, so
    /// they sit in the command queue.
    fn queue_writes(engine: &mut Engine, n: u64) {
        for i in 0..n {
            engine.submit(TraceEvent::write(i * 1_000, i)).unwrap();
        }
    }

    /// Somebody dies holding group 0's claim, as a worker that panics inside
    /// a command does.
    fn poison_claim(engine: &Engine) {
        let claim = Arc::clone(&engine.claims[0]);
        let died = std::thread::spawn(move || {
            let _lanes = claim.lock().unwrap();
            panic!("injected: claim holder dies");
        })
        .join();
        assert!(died.is_err());
    }

    #[test]
    #[should_panic(expected = "lane worker 0 panicked")]
    fn claim_holder_that_died_fails_the_caller_instead_of_hanging_it() {
        let mut engine = deep_engine(1, false);
        poison_claim(&engine);
        queue_writes(&mut engine, 1);
        // Must not park on a completion nobody will ever produce.
        let _ = engine.flush();
    }

    /// The same poisoned claim met by a barrier, which takes the claim with a
    /// blocking `lock`: it must fail the caller just the same.
    #[test]
    fn claim_holder_that_died_fails_a_barrier_instead_of_hanging_it() {
        let barriers: [fn(&mut Engine); 2] = [
            |e| e.snapshot(SnapshotVerb::Create(1)).unwrap(),
            |e| drop(e.read(0, 0, 1).unwrap()),
        ];
        for (name, barrier) in ["snapshot", "read"].into_iter().zip(barriers) {
            let mut engine = Engine::build(
                LayerKind::Nftl,
                ChannelGeometry::new(2, 1, chip()),
                spec(),
                Some(SwlConfig::new(16, 0).with_seed(3)),
                SwlCoordination::PerChannel,
                &SimConfig::default(),
                EngineConfig::default().with_threads(2),
                true,
            )
            .unwrap();
            poison_claim(&engine);
            let barrier = std::panic::AssertUnwindSafe(|| barrier(&mut engine));
            let panic = std::panic::catch_unwind(barrier).expect_err(name);
            let message = panic.downcast_ref::<String>().expect("a formatted panic");
            let expected = "lane worker 0 panicked";
            assert!(message.contains(expected), "{name}: {message}");
        }
    }

    /// Lanes that take snapshots, for the verb tests below (a manifest record
    /// is one word per epoch and more: 32-page blocks give it room).
    fn snapshot_engine(threads: u32, spare_core: bool) -> Engine {
        let snapshots = SnapshotConfig::new().with_manifest_blocks(4);
        let layers = SimConfig {
            ftl: FtlConfig::default().with_snapshots(snapshots),
            ..SimConfig::default()
        };
        Engine::build(
            LayerKind::Ftl,
            ChannelGeometry::new(2, 1, Geometry::new(32, 32, 2048)),
            spec(),
            Some(SwlConfig::new(64, 0).with_seed(11)),
            SwlCoordination::PerChannel,
            &layers,
            EngineConfig::default()
                .with_threads(threads)
                .with_queue_depth(64),
            spare_core,
        )
        .unwrap()
    }

    /// A barrier issued while a worker may still hold the claim — it has been
    /// woken for a backlog past the doorbell, and is somewhere between its
    /// first pop and its next `wait` — waits the worker out and runs on the
    /// same lane state as on the engine that has no workers.
    #[test]
    fn claim_barrier_behind_a_running_worker_matches_the_direct_engine() {
        let run_on = |threads: u32| {
            let mut engine = snapshot_engine(threads, true);
            let mut reads = Vec::new();
            let mut at = 0u64;
            for round in 0..6u64 {
                // 80 two-page writes: 160 lane commands on a queue of 130
                // that rings at 65.
                for i in 0..80u64 {
                    at += 1_000;
                    let lba = (round * 7 + i * 2) % 64;
                    engine.submit(TraceEvent::write_span(at, lba, 2)).unwrap();
                }
                reads.push(engine.read(at, 0, 64).unwrap());
                engine.snapshot(SnapshotVerb::Create(round)).unwrap();
                engine.submit(TraceEvent::write_span(at, round, 2)).unwrap();
                let verb = if round % 2 == 0 {
                    SnapshotVerb::Clone(round)
                } else {
                    SnapshotVerb::Merge(round)
                };
                engine.snapshot(verb).unwrap();
                if round % 2 == 0 {
                    engine.snapshot(SnapshotVerb::Delete(round)).unwrap();
                }
            }
            reads.push(engine.read(at, 0, 64).unwrap());
            let run = engine.finish().unwrap();
            let erases = run.lanes().iter().map(|l| l.device().erase_counts());
            let erases: Vec<_> = erases.collect();
            (reads, run.report, erases)
        };
        let direct = run_on(0);
        assert!(direct.0.iter().flatten().any(Option::is_some));
        assert_eq!(run_on(1), direct);
        assert_eq!(run_on(2), direct);
    }

    /// A blocking read on an engine with workers runs the page loop under the
    /// claim of each group it touches: 2C pages over two groups read what the
    /// engine without workers reads, with the same report and metering — per
    /// op, one command of two pages on each lane.
    #[test]
    fn claim_read_across_two_groups_matches_the_direct_engine() {
        let run_on = |threads: u32| {
            let config = EngineConfig::default().with_metrics(true);
            let mut engine = build(4, None, config.with_threads(threads), true);
            let data: Vec<u64> = (1..=8).collect();
            engine.submit_write_data(0, 3, &data).unwrap();
            let read = engine.read(1, 3, 8).unwrap();
            let run = engine.finish().unwrap();
            assert_eq!(run.threads, threads);
            let metrics = run.metrics.as_ref().expect("metrics on");
            let lanes = metrics.snapshot.lanes.iter();
            let charged: Vec<_> = lanes.map(|l| (l.commands, l.pages)).collect();
            (read, run.report, charged, metrics.cmd_latency.count())
        };
        let direct = run_on(0);
        assert_eq!(direct.0, (1..=8).map(Some).collect::<Vec<_>>());
        assert_eq!((&direct.2, direct.3), (&vec![(2, 4); 4], 8));
        assert_eq!(run_on(2), direct);
    }

    /// A refusal every lane shares left the array as it was and does not
    /// stick; one that only some lanes raise is an inconsistency and does —
    /// after the verb has run on the lanes that did not refuse it.
    #[test]
    fn snapshot_refusal_sticks_only_when_the_lanes_diverge() {
        for (threads, spare_core) in [(0u32, true), (2, true), (2, false)] {
            let mut engine = snapshot_engine(threads, spare_core);
            let unknown = engine.snapshot(SnapshotVerb::Delete(9));
            assert!(matches!(unknown, Err(SimError::Ftl(_))), "{unknown:?}");
            engine.snapshot(SnapshotVerb::Create(1)).unwrap();
            let duplicate = engine.snapshot(SnapshotVerb::Create(1));
            assert!(matches!(duplicate, Err(SimError::Ftl(_))), "{duplicate:?}");
            engine.submit(TraceEvent::write(0, 0)).unwrap();
            engine.flush().unwrap();

            // Lane 0 alone already has snapshot 5.
            let on_lane = |engine: &mut Engine, lane, verb| {
                engine.run_here(lane, 0, |l| (0, l.snapshot(verb))).0
            };
            on_lane(&mut engine, 0, SnapshotVerb::Create(5)).unwrap();
            let diverged = engine.snapshot(SnapshotVerb::Create(5));
            assert!(matches!(diverged, Err(SimError::Ftl(_))), "{diverged:?}");
            assert_eq!(engine.flush(), diverged, "threads={threads}: sticky");
            assert_eq!(engine.submit(TraceEvent::write(1, 0)), diverged);
            // Lane 1 ran the verb all the same.
            on_lane(&mut engine, 1, SnapshotVerb::Delete(5)).unwrap();
        }
    }

    /// Teardown with a backlog nobody was woken for: the three ways an
    /// engine ends each run every queued command exactly once and return.
    #[test]
    fn claim_backlog_below_the_doorbell_runs_once_at_teardown() {
        const QUEUED: u64 = 5;

        let mut engine = deep_engine(2, false);
        queue_writes(&mut engine, QUEUED);
        let run = engine.finish().unwrap();
        assert_eq!(run.report.counters.host_writes, QUEUED);
        assert_eq!(run.report.device.programs, QUEUED);

        // `into_devices` does not flush: the commands are unacknowledged,
        // and they run all the same, on the worker the close wakes.
        let mut engine = deep_engine(2, false);
        queue_writes(&mut engine, QUEUED);
        let programs: u64 = engine
            .into_devices()
            .iter()
            .map(|device| device.counters().programs)
            .sum();
        assert_eq!(programs, QUEUED);

        // `Drop` joins the workers, so once it returns the lane tallies an
        // outliving metrics handle reads are final.
        let mut engine = deep_engine(2, true);
        let handle = engine.metrics_handle();
        queue_writes(&mut engine, QUEUED);
        drop(engine);
        let snapshot = handle.snapshot();
        assert_eq!(
            snapshot.lanes.iter().map(|l| l.commands).sum::<u64>(),
            QUEUED
        );
        assert_eq!(snapshot.lanes.iter().map(|l| l.pages).sum::<u64>(), QUEUED);
    }

    /// Where a woken worker would only share the caller's CPU — or where no
    /// worker was asked for — there is none: no thread, no queue, every lane
    /// share run and charged where the op was submitted, and the report is
    /// the one the threaded engine produces.
    #[test]
    fn claim_without_a_spare_core_keeps_every_command_on_the_caller() {
        let run_on = |threads: u32, spare_core: bool| {
            let config = EngineConfig::default()
                .with_threads(threads)
                .with_queue_depth(64)
                .with_metrics(true);
            let swl = Some(SwlConfig::new(64, 0).with_seed(11));
            let mut engine = build(4, swl, config, spare_core);
            let direct = threads == 0 || !spare_core;
            assert_eq!(engine.workers.len(), if direct { 0 } else { 2 });
            assert_eq!(engine.lanes.len(), if direct { 4 } else { 0 });
            assert_eq!(engine.completions.is_none(), direct);
            let logical = engine.logical_pages();
            // Eight-page ops: two lane shares a group each, so the window of
            // 64 carries a backlog well past half of a queue of 130.
            let trace = SyntheticTrace::new(WorkloadSpec::paper(logical).with_seed(7))
                .map(move |e| e.widen(8, logical));
            engine.run(trace, StopCondition::events(2_000)).unwrap();
            engine.finish().unwrap()
        };
        let spare = run_on(2, true);
        assert_eq!(spare.threads, 2);
        let snapshot = &spare.metrics.as_ref().expect("metrics on").snapshot;
        let commands: u64 = snapshot.lanes.iter().map(|l| l.commands).sum();
        let by_workers: u64 = snapshot.workers.iter().map(|w| w.commands).sum();
        assert!(commands >= 2_000);
        assert_eq!(spare.helped_commands + by_workers, commands);

        // The same engine forced both ways: by the host, and by the caller.
        for (threads, spare_core) in [(2, false), (0, true)] {
            let direct = run_on(threads, spare_core);
            assert_eq!(direct.report, spare.report);
            assert_eq!((direct.threads, direct.queue_depth), (0, 64));
            let metrics = direct.metrics.as_ref().expect("metrics on");
            let snapshot = &metrics.snapshot;
            assert!(snapshot.workers.is_empty() && snapshot.command_queues.is_empty());
            assert_eq!(snapshot.completion_queue.capacity, 0);
            assert_eq!(
                snapshot.lanes.iter().map(|l| l.commands).sum::<u64>(),
                commands
            );
            assert_eq!(direct.helped_commands, commands);
            assert_eq!(metrics.cmd_latency.count(), commands);
            assert!(metrics.worker_cmd_latency.is_empty());
            assert_eq!(
                (snapshot.ops_submitted, snapshot.ops_completed),
                (2_000, 2_000)
            );
        }
    }

    /// The shape that hung a rejected variant (a worker parking on a
    /// non-empty queue below its wake threshold while the front-end parked on
    /// completions): two workers, bursts of one to four ops on either side of
    /// the doorbell, a barrier after each. A lost wake-up parks everybody;
    /// the watchdog turns that into a failure.
    #[test]
    fn claim_two_worker_burst_and_flush_stress_terminates() {
        const ITERATIONS: u64 = 10_000;
        let (done, watchdog) = std::sync::mpsc::channel();
        let stress = std::thread::spawn(move || {
            // With workers, whatever the host: on one CPU they are at their
            // most likely to be caught mid-step.
            let config = EngineConfig::default().with_threads(2).with_queue_depth(4);
            let mut engine = build(2, None, config, true);
            let mut ops = 0u64;
            for i in 0..ITERATIONS {
                // Alternate lanes (two commands a queue at most: no doorbell)
                // or stay on one (the third command rings it).
                let stride = 1 + (i / 4) % 2;
                for _ in 0..1 + i % 4 {
                    engine
                        .submit(TraceEvent::write(ops * 1_000, ops * stride % 64))
                        .unwrap();
                    ops += 1;
                }
                engine.flush().unwrap();
            }
            let run = engine.finish().unwrap();
            done.send((ops, run.report.counters.host_writes)).unwrap();
        });
        let (ops, written) = watchdog
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("submit + flush on two workers stalled: a wake-up was lost");
        assert_eq!(written, ops);
        stress.join().unwrap();
    }
}
