//! The threaded engine's steady state does not allocate.
//!
//! Op records make a round trip — page buffers go out on a command and come
//! back on its completion, `PendingOp` vectors return to a pool at finalize,
//! and the queues move bursts between caller-owned buffers — so once the
//! in-flight window has been through every pool, a pipelined op costs no
//! heap allocation on either thread. This file pins that with its own
//! counting global allocator (every thread counted: most of what the engine
//! used to allocate was freed on the *other* thread). What remains is the
//! translation layer's: the FTL allocates once per block it collects, 580
//! times in the write-only loop below whether it runs under the engine or
//! bare, which is the whole 0.058 per op measured here. The engine without
//! workers (`threads = 0`) has no records to pool — a pipelined op's pages
//! never leave the front-end's routing buffers — and allocates nothing of its
//! own either, except the result vector of a blocking read, which is the
//! caller's to keep.
//!
//! One `#[test]` only: the counter is process-wide, and libtest would run a
//! second test on a parallel thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use flash_sim::engine::{Engine, EngineConfig};
use flash_sim::{LayerKind, SimConfig, SwlCoordination};
use flash_trace::TraceEvent;
use nand::{CellKind, ChannelGeometry, Geometry};
use swl_core::SwlConfig;

// A statistic that publishes no other data: `Relaxed` is enough.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with a count of `alloc`/`realloc` calls.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` via this allocator with `layout`;
        // the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CHANNELS: u32 = 4;
const QUEUE_DEPTH: usize = 64;
const SPAN: u32 = 8;
const OPS: u64 = 10_000;

/// Heap allocations per op, on all threads, of `OPS` pipelined 8-page ops
/// over 4 channels at QD 64 on `threads` workers plus the closing `flush()`,
/// after a warm-up of twice the queue depth. With `reads`, three ops in ten
/// are blocking [`Engine::read`]s of the span the op before them wrote, as
/// the service issues them.
fn allocations_per_op(reads: bool, threads: u32) -> f64 {
    let is_read = |i: u64| reads && matches!(i % 10, 3 | 6 | 9);
    let geometry = ChannelGeometry::new(CHANNELS, 1, Geometry::new(64, 128, 2048));
    let mut engine = Engine::new(
        LayerKind::Ftl,
        geometry,
        CellKind::Mlc2.spec().with_endurance(1_000_000),
        Some(SwlConfig::new(8, 0).with_seed(42)),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        EngineConfig::default()
            .with_threads(threads)
            .with_queue_depth(QUEUE_DEPTH),
    )
    .expect("engine builds");
    // A hot set of half the logical space, walked span by span.
    let spans = engine.logical_pages() / 2 / u64::from(SPAN);
    let mut at_ns = 0;
    // Preallocated: keeping the results must not count against the engine.
    let mut results: Vec<Vec<Option<u64>>> = Vec::with_capacity(OPS as usize);
    let mut submit = |engine: &mut Engine, i: u64| {
        at_ns += 1_000;
        let lba = |i: u64| (i.wrapping_mul(7) % spans) * u64::from(SPAN);
        if is_read(i) {
            let values = engine.read(at_ns, lba(i - 1), SPAN);
            results.push(values.expect("fault-free run"));
        } else {
            let event = TraceEvent::write_span(at_ns, lba(i), SPAN);
            engine.submit(event).expect("fault-free run");
        }
    };

    let warm_up = 2 * QUEUE_DEPTH as u64;
    for i in 0..warm_up {
        submit(&mut engine, i);
    }
    engine.flush().expect("fault-free run");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in warm_up..warm_up + OPS {
        submit(&mut engine, i);
    }
    engine.flush().expect("fault-free run");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let expected = (0..warm_up + OPS).filter(|&i| is_read(i)).count();
    assert_eq!(results.len(), expected);
    assert!(
        results.iter().flatten().all(Option::is_some),
        "every read page was written by the op before it"
    );
    drop(engine.finish().expect("fault-free run"));
    allocations as f64 / OPS as f64
}

#[test]
fn pipelined_ops_do_not_allocate_in_steady_state() {
    let writes_only = allocations_per_op(false, 1);
    assert!(
        writes_only < 0.1,
        "{writes_only} allocations per pipelined 8-page write"
    );
    // The `Vec` a blocking read returns is the caller's to keep: one
    // allocation per read, 30 % reads.
    let with_reads = allocations_per_op(true, 1);
    assert!(
        with_reads <= 2.0,
        "{with_reads} allocations per op, three in ten a blocking read"
    );
    eprintln!("allocations per op: {writes_only} writes only, {with_reads} with blocking reads");

    // No workers (on a one-CPU host the runs above were that already): the
    // FTL's own again, plus exactly the result vector of each blocking read.
    let direct_writes = allocations_per_op(false, 0);
    assert!(
        direct_writes < 0.1,
        "{direct_writes} allocations per direct 8-page write"
    );
    let direct_reads = allocations_per_op(true, 0);
    assert!(
        (0.3..0.4).contains(&direct_reads),
        "{direct_reads} allocations per direct op, three in ten a blocking read"
    );
    eprintln!("without workers: {direct_writes} writes only, {direct_reads} with blocking reads");
}
