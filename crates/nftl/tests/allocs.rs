//! The block mapping's steady state does not allocate.
//!
//! An open replacement block is a slot in a per-VBA table and a `latest`
//! buffer; a merge closes it, and the next overwrite elsewhere opens another.
//! The slots exist from construction and the buffers go round through a pool
//! (zeroed when handed back, capacity reserved before a buffer is made), so
//! once the pool holds as many buffers as replacements were ever open at
//! once, opening, filling, GC-merging and SWL-merging a replacement costs no
//! heap allocation. This file pins that with its own counting global
//! allocator. What remains in the measured window is not the mapping's:
//! `nand::FreeBlockLadder` keeps one `VecDeque` per erase count and makes it
//! the first time any block reaches that count — a few hundred here, as the
//! wear front climbs — which ROADMAP 1b's allocation policy inherits.
//!
//! A release-build claim: CI runs it with `--release`, where the debug
//! oracle that re-scans every VBA on every victim pick is compiled out.
//!
//! One `#[test]` only: the counter is process-wide, and libtest would run a
//! second test on a parallel thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nand::{CellKind, Geometry, NandDevice};
use nftl::{BlockMappedNftl, NftlConfig};
use swl_core::rng::SplitMix64;
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

const BLOCKS: u32 = 64;
const PAGES: u32 = 32;
/// Virtual blocks the fill writes once; the rest of the chip is the room
/// replacements and merges work in.
const FILLED_VBAS: u64 = 40;
/// Of those, the ones overwritten afterwards. The others stay cold, so only
/// the SW Leveler ever moves them.
const HOT_VBAS: u64 = 24;
const WARM_UP: u64 = 60_000;
const MEASURED: u64 = 120_000;

#[test]
fn steady_state_merges_allocate_nothing() {
    let device = NandDevice::new(
        Geometry::new(BLOCKS, PAGES, 2048),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
    );
    let mut nftl =
        BlockMappedNftl::with_swl(device, NftlConfig::default(), SwlConfig::new(4, 0)).unwrap();
    for lba in 0..FILLED_VBAS * u64::from(PAGES) {
        nftl.write(lba, lba).unwrap();
    }

    let mut rng = SplitMix64::new(42);
    let mut peak_open = 0;
    let mut step = |nftl: &mut BlockMappedNftl, i: u64| {
        let lba = rng.next_below(HOT_VBAS * u64::from(PAGES));
        // Every hundredth step hammers one page, so replacements *fill* (a
        // full merge) as well as being closed early by GC and the leveler.
        let repeats = if i.is_multiple_of(100) { 40 } else { 1 };
        for _ in 0..repeats {
            nftl.write(lba, i).unwrap();
        }
        peak_open = peak_open.max(nftl.open_replacements());
    };
    for i in 0..WARM_UP {
        step(&mut nftl, i);
    }

    let merges_before = nftl.counters();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in WARM_UP..WARM_UP + MEASURED {
        step(&mut nftl, i);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let merges = nftl.counters();
    let (gc, swl, full) = (
        merges.gc_merges - merges_before.gc_merges,
        merges.swl_merges - merges_before.swl_merges,
        merges.full_merges - merges_before.full_merges,
    );
    println!(
        "{allocations} allocations over {MEASURED} steps: {gc} GC merges, {swl} SWL merges, \
         {full} full merges, at most {peak_open} replacements open at once"
    );
    nftl.check_consistency();
    assert!(
        gc > 1_000 && swl > 1_000 && full > 1_000,
        "the window must close replacements all three ways"
    );
    assert!(
        allocations <= 1_000,
        "{allocations} allocations in the measured window: the mapping allocates per replacement \
         again (the free ladder's own are one per erase count first reached)"
    );
}
