//! The block-manager half of the paper's Cleaner: which blocks are free,
//! which are retired, and the one routine that erases a block and puts it
//! back into circulation.
//!
//! Both translation layers of this workspace allocate, erase, retire and
//! account for blocks the same way; they differ only in how they translate
//! addresses and pick what to copy. A [`BlockPool`] owns everything on the
//! shared side of that line — the chip, the wear-ordered free list
//! ([`FreeBlockLadder`]), free/retired membership, the cause-attributed
//! counters and the causal-span bookkeeping — so a Cleaner-level feature is
//! written, crash-tested and benchmarked once.
//!
//! Erase *cause* is an explicit argument of [`BlockPool::erase_and_free`]:
//! whom a pool refill inside an SWL pass is charged to (the FTL says SWL, the
//! NFTL says GC) is the mapping's policy.

use flash_telemetry::{Cause, Event, FlashCounters, NullSink, Sink, SpanKind, SpanTracker};

use crate::{FreeBlockLadder, NandDevice, NandError};

/// Where a block stands with respect to the free pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Membership {
    /// Erased and waiting in the ladder.
    Free,
    /// Handed to the mapping (or outside the data area altogether).
    InUse,
    /// Withdrawn from circulation for good.
    Retired,
}

/// The chip plus the free/retired bookkeeping every Cleaner needs.
///
/// `device` and `counters` are public to the pool's owner: the mapping
/// programs, reads and invalidates pages directly and maintains its own
/// host/GC counters. (Users of a hosted mapping only ever get `&BlockPool`;
/// [`Mapping::pool_mut`](crate::Mapping::pool_mut) takes a
/// [`ShellKey`](crate::ShellKey).) The ladder and the membership table stay
/// private — the pool keeps "a block is in the ladder, filed under its
/// current erase count, iff it is free", and a block is retired iff it was
/// [retired](Self::retire) this session or carries the on-flash marker.
#[derive(Debug)]
pub struct BlockPool<S: Sink = NullSink> {
    /// The managed chip.
    pub device: NandDevice<S>,
    /// Cause-attributed counters; the pool maintains `gc_erases`,
    /// `swl_erases`, `gc_live_copies`, `swl_live_copies` and
    /// `retired_blocks`, the mapping the rest.
    pub counters: FlashCounters,
    free: FreeBlockLadder,
    membership: Vec<Membership>,
    /// Causal-span ids and the open stack; dormant under `NullSink`.
    spans: SpanTracker,
}

impl<S: Sink> BlockPool<S> {
    /// A pool over a fresh chip: blocks `0..data_blocks` start free, anything
    /// above (a mapping's private reserve) never enters the pool.
    pub fn new(device: NandDevice<S>, data_blocks: u32) -> Self {
        Self::over(device, data_blocks, false)
    }

    /// A pool over a previously used chip — the firmware mount path. Blocks
    /// carrying the on-flash bad-block marker come back retired, fully
    /// erased blocks come back free, and every other data block is left in
    /// use for the mapping to claim from its spare areas.
    pub fn mount(device: NandDevice<S>, data_blocks: u32) -> Self {
        Self::over(device, data_blocks, true)
    }

    fn over(device: NandDevice<S>, data_blocks: u32, rediscover: bool) -> Self {
        let mut free = FreeBlockLadder::new();
        let mut membership = vec![Membership::InUse; device.geometry().blocks() as usize];
        for b in 0..data_blocks {
            let block = device.block(b);
            membership[b as usize] = if rediscover && block.spare(0).is_bad_block_marker() {
                Membership::Retired
            } else if rediscover && block.valid_pages() + block.invalid_pages() > 0 {
                Membership::InUse
            } else {
                free.push(b, block.erase_count());
                Membership::Free
            };
        }
        Self {
            device,
            counters: FlashCounters::default(),
            free,
            membership,
            spans: SpanTracker::new(),
        }
    }

    /// Number of free blocks.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// The free blocks, in unspecified order.
    pub fn free_blocks(&self) -> impl Iterator<Item = u32> + '_ {
        self.free.iter()
    }

    /// Whether `block` sits in the free pool.
    pub fn is_free(&self, block: u32) -> bool {
        self.membership[block as usize] == Membership::Free
    }

    /// Whether `block` has been withdrawn from circulation.
    pub fn is_retired(&self, block: u32) -> bool {
        self.membership[block as usize] == Membership::Retired
    }

    /// Whether `block` is neither free nor retired: it holds (or is about to
    /// hold) the mapping's data.
    pub fn in_use(&self, block: u32) -> bool {
        self.membership[block as usize] == Membership::InUse
    }

    /// Pops the free block with the lowest erase count — the dynamic wear
    /// leveling policy of the paper's Cleaner. O(1) amortized via the wear
    /// bucket ladder. `None` when the pool is dry.
    pub fn pop_freshest_free(&mut self) -> Option<u32> {
        let block = self.free.pop_min()?;
        self.membership[block as usize] = Membership::InUse;
        Some(block)
    }

    /// Erases `block` (which must hold no data the mapping still needs),
    /// charges the erase to `cause`, returns the block to the free pool and
    /// appends it to `erased` for SWL-BETUpdate. A block that was already
    /// free — SWL levels free blocks in place — moves up the wear ladder
    /// instead.
    ///
    /// A block that refuses to erase — worn out under
    /// [`WearPolicy::FailWornBlocks`](crate::WearPolicy), or bad per the
    /// device's [`FaultPlan`](crate::FaultPlan) — is [retired](Self::retire)
    /// instead, stale contents and all, and the call still succeeds.
    ///
    /// # Errors
    ///
    /// Any other device error (out-of-range block, power cut).
    pub fn erase_and_free(
        &mut self,
        block: u32,
        cause: Cause,
        erased: &mut Vec<u32>,
    ) -> Result<(), NandError> {
        let pre_wear = self.device.block(block).erase_count();
        match self.device.erase_as(block, cause) {
            Ok(()) => {}
            Err(NandError::BlockWornOut { .. } | NandError::EraseFailed { .. }) => {
                self.retire(block);
                return Ok(());
            }
            Err(other) => return Err(other),
        }
        match cause {
            Cause::Swl => self.counters.swl_erases += 1,
            _ => self.counters.gc_erases += 1,
        }
        let wear = self.device.block(block).erase_count();
        if self.is_free(block) {
            self.free.reposition(block, pre_wear, wear);
        } else {
            self.membership[block as usize] = Membership::Free;
            self.free.push(block, wear);
        }
        erased.push(block);
        Ok(())
    }

    /// Bad-block management: withdraws `block` from circulation and programs
    /// the on-flash bad-block marker, so a later [`mount`](Self::mount)
    /// rediscovers the retirement instead of resurrecting stale contents.
    pub fn retire(&mut self, block: u32) {
        if self.is_free(block) {
            let wear = self.device.block(block).erase_count();
            let removed = self.free.remove(block, wear);
            debug_assert!(removed, "free block {block} missing from the ladder");
        }
        self.membership[block as usize] = Membership::Retired;
        // A spare-area status program: free and uncuttable; it can only fail
        // once power is already cut, when the RAM state is about to be
        // discarded anyway.
        let _ = self.device.mark_bad(block);
        self.counters.retired_blocks += 1;
        self.emit(Event::Retire { block });
    }

    /// Counts one live-page copy against `cause` and reports it.
    pub fn record_live_copy(&mut self, from_block: u32, to_block: u32, cause: Cause) {
        match cause {
            Cause::Swl => self.counters.swl_live_copies += 1,
            _ => self.counters.gc_live_copies += 1,
        }
        self.emit(Event::LiveCopy {
            from_block,
            to_block,
            cause,
        });
    }

    /// Sends `event` to the device's sink; compiled out under `NullSink`.
    pub fn emit(&mut self, event: Event) {
        if S::ENABLED {
            self.device.sink_mut().event(event);
        }
    }

    /// Opens a causal span stamped with the device's cumulative busy time.
    /// Returns the span id, or 0 (which [`Self::span_end`] ignores) when the
    /// sink is compiled out — the disabled path is two constant branches.
    pub fn span_begin(&mut self, kind: SpanKind) -> u64 {
        if !S::ENABLED {
            return 0;
        }
        let at_ns = self.device.busy_ns();
        let (id, parent) = self.spans.begin();
        self.device.sink_mut().event(Event::SpanBegin {
            id,
            parent,
            kind,
            at_ns,
        });
        id
    }

    /// Closes span `id`, first closing any descendants an error path left
    /// open so the emitted stream stays balanced.
    pub fn span_end(&mut self, id: u64) {
        if !S::ENABLED || id == 0 {
            return;
        }
        let at_ns = self.device.busy_ns();
        let Self { spans, device, .. } = self;
        spans.end(id, |popped| {
            device
                .sink_mut()
                .event(Event::SpanEnd { id: popped, at_ns });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellKind, FaultPlan, Geometry, PageAddr, SpareArea};

    #[test]
    fn block_lifecycle_free_in_use_retired_and_back_through_mount() {
        // Every block dies at its second erase; blocks 4 and 5 are a reserve.
        let dev = NandDevice::new(Geometry::new(6, 4, 2048), CellKind::Mlc2.spec())
            .with_fault_plan(FaultPlan::new(1).with_endurance_range(1, 1));
        let mut pool = BlockPool::new(dev, 4);
        assert_eq!(pool.free_len(), 4);
        assert!(pool.in_use(4) && pool.in_use(5));

        let mut erased = Vec::new();
        let b = pool.pop_freshest_free().unwrap();
        assert!(pool.in_use(b));
        pool.erase_and_free(b, Cause::Gc, &mut erased).unwrap();
        assert!(pool.is_free(b));
        // Erased again while free (SWL levels free blocks in place): past its
        // endurance now, so it is retired — out of the ladder, not an error.
        pool.erase_and_free(b, Cause::Swl, &mut erased).unwrap();
        assert_eq!(erased, vec![b]);
        assert!(pool.is_retired(b));
        assert_eq!(pool.free_len(), 3);
        let c = pool.counters;
        assert_eq!((c.gc_erases, c.swl_erases, c.retired_blocks), (1, 0, 1));

        let used = pool.pop_freshest_free().unwrap();
        let mut dev = pool.device;
        dev.program(PageAddr::new(used, 0), 7, SpareArea::valid(0))
            .unwrap();
        let pool = BlockPool::mount(dev, 4);
        assert!(pool.is_retired(b) && pool.in_use(used));
        assert_eq!(pool.free_len(), 2);
        assert_eq!(pool.counters.retired_blocks, 0, "counters are per session");
    }
}
