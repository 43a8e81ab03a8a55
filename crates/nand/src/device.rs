//! The simulated NAND chip.

use crate::block::{Block, BlockState};
use crate::cell::CellSpec;
use crate::error::NandError;
use crate::fault::{FaultDecision, FaultPlan, FaultState};
use crate::geometry::Geometry;
use crate::page::{PageAddr, SpareArea};
use crate::stats::EraseStats;
use crate::DeviceNanos;
use flash_telemetry::{Cause, Event, FaultKind, NullSink, Sink, SCHEMA_VERSION};

/// What the device does when a block is erased past its rated endurance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WearPolicy {
    /// Record the first failure and keep operating (the paper's Table 4
    /// simulations run for 10 years "even though some blocks were worn
    /// out").
    #[default]
    RecordAndContinue,
    /// Refuse to erase worn-out blocks with [`NandError::BlockWornOut`].
    FailWornBlocks,
}

/// The first wear-out event observed on the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureRecord {
    /// Block that first reached its endurance limit.
    pub block: u32,
    /// Total erases across the chip at that moment.
    pub total_erases: u64,
    /// Device busy time at that moment.
    pub at_ns: DeviceNanos,
}

/// Monotonic operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceCounters {
    /// Page reads served.
    pub reads: u64,
    /// Page programs performed.
    pub programs: u64,
    /// Block erases performed.
    pub erases: u64,
}

/// Result of a page read: payload token plus the spare area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// The data token written by the last program of this page.
    pub data: u64,
    /// Spare-area metadata written alongside it.
    pub spare: SpareArea,
}

/// A simulated NAND chip.
///
/// Generic over a telemetry [`Sink`]; the default [`NullSink`] disables all
/// emission sites at compile time, so `NandDevice` in type position keeps
/// the uninstrumented behaviour (and cost) it always had. Attach a real sink
/// with [`with_sink`](NandDevice::with_sink).
///
/// See the [crate-level documentation](crate) for the model and an example.
#[derive(Debug, Clone)]
pub struct NandDevice<S: Sink = NullSink> {
    geometry: Geometry,
    spec: CellSpec,
    policy: WearPolicy,
    blocks: Vec<Block>,
    counters: DeviceCounters,
    busy_ns: DeviceNanos,
    first_failure: Option<FailureRecord>,
    worn_blocks: u32,
    faults: Option<FaultState>,
    sink: S,
}

impl NandDevice {
    /// A fresh chip with every page erased and zero wear.
    pub fn new(geometry: Geometry, spec: CellSpec) -> Self {
        let blocks = (0..geometry.blocks())
            .map(|_| Block::new(geometry.pages_per_block()))
            .collect();
        Self {
            geometry,
            spec,
            policy: WearPolicy::default(),
            blocks,
            counters: DeviceCounters::default(),
            busy_ns: 0,
            first_failure: None,
            worn_blocks: 0,
            faults: None,
            sink: NullSink,
        }
    }
}

impl<S: Sink> NandDevice<S> {
    /// Sets the wear policy (builder style).
    pub fn with_wear_policy(mut self, policy: WearPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the telemetry sink (builder style), discarding the previous
    /// one. Emits an [`Event::Meta`] stream header carrying the schema
    /// version and geometry, followed by an [`Event::Endurance`] header with
    /// the cell spec's rated endurance (schema v4), so JSONL logs are
    /// self-describing.
    pub fn with_sink<S2: Sink>(self, mut sink: S2) -> NandDevice<S2> {
        if S2::ENABLED {
            sink.event(Event::Meta {
                version: SCHEMA_VERSION,
                blocks: self.geometry.blocks(),
                pages_per_block: self.geometry.pages_per_block(),
            });
            sink.event(Event::Endurance {
                limit: self.spec.endurance as u64,
            });
        }
        NandDevice {
            geometry: self.geometry,
            spec: self.spec,
            policy: self.policy,
            blocks: self.blocks,
            counters: self.counters,
            busy_ns: self.busy_ns,
            first_failure: self.first_failure,
            worn_blocks: self.worn_blocks,
            faults: self.faults,
            sink,
        }
    }

    /// Like [`NandDevice::with_sink`] but without the [`Event::Meta`] stream
    /// header. For multi-chip arrays where several devices share one sink:
    /// the enclosing layer emits a single array-level header instead of one
    /// per chip.
    pub fn with_sink_silent<S2: Sink>(self, sink: S2) -> NandDevice<S2> {
        NandDevice {
            geometry: self.geometry,
            spec: self.spec,
            policy: self.policy,
            blocks: self.blocks,
            counters: self.counters,
            busy_ns: self.busy_ns,
            first_failure: self.first_failure,
            worn_blocks: self.worn_blocks,
            faults: self.faults,
            sink,
        }
    }

    /// Attaches a deterministic [`FaultPlan`] (builder style). A device
    /// without a plan — or with a plan whose knobs are all disarmed —
    /// behaves bit-identically to one that never heard of faults.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(FaultState::new(plan, self.geometry.blocks()));
        self
    }

    /// The attached fault plan, if any. Reflects consumed state: a fired
    /// power cut no longer reports its operation index.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| f.plan())
    }

    /// Whether `block` is grown-bad (a program or erase fault has
    /// permanently damaged it). Always `false` without a fault plan.
    pub fn is_bad_block(&self, block: u32) -> bool {
        self.faults.as_ref().is_some_and(|f| f.is_bad(block))
    }

    /// Whether the fault plan's power cut has fired and the chip is
    /// unpowered. Every operation fails with [`NandError::PowerCut`] until
    /// [`power_cycle`](Self::power_cycle) runs.
    pub fn power_is_cut(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.power_is_cut())
    }

    /// Restores power after a cut. The consumed cut point stays consumed;
    /// use [`rearm_power_cut`](Self::rearm_power_cut) to schedule another.
    pub fn power_cycle(&mut self) {
        if let Some(f) = &mut self.faults {
            f.power_cycle();
        }
    }

    /// Schedules a new power cut at mutating-operation index `op` (see
    /// [`FaultPlan::with_power_cut`]) and restores power if it was cut.
    /// No-op without a fault plan.
    pub fn rearm_power_cut(&mut self, op: u64, torn: bool) {
        if let Some(f) = &mut self.faults {
            f.rearm_power_cut(op, torn);
        }
    }

    /// Removes a still-armed cut point and restores power. Multi-channel
    /// harnesses call this on the chips whose cut never fired before
    /// remounting: one shared power rail dies once, so a cut consumed on
    /// any chip of the array is consumed on all of them. No-op without a
    /// fault plan.
    pub fn disarm_power_cut(&mut self) {
        if let Some(f) = &mut self.faults {
            f.disarm_power_cut();
        }
    }

    /// Mutating operations (programs + erases) the fault layer has counted,
    /// including the one a power cut consumed. `0` without a fault plan.
    /// Sweep harnesses use this to enumerate cut points.
    pub fn fault_ops(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.ops())
    }

    /// Mutable access to the attached sink, for layers above the device that
    /// emit their own events (host ops, GC picks, live copies) into the same
    /// stream.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the device and returns the sink (e.g. to flush and inspect a
    /// JSONL log after a run).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Chip geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Cell behaviour (endurance, timing).
    pub fn spec(&self) -> CellSpec {
        self.spec
    }

    /// Immutable view of a block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range; use [`Geometry::contains_block`]
    /// to check first.
    pub fn block(&self, block: u32) -> &Block {
        &self.blocks[block as usize]
    }

    /// Operation counters so far.
    pub fn counters(&self) -> DeviceCounters {
        self.counters
    }

    /// Accumulated device busy time.
    pub fn busy_ns(&self) -> DeviceNanos {
        self.busy_ns
    }

    /// The first wear-out event, if any block has reached its endurance.
    pub fn first_failure(&self) -> Option<FailureRecord> {
        self.first_failure
    }

    /// Number of blocks currently past their endurance rating.
    pub fn worn_blocks(&self) -> u32 {
        self.worn_blocks
    }

    /// Erase-count statistics across all blocks (Table 4 metrics).
    pub fn erase_stats(&self) -> EraseStats {
        EraseStats::from_counts(self.blocks.iter().map(|b| b.erase_count()))
    }

    /// Per-block erase counts, indexed by block.
    pub fn erase_counts(&self) -> Vec<u64> {
        self.blocks.iter().map(|b| b.erase_count()).collect()
    }

    /// Number of grown-bad blocks retired from rotation by the fault layer.
    /// Always 0 without a fault plan (organic endurance exhaustion is
    /// tracked by [`worn_blocks`](Self::worn_blocks) instead).
    pub fn retired_blocks(&self) -> u32 {
        (0..self.geometry.blocks())
            .filter(|&b| self.is_bad_block(b))
            .count() as u32
    }

    fn check_power(&self) -> Result<(), NandError> {
        if self.power_is_cut() {
            return Err(NandError::PowerCut);
        }
        Ok(())
    }

    fn check_addr(&self, addr: PageAddr) -> Result<(), NandError> {
        if !self.geometry.contains_block(addr.block) {
            return Err(NandError::BlockOutOfRange {
                block: addr.block,
                blocks: self.geometry.blocks(),
            });
        }
        if addr.page >= self.geometry.pages_per_block() {
            return Err(NandError::PageOutOfRange {
                addr,
                pages_per_block: self.geometry.pages_per_block(),
            });
        }
        Ok(())
    }

    /// Reads a page.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BlockOutOfRange`] / [`NandError::PageOutOfRange`]
    /// for bad addresses and [`NandError::ReadOfFreePage`] when the page has
    /// not been programmed since its last erase.
    pub fn read(&mut self, addr: PageAddr) -> Result<ReadResult, NandError> {
        self.check_power()?;
        self.check_addr(addr)?;
        let block = &self.blocks[addr.block as usize];
        if block.page_state(addr.page).is_free() {
            return Err(NandError::ReadOfFreePage { addr });
        }
        self.counters.reads += 1;
        self.busy_ns += self.spec.timing.read_ns;
        Ok(ReadResult {
            data: block.data(addr.page),
            spare: block.spare(addr.page),
        })
    }

    /// Programs a free page with a data token and spare-area metadata.
    ///
    /// # Errors
    ///
    /// Returns an address error for bad addresses,
    /// [`NandError::SpareLbaOutOfRange`] if `spare` records an LBA above
    /// [`SpareArea::MAX_LBA`] (the page is untouched, no time is charged and
    /// no fault-plan operation is counted) and
    /// [`NandError::ProgramOnUsedPage`] if the page is not free. With a
    /// [`FaultPlan`] attached it can also fail with
    /// [`NandError::ProgramFailed`] (the page is consumed and the block
    /// grown-bad — remap the write elsewhere) or [`NandError::PowerCut`].
    pub fn program(
        &mut self,
        addr: PageAddr,
        data: u64,
        spare: SpareArea,
    ) -> Result<(), NandError> {
        self.check_power()?;
        self.check_addr(addr)?;
        if !SpareArea::lba_fits(spare.raw_lba) {
            return Err(NandError::SpareLbaOutOfRange {
                addr,
                lba: spare.raw_lba,
            });
        }
        if !self.blocks[addr.block as usize]
            .page_state(addr.page)
            .is_free()
        {
            return Err(NandError::ProgramOnUsedPage { addr });
        }
        if let Some(faults) = &mut self.faults {
            match faults.decide_program(addr) {
                FaultDecision::Proceed => {}
                FaultDecision::Fail(error) => {
                    faults.mark_bad(addr.block);
                    self.blocks[addr.block as usize].tear_program(addr.page);
                    self.busy_ns += self.spec.timing.program_ns;
                    if S::ENABLED {
                        self.sink.event(Event::FaultInjected {
                            block: addr.block,
                            kind: FaultKind::ProgramFail,
                        });
                    }
                    return Err(error);
                }
                FaultDecision::Cut { torn, at_op } => {
                    if torn {
                        self.blocks[addr.block as usize].tear_program(addr.page);
                    }
                    if S::ENABLED {
                        self.sink.event(Event::PowerCut { at_op, torn });
                    }
                    return Err(NandError::PowerCut);
                }
            }
        }
        self.blocks[addr.block as usize].program(addr.page, data, spare);
        self.counters.programs += 1;
        self.busy_ns += self.spec.timing.program_ns;
        if S::ENABLED {
            self.sink.event(Event::Program {
                block: addr.block,
                page: addr.page,
            });
        }
        Ok(())
    }

    /// Programs the firmware bad-block marker ([`SpareArea::bad_block`])
    /// into page 0 of `block`. Translation layers call this when they retire
    /// a block so that a later mount rediscovers the retirement from flash
    /// instead of resurrecting stale contents. Like
    /// [`invalidate`](Self::invalidate), this models a spare-area status
    /// program: it charges no latency and cannot be torn.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BlockOutOfRange`] for a bad index and
    /// [`NandError::PowerCut`] while power is cut.
    pub fn mark_bad(&mut self, block: u32) -> Result<(), NandError> {
        self.check_power()?;
        if !self.geometry.contains_block(block) {
            return Err(NandError::BlockOutOfRange {
                block,
                blocks: self.geometry.blocks(),
            });
        }
        self.blocks[block as usize].mark_bad();
        Ok(())
    }

    /// Marks a valid page as invalid (out-place update bookkeeping).
    ///
    /// Real chips implement this as a status-byte program in the spare area;
    /// we charge no latency for it.
    ///
    /// # Errors
    ///
    /// Returns an address error for bad addresses and
    /// [`NandError::InvalidateNonValidPage`] if the page is not valid.
    pub fn invalidate(&mut self, addr: PageAddr) -> Result<(), NandError> {
        self.check_power()?;
        self.check_addr(addr)?;
        let block = &mut self.blocks[addr.block as usize];
        if !block.page_state(addr.page).is_valid() {
            return Err(NandError::InvalidateNonValidPage { addr });
        }
        block.invalidate(addr.page);
        Ok(())
    }

    /// Erases a block, freeing all of its pages and incrementing its wear.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BlockOutOfRange`] for a bad index. Under
    /// [`WearPolicy::FailWornBlocks`], returns [`NandError::BlockWornOut`]
    /// once the block has reached its endurance.
    pub fn erase(&mut self, block: u32) -> Result<(), NandError> {
        self.erase_as(block, Cause::External)
    }

    /// [`erase`](NandDevice::erase) with explicit cause attribution for the
    /// telemetry stream. Translation layers call this so erase events carry
    /// their GC-vs-SWL provenance; behaviour is otherwise identical.
    ///
    /// # Errors
    ///
    /// As for [`erase`](NandDevice::erase). With a [`FaultPlan`] attached it
    /// can also fail with [`NandError::EraseFailed`] (the block is bad and
    /// must be retired) or [`NandError::PowerCut`].
    pub fn erase_as(&mut self, block: u32, cause: Cause) -> Result<(), NandError> {
        self.check_power()?;
        if !self.geometry.contains_block(block) {
            return Err(NandError::BlockOutOfRange {
                block,
                blocks: self.geometry.blocks(),
            });
        }
        let endurance = self.spec.endurance;
        let erase_count = self.blocks[block as usize].erase_count();
        if self.policy == WearPolicy::FailWornBlocks
            && self.blocks[block as usize].state(endurance) == BlockState::WornOut
        {
            return Err(NandError::BlockWornOut { block, erase_count });
        }
        if let Some(faults) = &mut self.faults {
            match faults.decide_erase(block, erase_count) {
                FaultDecision::Proceed => {}
                FaultDecision::Fail(error) => {
                    self.busy_ns += self.spec.timing.erase_ns;
                    if S::ENABLED {
                        self.sink.event(Event::FaultInjected {
                            block,
                            kind: FaultKind::EraseFail,
                        });
                    }
                    return Err(error);
                }
                FaultDecision::Cut { torn, at_op } => {
                    if torn {
                        self.blocks[block as usize].tear_erase();
                    }
                    if S::ENABLED {
                        self.sink.event(Event::PowerCut { at_op, torn });
                    }
                    return Err(NandError::PowerCut);
                }
            }
        }
        let blk = &mut self.blocks[block as usize];
        let was_healthy = blk.state(endurance) == BlockState::Healthy;
        blk.erase();
        self.counters.erases += 1;
        self.busy_ns += self.spec.timing.erase_ns;
        if S::ENABLED {
            let wear = self.blocks[block as usize].erase_count();
            self.sink.event(Event::Erase { block, wear, cause });
        }
        let blk = &mut self.blocks[block as usize];
        if was_healthy && blk.state(endurance) == BlockState::WornOut {
            self.worn_blocks += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(FailureRecord {
                    block,
                    total_erases: self.counters.erases,
                    at_ns: self.busy_ns,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    fn tiny_device(endurance: u32) -> NandDevice {
        let g = Geometry::new(4, 4, 512);
        NandDevice::new(g, CellKind::Mlc2.spec().with_endurance(endurance))
    }

    #[test]
    fn program_read_round_trip() {
        let mut d = tiny_device(10);
        let addr = PageAddr::new(1, 2);
        d.program(addr, 99, SpareArea::valid(5)).unwrap();
        let r = d.read(addr).unwrap();
        assert_eq!(r.data, 99);
        assert_eq!(r.spare.lba(), Some(5));
        assert_eq!(d.counters().programs, 1);
        assert_eq!(d.counters().reads, 1);
    }

    #[test]
    fn double_program_rejected() {
        let mut d = tiny_device(10);
        let addr = PageAddr::new(0, 0);
        d.program(addr, 1, SpareArea::valid(0)).unwrap();
        assert_eq!(
            d.program(addr, 2, SpareArea::valid(0)),
            Err(NandError::ProgramOnUsedPage { addr })
        );
        // Even an invalidated page cannot be re-programmed without erase.
        d.invalidate(addr).unwrap();
        assert!(matches!(
            d.program(addr, 2, SpareArea::valid(0)),
            Err(NandError::ProgramOnUsedPage { .. })
        ));
    }

    #[test]
    fn erase_frees_pages_for_reprogramming() {
        let mut d = tiny_device(10);
        let addr = PageAddr::new(0, 0);
        d.program(addr, 1, SpareArea::valid(0)).unwrap();
        d.invalidate(addr).unwrap();
        d.erase(0).unwrap();
        d.program(addr, 2, SpareArea::valid(0)).unwrap();
        assert_eq!(d.read(addr).unwrap().data, 2);
        assert_eq!(d.block(0).erase_count(), 1);
    }

    #[test]
    fn spare_lba_width_is_enforced_at_program() {
        let mut d = tiny_device(10);
        let max = SpareArea::MAX_LBA;
        assert_eq!(max, (1 << 30) - 2);
        let addr = PageAddr::new(0, 0);
        d.program(addr, 1, SpareArea::valid(max)).unwrap();
        assert_eq!(d.read(addr).unwrap().spare, SpareArea::valid(max));
        let addr = PageAddr::new(0, 1);
        d.program(addr, 2, SpareArea::metadata(7)).unwrap();
        let spare = d.read(addr).unwrap().spare;
        assert_eq!((spare.lba(), spare.status()), (None, 7));

        let before = (d.counters(), d.busy_ns());
        let addr = PageAddr::new(0, 2);
        for lba in [max + 1, u64::MAX - 1] {
            assert_eq!(
                d.program(addr, 3, SpareArea::valid(lba)),
                Err(NandError::SpareLbaOutOfRange { addr, lba })
            );
        }
        assert!(d.block(0).page_state(2).is_free());
        assert_eq!((d.counters(), d.busy_ns()), before);
    }

    #[test]
    fn read_of_free_page_rejected() {
        let mut d = tiny_device(10);
        assert_eq!(
            d.read(PageAddr::new(0, 0)),
            Err(NandError::ReadOfFreePage {
                addr: PageAddr::new(0, 0)
            })
        );
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        let mut d = tiny_device(10);
        assert!(matches!(
            d.read(PageAddr::new(99, 0)),
            Err(NandError::BlockOutOfRange { .. })
        ));
        assert!(matches!(
            d.program(PageAddr::new(0, 99), 0, SpareArea::valid(0)),
            Err(NandError::PageOutOfRange { .. })
        ));
        assert!(matches!(
            d.erase(99),
            Err(NandError::BlockOutOfRange { .. })
        ));
    }

    #[test]
    fn invalidate_requires_valid_page() {
        let mut d = tiny_device(10);
        let addr = PageAddr::new(0, 0);
        assert!(matches!(
            d.invalidate(addr),
            Err(NandError::InvalidateNonValidPage { .. })
        ));
        d.program(addr, 0, SpareArea::valid(0)).unwrap();
        d.invalidate(addr).unwrap();
        assert!(matches!(
            d.invalidate(addr),
            Err(NandError::InvalidateNonValidPage { .. })
        ));
    }

    #[test]
    fn first_failure_recorded_at_endurance() {
        let mut d = tiny_device(3);
        assert!(d.first_failure().is_none());
        d.erase(2).unwrap();
        d.erase(2).unwrap();
        assert!(d.first_failure().is_none());
        d.erase(2).unwrap();
        let f = d.first_failure().expect("failure after third erase");
        assert_eq!(f.block, 2);
        assert_eq!(f.total_erases, 3);
        assert_eq!(d.worn_blocks(), 1);
        // A later wear-out does not displace the first record.
        for _ in 0..3 {
            d.erase(1).unwrap();
        }
        assert_eq!(d.first_failure().unwrap().block, 2);
        assert_eq!(d.worn_blocks(), 2);
    }

    #[test]
    fn record_and_continue_allows_erasing_worn_blocks() {
        let mut d = tiny_device(1);
        d.erase(0).unwrap();
        d.erase(0).unwrap(); // worn, but still permitted
        assert_eq!(d.block(0).erase_count(), 2);
    }

    #[test]
    fn fail_worn_blocks_policy_rejects() {
        let mut d = tiny_device(1).with_wear_policy(WearPolicy::FailWornBlocks);
        d.erase(0).unwrap();
        assert_eq!(
            d.erase(0),
            Err(NandError::BlockWornOut {
                block: 0,
                erase_count: 1
            })
        );
    }

    #[test]
    fn busy_time_accumulates_per_op() {
        let timing = crate::Timing {
            read_ns: 1,
            program_ns: 10,
            erase_ns: 100,
        };
        let g = Geometry::new(1, 2, 512);
        let mut d = NandDevice::new(g, CellKind::Slc.spec().with_timing(timing));
        d.program(PageAddr::new(0, 0), 0, SpareArea::valid(0))
            .unwrap();
        d.read(PageAddr::new(0, 0)).unwrap();
        d.erase(0).unwrap();
        assert_eq!(d.busy_ns(), 111);
    }

    #[test]
    fn sink_sees_meta_programs_and_attributed_erases() {
        use flash_telemetry::VecSink;

        let d = tiny_device(10).with_sink(VecSink::default());
        let mut d = d;
        d.program(PageAddr::new(1, 0), 7, SpareArea::valid(3))
            .unwrap();
        d.erase_as(2, Cause::Swl).unwrap();
        d.erase(2).unwrap(); // plain erase attributes to External
        let events = d.into_sink().events;
        assert_eq!(
            events,
            vec![
                Event::Meta {
                    version: SCHEMA_VERSION,
                    blocks: 4,
                    pages_per_block: 4,
                },
                Event::Endurance { limit: 10 },
                Event::Program { block: 1, page: 0 },
                Event::Erase {
                    block: 2,
                    wear: 1,
                    cause: Cause::Swl,
                },
                Event::Erase {
                    block: 2,
                    wear: 2,
                    cause: Cause::External,
                },
            ]
        );
    }

    #[test]
    fn null_sink_device_matches_instrumented_device() {
        let mut plain = tiny_device(10);
        let mut probed = tiny_device(10).with_sink(flash_telemetry::CountSink::default());
        for b in [0u32, 1, 0] {
            plain.erase(b).unwrap();
            probed.erase(b).unwrap();
        }
        assert_eq!(plain.erase_counts(), probed.erase_counts());
        assert_eq!(plain.counters(), probed.counters());
        assert_eq!(probed.sink_mut().events, 5); // meta + endurance + 3 erases
    }

    #[test]
    fn erase_stats_reflect_wear() {
        let mut d = tiny_device(100);
        d.erase(0).unwrap();
        d.erase(0).unwrap();
        d.erase(1).unwrap();
        let s = d.erase_stats();
        assert_eq!(s.total, 3);
        assert_eq!(s.max, 2);
        assert_eq!(s.min, 0);
        assert_eq!(s.blocks, 4);
        assert_eq!(d.erase_counts(), vec![2, 1, 0, 0]);
    }
}
