//! The block-mapping translation layer: primary/replacement blocks, merges.

use flash_telemetry::{Cause, Event, MergeKind, NullSink, Sink, SpanKind};
use nand::{BlockPool, Mapping, NandDevice, PageAddr, ShellKey, SpareArea, SwlHost, VictimIndex};

use crate::config::NftlConfig;
use crate::error::NftlError;

/// Sentinel for "no physical block assigned".
const NO_BLOCK: u32 = u32::MAX;

/// Spare-area status marker for pages written into a primary block.
const STATUS_PRIMARY: u32 = 1;
/// Spare-area status marker for pages appended to a replacement block.
const STATUS_REPL: u32 = 2;
/// Low status bits carrying the page kind; the bits above hold the merge
/// generation of primary pages.
const STATUS_KIND_MASK: u32 = 0xFF;
/// Shift from the status word to the merge generation.
const GEN_SHIFT: u32 = 8;

/// Status word for a primary page of merge generation `gen`. The generation
/// lets a remount tell a complete primary from the half-written successor a
/// power cut left behind: every merge writes its copies with the old
/// generation plus one, and erases the old pair only after the new block is
/// complete — so the *lower* generation is always the trustworthy one.
/// (24 bits of generation wrap after ~16M merges of one virtual block;
/// beyond that, duplicate resolution degrades to the valid-page tiebreak.)
fn primary_status(gen: u32) -> u32 {
    STATUS_PRIMARY | ((gen & (u32::MAX >> GEN_SHIFT)) << GEN_SHIFT)
}

/// Which virtual block a physical block currently serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockRole {
    /// Serves none. The [`BlockPool`] knows whether it is free; if not it
    /// is retired, popped for a merge still in flight, or stranded by a
    /// power cut mid-merge (RAM state that dies with the session).
    Unassigned,
    Primary(u32),
    Replacement(u32),
}

/// RAM state of an open replacement block (a real NFTL rebuilds this from
/// spare areas at mount time).
#[derive(Debug, Clone)]
struct ReplState {
    block: u32,
    /// Next append position.
    next: u32,
    /// Per offset: newest replacement page + 1; 0 = offset not in this block.
    latest: Box<[u32]>,
}

/// The block-level mapping: primary/replacement pairs per virtual block and
/// the merges that fold them, over the shared [`BlockPool`]. Runs under
/// [`SwlHost`] as [`BlockMappedNftl`].
#[derive(Debug)]
pub struct BlockMapping<S: Sink = NullSink> {
    /// The chip, the free ladder and free/retired membership.
    pool: BlockPool<S>,
    config: NftlConfig,
    virtual_blocks: u32,
    logical_pages: u64,
    /// Per VBA: primary physical block (`NO_BLOCK` when unassigned).
    primary: Vec<u32>,
    /// Per VBA: merge generation of the current primary (see
    /// [`primary_status`]).
    gen: Vec<u32>,
    /// Per VBA: its open replacement block, if any. Indexed, never searched;
    /// whatever needs VBA order scans `0..virtual_blocks`. Written only by
    /// [`open_replacement`](Self::open_replacement) and
    /// [`take_replacement`](Self::take_replacement), which keep `open_repl`.
    repl: Vec<Option<ReplState>>,
    /// Number of `Some` entries in `repl`.
    open_repl: usize,
    /// All-zero `latest` buffers of closed replacements, waiting for the next
    /// one opened: the steady state recycles them instead of allocating.
    latest_pool: Vec<Box<[u32]>>,
    role: Vec<BlockRole>,
    /// Incremental index of merge candidates (keyed by VBA; a VBA is a
    /// candidate while it has an open replacement block).
    victims: VictimIndex,
    /// Cyclic cursor for GC victim selection over VBAs.
    gc_scan_vba: u32,
    free_target: u32,
}

impl<S: Sink> BlockMapping<S> {
    /// Builds the RAM tables over `pool_of(device, blocks)`.
    fn build(
        device: NandDevice<S>,
        config: NftlConfig,
        pool_of: fn(NandDevice<S>, u32) -> BlockPool<S>,
    ) -> Self {
        let geometry = device.geometry();
        let blocks = geometry.blocks();
        let reserved = config.reserved_blocks.min(blocks.saturating_sub(1));
        let virtual_blocks = blocks - reserved;
        let logical_pages = u64::from(virtual_blocks) * u64::from(geometry.pages_per_block());
        let free_target = config.free_target(blocks);
        Self {
            pool: pool_of(device, blocks),
            virtual_blocks,
            logical_pages,
            primary: vec![NO_BLOCK; virtual_blocks as usize],
            gen: vec![0; virtual_blocks as usize],
            repl: vec![None; virtual_blocks as usize],
            open_repl: 0,
            latest_pool: Vec::new(),
            role: vec![BlockRole::Unassigned; blocks as usize],
            victims: VictimIndex::new(virtual_blocks),
            gc_scan_vba: 0,
            free_target,
            config,
        }
    }

    fn split(&self, lba: u64) -> (u32, u32) {
        let ppb = u64::from(self.pool.device.geometry().pages_per_block());
        ((lba / ppb) as u32, (lba % ppb) as u32)
    }

    fn lba_of(&self, vba: u32, offset: u32) -> u64 {
        u64::from(vba) * u64::from(self.pool.device.geometry().pages_per_block())
            + u64::from(offset)
    }

    fn check_lba(&self, lba: u64) -> Result<(), NftlError> {
        if lba >= self.logical_pages {
            return Err(NftlError::LbaOutOfRange {
                lba,
                logical_pages: self.logical_pages,
            });
        }
        Ok(())
    }

    /// Whether serving a write to `(vba, offset)` would need a fresh block.
    fn write_needs_alloc(&self, vba: u32, offset: u32) -> bool {
        let p = self.primary[vba as usize];
        if p == NO_BLOCK {
            return true;
        }
        if self.pool.device.block(p).page_state(offset).is_free() {
            return false;
        }
        self.repl[vba as usize].is_none()
    }

    /// Records `rs` as `vba`'s open replacement.
    fn open_replacement(&mut self, vba: u32, rs: ReplState) {
        let slot = &mut self.repl[vba as usize];
        debug_assert!(slot.is_none(), "vba {vba} already has a replacement");
        *slot = Some(rs);
        self.open_repl += 1;
    }

    /// Removes and returns `vba`'s open replacement, if any.
    fn take_replacement(&mut self, vba: u32) -> Option<ReplState> {
        let rs = self.repl[vba as usize].take();
        self.open_repl -= usize::from(rs.is_some());
        rs
    }

    /// A zeroed `latest` buffer: a pooled one, else a new one. Before a new
    /// one is made the pool's capacity is reserved for every buffer in
    /// existence (the pool is empty here, so that is the open replacements
    /// plus this one) — handing a buffer back never grows the pool.
    fn take_latest(&mut self) -> Box<[u32]> {
        self.latest_pool.pop().unwrap_or_else(|| {
            self.latest_pool.reserve(self.open_repl + 1);
            let pages = self.pool.device.geometry().pages_per_block() as usize;
            vec![0; pages].into_boxed_slice()
        })
    }

    /// Keeps the free pool at its target by merging replacement pairs.
    fn ensure_free(&mut self, erased: &mut Vec<u32>) -> Result<(), NftlError> {
        let mut guard = 0u32;
        while (self.pool.free_len() as u32) < self.free_target {
            self.gc_merge_one(erased)?;
            guard += 1;
            if guard > self.pool.device.geometry().blocks() * 2 {
                return Err(NftlError::FreeExhausted);
            }
        }
        Ok(())
    }

    /// Re-reports one VBA to the victim index. Must be called after any
    /// event that changes the VBA's merge stats or candidacy: opening or
    /// closing its replacement block, or programming/invalidating pages in
    /// either block of the pair.
    fn refresh_victim(&mut self, vba: u32) {
        let stats = self.pair_stats(vba);
        let (invalid, valid) = stats.unwrap_or((0, 0));
        self.victims.update(vba, stats.is_some(), invalid, valid);
    }

    /// `(invalid, valid)` pages across a VBA's primary/replacement pair;
    /// `None` without an open replacement (not a merge candidate).
    fn pair_stats(&self, vba: u32) -> Option<(u32, u32)> {
        let rs = self.repl[vba as usize].as_ref()?;
        let pb = self.pool.device.block(self.primary[vba as usize]);
        let rb = self.pool.device.block(rs.block);
        Some((
            pb.invalid_pages() + rb.invalid_pages(),
            pb.valid_pages() + rb.valid_pages(),
        ))
    }

    /// The pre-index cyclic scan over open replacements, kept as the oracle
    /// the incremental [`VictimIndex`] is checked against under
    /// `debug_assertions`. Pure: does not advance `gc_scan_vba`.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn reference_select_victim(&self) -> Option<u32> {
        let start = self.gc_scan_vba;
        let mut fallback: Option<(u64, u32)> = None; // (invalid, vba)
        for vba in (start..self.virtual_blocks).chain(0..start) {
            let Some(rs) = &self.repl[vba as usize] else {
                continue;
            };
            let p = self.primary[vba as usize];
            let pb = self.pool.device.block(p);
            let rb = self.pool.device.block(rs.block);
            let invalid = u64::from(pb.invalid_pages()) + u64::from(rb.invalid_pages());
            let valid = u64::from(pb.valid_pages()) + u64::from(rb.valid_pages());
            if invalid > valid {
                return Some(vba);
            }
            if invalid > 0 && fallback.is_none_or(|(best, _)| invalid > best) {
                fallback = Some((invalid, vba));
            }
        }
        fallback.map(|(_, v)| v)
    }

    /// Greedy victim selection over open replacements (cyclic over VBAs):
    /// first pair whose invalid pages outnumber their valid pages, falling
    /// back to the pair with the most invalid pages. Answered by the
    /// incremental [`VictimIndex`] instead of a linear scan.
    fn gc_merge_one(&mut self, erased: &mut Vec<u32>) -> Result<(), NftlError> {
        // One GC episode under a `gc` span; the merge it runs opens its own
        // nested `merge` span, so the pick/bookkeeping cost and the copy
        // cascade are attributed separately.
        self.spanned(SpanKind::Gc, |m| {
            let choice = m.victims.select(m.gc_scan_vba);
            debug_assert_eq!(
                choice,
                m.reference_select_victim(),
                "victim index diverged from the linear-scan oracle"
            );
            let vba = choice.ok_or(NftlError::NoReclaimableSpace)?;
            m.gc_scan_vba = vba.wrapping_add(1) % m.virtual_blocks.max(1);
            m.pool.counters.gc_collections += 1;
            m.pool.counters.gc_merges += 1;
            if S::ENABLED {
                let (invalid, valid) = m.pair_stats(vba).unwrap_or((0, 0));
                let free_depth = m.pool.free_len() as u32;
                let candidates = m.victims.candidates();
                m.pool.emit(Event::GcPick {
                    key: vba,
                    invalid,
                    valid,
                    free_depth,
                    candidates,
                });
                m.pool.emit(Event::Merge {
                    vba,
                    kind: MergeKind::Gc,
                });
            }
            m.merge(vba, None, Cause::Gc, erased)
        })
    }

    /// Folds a VBA's newest data into a fresh primary block and erases the
    /// old primary (and replacement, if open). `fill` programs host data
    /// into an offset in place of its old copy — the overwrite that
    /// triggered a full merge — so the data is safely on flash *before* the
    /// old pair is destroyed.
    ///
    /// Crash ordering: copies (and the fill) land in the fresh block with
    /// generation `gen+1` first; the old pair is erased only afterwards. A
    /// power cut therefore leaves either the old pair intact (the partial
    /// successor is scrubbed at mount, resolved by generation) or the new
    /// primary complete — never a state that loses acknowledged data.
    fn merge(
        &mut self,
        vba: u32,
        fill: Option<(u32, u64)>,
        cause: Cause,
        erased: &mut Vec<u32>,
    ) -> Result<(), NftlError> {
        self.spanned(SpanKind::Merge, |m| m.merge_inner(vba, fill, cause, erased))
    }

    fn merge_inner(
        &mut self,
        vba: u32,
        fill: Option<(u32, u64)>,
        cause: Cause,
        erased: &mut Vec<u32>,
    ) -> Result<(), NftlError> {
        let old_primary = self.primary[vba as usize];
        debug_assert_ne!(old_primary, NO_BLOCK, "merge requires a primary");
        let rs = self.take_replacement(vba);
        let new_gen = self.gen[vba as usize].wrapping_add(1);
        let pages_per_block = self.pool.device.geometry().pages_per_block();

        // Copy phase, restarted on another fresh block when an injected
        // program failure strikes mid-merge (the half-written block is
        // retired; the sources are still intact, so the copies repeat).
        let fresh = 'attempt: loop {
            let fresh = match self.pop_free() {
                Ok(fresh) => fresh,
                Err(e) => {
                    self.undo_merge(vba, rs);
                    return Err(e);
                }
            };
            for offset in 0..pages_per_block {
                let lba = self.lba_of(vba, offset);
                // `copied_from` is `None` for the host fill (not a copy).
                let (data, copied_from) = match fill {
                    Some((fill_offset, fill_data)) if fill_offset == offset => (fill_data, None),
                    _ => {
                        let src = match &rs {
                            Some(rs) if rs.latest[offset as usize] != 0 => {
                                Some(PageAddr::new(rs.block, rs.latest[offset as usize] - 1))
                            }
                            _ => {
                                let state = self.pool.device.block(old_primary).page_state(offset);
                                state
                                    .is_valid()
                                    .then_some(PageAddr::new(old_primary, offset))
                            }
                        };
                        let Some(src) = src else { continue };
                        match self.pool.device.read(src) {
                            Ok(content) => (content.data, Some(src.block)),
                            Err(e) => {
                                self.undo_merge(vba, rs);
                                return Err(e.into());
                            }
                        }
                    }
                };
                match self.pool.device.program(
                    PageAddr::new(fresh, offset),
                    data,
                    SpareArea::with_status(lba, primary_status(new_gen)),
                ) {
                    Ok(()) => {}
                    Err(nand::NandError::ProgramFailed { .. }) => {
                        self.pool.retire(fresh);
                        continue 'attempt;
                    }
                    Err(e) => {
                        // Power cut (or a dead device): RAM state is about
                        // to be discarded; the half-written block stays out
                        // of circulation, in use with no role.
                        self.undo_merge(vba, rs);
                        return Err(e.into());
                    }
                }
                if let Some(from_block) = copied_from {
                    self.pool.record_live_copy(from_block, fresh, cause);
                }
            }
            break fresh;
        };

        self.primary[vba as usize] = fresh;
        self.role[fresh as usize] = BlockRole::Primary(vba);
        self.gen[vba as usize] = new_gen;
        // The old pair serves no VBA from here on; the pool frees or retires
        // each block.
        self.role[old_primary as usize] = BlockRole::Unassigned;
        if let Some(rs) = &rs {
            self.role[rs.block as usize] = BlockRole::Unassigned;
        }
        // A power cut mid-erase strands the stragglers role-less (RAM dies
        // with us). Either way the replacement (if any) is gone: the VBA
        // stops being a merge candidate.
        let old_pair = [Some(old_primary), rs.as_ref().map(|rs| rs.block)];
        if let Some(mut rs) = rs {
            rs.latest.fill(0);
            self.latest_pool.push(rs.latest);
        }
        let freed = old_pair
            .into_iter()
            .flatten()
            .try_for_each(|b| self.pool.erase_and_free(b, cause, erased));
        self.refresh_victim(vba);
        Ok(freed?)
    }

    /// Restores RAM state after a merge failed before committing: the
    /// replacement (if any) goes back into the table and the victim index is
    /// re-synced. The on-flash sources were not touched, so the layer keeps
    /// serving correct data.
    fn undo_merge(&mut self, vba: u32, rs: Option<ReplState>) {
        if let Some(rs) = rs {
            self.open_replacement(vba, rs);
        }
        self.refresh_victim(vba);
    }

    /// Pops the least-worn free block; the caller assigns its role.
    fn pop_free(&mut self) -> Result<u32, NftlError> {
        self.pool
            .pop_freshest_free()
            .ok_or(NftlError::FreeExhausted)
    }
}

impl<S: Sink> Mapping for BlockMapping<S> {
    type Sink = S;
    type Config = NftlConfig;
    type Error = NftlError;

    fn new(device: NandDevice<S>, config: NftlConfig) -> Result<Self, NftlError> {
        Ok(Self::build(device, config, BlockPool::new))
    }

    /// Rebuilds all RAM tables from the spare areas of an existing chip —
    /// what real NFTL firmware does at attach time.
    ///
    /// Hardened against the debris a power cut can leave behind:
    ///
    /// - Blocks carrying the on-flash bad-block marker (programmed by
    ///   bad-block management in an earlier session) come back as retired.
    /// - Pages torn mid-program carry no spare metadata and are skipped;
    ///   blocks holding nothing but torn pages (e.g. a torn erase) are
    ///   scrubbed back into the free pool.
    /// - Duplicate primaries for one virtual block — the old pair plus the
    ///   half-finished successor of an interrupted merge — are resolved by
    ///   merge generation: the lower generation is complete (the merge
    ///   erases it only after finishing the new copy), so it wins and the
    ///   other is scrubbed.
    fn mount(device: NandDevice<S>, config: NftlConfig) -> Result<Self, NftlError> {
        let mut inner = Self::build(device, config, BlockPool::mount);
        let blocks = inner.pool.device.geometry().blocks();
        // (vba, block, generation) primary candidates; resolved below.
        let mut primaries: Vec<(u32, u32, u32)> = Vec::new();
        let mut scrub: Vec<u32> = Vec::new();

        for b in 0..blocks {
            // The pool already rediscovered the retired (marked-bad) and the
            // fully erased blocks; what is left holds programmed pages.
            if !inner.pool.in_use(b) {
                continue;
            }
            // Classify the block from its first page whose spare metadata
            // survived (torn pages carry none).
            let mut marker: Option<(u32, u64)> = None; // (status, lba)
            for (page, state) in inner.pool.device.block(b).page_states() {
                if state.is_free() {
                    continue;
                }
                let spare = inner.pool.device.block(b).spare(page);
                if let Some(lba) = spare.lba() {
                    marker = Some((spare.status(), lba));
                    break;
                }
            }
            let Some((status, lba)) = marker else {
                // Nothing but torn pages: crash debris, recycle it.
                scrub.push(b);
                continue;
            };
            if lba >= inner.logical_pages {
                return Err(NftlError::MountCorrupt { block: b });
            }
            let (vba, _) = inner.split(lba);
            match status & STATUS_KIND_MASK {
                STATUS_PRIMARY => {
                    primaries.push((vba, b, status >> GEN_SHIFT));
                }
                STATUS_REPL => {
                    if inner.repl[vba as usize].is_some() {
                        return Err(NftlError::MountCorrupt { block: b });
                    }
                    let mut latest = inner.take_latest();
                    let mut next = 0u32;
                    for (page, state) in inner.pool.device.block(b).page_states() {
                        if state.is_free() {
                            break; // appends are contiguous from page 0
                        }
                        next = page + 1;
                        if !state.is_valid() {
                            continue;
                        }
                        let spare = inner.pool.device.block(b).spare(page);
                        let page_lba = spare.lba().ok_or(NftlError::MountCorrupt { block: b })?;
                        let (page_vba, offset) = inner.split(page_lba);
                        if page_vba != vba {
                            return Err(NftlError::MountCorrupt { block: b });
                        }
                        latest[offset as usize] = page + 1;
                    }
                    inner.open_replacement(
                        vba,
                        ReplState {
                            block: b,
                            next,
                            latest,
                        },
                    );
                    inner.role[b as usize] = BlockRole::Replacement(vba);
                }
                _ => return Err(NftlError::MountCorrupt { block: b }),
            }
        }

        // Resolve duplicate primaries: lowest generation wins; ties (only
        // reachable through injected program faults, never through power
        // cuts alone) favour the block serving more live pages, then the
        // lower block number. Losers are crash debris and get scrubbed.
        primaries.sort_by_key(|&(vba, b, gen)| {
            let valid = inner.pool.device.block(b).valid_pages();
            (vba, gen, std::cmp::Reverse(valid), b)
        });
        let mut prev_vba = None;
        for (vba, b, gen) in primaries {
            if prev_vba == Some(vba) {
                scrub.push(b);
                continue;
            }
            prev_vba = Some(vba);
            inner.primary[vba as usize] = b;
            inner.gen[vba as usize] = gen;
            inner.role[b as usize] = BlockRole::Primary(vba);
        }
        // Debris — torn pages only, or the half-written successor of an
        // interrupted merge — is erased back into the pool (or retired, if
        // it refuses to erase). No leveler is attached yet, so the erase log
        // is dropped.
        for b in scrub {
            inner.pool.erase_and_free(b, Cause::Gc, &mut Vec::new())?;
        }

        // Every replacement must hang off an assigned primary; each that
        // does is a merge candidate.
        for vba in 0..inner.virtual_blocks {
            let Some(rs) = &inner.repl[vba as usize] else {
                continue;
            };
            if inner.primary[vba as usize] == NO_BLOCK {
                return Err(NftlError::MountCorrupt { block: rs.block });
            }
            inner.refresh_victim(vba);
        }
        Ok(inner)
    }

    fn into_device(self) -> NandDevice<S> {
        self.pool.device
    }

    fn pool(&self) -> &BlockPool<S> {
        &self.pool
    }

    fn pool_mut(&mut self, _: ShellKey) -> &mut BlockPool<S> {
        &mut self.pool
    }

    fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    #[inline]
    fn host_write(
        &mut self,
        _: ShellKey,
        lba: u64,
        data: u64,
        erased: &mut Vec<u32>,
    ) -> Result<(), NftlError> {
        self.check_lba(lba)?;
        let (vba, offset) = self.split(lba);

        match self.ensure_free(erased) {
            Ok(()) => {}
            Err(NftlError::NoReclaimableSpace) => {
                // Nothing mergeable yet. Proceed while a merge reserve
                // remains, or when this write allocates nothing.
                let safe = self.pool.free_len() >= 2 || !self.write_needs_alloc(vba, offset);
                if !safe {
                    return Err(NftlError::NoReclaimableSpace);
                }
            }
            Err(other) => return Err(other),
        }

        if self.primary[vba as usize] == NO_BLOCK {
            let p = self.pop_free()?;
            self.role[p as usize] = BlockRole::Primary(vba);
            self.primary[vba as usize] = p;
        }

        // Retry loop: an injected program failure consumes the target page,
        // so each pass routes the write to the next viable place — the
        // in-place slot, then the replacement block, then (once the
        // replacement fills) a merge that folds the data into a fresh
        // primary. Terminates because every retry consumes pages and the
        // free pool is finite.
        loop {
            let p = self.primary[vba as usize];
            if self.pool.device.block(p).page_state(offset).is_free() {
                // In-place slot still available in the primary block.
                debug_assert!(self.repl[vba as usize]
                    .as_ref()
                    .is_none_or(|rs| rs.latest[offset as usize] == 0));
                let spare = SpareArea::with_status(lba, primary_status(self.gen[vba as usize]));
                match self
                    .pool
                    .device
                    .program(PageAddr::new(p, offset), data, spare)
                {
                    Ok(()) => {}
                    Err(nand::NandError::ProgramFailed { .. }) => {
                        // Slot consumed, primary grown-bad: fall through to
                        // the replacement path.
                        self.refresh_victim(vba);
                        continue;
                    }
                    Err(other) => {
                        self.refresh_victim(vba);
                        return Err(other.into());
                    }
                }
                // An open replacement makes this VBA a merge candidate whose
                // valid count just grew.
                self.refresh_victim(vba);
                self.pool.counters.host_writes += 1;
                self.pool.emit(Event::HostWrite { lba });
                return Ok(());
            }

            // Overwrite: goes to the replacement block.
            if self.repl[vba as usize].is_none() {
                let r = self.pop_free()?;
                self.role[r as usize] = BlockRole::Replacement(vba);
                let latest = self.take_latest();
                self.open_replacement(
                    vba,
                    ReplState {
                        block: r,
                        next: 0,
                        latest,
                    },
                );
            }
            let rs = self.repl[vba as usize]
                .as_mut()
                .expect("replacement just ensured");

            if rs.next == self.pool.device.geometry().pages_per_block() {
                // Replacement full: merge, folding the incoming data into
                // the fresh primary in place of the offset's old copy. The
                // data lands *before* the merge erases the old pair, so a
                // power cut can never destroy the only surviving copy of
                // the last acknowledged write.
                self.pool.counters.full_merges += 1;
                self.pool.emit(Event::Merge {
                    vba,
                    kind: MergeKind::Full,
                });
                self.merge(vba, Some((offset, data)), Cause::Gc, erased)?;
                self.pool.counters.host_writes += 1;
                self.pool.emit(Event::HostWrite { lba });
                return Ok(());
            }

            let slot = rs.next;
            let block = rs.block;
            let prev = rs.latest[offset as usize];
            rs.next += 1;
            match self.pool.device.program(
                PageAddr::new(block, slot),
                data,
                SpareArea::with_status(lba, STATUS_REPL),
            ) {
                Ok(()) => {}
                Err(nand::NandError::ProgramFailed { .. }) => {
                    // Slot consumed, replacement grown-bad: the next pass
                    // appends to the following slot or merges once full.
                    self.refresh_victim(vba);
                    continue;
                }
                Err(other) => {
                    self.refresh_victim(vba);
                    return Err(other.into());
                }
            }
            rs.latest[offset as usize] = slot + 1;
            // Invalidate the superseded copy (replacement page or primary
            // slot). A primary slot consumed by an earlier fault carries no
            // live copy to invalidate.
            if prev != 0 {
                self.pool
                    .device
                    .invalidate(PageAddr::new(block, prev - 1))?;
            } else if self.pool.device.block(p).page_state(offset).is_valid() {
                self.pool.device.invalidate(PageAddr::new(p, offset))?;
            }
            self.refresh_victim(vba);
            self.pool.counters.host_writes += 1;
            self.pool.emit(Event::HostWrite { lba });
            return Ok(());
        }
    }

    #[inline]
    fn host_read(&mut self, _: ShellKey, lba: u64) -> Result<Option<u64>, NftlError> {
        self.check_lba(lba)?;
        let (vba, offset) = self.split(lba);
        self.pool.counters.host_reads += 1;
        self.pool.emit(Event::HostRead { lba });
        if let Some(rs) = &self.repl[vba as usize] {
            let latest = rs.latest[offset as usize];
            if latest != 0 {
                let addr = PageAddr::new(rs.block, latest - 1);
                return Ok(Some(self.pool.device.read(addr)?.data));
            }
        }
        let p = self.primary[vba as usize];
        if p != NO_BLOCK && self.pool.device.block(p).page_state(offset).is_valid() {
            return Ok(Some(self.pool.device.read(PageAddr::new(p, offset))?.data));
        }
        Ok(None)
    }

    /// A primary or replacement block is merged with its pair into a fresh
    /// primary, charged to SWL; a free block is erased in place. When the
    /// pool is empty, one regular GC merge runs first to refill it — charged
    /// to GC, where the page-mapped FTL charges its refill to SWL.
    fn recycle_block(
        &mut self,
        _: ShellKey,
        b: u32,
        erased: &mut Vec<u32>,
    ) -> Result<(), NftlError> {
        if self.role[b as usize] != BlockRole::Unassigned && self.pool.free_len() == 0 {
            // May pick `b`'s own pair, leaving `b` free.
            self.gc_merge_one(erased)?;
        }
        if self.pool.is_free(b) {
            return Ok(self.pool.erase_and_free(b, Cause::Swl, erased)?);
        }
        // A primary without an open replacement is fully cold data: its
        // merge is an offset-aligned copy into a fresh block.
        let (BlockRole::Primary(vba) | BlockRole::Replacement(vba)) = self.role[b as usize] else {
            return Ok(()); // retired or stranded: out of circulation
        };
        self.pool.counters.swl_merges += 1;
        self.pool.emit(Event::Merge {
            vba,
            kind: MergeKind::Swl,
        });
        self.merge(vba, None, Cause::Swl, erased)
    }
}

/// A block-mapping NFTL with an optional static wear leveler: the
/// [`BlockMapping`] under the shared [`SwlHost`] shell.
///
/// See the [crate-level documentation](crate) for the design and an example.
pub type BlockMappedNftl<S = NullSink> = SwlHost<BlockMapping<S>>;

impl<S: Sink> BlockMapping<S> {
    /// The configuration in effect.
    pub fn config(&self) -> NftlConfig {
        self.config
    }

    /// Number of currently open replacement blocks.
    pub fn open_replacements(&self) -> usize {
        self.open_repl
    }

    /// Audit: roles, free list, the replacement table, its count and the
    /// buffer pool are consistent with each other and with the device's page
    /// states; panics on any violation.
    /// Intended for tests.
    pub fn check_consistency(&self) {
        let blocks = self.pool.device.geometry().blocks();
        let mut free_set = std::collections::HashSet::new();
        for b in self.pool.free_blocks() {
            assert!(free_set.insert(b), "block {b} twice in free list");
            assert!(self.pool.is_free(b), "listed block {b} not marked free");
            assert_eq!(self.role[b as usize], BlockRole::Unassigned);
        }
        for b in 0..blocks {
            match self.role[b as usize] {
                BlockRole::Unassigned => assert_eq!(
                    self.pool.is_free(b),
                    free_set.contains(&b),
                    "free list and membership disagree on block {b}"
                ),
                BlockRole::Primary(v) => {
                    assert_eq!(self.primary[v as usize], b, "primary map mismatch")
                }
                BlockRole::Replacement(v) => assert_eq!(
                    self.repl[v as usize].as_ref().map(|rs| rs.block),
                    Some(b),
                    "replacement table mismatch"
                ),
            }
        }
        assert_eq!(
            self.open_repl,
            self.repl.iter().flatten().count(),
            "open-replacement count drifted from the table"
        );
        let pages = self.pool.device.geometry().pages_per_block() as usize;
        for latest in &self.latest_pool {
            assert_eq!(latest.len(), pages, "pooled buffer of the wrong size");
            assert!(latest.iter().all(|&l| l == 0), "pooled buffer not zeroed");
        }
        for (vba, rs) in (0u32..).zip(&self.repl) {
            let Some(rs) = rs else { continue };
            assert_eq!(self.role[rs.block as usize], BlockRole::Replacement(vba));
            let block = self.pool.device.block(rs.block);
            for (offset, &latest) in rs.latest.iter().enumerate() {
                assert!(
                    latest == 0 || block.page_state(latest - 1).is_valid(),
                    "latest pointer of vba {vba} offset {offset} is stale"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nand::{CellKind, Geometry};

    fn device(blocks: u32, pages: u32) -> NandDevice {
        NandDevice::new(
            Geometry::new(blocks, pages, 2048),
            CellKind::Mlc2.spec().with_endurance(1_000_000),
        )
    }

    fn nftl(blocks: u32, pages: u32) -> BlockMappedNftl {
        BlockMappedNftl::new(device(blocks, pages), NftlConfig::default()).unwrap()
    }

    #[test]
    fn read_your_writes_in_primary() {
        let mut n = nftl(8, 4);
        n.write(0, 10).unwrap();
        n.write(1, 11).unwrap();
        n.write(5, 15).unwrap(); // second virtual block
        assert_eq!(n.read(0).unwrap(), Some(10));
        assert_eq!(n.read(1).unwrap(), Some(11));
        assert_eq!(n.read(5).unwrap(), Some(15));
        assert_eq!(n.read(2).unwrap(), None);
        n.check_consistency();
    }

    #[test]
    fn overwrites_go_to_replacement() {
        let mut n = nftl(8, 4);
        n.write(0, 1).unwrap();
        n.write(0, 2).unwrap();
        n.write(0, 3).unwrap();
        assert_eq!(n.read(0).unwrap(), Some(3));
        assert_eq!(n.open_replacements(), 1);
        n.check_consistency();
    }

    #[test]
    fn paper_figure_2b_scenario() {
        // Figure 2(b): LBAs A=8, B=10, C=14 written 3, 7 and 1 times into a
        // primary + replacement pair (8 pages per block → all in VBA 1).
        let mut n = nftl(8, 8);
        for i in 0..3u64 {
            n.write(8, 100 + i).unwrap();
        }
        for i in 0..7u64 {
            n.write(10, 200 + i).unwrap();
        }
        n.write(14, 300).unwrap();
        assert_eq!(n.read(8).unwrap(), Some(102));
        assert_eq!(n.read(10).unwrap(), Some(206));
        assert_eq!(n.read(14).unwrap(), Some(300));
        n.check_consistency();
    }

    #[test]
    fn full_replacement_triggers_merge() {
        let mut n = nftl(8, 4);
        // 4-page replacement fills after 4 overwrites of offsets in VBA 0.
        n.write(0, 0).unwrap();
        for i in 1..=10u64 {
            n.write(0, i).unwrap();
        }
        assert_eq!(n.read(0).unwrap(), Some(10));
        assert!(n.counters().full_merges > 0, "{:?}", n.counters());
        n.check_consistency();
    }

    #[test]
    fn merge_preserves_sibling_offsets() {
        let mut n = nftl(8, 4);
        // Fill VBA 0 offsets 0..4 with distinct data.
        for off in 0..4u64 {
            n.write(off, 50 + off).unwrap();
        }
        // Hammer offset 1 until merges happen.
        for i in 0..20u64 {
            n.write(1, 1000 + i).unwrap();
        }
        assert_eq!(n.read(0).unwrap(), Some(50));
        assert_eq!(n.read(1).unwrap(), Some(1019));
        assert_eq!(n.read(2).unwrap(), Some(52));
        assert_eq!(n.read(3).unwrap(), Some(53));
        assert!(n.counters().full_merges >= 4);
        n.check_consistency();
    }

    #[test]
    fn lba_bounds_enforced() {
        let mut n = nftl(4, 4);
        let max = n.logical_pages();
        assert!(matches!(
            n.write(max, 0),
            Err(NftlError::LbaOutOfRange { .. })
        ));
        assert!(matches!(n.read(max), Err(NftlError::LbaOutOfRange { .. })));
    }

    #[test]
    fn reserved_blocks_shrink_logical_space() {
        let n = BlockMappedNftl::new(device(8, 4), NftlConfig::default().with_reserved_blocks(3))
            .unwrap();
        assert_eq!(n.logical_pages(), 5 * 4);
    }

    #[test]
    fn gc_merges_under_free_pressure() {
        // 8 blocks, 4 pages; write over several VBAs with overwrites so
        // replacements pile up and GC must merge to stay afloat.
        let mut n =
            BlockMappedNftl::new(device(8, 4), NftlConfig::default().with_reserved_blocks(4))
                .unwrap();
        for round in 0..30u64 {
            for lba in 0..n.logical_pages() {
                n.write(lba, round * 100 + lba).unwrap();
            }
        }
        for lba in 0..n.logical_pages() {
            assert_eq!(n.read(lba).unwrap(), Some(29 * 100 + lba));
        }
        assert!(n.counters().gc_merges + n.counters().full_merges > 0);
        n.check_consistency();
    }

    #[test]
    fn erase_attribution_covers_device() {
        let mut n = nftl(16, 4);
        for round in 0..40u64 {
            for lba in 0..12u64 {
                n.write(lba, round).unwrap();
            }
        }
        assert_eq!(
            n.counters().total_erases(),
            n.device().counters().erases,
            "every device erase must be attributed"
        );
    }

    #[test]
    fn deterministic_behaviour() {
        let run = || {
            let mut n = nftl(16, 4);
            for round in 0..25u64 {
                for lba in 0..20u64 {
                    n.write(lba, round * 31 + lba).unwrap();
                }
            }
            (n.device().erase_counts(), n.counters())
        };
        let (a_counts, a_c) = run();
        let (b_counts, b_c) = run();
        assert_eq!(a_counts, b_counts);
        assert_eq!(a_c, b_c);
    }

    #[test]
    fn retirement_survives_remount_via_bad_block_marker() {
        use nand::FaultPlan;

        let d = device(24, 4).with_fault_plan(FaultPlan::new(5).with_endurance_range(4, 8));
        let mut n = BlockMappedNftl::new(d, NftlConfig::default()).unwrap();
        let mut shadow = std::collections::HashMap::new();
        'work: for round in 0..200u64 {
            for lba in 0..24u64 {
                match n.write(lba, round * 1000 + lba) {
                    Ok(()) => {
                        shadow.insert(lba, round * 1000 + lba);
                    }
                    Err(NftlError::NoReclaimableSpace | NftlError::FreeExhausted) => break 'work,
                    Err(other) => panic!("unexpected error {other}"),
                }
            }
        }
        assert!(n.counters().retired_blocks > 0);
        let retired: Vec<u32> = (0..24)
            .filter(|&b| n.device().block(b).spare(0).is_bad_block_marker())
            .collect();
        assert!(!retired.is_empty(), "retired blocks must carry the marker");

        let mut n = BlockMappedNftl::mount(n.into_device(), NftlConfig::default()).unwrap();
        for (lba, data) in shadow {
            assert_eq!(n.read(lba).unwrap(), Some(data), "lba {lba} after remount");
        }
        n.check_consistency();
    }

    #[test]
    fn power_cut_and_remount_preserve_acked_writes() {
        use nand::FaultPlan;

        // Mini-sweep over early cut points (the exhaustive sweep lives in
        // the workspace-level crash-consistency harness); overwrite-heavy so
        // cuts land inside merges too.
        for cut_at in 0..160u64 {
            for torn in [false, true] {
                let plan = FaultPlan::new(1).with_power_cut(cut_at, torn);
                let d = device(8, 4).with_fault_plan(plan);
                let mut n = BlockMappedNftl::new(d, NftlConfig::default()).unwrap();
                let mut acked = std::collections::HashMap::new();
                let mut in_flight = None;
                let mut cut = false;
                'work: for round in 0..12u64 {
                    for lba in 0..8u64 {
                        let data = round * 100 + lba;
                        in_flight = Some((lba, data));
                        match n.write(lba, data) {
                            Ok(()) => {
                                acked.insert(lba, data);
                            }
                            Err(NftlError::Device(nand::NandError::PowerCut)) => {
                                cut = true;
                                break 'work;
                            }
                            Err(other) => panic!("unexpected error {other}"),
                        }
                    }
                }
                if !cut {
                    continue; // cut point beyond this workload
                }
                let mut dev = n.into_device();
                dev.power_cycle();
                let mut n = BlockMappedNftl::mount(dev, NftlConfig::default())
                    .unwrap_or_else(|e| panic!("mount after cut {cut_at} torn {torn}: {e}"));
                for (&lba, &want) in &acked {
                    let got = n.read(lba).unwrap();
                    let newer = in_flight == Some((lba, got.unwrap_or(u64::MAX)));
                    assert!(
                        got == Some(want) || newer,
                        "cut {cut_at} torn {torn}: lba {lba} read {got:?}, acked {want}"
                    );
                }
                // The layer keeps working after recovery.
                n.write(0, 777_777).unwrap();
                assert_eq!(n.read(0).unwrap(), Some(777_777));
                n.check_consistency();
            }
        }
    }
}
