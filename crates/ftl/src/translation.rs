//! The page-mapping translation layer: allocator, cleaner, SWL hook.

use flash_telemetry::{Cause, Event, NullSink, Sink, SpanKind};
use hotid::MultiHashIdentifier;
use nand::{BlockPool, Mapping, NandDevice, PageAddr, ShellKey, SpareArea, SwlHost, VictimIndex};

use crate::config::FtlConfig;
use crate::error::FtlError;
use crate::snapshot::{self, EpochRanks, MergeState, SnapBook, SnapEntry};

/// Sentinel for "logical page unmapped" in a translation map (the head's
/// and every snapshot's).
pub(crate) const UNMAPPED: u32 = u32::MAX;

/// Which active block a write is steered to under hot/cold separation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stream {
    Cold,
    Hot,
}

/// The page-level mapping: translation table, write frontiers, greedy
/// victim choice and (optionally) copy-on-write snapshots, over the shared
/// [`BlockPool`]. Runs under [`SwlHost`] as [`PageMappedFtl`]; the verbs only
/// this mapping has (trim, snapshots, merge) are its inherent methods.
#[derive(Debug)]
pub struct PageMapping<S: Sink = NullSink> {
    /// The chip, the free ladder and free/retired membership.
    pool: BlockPool<S>,
    config: FtlConfig,
    logical_pages: u64,
    /// Logical page → flat physical page index (`UNMAPPED` when unmapped).
    map: Vec<u32>,
    /// Log-structured write frontier: `(block, next free page)`.
    frontier: Option<(u32, u32)>,
    /// Second frontier for hot data under hot/cold separation.
    hot_frontier: Option<(u32, u32)>,
    /// On-line hot-data identifier, when separation is enabled.
    hot: Option<MultiHashIdentifier>,
    /// Incremental index behind the greedy victim scan.
    victims: VictimIndex,
    /// Cyclic cursor of the greedy victim scan.
    gc_scan: u32,
    free_target: u32,
    /// First block of the snapshot-manifest reserve (`== blocks` when
    /// snapshots are disabled, so `b >= reserved_base` is the reserve test).
    reserved_base: u32,
    /// Copy-on-write snapshot book, when snapshots are enabled.
    snap: Option<SnapBook>,
}

impl<S: Sink> PageMapping<S> {
    /// Builds the RAM tables over `pool_of(device, data_blocks)`.
    fn build(
        device: NandDevice<S>,
        config: FtlConfig,
        pool_of: fn(NandDevice<S>, u32) -> BlockPool<S>,
    ) -> Result<Self, FtlError> {
        let geometry = device.geometry();
        let blocks = geometry.blocks();
        assert!(
            geometry.total_pages() < u64::from(u32::MAX),
            "device too large for the u32 translation table"
        );
        let reserved = config.reserved_blocks();
        assert!(
            reserved < blocks,
            "snapshot manifest reserve ({reserved} blocks) exceeds the chip"
        );
        // Manifest blocks sit at the top of the chip, outside the data area:
        // never in the free ladder, never GC/SWL victims, not exported.
        let data_blocks = blocks - reserved;
        let overprovision = config
            .overprovision_blocks
            .min(data_blocks.saturating_sub(1));
        let logical_pages =
            u64::from(data_blocks - overprovision) * u64::from(geometry.pages_per_block());
        let free_target = config.free_target(blocks);
        let hot = match config.hot_data {
            Some(hd) => Some(MultiHashIdentifier::new(hd).map_err(FtlError::HotData)?),
            None => None,
        };
        let snap = match config.snapshots {
            Some(cfg) => {
                let book = SnapBook::new(cfg, geometry.total_pages() as usize);
                // Even an empty manifest record must fit one buffer.
                if SnapBook::record_words(1, std::iter::empty())
                    > book.buffer_words(geometry.pages_per_block())
                {
                    return Err(FtlError::ManifestFull);
                }
                Some(book)
            }
            None => None,
        };
        Ok(Self {
            map: vec![UNMAPPED; logical_pages as usize],
            pool: pool_of(device, data_blocks),
            victims: VictimIndex::new(blocks),
            frontier: None,
            hot_frontier: None,
            hot,
            gc_scan: 0,
            free_target,
            logical_pages,
            config,
            reserved_base: data_blocks,
            snap,
        })
    }

    fn check_lba(&self, lba: u64) -> Result<(), FtlError> {
        if lba >= self.logical_pages {
            return Err(FtlError::LbaOutOfRange {
                lba,
                logical_pages: self.logical_pages,
            });
        }
        Ok(())
    }

    fn trim_page(&mut self, lba: u64) -> Result<(), FtlError> {
        self.check_lba(lba)?;
        let entry = self.map[lba as usize];
        if entry != UNMAPPED {
            // With snapshots, a pinned page survives the trim (the snapshot
            // still references it); only the head's reference is dropped.
            // Trim is advisory and RAM-only either way: a crash before the
            // page is overwritten can resurrect the mapping at mount.
            self.release_page(entry)?;
            self.map[lba as usize] = UNMAPPED;
        }
        self.pool.counters.trims += 1;
        self.pool.emit(Event::HostTrim { lba });
        Ok(())
    }

    /// Runs the Cleaner until the free pool meets its target (the paper's
    /// "free blocks under 0.2 %" trigger).
    fn ensure_space(&mut self, erased: &mut Vec<u32>) -> Result<(), FtlError> {
        let mut guard = 0u32;
        while (self.pool.free_len() as u32) < self.free_target {
            self.collect_one(Cause::Gc, erased)?;
            guard += 1;
            if guard > self.pool.device.geometry().blocks() * 2 {
                return Err(FtlError::FreeExhausted);
            }
        }
        Ok(())
    }

    /// Next free page of the stream's frontier, opening a fresh block when
    /// needed. Hot/cold separation keeps two active blocks; without it
    /// everything flows through the cold frontier.
    fn alloc_page(&mut self, stream: Stream) -> Result<PageAddr, FtlError> {
        let pages_per_block = self.pool.device.geometry().pages_per_block();
        let frontier = match stream {
            Stream::Cold => &mut self.frontier,
            Stream::Hot => &mut self.hot_frontier,
        };
        match *frontier {
            Some((block, page)) if page < pages_per_block => {
                *frontier = Some((block, page + 1));
                Ok(PageAddr::new(block, page))
            }
            _ => {
                let closed = frontier.map(|(b, _)| b);
                let block = self
                    .pool
                    .pop_freshest_free()
                    .ok_or(FtlError::FreeExhausted)?;
                let frontier = match stream {
                    Stream::Cold => &mut self.frontier,
                    Stream::Hot => &mut self.hot_frontier,
                };
                *frontier = Some((block, 1));
                // The closed block becomes a GC candidate and the fresh one
                // stops being one; keep the victim index in step.
                if let Some(b) = closed {
                    self.refresh_victim(b);
                }
                self.refresh_victim(block);
                Ok(PageAddr::new(block, 0))
            }
        }
    }

    /// Programs one page at the stream's frontier, retrying with a remap
    /// when the device reports an injected program failure: the grown-bad
    /// frontier block is closed (its valid pages become a normal GC victim,
    /// and its eventual erase failure retires it) and the write moves to a
    /// fresh frontier. Terminates because every retry consumes a free block
    /// and [`Self::alloc_page`] fails once the pool runs dry.
    fn program_remap(
        &mut self,
        stream: Stream,
        data: u64,
        lba: u64,
        epoch: u32,
    ) -> Result<PageAddr, FtlError> {
        loop {
            let dst = self.alloc_page(stream)?;
            // Epoch 0 is `STATUS_LIVE`: without snapshots this is exactly
            // `SpareArea::valid(lba)`.
            match self
                .pool
                .device
                .program(dst, data, SpareArea::with_status(lba, epoch))
            {
                Ok(()) => return Ok(dst),
                Err(nand::NandError::ProgramFailed { .. }) => {
                    if self.frontier.map(|(b, _)| b) == Some(dst.block) {
                        self.frontier = None;
                    }
                    if self.hot_frontier.map(|(b, _)| b) == Some(dst.block) {
                        self.hot_frontier = None;
                    }
                    self.refresh_victim(dst.block);
                }
                Err(other) => return Err(other.into()),
            }
        }
    }

    /// Drops one mapping-set reference from flat page `p`, device-
    /// invalidating it (and re-reporting its block to the victim index)
    /// when it becomes unreferenced. A snapshot-free FTL invalidates
    /// unconditionally: every mapped page has exactly one reference.
    fn release_page(&mut self, p: u32) -> Result<(), FtlError> {
        let gone = match self.snap.as_mut() {
            Some(book) => book.decref(p),
            None => true,
        };
        if gone {
            let addr = PageAddr::from_flat_index(&self.pool.device.geometry(), u64::from(p));
            self.pool.device.invalidate(addr)?;
            self.refresh_victim(addr.block);
        }
        Ok(())
    }

    /// The bulk form of [`Self::release_page`] behind delete, clone and
    /// merge-commit: drops one reference from every mapped page `pages`
    /// yields, device-invalidates each page that becomes unreferenced, and
    /// then re-reports every touched block to the victim index once — also
    /// when an invalidation fails partway, so the pages already released
    /// are reported. Release order cannot matter: a release only ever
    /// raises a block's invalid count.
    fn release_all(&mut self, pages: impl IntoIterator<Item = u32>) -> Result<(), FtlError> {
        let geometry = self.pool.device.geometry();
        let mut touched = vec![false; geometry.blocks() as usize];
        let mut result = Ok(());
        let Self { snap, pool, .. } = self;
        let book = snap.as_mut().expect("bulk releases are snapshot verbs");
        for p in pages.into_iter().filter(|&p| p != UNMAPPED) {
            if !book.decref(p) {
                continue;
            }
            let addr = PageAddr::from_flat_index(&geometry, u64::from(p));
            if let Err(e) = pool.device.invalidate(addr) {
                result = Err(e.into());
                break;
            }
            touched[addr.block as usize] = true;
        }
        for block in (0..geometry.blocks()).filter(|&b| touched[b as usize]) {
            self.refresh_victim(block);
        }
        result
    }

    /// Re-reports one block to the victim index. Must be called after any
    /// event that may change the block's GC stats or eligibility: page
    /// invalidation, erase, retirement, or a frontier opening/closing on it.
    fn refresh_victim(&mut self, block: u32) {
        let eligible = self.pool.in_use(block)
            && block < self.reserved_base
            && self.frontier.map(|(b, _)| b) != Some(block)
            && self.hot_frontier.map(|(b, _)| b) != Some(block);
        let (invalid, valid) = {
            let blk = self.pool.device.block(block);
            (blk.invalid_pages(), blk.valid_pages())
        };
        self.victims.update(block, eligible, invalid, valid);
    }

    /// The pre-index linear victim scan, kept as the oracle the incremental
    /// [`VictimIndex`] is checked against under `debug_assertions`. Pure:
    /// does not advance `gc_scan`.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn reference_select_victim(&self) -> Option<u32> {
        let blocks = self.pool.device.geometry().blocks();
        let frontier_block = self.frontier.map(|(b, _)| b);
        let hot_frontier_block = self.hot_frontier.map(|(b, _)| b);
        let mut fallback: Option<(u32, u32)> = None; // (invalid, block)
        for step in 0..blocks {
            let b = (self.gc_scan + step) % blocks;
            if !self.pool.in_use(b)
                || b >= self.reserved_base
                || Some(b) == frontier_block
                || Some(b) == hot_frontier_block
            {
                continue;
            }
            let blk = self.pool.device.block(b);
            let invalid = blk.invalid_pages();
            if invalid == 0 {
                continue;
            }
            if invalid > blk.valid_pages() {
                return Some(b);
            }
            if fallback.is_none_or(|(best, _)| invalid > best) {
                fallback = Some((invalid, b));
            }
        }
        fallback.map(|(_, b)| b)
    }

    /// Greedy cost/benefit victim selection, cyclic from `gc_scan`: the
    /// first block whose invalid pages (benefit) outnumber its valid pages
    /// (cost); if none qualifies, the block with the most invalid pages.
    /// Answered by the incremental [`VictimIndex`] instead of a linear scan.
    fn select_victim(&mut self) -> Result<u32, FtlError> {
        let blocks = self.pool.device.geometry().blocks();
        let choice = self.victims.select(self.gc_scan);
        debug_assert_eq!(
            choice,
            self.reference_select_victim(),
            "victim index diverged from the linear-scan oracle"
        );
        if let Some(b) = choice {
            self.gc_scan = (b + 1) % blocks;
            return Ok(b);
        }
        // Last resort: a frontier itself may be the only block holding
        // invalid pages (tiny chips, trim-heavy workloads). Close it and
        // recycle it.
        if let Some(b) = self.frontier.map(|(b, _)| b) {
            if self.pool.device.block(b).invalid_pages() > 0 {
                self.frontier = None;
                self.refresh_victim(b);
                self.gc_scan = (b + 1) % blocks;
                return Ok(b);
            }
        }
        if let Some(b) = self.hot_frontier.map(|(b, _)| b) {
            if self.pool.device.block(b).invalid_pages() > 0 {
                self.hot_frontier = None;
                self.refresh_victim(b);
                self.gc_scan = (b + 1) % blocks;
                return Ok(b);
            }
        }
        Err(FtlError::NoReclaimableSpace)
    }

    /// One GC episode under a `gc` span: victim pick, relocation, erase.
    /// When SWL's Cleaner runs GC to refill the pool mid-pass, the span
    /// nests under the `swl` span and the episode's *device time* is still
    /// charged to `gc` (innermost-span attribution), while its erases and
    /// copies are counted against the `cause` the caller passes — SWL's.
    fn collect_one(&mut self, cause: Cause, erased: &mut Vec<u32>) -> Result<(), FtlError> {
        self.spanned(SpanKind::Gc, |m| {
            let victim = m.select_victim()?;
            m.pool.counters.gc_collections += 1;
            if S::ENABLED {
                let (invalid, valid) = {
                    let blk = m.pool.device.block(victim);
                    (blk.invalid_pages(), blk.valid_pages())
                };
                let free_depth = m.pool.free_len() as u32;
                let candidates = m.victims.candidates();
                m.pool.emit(Event::GcPick {
                    key: victim,
                    invalid,
                    valid,
                    free_depth,
                    candidates,
                });
            }
            m.relocate_and_erase(victim, cause, erased)
        })
    }

    /// Copies every valid page out of `victim`, erases it and returns it to
    /// the free pool, all charged to `cause`. Erases are appended to `erased`
    /// for SWL-BETUpdate.
    fn relocate_and_erase(
        &mut self,
        victim: u32,
        cause: Cause,
        erased: &mut Vec<u32>,
    ) -> Result<(), FtlError> {
        let result = self.relocate_and_erase_inner(victim, cause, erased);
        if result.is_err() {
            // A failed relocation leaves the victim with changed page stats
            // (pages invalidated, a frontier possibly closed) that the happy
            // path would have re-reported from erase_and_free. Refresh
            // here so a caller that survives the error (e.g. out-of-space
            // during GC) still sees the index in lock-step with the oracle.
            self.refresh_victim(victim);
        }
        result
    }

    fn relocate_and_erase_inner(
        &mut self,
        victim: u32,
        cause: Cause,
        erased: &mut Vec<u32>,
    ) -> Result<(), FtlError> {
        if self.frontier.map(|(b, _)| b) == Some(victim) {
            // Only reachable through the SW Leveler (regular GC skips the
            // frontiers); abandon the remaining free pages of the frontier.
            self.frontier = None;
        }
        if self.hot_frontier.map(|(b, _)| b) == Some(victim) {
            self.hot_frontier = None;
        }
        let geometry = self.pool.device.geometry();
        for page in 0..geometry.pages_per_block() {
            let block = self.pool.device.block(victim);
            // Every live page has moved: the rest of the block is stale or
            // free, so there is nothing left to test.
            if block.valid_pages() == 0 {
                break;
            }
            if !block.page_state(page).is_valid() {
                continue;
            }
            let src = PageAddr::new(victim, page);
            let content = self.pool.device.read(src)?;
            let lba = content
                .spare
                .lba()
                .ok_or(FtlError::CorruptSpare { addr: src })?;
            // GC survivors are cold by construction: they outlived their
            // whole block. The spare status (snapshot epoch) rides along, so
            // a relocated page still resolves into the same mapping sets.
            let epoch = content.spare.status();
            let dst = self.program_remap(Stream::Cold, content.data, lba, epoch)?;
            self.pool.device.invalidate(src)?;
            let src_flat = src.flat_index(&geometry) as u32;
            let dst_flat = dst.flat_index(&geometry) as u32;
            let Self { map, snap, .. } = self;
            match snap.as_mut() {
                Some(book) => {
                    // A shared page is copied once and re-pinned: every
                    // mapping set (head, snapshots, pending merge decrefs)
                    // that referenced the source follows to the copy, and
                    // the whole refcount transfers.
                    if map[lba as usize] == src_flat {
                        map[lba as usize] = dst_flat;
                    }
                    for s in &mut book.snaps {
                        if s.map[lba as usize] == src_flat {
                            s.map[lba as usize] = dst_flat;
                        }
                    }
                    if let Some(m) = book.merge.as_mut() {
                        for p in &mut m.pending {
                            if *p == src_flat {
                                *p = dst_flat;
                            }
                        }
                    }
                    book.refs[dst_flat as usize] = book.refs[src_flat as usize];
                    book.refs[src_flat as usize] = 0;
                    book.epoch_of[dst_flat as usize] = epoch;
                }
                None => map[lba as usize] = dst_flat,
            }
            self.pool.record_live_copy(victim, dst.block, cause);
        }
        self.erase_and_free(victim, cause, erased)
    }

    /// Erases `block` (which must hold no valid pages) through the pool —
    /// freed, or retired if it refuses to erase — and re-reports it to the
    /// victim index either way.
    fn erase_and_free(
        &mut self,
        block: u32,
        cause: Cause,
        erased: &mut Vec<u32>,
    ) -> Result<(), FtlError> {
        debug_assert_eq!(self.pool.device.block(block).valid_pages(), 0);
        self.pool.erase_and_free(block, cause, erased)?;
        self.refresh_victim(block);
        Ok(())
    }

    /// Parses both manifest buffers and restores the epoch lists of the
    /// newest valid record. Reads go through the device (they pay bus
    /// latency and count as reads); a torn, partial, or never-committed
    /// buffer fails its checksum and is ignored. With no valid buffer the
    /// book stays fresh — which is also the snapshots-never-used state.
    fn load_manifest(&mut self) -> Result<(), FtlError> {
        let ppb = self.pool.device.geometry().pages_per_block();
        let logical_pages = self.logical_pages as usize;
        let mb = self
            .snap
            .as_ref()
            .expect("snapshot mode")
            .cfg
            .manifest_blocks;
        let mut newest: Option<(u32, snapshot::ManifestRecord)> = None;
        for buf in 0..2u32 {
            let mut words = Vec::new();
            'record: for i in 0..mb {
                let block = self.reserved_base + buf * mb + i;
                for page in 0..ppb {
                    if !self.pool.device.block(block).page_state(page).is_valid() {
                        break 'record;
                    }
                    match self.pool.device.read(PageAddr::new(block, page)) {
                        Ok(r) => words.push(r.data),
                        Err(_) => break 'record,
                    }
                }
            }
            if let Some(record) = snapshot::decode(&words) {
                if newest.as_ref().is_none_or(|(_, n)| record.seq > n.seq) {
                    newest = Some((buf, record));
                }
            }
        }
        if let Some((buf, record)) = newest {
            let book = self.snap.as_mut().expect("snapshot mode");
            book.next_buffer = 1 - buf;
            book.restore(record, logical_pages);
        }
        Ok(())
    }

    /// Writes the book's epoch lists to the standby manifest buffer: erase
    /// it, program the record, and program the trailing checksum word
    /// *last* — the checksum is the commit point, so a power cut anywhere
    /// mid-commit leaves the other buffer's older record in force.
    /// Manifest erases are deliberately not reported to SWL-BETUpdate (the
    /// reserve sits outside the leveler's jurisdiction), though they do
    /// count in the device's erase statistics.
    fn commit_manifest(&mut self) -> Result<(), FtlError> {
        let ppb = self.pool.device.geometry().pages_per_block();
        let (words, mb, next) = {
            let book = self.snap.as_ref().expect("snapshot mode");
            let words = book.encode();
            debug_assert!(
                words.len() <= book.buffer_words(ppb),
                "snapshot verbs pre-check manifest capacity"
            );
            (words, book.cfg.manifest_blocks, book.next_buffer)
        };
        let base = self.reserved_base + next * mb;
        for b in base..base + mb {
            self.pool.device.erase_as(b, Cause::External)?;
        }
        for (i, &w) in words.iter().enumerate() {
            let addr = PageAddr::new(base + i as u32 / ppb, i as u32 % ppb);
            self.pool
                .device
                .program(addr, w, SpareArea::metadata(snapshot::MANIFEST_STATUS))?;
        }
        let book = self.snap.as_mut().expect("snapshot mode");
        book.seq += 1;
        book.next_buffer = 1 - book.next_buffer;
        Ok(())
    }

    /// Would a manifest record with these epoch-list shapes fit one buffer?
    fn manifest_fits(&self, head_len: usize, snap_lens: impl Iterator<Item = usize>) -> bool {
        let book = self.snap.as_ref().expect("snapshot mode");
        SnapBook::record_words(head_len, snap_lens)
            <= book.buffer_words(self.pool.device.geometry().pages_per_block())
    }

    fn create_snapshot(&mut self, id: u64) -> Result<(), FtlError> {
        let book = self.snap.as_ref().ok_or(FtlError::SnapshotsDisabled)?;
        if book.merge.is_some() {
            return Err(FtlError::MergeInProgress);
        }
        if book.snap_index(id).is_some() {
            return Err(FtlError::SnapshotExists { id });
        }
        let head_len = book.head_epochs.len();
        if !self.manifest_fits(
            head_len + 1,
            book.snaps.iter().map(|s| s.epochs.len()).chain([head_len]),
        ) {
            return Err(FtlError::ManifestFull);
        }
        let Self { snap, map, .. } = self;
        let book = snap.as_mut().expect("snapshot mode");
        let epoch = book.next_epoch();
        // The snapshot inherits the head's exact map (one new reference per
        // page) and its exact epoch history; the head moves to a fresh
        // epoch, so post-snapshot writes never resolve into the snapshot.
        let map = snapshot::pin_copy(&mut book.refs, map);
        book.snaps.push(SnapEntry {
            id,
            epochs: book.head_epochs.clone(),
            map,
        });
        book.head_epochs.insert(0, epoch);
        self.commit_manifest()
    }

    fn delete_snapshot(&mut self, id: u64) -> Result<(), FtlError> {
        let book = self.snap.as_mut().ok_or(FtlError::SnapshotsDisabled)?;
        if book.merge.is_some() {
            return Err(FtlError::MergeInProgress);
        }
        let idx = book
            .snap_index(id)
            .ok_or(FtlError::UnknownSnapshot { id })?;
        let s = book.snaps.remove(idx);
        // Commit first: past the commit point the snapshot is gone from the
        // manifest, and a page it alone pinned is an orphan. A crash before
        // the invalidations below is harmless — mount cleanup applies the
        // same invalidations to every orphan it finds.
        self.commit_manifest()?;
        self.release_all(s.map)
    }

    /// Rolls the head back to snapshot `id` (a writable clone of it): the
    /// head adopts the snapshot's map and history under a fresh epoch, and
    /// every page only the old head referenced is released.
    fn clone_snapshot(&mut self, id: u64) -> Result<(), FtlError> {
        let book = self.snap.as_ref().ok_or(FtlError::SnapshotsDisabled)?;
        if book.merge.is_some() {
            return Err(FtlError::MergeInProgress);
        }
        let idx = book
            .snap_index(id)
            .ok_or(FtlError::UnknownSnapshot { id })?;
        if !self.manifest_fits(
            book.snaps[idx].epochs.len() + 1,
            book.snaps.iter().map(|s| s.epochs.len()),
        ) {
            return Err(FtlError::ManifestFull);
        }
        let Self { snap, map, .. } = self;
        let book = snap.as_mut().expect("snapshot mode");
        let epoch = book.next_epoch();
        let new_map = snapshot::pin_copy(&mut book.refs, &book.snaps[idx].map);
        book.head_epochs = snapshot::prepend_epoch(epoch, &book.snaps[idx].epochs);
        let old_map = std::mem::replace(map, new_map);
        self.commit_manifest()?;
        self.release_all(old_map)
    }

    /// Opens an online merge of snapshot `id` into the head. The manifest
    /// commit here is the origin-side atomic point: until `merge_commit`'s
    /// own commit lands, a crash resolves to the origin plus post-begin
    /// acked writes (the merge steps never touch flash), afterwards to the
    /// merged device — never a hybrid.
    fn begin_merge(&mut self, id: u64) -> Result<(), FtlError> {
        let book = self.snap.as_ref().ok_or(FtlError::SnapshotsDisabled)?;
        if book.merge.is_some() {
            return Err(FtlError::MergeInProgress);
        }
        if book.snap_index(id).is_none() {
            return Err(FtlError::UnknownSnapshot { id });
        }
        if !self.manifest_fits(
            book.head_epochs.len() + 1,
            book.snaps.iter().map(|s| s.epochs.len()),
        ) {
            return Err(FtlError::ManifestFull);
        }
        let book = self.snap.as_mut().expect("snapshot mode");
        let epoch = book.next_epoch();
        book.head_epochs.insert(0, epoch);
        self.commit_manifest()?;
        let book = self.snap.as_mut().expect("snapshot mode");
        book.merge = Some(MergeState {
            snap_id: id,
            epoch,
            cursor: 0,
            pending: Vec::new(),
        });
        Ok(())
    }

    /// Advances the online merge across the next `max_lbas` logical pages,
    /// overlaying the snapshot's mappings onto the head. Pure RAM — no
    /// flash operation until `merge_commit` applies the deferred releases —
    /// so host writes can be interleaved between steps; LBAs the host
    /// rewrites after `merge_begin` (stamped with the merge epoch) keep the
    /// live data. A step reads both maps over its window only, so it costs
    /// O(`max_lbas`) wherever the next mapping lies.
    /// Returns `true` once the cursor has covered the whole logical space.
    fn step_merge(&mut self, max_lbas: u64) -> Result<bool, FtlError> {
        let logical_pages = self.logical_pages;
        let Self { snap, map, .. } = self;
        let book = snap.as_mut().ok_or(FtlError::SnapshotsDisabled)?;
        let Some(m) = book.merge.as_ref() else {
            return Err(FtlError::NoMergeInProgress);
        };
        let (snap_id, epoch, cursor) = (m.snap_id, m.epoch, m.cursor);
        let end = cursor.saturating_add(max_lbas.max(1)).min(logical_pages);
        let idx = book
            .snap_index(snap_id)
            .expect("merge target is delete-locked");
        let snap_map = &book.snaps[idx].map;
        let m = book.merge.as_mut().expect("in merge");
        for lba in cursor as usize..end as usize {
            let (p, old) = (snap_map[lba], map[lba]);
            // Nothing to overlay, the head already shares this page with
            // the snapshot, or the host rewrote the LBA after merge_begin.
            if p == UNMAPPED
                || p == old
                || (old != UNMAPPED && book.epoch_of[old as usize] == epoch)
            {
                continue;
            }
            book.refs[p as usize] += 1;
            map[lba] = p;
            if old != UNMAPPED {
                // Deferred: the displaced origin page keeps its reference
                // (and stays valid on flash) until merge_commit, so a crash
                // mid-merge still resolves to the origin.
                m.pending.push(old);
            }
        }
        m.cursor = end;
        Ok(end >= logical_pages)
    }

    /// Commits the online merge: the snapshot's epoch history is spliced
    /// into the head's (post-begin writes ranked first, then the snapshot,
    /// then the old head history — matching what the steps built in RAM),
    /// the snapshot is dropped from the manifest, and the snapshot's
    /// references and the deferred releases go in one bulk pass.
    fn commit_merge(&mut self) -> Result<(), FtlError> {
        let book = self.snap.as_mut().ok_or(FtlError::SnapshotsDisabled)?;
        let m = book.merge.take().ok_or(FtlError::NoMergeInProgress)?;
        let idx = book
            .snap_index(m.snap_id)
            .expect("merge target is delete-locked");
        let s = book.snaps.remove(idx);
        debug_assert_eq!(book.head_epochs[0], m.epoch);
        // No capacity pre-check: dropping the snapshot's id/len/list words
        // always outweighs the epochs spliced into the head list, so the
        // record shrinks.
        let merged =
            snapshot::splice_epochs(&[&book.head_epochs[..1], &s.epochs, &book.head_epochs[1..]]);
        book.head_epochs = merged;
        self.commit_manifest()?;
        self.release_all(s.map.into_iter().chain(m.pending))
    }

    fn snapshot_read(&mut self, id: u64, lba: u64) -> Result<Option<u64>, FtlError> {
        self.check_lba(lba)?;
        let book = self.snap.as_ref().ok_or(FtlError::SnapshotsDisabled)?;
        let idx = book
            .snap_index(id)
            .ok_or(FtlError::UnknownSnapshot { id })?;
        let entry = book.snaps[idx].map[lba as usize];
        if entry == UNMAPPED {
            return Ok(None);
        }
        let addr = PageAddr::from_flat_index(&self.pool.device.geometry(), u64::from(entry));
        Ok(Some(self.pool.device.read(addr)?.data))
    }
}

impl<S: Sink> Mapping for PageMapping<S> {
    type Sink = S;
    type Config = FtlConfig;
    type Error = FtlError;

    fn new(device: NandDevice<S>, config: FtlConfig) -> Result<Self, FtlError> {
        Self::build(device, config, BlockPool::new)
    }

    /// Rebuilds the translation table from the spare areas of an existing
    /// chip — the firmware mount path. Partially written blocks are left
    /// closed (their free pages are reclaimed when GC erases them); the
    /// write frontier restarts on a fresh block.
    fn mount(device: NandDevice<S>, config: FtlConfig) -> Result<Self, FtlError> {
        let mut inner = Self::build(device, config, BlockPool::mount)?;
        if inner.snap.is_some() {
            inner.load_manifest()?;
        }
        let geometry = inner.pool.device.geometry();
        // With snapshots, several mapping sets (the head plus every
        // snapshot) resolve concurrently: a valid page belongs to each set
        // whose epoch list contains the page's epoch, and within a set the
        // earliest-ranked epoch wins an LBA. Without snapshots there is one
        // set whose only epoch is 0, and any duplicate is a conflict.
        let ranks: Option<(EpochRanks, Vec<EpochRanks>)> = inner.snap.as_ref().map(|book| {
            (
                EpochRanks::new(&book.head_epochs),
                book.snaps
                    .iter()
                    .map(|s| EpochRanks::new(&s.epochs))
                    .collect(),
            )
        });
        let snap_count = inner.snap.as_ref().map_or(0, |b| b.snaps.len());
        // best[0] = head candidates, best[1..] = per-snapshot candidates:
        // lba → (rank, flat page).
        let mut best: Vec<Vec<Option<(u32, u32)>>> =
            vec![vec![None; inner.logical_pages as usize]; 1 + snap_count];
        // Spare-status epoch of every valid page, gathered during the scan
        // so the apply phase never re-reads spares.
        let mut epoch_scratch = vec![0u32; geometry.total_pages() as usize];
        for b in 0..inner.reserved_base {
            // The pool already rediscovered the retired blocks (their marker
            // survives on flash; they hold nothing that needs mapping) and
            // the fully erased ones.
            if !inner.pool.in_use(b) {
                continue;
            }
            let block = inner.pool.device.block(b);
            for (page, state) in block.page_states() {
                if !state.is_valid() {
                    continue;
                }
                let addr = PageAddr::new(b, page);
                let spare = block.spare(page);
                let lba = spare.lba().ok_or(FtlError::CorruptSpare { addr })?;
                if lba >= inner.logical_pages {
                    return Err(FtlError::CorruptSpare { addr });
                }
                let flat = addr.flat_index(&geometry) as u32;
                let Some((head_ranks, snap_ranks)) = ranks.as_ref() else {
                    if inner.map[lba as usize] != UNMAPPED {
                        return Err(FtlError::MountConflict { lba });
                    }
                    inner.map[lba as usize] = flat;
                    continue;
                };
                epoch_scratch[flat as usize] = spare.status();
                for (mi, r) in std::iter::once(head_ranks)
                    .chain(snap_ranks.iter())
                    .enumerate()
                {
                    let Some(rank) = r.rank(spare.status()) else {
                        continue;
                    };
                    let slot = &mut best[mi][lba as usize];
                    match *slot {
                        // Two valid pages in the same epoch claiming one
                        // LBA: corruption, exactly like the plain conflict.
                        Some((prev, _)) if prev == rank => {
                            return Err(FtlError::MountConflict { lba });
                        }
                        Some((prev, _)) if prev < rank => {}
                        _ => *slot = Some((rank, flat)),
                    }
                }
            }
        }
        if inner.snap.is_some() {
            let Self { snap, map, .. } = &mut inner;
            let book = snap.as_mut().expect("snapshot mode");
            book.epoch_of = epoch_scratch;
            let mut maps = best.into_iter();
            for (lba, slot) in maps
                .next()
                .expect("head candidates")
                .into_iter()
                .enumerate()
            {
                if let Some((_, flat)) = slot {
                    map[lba] = flat;
                    book.refs[flat as usize] += 1;
                }
            }
            for (si, candidates) in maps.enumerate() {
                for (lba, slot) in candidates.into_iter().enumerate() {
                    if let Some((_, flat)) = slot {
                        book.snaps[si].map[lba] = flat;
                        book.refs[flat as usize] += 1;
                    }
                }
            }
            // Cleanup: a valid page no mapping set references is an orphan —
            // an invalidation lost to a power cut (e.g. between a manifest
            // commit and its deferred invalidations). Finish the job; the
            // invalidate is an uncuttable spare-status program.
            let reserved_base = inner.reserved_base;
            for b in 0..reserved_base {
                for page in 0..geometry.pages_per_block() {
                    if !inner.pool.device.block(b).page_state(page).is_valid() {
                        continue;
                    }
                    let addr = PageAddr::new(b, page);
                    let flat = addr.flat_index(&geometry) as usize;
                    if inner.snap.as_ref().expect("snapshot mode").refs[flat] == 0 {
                        inner.pool.device.invalidate(addr)?;
                    }
                }
            }
        }
        for b in 0..geometry.blocks() {
            inner.refresh_victim(b);
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
    ) -> Result<(), FtlError> {
        self.check_lba(lba)?;
        match self.ensure_space(erased) {
            Ok(()) => {}
            // Below the free target with nothing reclaimable yet: keep
            // writing into the reserve and fail only when allocation is
            // truly impossible.
            Err(FtlError::NoReclaimableSpace) => {
                let pages_per_block = self.pool.device.geometry().pages_per_block();
                let frontier_has_room = matches!(self.frontier, Some((_, p)) if p < pages_per_block)
                    || matches!(self.hot_frontier, Some((_, p)) if p < pages_per_block);
                if !frontier_has_room && self.pool.free_len() == 0 {
                    return Err(FtlError::NoReclaimableSpace);
                }
            }
            Err(other) => return Err(other),
        }
        let stream = match self.hot.as_mut() {
            Some(identifier) => {
                if identifier.record_write(lba) {
                    Stream::Hot
                } else {
                    Stream::Cold
                }
            }
            None => Stream::Cold,
        };
        let epoch = self.snap.as_ref().map_or(0, SnapBook::head_epoch);
        let dst = self.program_remap(stream, data, lba, epoch)?;
        let flat = dst.flat_index(&self.pool.device.geometry()) as u32;
        if let Some(book) = self.snap.as_mut() {
            book.refs[flat as usize] += 1;
            book.epoch_of[flat as usize] = epoch;
        }
        let old = self.map[lba as usize];
        if old != UNMAPPED {
            self.release_page(old)?;
        }
        self.map[lba as usize] = flat;
        self.pool.counters.host_writes += 1;
        self.pool.emit(Event::HostWrite { lba });
        Ok(())
    }

    #[inline]
    fn host_read(&mut self, _: ShellKey, lba: u64) -> Result<Option<u64>, FtlError> {
        self.check_lba(lba)?;
        self.pool.counters.host_reads += 1;
        self.pool.emit(Event::HostRead { lba });
        let entry = self.map[lba as usize];
        if entry == UNMAPPED {
            return Ok(None);
        }
        let addr = PageAddr::from_flat_index(&self.pool.device.geometry(), u64::from(entry));
        Ok(Some(self.pool.device.read(addr)?.data))
    }

    /// Data blocks are relocated and erased, free blocks are erased in place.
    /// Everything here — including a GC episode run to refill an empty pool
    /// before the relocation — is charged to SWL; the NFTL charges that
    /// refill to GC instead.
    fn recycle_block(
        &mut self,
        _: ShellKey,
        b: u32,
        erased: &mut Vec<u32>,
    ) -> Result<(), FtlError> {
        // Retired blocks and the snapshot-manifest reserve are out of
        // circulation; SWL skips them like the BET's other permanently idle
        // entries.
        if self.pool.is_retired(b) || b >= self.reserved_base {
            return Ok(());
        }
        if self.frontier.map(|(fb, _)| fb) == Some(b) {
            self.frontier = None;
            self.refresh_victim(b);
        }
        if self.hot_frontier.map(|(fb, _)| fb) == Some(b) {
            self.hot_frontier = None;
            self.refresh_victim(b);
        }
        if !self.pool.is_free(b) {
            // Relocation needs at least one free block to copy into.
            if self.pool.free_len() == 0 {
                self.collect_one(Cause::Swl, erased)?;
            }
            if !self.pool.is_free(b) {
                return self.relocate_and_erase(b, Cause::Swl, erased);
            }
        }
        // Free block: erase in place.
        self.erase_and_free(b, Cause::Swl, erased)
    }
}

/// A page-mapping FTL with an optional static wear leveler: the
/// [`PageMapping`] under the shared [`SwlHost`] shell.
///
/// Generic over a telemetry [`Sink`] inherited from the device it is built
/// on; the default [`NullSink`] compiles all emission sites out.
///
/// See the [crate-level documentation](crate) for the design and an example.
pub type PageMappedFtl<S = NullSink> = SwlHost<PageMapping<S>>;

/// Point-in-time refcount audit of the snapshot book, exposed for the
/// invariant test suites.
///
/// The governing identity is `refcount_sum == mapping_count +
/// pending_merge`: every reference a physical page holds is explained
/// either by a mapping set (head or snapshot) pointing at it, or by the
/// in-flight merge's deferred-release list keeping a displaced origin page
/// alive until `merge_commit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotAudit {
    /// Sum of the per-physical-page reference counts.
    pub refcount_sum: u64,
    /// Mapped entries across the head map and every snapshot map.
    pub mapping_count: u64,
    /// Displaced origin pages held by the in-flight merge (0 when idle).
    pub pending_merge: u64,
    /// Number of live snapshots.
    pub snapshots: usize,
}

impl<S: Sink> PageMapping<S> {
    /// Discards logical page `lba` (TRIM): subsequent reads return `None`
    /// and the physical page becomes reclaimable without a copy.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::LbaOutOfRange`] for bad addresses.
    pub fn trim(&mut self, lba: u64) -> Result<(), FtlError> {
        self.spanned(SpanKind::HostTrim, |m| m.trim_page(lba))
    }

    /// The hot-data identifier, when hot/cold separation is enabled.
    pub fn hot_data(&self) -> Option<&MultiHashIdentifier> {
        self.hot.as_ref()
    }

    /// The configuration in effect.
    pub fn config(&self) -> FtlConfig {
        self.config
    }

    /// Fraction of physical pages currently holding valid data.
    pub fn utilization(&self) -> f64 {
        let geometry = self.pool.device.geometry();
        let valid: u64 = (0..geometry.blocks())
            .map(|b| u64::from(self.pool.device.block(b).valid_pages()))
            .sum();
        valid as f64 / geometry.total_pages() as f64
    }

    /// Audit: every mapped page is valid on-device with a matching spare-area
    /// LBA, and no two LBAs share a physical page; panics on any violation.
    /// Intended for tests — it walks every mapped page.
    pub fn check_consistency(&self) {
        let geometry = self.pool.device.geometry();
        let mut seen = std::collections::HashSet::new();
        for (lba, &entry) in self.map.iter().enumerate() {
            if entry == UNMAPPED {
                continue;
            }
            assert!(seen.insert(entry), "two lbas map to flat page {entry}");
            let addr = PageAddr::from_flat_index(&geometry, u64::from(entry));
            let block = self.pool.device.block(addr.block);
            assert!(
                block.page_state(addr.page).is_valid(),
                "lba {lba} maps to non-valid page {addr}"
            );
            let spare = block.spare(addr.page);
            assert_eq!(spare.lba(), Some(lba as u64), "spare mismatch at {addr}");
        }
    }

    /// Creates snapshot `id`: a durable, read-only, copy-on-write image of
    /// the current logical contents. O(logical pages) RAM and one manifest
    /// commit; no data pages are copied.
    ///
    /// # Errors
    ///
    /// [`FtlError::SnapshotsDisabled`] without [`SnapshotConfig`](crate::SnapshotConfig),
    /// [`FtlError::SnapshotExists`] on a duplicate id,
    /// [`FtlError::MergeInProgress`] while a merge is in flight,
    /// [`FtlError::ManifestFull`] when the record would not fit, or a device
    /// error from the manifest commit.
    pub fn snapshot_create(&mut self, id: u64) -> Result<(), FtlError> {
        self.spanned(SpanKind::Merge, |m| m.create_snapshot(id))
    }

    /// Deletes snapshot `id`, releasing every page only it referenced.
    ///
    /// # Errors
    ///
    /// [`FtlError::SnapshotsDisabled`], [`FtlError::UnknownSnapshot`],
    /// [`FtlError::MergeInProgress`], or a device error.
    pub fn snapshot_delete(&mut self, id: u64) -> Result<(), FtlError> {
        self.spanned(SpanKind::Merge, |m| m.delete_snapshot(id))
    }

    /// Rolls the live image back to snapshot `id` (a writable clone of it).
    /// The snapshot itself survives and can be cloned again.
    ///
    /// # Errors
    ///
    /// [`FtlError::SnapshotsDisabled`], [`FtlError::UnknownSnapshot`],
    /// [`FtlError::MergeInProgress`], [`FtlError::ManifestFull`], or a
    /// device error.
    pub fn snapshot_clone(&mut self, id: u64) -> Result<(), FtlError> {
        self.spanned(SpanKind::Merge, |m| m.clone_snapshot(id))
    }

    /// Begins an online merge of snapshot `id` into the live image. Drive
    /// it with [`Self::merge_step`] and seal it with [`Self::merge_commit`];
    /// host writes may be interleaved and always beat the snapshot.
    ///
    /// # Errors
    ///
    /// [`FtlError::SnapshotsDisabled`], [`FtlError::UnknownSnapshot`],
    /// [`FtlError::MergeInProgress`], [`FtlError::ManifestFull`], or a
    /// device error from the begin-point manifest commit.
    pub fn merge_begin(&mut self, id: u64) -> Result<(), FtlError> {
        self.spanned(SpanKind::Merge, |m| m.begin_merge(id))
    }

    /// Advances the online merge over up to `max_lbas` logical pages.
    /// Returns `true` once the whole logical space has been covered (then
    /// call [`Self::merge_commit`]).
    ///
    /// # Errors
    ///
    /// [`FtlError::SnapshotsDisabled`] or [`FtlError::NoMergeInProgress`].
    pub fn merge_step(&mut self, max_lbas: u64) -> Result<bool, FtlError> {
        self.spanned(SpanKind::Merge, |m| m.step_merge(max_lbas))
    }

    /// Seals the online merge: the snapshot is absorbed into the live image
    /// and dropped, and the displaced origin pages are released.
    ///
    /// # Errors
    ///
    /// [`FtlError::SnapshotsDisabled`], [`FtlError::NoMergeInProgress`], or
    /// a device error from the commit-point manifest write.
    pub fn merge_commit(&mut self) -> Result<(), FtlError> {
        self.spanned(SpanKind::Merge, Self::commit_merge)
    }

    /// Merges snapshot `id` into the live image in one call (begin, stream
    /// all steps, commit).
    ///
    /// # Errors
    ///
    /// As for [`Self::merge_begin`] and [`Self::merge_commit`].
    pub fn merge_offline(&mut self, id: u64) -> Result<(), FtlError> {
        self.spanned(SpanKind::Merge, |m| {
            m.begin_merge(id)?;
            while !m.step_merge(1024)? {}
            m.commit_merge()
        })
    }

    /// Reads `lba` as it looked when snapshot `id` was taken (`None` if it
    /// was unmapped then).
    ///
    /// # Errors
    ///
    /// [`FtlError::SnapshotsDisabled`], [`FtlError::UnknownSnapshot`],
    /// [`FtlError::LbaOutOfRange`], or a device error.
    pub fn read_snapshot(&mut self, id: u64, lba: u64) -> Result<Option<u64>, FtlError> {
        self.spanned(SpanKind::HostRead, |m| m.snapshot_read(id, lba))
    }

    /// Ids of the live snapshots, in creation order.
    pub fn snapshot_ids(&self) -> Vec<u64> {
        self.snap
            .as_ref()
            .map_or_else(Vec::new, |b| b.snaps.iter().map(|s| s.id).collect())
    }

    /// Refcount audit of the snapshot book; `None` when snapshots are
    /// disabled.
    pub fn snapshot_audit(&self) -> Option<SnapshotAudit> {
        let book = self.snap.as_ref()?;
        let mapped = |map: &[u32]| map.iter().filter(|&&p| p != UNMAPPED).count() as u64;
        let mapping_count =
            mapped(&self.map) + book.snaps.iter().map(|s| mapped(&s.map)).sum::<u64>();
        Some(SnapshotAudit {
            refcount_sum: book.refs.iter().map(|&r| u64::from(r)).sum(),
            mapping_count,
            pending_merge: book.merge.as_ref().map_or(0, |m| m.pending.len() as u64),
            snapshots: book.snaps.len(),
        })
    }

    /// Exhaustive snapshot-invariant audit; panics on any violation. A
    /// no-op when snapshots are disabled. Intended for tests and the
    /// property suites — it walks every physical page.
    ///
    /// Checks: per-page refcounts equal the number of mapping sets (plus
    /// pending merge releases) referencing the page; a page is valid
    /// on-device iff it is referenced; spare LBA and epoch stamps match the
    /// book's records.
    pub fn check_snapshot_consistency(&self) {
        let inner = self;
        let Some(book) = inner.snap.as_ref() else {
            return;
        };
        let geometry = inner.pool.device.geometry();
        let total_pages = geometry.total_pages() as usize;
        let mut expected = vec![0u32; total_pages];
        let mut tally = |map: &[u32]| {
            for &p in map {
                if p != UNMAPPED {
                    expected[p as usize] += 1;
                }
            }
        };
        tally(&inner.map);
        for s in &book.snaps {
            tally(&s.map);
        }
        for &p in book.merge.as_ref().map_or(&[][..], |m| &m.pending[..]) {
            expected[p as usize] += 1;
        }
        assert_eq!(
            expected, book.refs,
            "refcounts must equal references from mapping sets + pending merge"
        );
        for b in 0..inner.reserved_base {
            for page in 0..geometry.pages_per_block() {
                let addr = PageAddr::new(b, page);
                let flat = addr.flat_index(&geometry) as usize;
                let state = inner.pool.device.block(b).page_state(page);
                assert_eq!(
                    state.is_valid(),
                    book.refs[flat] > 0,
                    "page {addr} validity must mirror its refcount"
                );
                if state.is_valid() {
                    let spare = inner.pool.device.block(b).spare(page);
                    assert_eq!(
                        spare.status(),
                        book.epoch_of[flat],
                        "page {addr} epoch stamp must match the book"
                    );
                    let lba = spare.lba().expect("valid page carries an lba") as usize;
                    let referenced = inner.map[lba] == flat as u32
                        || book.snaps.iter().any(|s| s.map[lba] == flat as u32)
                        || book
                            .merge
                            .as_ref()
                            .is_some_and(|m| m.pending.contains(&(flat as u32)));
                    assert!(referenced, "page {addr} refs come from its own lba {lba}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SnapshotConfig;
    use nand::{CellKind, Geometry};
    use swl_core::{SwLeveler, SwlConfig};

    fn device(blocks: u32, pages: u32) -> NandDevice {
        NandDevice::new(
            Geometry::new(blocks, pages, 2048),
            CellKind::Mlc2.spec().with_endurance(1_000_000),
        )
    }

    fn plain_ftl(blocks: u32, pages: u32) -> PageMappedFtl {
        PageMappedFtl::new(device(blocks, pages), FtlConfig::default()).unwrap()
    }

    #[test]
    fn read_your_writes() {
        let mut ftl = plain_ftl(8, 4);
        ftl.write(3, 111).unwrap();
        ftl.write(5, 222).unwrap();
        assert_eq!(ftl.read(3).unwrap(), Some(111));
        assert_eq!(ftl.read(5).unwrap(), Some(222));
        assert_eq!(ftl.read(0).unwrap(), None);
    }

    #[test]
    fn updates_are_out_of_place() {
        let mut ftl = plain_ftl(8, 4);
        ftl.write(1, 1).unwrap();
        ftl.write(1, 2).unwrap();
        ftl.write(1, 3).unwrap();
        assert_eq!(ftl.read(1).unwrap(), Some(3));
        // Three programs happened; two pages are now invalid.
        let invalid: u32 = (0..8).map(|b| ftl.device().block(b).invalid_pages()).sum();
        assert_eq!(invalid, 2);
        ftl.check_consistency();
    }

    #[test]
    fn lba_bounds_enforced() {
        let mut ftl = plain_ftl(4, 4);
        let max = ftl.logical_pages();
        assert!(matches!(
            ftl.write(max, 0),
            Err(FtlError::LbaOutOfRange { .. })
        ));
        assert!(matches!(ftl.read(max), Err(FtlError::LbaOutOfRange { .. })));
        assert!(matches!(ftl.trim(max), Err(FtlError::LbaOutOfRange { .. })));
    }

    #[test]
    fn overprovisioning_shrinks_logical_space() {
        let ftl = PageMappedFtl::new(
            device(8, 4),
            FtlConfig::default().with_overprovision_blocks(2),
        )
        .unwrap();
        assert_eq!(ftl.logical_pages(), 6 * 4);
    }

    #[test]
    fn gc_reclaims_invalid_pages_under_pressure() {
        // 8 blocks × 4 pages = 32 physical pages; hammer 4 LBAs so GC must
        // run many times.
        let mut ftl = plain_ftl(8, 4);
        for round in 0..100u64 {
            for lba in 0..4u64 {
                ftl.write(lba, round * 10 + lba).unwrap();
            }
        }
        for lba in 0..4u64 {
            assert_eq!(ftl.read(lba).unwrap(), Some(99 * 10 + lba));
        }
        assert!(ftl.counters().gc_erases > 0, "gc must have produced space");
        assert!(ftl.counters().gc_collections > 0);
        ftl.check_consistency();
    }

    #[test]
    fn gc_copies_live_data_intact() {
        // Fill cold data once, then hammer one hot LBA; GC must preserve the
        // cold data when it relocates blocks.
        let mut ftl = plain_ftl(8, 4);
        for lba in 0..16u64 {
            ftl.write(lba, 1000 + lba).unwrap();
        }
        for round in 0..200u64 {
            ftl.write(20, round).unwrap();
        }
        for lba in 0..16u64 {
            assert_eq!(ftl.read(lba).unwrap(), Some(1000 + lba), "lba {lba}");
        }
        assert_eq!(ftl.read(20).unwrap(), Some(199));
        ftl.check_consistency();
    }

    #[test]
    fn full_logical_space_rewrites_succeed() {
        // Writing every LBA repeatedly is the worst case for a 0-overprovision
        // FTL; the free-target reserve must keep GC alive.
        let g = Geometry::new(16, 4, 2048);
        let d = NandDevice::new(g, CellKind::Mlc2.spec().with_endurance(1_000_000));
        let mut ftl =
            PageMappedFtl::new(d, FtlConfig::default().with_overprovision_blocks(3)).unwrap();
        let n = ftl.logical_pages();
        for round in 0..6u64 {
            for lba in 0..n {
                ftl.write(lba, round * 1000 + lba).unwrap();
            }
        }
        for lba in 0..n {
            assert_eq!(ftl.read(lba).unwrap(), Some(5000 + lba));
        }
        ftl.check_consistency();
    }

    #[test]
    fn trim_releases_space() {
        let mut ftl = plain_ftl(4, 4);
        for lba in 0..10u64 {
            ftl.write(lba, lba).unwrap();
        }
        for lba in 0..10u64 {
            ftl.trim(lba).unwrap();
        }
        assert_eq!(ftl.read(3).unwrap(), None);
        assert_eq!(ftl.counters().trims, 10);
        // Trimmed pages are invalid, so heavy rewriting now succeeds.
        for round in 0..20u64 {
            for lba in 0..8u64 {
                ftl.write(lba, round).unwrap();
            }
        }
        ftl.check_consistency();
    }

    #[test]
    fn allocation_prefers_low_wear_blocks() {
        let mut ftl = plain_ftl(8, 4);
        // Cycle a small working set; dynamic wear leveling should keep the
        // spread of erase counts tight across used blocks.
        for round in 0..400u64 {
            for lba in 0..8u64 {
                ftl.write(lba, round).unwrap();
            }
        }
        let stats = ftl.device().erase_stats();
        assert!(
            stats.max_over_mean() < 3.0,
            "dynamic WL keeps recycled blocks even: {stats}"
        );
    }

    #[test]
    fn attach_swl_after_recovery() {
        let d = device(8, 4);
        let mut ftl = PageMappedFtl::new(d, FtlConfig::default()).unwrap();
        let leveler = SwLeveler::new(8, SwlConfig::new(10, 0)).unwrap();
        ftl.attach_swl(leveler);
        assert!(ftl.swl().is_some());
        ftl.write(0, 1).unwrap();
        assert_eq!(ftl.read(0).unwrap(), Some(1));
    }

    #[test]
    fn utilization_tracks_valid_pages() {
        let mut ftl = plain_ftl(4, 4);
        assert_eq!(ftl.utilization(), 0.0);
        for lba in 0..8u64 {
            ftl.write(lba, 0).unwrap();
        }
        assert!((ftl.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hot_cold_separation_reduces_live_copies() {
        let run = |hot: bool| -> (f64, u64) {
            let config = if hot {
                FtlConfig::default().with_hot_data(hotid::HotDataConfig::default())
            } else {
                FtlConfig::default()
            };
            let mut ftl = PageMappedFtl::new(device(32, 16), config).unwrap();
            // Mixed stream: cold sweep interleaved with hot hammering, the
            // worst case for an unseparated log.
            for round in 0..6000u64 {
                let lba = if round % 4 == 0 {
                    160 + (round / 4) % 160 // slowly cycling cold-ish data
                } else {
                    round % 8 // hot set
                };
                ftl.write(lba, round).unwrap();
            }
            let c = ftl.counters();
            (c.avg_live_copies_per_gc_erase(), c.total_live_copies())
        };
        let (l_plain, copies_plain) = run(false);
        let (l_hot, copies_hot) = run(true);
        assert!(
            l_hot < l_plain,
            "separation must reduce L: {l_hot:.2} vs {l_plain:.2}"
        );
        assert!(
            copies_hot < copies_plain,
            "separation must reduce total copies: {copies_hot} vs {copies_plain}"
        );
    }

    #[test]
    fn hot_cold_separation_preserves_correctness() {
        let config = FtlConfig::default().with_hot_data(hotid::HotDataConfig::default());
        let mut ftl =
            PageMappedFtl::with_swl(device(32, 16), config, SwlConfig::new(6, 0)).unwrap();
        let mut shadow = std::collections::HashMap::new();
        for round in 0..5000u64 {
            let lba = (round * 31 + round / 7) % 300;
            ftl.write(lba, round).unwrap();
            shadow.insert(lba, round);
        }
        for (lba, data) in shadow {
            assert_eq!(ftl.read(lba).unwrap(), Some(data));
        }
        assert!(ftl.hot_data().unwrap().writes_recorded() == 5000);
        ftl.check_consistency();
    }

    fn snap_ftl(blocks: u32, ppb: u32, overprovision: u32) -> PageMappedFtl {
        let cfg = FtlConfig::default()
            .with_overprovision_blocks(overprovision)
            .with_snapshots(SnapshotConfig::new().with_manifest_blocks(2));
        PageMappedFtl::new(device(blocks, ppb), cfg).unwrap()
    }

    #[test]
    fn snapshot_reads_frozen_image() {
        let mut ftl = snap_ftl(16, 16, 4);
        for lba in 0..8u64 {
            ftl.write(lba, 100 + lba).unwrap();
        }
        ftl.snapshot_create(1).unwrap();
        for lba in 0..4u64 {
            ftl.write(lba, 200 + lba).unwrap();
        }
        ftl.trim(5).unwrap();
        for lba in 0..4u64 {
            assert_eq!(ftl.read(lba).unwrap(), Some(200 + lba));
            assert_eq!(ftl.read_snapshot(1, lba).unwrap(), Some(100 + lba));
        }
        // Trim hides the page from the head but the snapshot still pins it.
        assert_eq!(ftl.read(5).unwrap(), None);
        assert_eq!(ftl.read_snapshot(1, 5).unwrap(), Some(105));
        assert_eq!(ftl.read_snapshot(1, 7).unwrap(), Some(107));
        assert_eq!(ftl.read_snapshot(1, 40).unwrap(), None);
        assert_eq!(ftl.snapshot_ids(), vec![1]);
        ftl.check_snapshot_consistency();
        ftl.check_consistency();
    }

    #[test]
    fn snapshot_delete_releases_pinned_pages() {
        let mut ftl = snap_ftl(16, 16, 4);
        for lba in 0..8u64 {
            ftl.write(lba, lba).unwrap();
        }
        ftl.snapshot_create(9).unwrap();
        for lba in 0..8u64 {
            ftl.write(lba, 50 + lba).unwrap();
        }
        let audit = ftl.snapshot_audit().unwrap();
        // 8 head entries + 8 pinned snapshot entries, all distinct pages.
        assert_eq!(audit.mapping_count, 16);
        assert_eq!(audit.refcount_sum, 16);
        ftl.snapshot_delete(9).unwrap();
        let audit = ftl.snapshot_audit().unwrap();
        assert_eq!(audit.snapshots, 0);
        assert_eq!(audit.mapping_count, 8);
        assert_eq!(audit.refcount_sum, 8);
        let valid: u32 = (0..16).map(|b| ftl.device().block(b).valid_pages()).sum();
        // Only the head's 8 pages (plus the manifest's metadata pages)
        // remain valid. The reserve is the top 4 blocks (2 buffers × 2).
        let manifest_valid: u32 = (12..16).map(|b| ftl.device().block(b).valid_pages()).sum();
        assert_eq!(valid - manifest_valid, 8);
        ftl.check_snapshot_consistency();
    }

    #[test]
    fn clone_rolls_back_and_snapshot_survives() {
        let mut ftl = snap_ftl(16, 16, 4);
        for lba in 0..6u64 {
            ftl.write(lba, 100 + lba).unwrap();
        }
        ftl.snapshot_create(3).unwrap();
        for lba in 0..6u64 {
            ftl.write(lba, 200 + lba).unwrap();
        }
        ftl.write(20, 777).unwrap();
        ftl.snapshot_clone(3).unwrap();
        for lba in 0..6u64 {
            assert_eq!(ftl.read(lba).unwrap(), Some(100 + lba));
        }
        // The post-snapshot write is rolled back too.
        assert_eq!(ftl.read(20).unwrap(), None);
        // The clone is writable and isolated from the snapshot.
        ftl.write(0, 999).unwrap();
        assert_eq!(ftl.read(0).unwrap(), Some(999));
        assert_eq!(ftl.read_snapshot(3, 0).unwrap(), Some(100));
        ftl.check_snapshot_consistency();
        ftl.check_consistency();
    }

    #[test]
    fn offline_merge_is_origin_overlaid_with_snapshot() {
        let mut ftl = snap_ftl(16, 16, 4);
        // Origin image.
        for lba in 0..8u64 {
            ftl.write(lba, 100 + lba).unwrap();
        }
        ftl.snapshot_create(1).unwrap();
        // Head diverges: overwrites, a fresh LBA, and a trim.
        for lba in 0..4u64 {
            ftl.write(lba, 200 + lba).unwrap();
        }
        ftl.write(30, 555).unwrap();
        ftl.trim(6).unwrap();
        // Expected merged image: the head overlaid with the snapshot
        // (snapshot wins every LBA it maps; head-only LBAs survive).
        ftl.merge_offline(1).unwrap();
        for lba in 0..8u64 {
            assert_eq!(ftl.read(lba).unwrap(), Some(100 + lba), "lba {lba}");
        }
        assert_eq!(ftl.read(30).unwrap(), Some(555));
        let audit = ftl.snapshot_audit().unwrap();
        assert_eq!(audit.snapshots, 0);
        assert_eq!(audit.pending_merge, 0);
        assert_eq!(audit.refcount_sum, audit.mapping_count);
        ftl.check_snapshot_consistency();
        ftl.check_consistency();
    }

    #[test]
    fn online_merge_host_writes_beat_the_snapshot() {
        let mut ftl = snap_ftl(16, 16, 4);
        for lba in 0..8u64 {
            ftl.write(lba, 100 + lba).unwrap();
        }
        ftl.snapshot_create(1).unwrap();
        for lba in 0..8u64 {
            ftl.write(lba, 200 + lba).unwrap();
        }
        ftl.merge_begin(1).unwrap();
        // Interleaved live writes: stamped with the merge epoch, they must
        // survive the overlay regardless of which side of the cursor they
        // land on.
        ftl.write(1, 901).unwrap();
        let mut done = ftl.merge_step(3).unwrap();
        ftl.write(2, 902).unwrap(); // behind the cursor
        ftl.write(6, 906).unwrap(); // ahead of the cursor
        while !done {
            done = ftl.merge_step(3).unwrap();
        }
        ftl.merge_commit().unwrap();
        for lba in 0..8u64 {
            let expect = match lba {
                1 => 901,
                2 => 902,
                6 => 906,
                _ => 100 + lba,
            };
            assert_eq!(ftl.read(lba).unwrap(), Some(expect), "lba {lba}");
        }
        ftl.check_snapshot_consistency();
        ftl.check_consistency();
    }

    #[test]
    fn snapshots_survive_remount() {
        let mut ftl = snap_ftl(16, 16, 4);
        for lba in 0..8u64 {
            ftl.write(lba, 100 + lba).unwrap();
        }
        ftl.snapshot_create(1).unwrap();
        for lba in 0..4u64 {
            ftl.write(lba, 200 + lba).unwrap();
        }
        ftl.snapshot_create(2).unwrap();
        ftl.write(0, 300).unwrap();
        let config = ftl.config();
        let device = ftl.into_device();
        let mut ftl = PageMappedFtl::mount(device, config).unwrap();
        assert_eq!(ftl.snapshot_ids(), vec![1, 2]);
        assert_eq!(ftl.read(0).unwrap(), Some(300));
        for lba in 1..4u64 {
            assert_eq!(ftl.read(lba).unwrap(), Some(200 + lba));
        }
        for lba in 4..8u64 {
            assert_eq!(ftl.read(lba).unwrap(), Some(100 + lba));
        }
        for lba in 0..8u64 {
            assert_eq!(ftl.read_snapshot(1, lba).unwrap(), Some(100 + lba));
        }
        assert_eq!(ftl.read_snapshot(2, 0).unwrap(), Some(200));
        ftl.check_snapshot_consistency();
        ftl.check_consistency();
        // And the restored book keeps working: merge after remount.
        ftl.merge_offline(2).unwrap();
        assert_eq!(ftl.read(0).unwrap(), Some(200));
        ftl.check_snapshot_consistency();
    }

    #[test]
    fn snapshot_verbs_reject_bad_states() {
        let mut plain = plain_ftl(8, 4);
        assert_eq!(plain.snapshot_create(1), Err(FtlError::SnapshotsDisabled));
        assert_eq!(plain.merge_step(4), Err(FtlError::SnapshotsDisabled));

        let mut ftl = snap_ftl(16, 16, 4);
        ftl.write(0, 1).unwrap();
        assert_eq!(
            ftl.snapshot_delete(7),
            Err(FtlError::UnknownSnapshot { id: 7 })
        );
        assert_eq!(ftl.merge_commit(), Err(FtlError::NoMergeInProgress));
        ftl.snapshot_create(1).unwrap();
        assert_eq!(
            ftl.snapshot_create(1),
            Err(FtlError::SnapshotExists { id: 1 })
        );
        ftl.merge_begin(1).unwrap();
        assert_eq!(ftl.snapshot_create(2), Err(FtlError::MergeInProgress));
        assert_eq!(ftl.snapshot_delete(1), Err(FtlError::MergeInProgress));
        assert_eq!(ftl.snapshot_clone(1), Err(FtlError::MergeInProgress));
        assert_eq!(ftl.merge_begin(1), Err(FtlError::MergeInProgress));
        while !ftl.merge_step(64).unwrap() {}
        ftl.merge_commit().unwrap();
        ftl.check_snapshot_consistency();
    }

    #[test]
    fn manifest_capacity_is_enforced() {
        // One manifest block of 8 pages: the empty record (6 words) fits,
        // but the first snapshot needs record_words(2, [1]) = 4+2+3+1 = 10
        // words > 8, so it cannot commit.
        let cfg = FtlConfig::default()
            .with_overprovision_blocks(2)
            .with_snapshots(SnapshotConfig::new());
        let mut ftl = PageMappedFtl::new(device(8, 8), cfg).unwrap();
        ftl.write(0, 1).unwrap();
        assert_eq!(ftl.snapshot_create(1), Err(FtlError::ManifestFull));
        // Nothing was mutated by the rejected verb.
        assert_eq!(ftl.snapshot_ids(), Vec::<u64>::new());
        let audit = ftl.snapshot_audit().unwrap();
        assert_eq!(audit.refcount_sum, 1);
        ftl.check_snapshot_consistency();
    }

    #[test]
    fn gc_and_swl_copy_pinned_pages_once_and_keep_them() {
        let d = device(16, 8);
        let cfg = FtlConfig::default()
            .with_overprovision_blocks(4)
            .with_snapshots(SnapshotConfig::new().with_manifest_blocks(2));
        let mut ftl = PageMappedFtl::with_swl(d, cfg, SwlConfig::new(4, 0)).unwrap();
        for lba in 0..8u64 {
            ftl.write(lba, 100 + lba).unwrap();
        }
        ftl.snapshot_create(1).unwrap();
        // Hammer a hot LBA long enough to force GC and SWL over the
        // snapshot-pinned blocks.
        for round in 0..2000u64 {
            ftl.write(40 + (round % 2), round).unwrap();
        }
        assert!(ftl.counters().swl_erases > 0, "SWL must have run");
        for lba in 0..8u64 {
            assert_eq!(ftl.read_snapshot(1, lba).unwrap(), Some(100 + lba));
            assert_eq!(ftl.read(lba).unwrap(), Some(100 + lba));
        }
        ftl.check_snapshot_consistency();
        ftl.check_consistency();
    }

    #[test]
    fn unused_snapshot_mode_stamps_live_status() {
        // With snapshots enabled but never used, every data page carries
        // epoch 0 == STATUS_LIVE: bit-identical spare bytes to a
        // snapshot-free build.
        let mut ftl = snap_ftl(16, 16, 4);
        for lba in 0..8u64 {
            ftl.write(lba, lba).unwrap();
        }
        let geometry = ftl.device().geometry();
        for b in 0..12u32 {
            for p in 0..geometry.pages_per_block() {
                if ftl.device().block(b).page_state(p).is_valid() {
                    assert_eq!(ftl.device().block(b).spare(p).status(), 0);
                }
            }
        }
    }

    /// The victim index answers like the linear-scan oracle from every
    /// cursor, so a block whose refresh was skipped cannot hide.
    fn assert_index_matches_oracle(ftl: &mut PageMappedFtl) {
        let saved = ftl.gc_scan;
        let mut index = ftl.victims.clone();
        for cursor in 0..ftl.device().geometry().blocks() {
            ftl.gc_scan = cursor;
            assert_eq!(
                index.select(cursor),
                ftl.reference_select_victim(),
                "victim index diverged from the oracle at cursor {cursor}"
            );
        }
        ftl.gc_scan = saved;
    }

    fn invalid_per_block(ftl: &PageMappedFtl) -> Vec<u32> {
        (0..ftl.device().geometry().blocks())
            .map(|b| ftl.device().block(b).invalid_pages())
            .collect()
    }

    /// An origin over the middle third of the logical space, snapshot 1 of
    /// it, then a diverged head: overwrites and trims inside the span and
    /// head-only writes below it. Returns the image merging snapshot 1 must
    /// leave: the snapshot wins every LBA it maps, head-only LBAs survive.
    fn mid_span_snapshot(ftl: &mut PageMappedFtl) -> Vec<Option<u64>> {
        let n = ftl.logical_pages();
        let span = n / 3..2 * n / 3;
        let mut head = vec![None; n as usize];
        for lba in span.clone() {
            ftl.write(lba, 1000 + lba).unwrap();
            head[lba as usize] = Some(1000 + lba);
        }
        ftl.snapshot_create(1).unwrap();
        let image = head.clone();
        for lba in span.clone().step_by(3) {
            ftl.write(lba, 5000 + lba).unwrap();
            head[lba as usize] = Some(5000 + lba);
        }
        for lba in span.step_by(7) {
            ftl.trim(lba).unwrap();
            head[lba as usize] = None;
        }
        for lba in 0..10 {
            ftl.write(lba, 9000 + lba).unwrap();
            head[lba as usize] = Some(9000 + lba);
        }
        image.iter().zip(&head).map(|(i, h)| i.or(*h)).collect()
    }

    #[test]
    fn merge_step_sizes_agree_with_offline_and_model() {
        let mut offline = snap_ftl(64, 16, 8);
        let expected = mid_span_snapshot(&mut offline);
        offline.merge_offline(1).unwrap();
        let n = offline.logical_pages();
        for k in [1, 7, 256, n] {
            let mut ftl = snap_ftl(64, 16, 8);
            mid_span_snapshot(&mut ftl);
            ftl.merge_begin(1).unwrap();
            let mut steps = 1;
            while !ftl.merge_step(k).unwrap() {
                steps += 1;
            }
            assert_eq!(steps, n.div_ceil(k), "k {k}");
            ftl.merge_commit().unwrap();
            assert_eq!(ftl.map, offline.map, "k {k}: head map");
            assert_eq!(
                ftl.snap.as_ref().unwrap().refs,
                offline.snap.as_ref().unwrap().refs,
                "k {k}: refcounts"
            );
            assert_eq!(ftl.device().counters(), offline.device().counters());
            assert_eq!(invalid_per_block(&ftl), invalid_per_block(&offline));
            assert_index_matches_oracle(&mut ftl);
            ftl.check_snapshot_consistency();
            ftl.check_consistency();
            for lba in 0..n {
                assert_eq!(ftl.read(lba).unwrap(), expected[lba as usize], "k {k}");
            }
        }
        for lba in 0..n {
            assert_eq!(offline.read(lba).unwrap(), expected[lba as usize]);
        }
    }

    #[test]
    fn merge_steps_survive_host_writes_and_forced_gc() {
        for k in [1, 7, 256, 832] {
            let mut ftl = snap_ftl(64, 16, 8);
            let n = ftl.logical_pages();
            assert_eq!(n, 832);
            let mut expected = mid_span_snapshot(&mut ftl);
            let geometry = ftl.device().geometry();
            let mut erased = Vec::new();
            let mut moved = 0;
            let mut done = false;
            ftl.merge_begin(1).unwrap();
            // Writes and GC run before every step and once after the last.
            for round in 0u64.. {
                // Post-begin writes beat the snapshot on either side of the
                // cursor; sixteen LBAs of the span, so the rest is displaced.
                let lba = n / 3 + 3 * (round % 16);
                ftl.write(lba, 20_000 + round).unwrap();
                expected[lba as usize] = Some(20_000 + round);
                if !ftl.victims.is_empty() {
                    ftl.collect_one(Cause::Gc, &mut erased).unwrap();
                }
                // Relocate a block holding a displaced page: its pending
                // entry must follow the copy.
                let pending = |ftl: &PageMappedFtl| {
                    let merge = ftl.snap.as_ref().unwrap().merge.as_ref();
                    merge.unwrap().pending.clone()
                };
                let before = pending(&ftl);
                if let Some(&p) = before.first() {
                    let block = PageAddr::from_flat_index(&geometry, u64::from(p)).block;
                    ftl.relocate_and_erase(block, Cause::Gc, &mut erased)
                        .unwrap();
                    let after = pending(&ftl);
                    assert!(!after.contains(&p), "k {k}: entry left on the erased page");
                    assert_eq!(after.len(), before.len(), "k {k}");
                    moved += 1;
                }
                ftl.check_snapshot_consistency();
                if done {
                    break;
                }
                done = ftl.merge_step(k).unwrap();
            }
            assert!(moved > 0, "k {k}: no displaced page was relocated");
            assert!(ftl.snapshot_audit().unwrap().pending_merge > 0);
            ftl.merge_commit().unwrap();
            assert_eq!(ftl.snapshot_audit().unwrap().pending_merge, 0);
            assert_index_matches_oracle(&mut ftl);
            ftl.check_snapshot_consistency();
            ftl.check_consistency();
            for lba in 0..n {
                assert_eq!(ftl.read(lba).unwrap(), expected[lba as usize], "k {k}");
            }
        }
    }

    #[test]
    fn bulk_release_keeps_victim_index_with_the_oracle() {
        let mut ftl = snap_ftl(64, 16, 8);
        // 200 LBAs are 12.5 blocks of 16 pages per generation.
        let fill = |ftl: &mut PageMappedFtl, base: u64| {
            for lba in 0..200 {
                ftl.write(lba, base + lba).unwrap();
            }
        };
        let released = |ftl: &mut PageMappedFtl, before: &[u32], verb: &str| {
            let blocks = invalid_per_block(ftl)
                .iter()
                .zip(before)
                .filter(|(now, then)| now > then)
                .count();
            assert!(blocks >= 8, "{verb} freed pages in only {blocks} blocks");
            assert_index_matches_oracle(ftl);
            ftl.check_snapshot_consistency();
            ftl.check_consistency();
        };
        fill(&mut ftl, 1000);
        ftl.snapshot_create(1).unwrap();
        fill(&mut ftl, 2000);
        ftl.snapshot_create(2).unwrap();
        fill(&mut ftl, 3000);

        // Snapshot 1 alone pins the first generation.
        let before = invalid_per_block(&ftl);
        ftl.snapshot_delete(1).unwrap();
        released(&mut ftl, &before, "delete");

        // Rolling back to snapshot 2 drops the head's third generation.
        let before = invalid_per_block(&ftl);
        ftl.snapshot_clone(2).unwrap();
        released(&mut ftl, &before, "clone");

        // Merging snapshot 3 displaces the diverged head, released at commit.
        ftl.snapshot_create(3).unwrap();
        fill(&mut ftl, 4000);
        ftl.merge_begin(3).unwrap();
        while !ftl.merge_step(64).unwrap() {}
        let before = invalid_per_block(&ftl);
        ftl.merge_commit().unwrap();
        released(&mut ftl, &before, "merge commit");
        for lba in 0..200 {
            assert_eq!(ftl.read(lba).unwrap(), Some(2000 + lba));
        }
    }

    #[test]
    fn bulk_release_failing_midway_reports_the_blocks_it_released() {
        let mut ftl = snap_ftl(64, 16, 8);
        for lba in 0..200 {
            ftl.write(lba, 1000 + lba).unwrap();
        }
        ftl.snapshot_create(1).unwrap();
        for lba in 0..200 {
            ftl.write(lba, 2000 + lba).unwrap();
        }
        // Snapshot 1 alone pins the first generation. Invalidate its page
        // for LBA 150 behind the book's back, so the release of its map
        // fails there, after the pages of LBAs 0..150 were invalidated.
        let s = ftl.snap.as_mut().unwrap().snaps.remove(0);
        let geometry = ftl.device().geometry();
        let bad = PageAddr::from_flat_index(&geometry, u64::from(s.map[150]));
        ftl.pool.device.invalidate(bad).unwrap();
        ftl.refresh_victim(bad.block);
        assert_index_matches_oracle(&mut ftl);
        let before = invalid_per_block(&ftl);
        let err = ftl.release_all(s.map).unwrap_err();
        assert!(
            matches!(
                err,
                FtlError::Device(nand::NandError::InvalidateNonValidPage { addr }) if addr == bad
            ),
            "{err:?}"
        );
        let blocks = invalid_per_block(&ftl)
            .iter()
            .zip(&before)
            .filter(|(now, then)| now > then)
            .count();
        assert!(blocks >= 8, "released pages in only {blocks} blocks");
        assert_index_matches_oracle(&mut ftl);
    }

    #[test]
    fn bulk_release_split_by_a_power_cut_remounts_with_the_oracle() {
        let cfg = FtlConfig::default()
            .with_overprovision_blocks(8)
            .with_snapshots(SnapshotConfig::new().with_manifest_blocks(2));
        let device = device(64, 16).with_fault_plan(nand::FaultPlan::new(0));
        let mut ftl = PageMappedFtl::new(device, cfg).unwrap();
        for lba in 0..200 {
            ftl.write(lba, 1000 + lba).unwrap();
        }
        ftl.snapshot_create(1).unwrap();
        for lba in 0..200 {
            ftl.write(lba, 2000 + lba).unwrap();
        }
        // Delete snapshot 1 up to its commit point, and release half of the
        // pages it alone pins.
        let s = ftl.snap.as_mut().unwrap().snaps.remove(0);
        ftl.commit_manifest().unwrap();
        let (first, second) = s.map.split_at(100);
        ftl.release_all(first.iter().copied()).unwrap();
        // Invalidations are not counted device ops, so a cut cannot land
        // inside one pass: it fires at the next program (a host write), and
        // the release of the other half is refused by the dead chip.
        let at = ftl.device().fault_ops();
        ftl.pool.device.rearm_power_cut(at, false);
        assert!(ftl.write(300, 1).is_err());
        assert!(ftl.device().power_is_cut());
        assert!(ftl.release_all(second.iter().copied()).is_err());
        assert_index_matches_oracle(&mut ftl);

        let mut device = ftl.into_device();
        device.power_cycle();
        let mut ftl = PageMappedFtl::mount(device, cfg).unwrap();
        assert!(ftl.snapshot_ids().is_empty());
        assert_index_matches_oracle(&mut ftl);
        ftl.check_snapshot_consistency();
        ftl.check_consistency();
        for lba in 0..200 {
            assert_eq!(ftl.read(lba).unwrap(), Some(2000 + lba));
        }
    }
}
