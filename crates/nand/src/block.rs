//! Erase blocks: one 16-byte record per page (payload, spare, state), and
//! wear.

use crate::page::{PageState, SpareArea};

/// Wear status of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BlockState {
    /// Within its rated endurance.
    #[default]
    Healthy,
    /// Erase count has reached or passed the rated endurance.
    WornOut,
}

/// Everything the chip keeps per page, in 16 bytes: the payload token, the
/// spare status word, and one tag word holding the page state in its top
/// two bits and the spare LBA + 1 in the low thirty (0 = no LBA), the way a
/// real 2 KiB-page chip keeps the LBA in a fixed-width spare field. Four
/// records share a cache line and none straddles one, so a read, a program
/// or an invalidate touches one line. An erased record is all zero bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Page {
    data: u64,
    status: u32,
    tag: u32,
}

/// Bits of [`Page::tag`] below the state field: the spare LBA + 1. The one
/// place the spare field's width is set ([`SpareArea::MAX_LBA`] follows).
pub(crate) const LBA_BITS: u32 = 30;
const LBA_MASK: u32 = (1 << LBA_BITS) - 1;
const TAG_VALID: u32 = 1 << LBA_BITS;
const TAG_INVALID: u32 = 2 << LBA_BITS;

/// The tag's LBA field for `raw_lba`: `u64::MAX` (no LBA) wraps to 0.
fn lba_field(raw_lba: u64) -> u32 {
    debug_assert!(SpareArea::lba_fits(raw_lba));
    raw_lba.wrapping_add(1) as u32
}

impl Page {
    fn state(&self) -> PageState {
        match self.tag >> LBA_BITS {
            0 => PageState::Free,
            1 => PageState::Valid,
            _ => PageState::Invalid,
        }
    }

    fn mark_invalid(&mut self) {
        self.tag = TAG_INVALID | (self.tag & LBA_MASK);
    }

    fn spare(&self) -> SpareArea {
        SpareArea {
            raw_lba: u64::from(self.tag & LBA_MASK).wrapping_sub(1),
            status: self.status,
        }
    }

    fn set_spare(&mut self, spare: SpareArea) {
        self.tag = (self.tag & !LBA_MASK) | lba_field(spare.raw_lba);
        self.status = spare.status;
    }
}

/// One erase block: one record per page (payload, spare area, state), erase
/// count.
///
/// Page *data* is modelled as a `u64` token rather than a byte buffer — the
/// wear-leveling study never inspects page contents, only their identity, and
/// a token keeps a 4096-block chip affordable in RAM while still letting
/// tests assert exact read-your-writes behaviour.
#[derive(Debug, Clone)]
pub struct Block {
    pages: Box<[Page]>,
    erase_count: u64,
    valid_pages: u32,
    invalid_pages: u32,
}

impl Block {
    /// A fresh (erased, never-worn) block with `pages` pages.
    pub(crate) fn new(pages: u32) -> Self {
        Self {
            pages: vec![Page::default(); pages as usize].into_boxed_slice(),
            erase_count: 0,
            valid_pages: 0,
            invalid_pages: 0,
        }
    }

    /// Number of times this block has been erased.
    pub fn erase_count(&self) -> u64 {
        self.erase_count
    }

    /// Count of pages currently holding live data.
    pub fn valid_pages(&self) -> u32 {
        self.valid_pages
    }

    /// Count of pages holding superseded data.
    pub fn invalid_pages(&self) -> u32 {
        self.invalid_pages
    }

    /// Count of erased, programmable pages.
    pub fn free_pages(&self) -> u32 {
        self.pages.len() as u32 - self.valid_pages - self.invalid_pages
    }

    /// State of page `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn page_state(&self, page: u32) -> PageState {
        self.pages[page as usize].state()
    }

    /// Spare-area contents of page `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn spare(&self, page: u32) -> SpareArea {
        self.pages[page as usize].spare()
    }

    pub(crate) fn data(&self, page: u32) -> u64 {
        self.pages[page as usize].data
    }

    pub(crate) fn program(&mut self, page: u32, data: u64, spare: SpareArea) {
        let page = &mut self.pages[page as usize];
        debug_assert!(page.state().is_free());
        *page = Page {
            data,
            status: spare.status,
            tag: TAG_VALID | lba_field(spare.raw_lba),
        };
        self.valid_pages += 1;
    }

    pub(crate) fn invalidate(&mut self, page: u32) {
        let page = &mut self.pages[page as usize];
        debug_assert!(page.state().is_valid());
        page.mark_invalid();
        self.valid_pages -= 1;
        self.invalid_pages += 1;
    }

    /// Models a program torn by a fault or power cut: the page is consumed
    /// (free → invalid) but carries no readable metadata, exactly how the
    /// translation layers treat a half-programmed page at mount time.
    pub(crate) fn tear_program(&mut self, page: u32) {
        let page = &mut self.pages[page as usize];
        debug_assert!(page.state().is_free());
        page.mark_invalid();
        page.set_spare(SpareArea::default());
        self.invalid_pages += 1;
    }

    /// Models an erase torn by a power cut: the erase pulse started, so every
    /// page's contents are untrustworthy, but the pages never reached the
    /// clean free state. All non-free pages collapse to invalid with default
    /// spares; the erase count does not advance (the cycle never completed).
    pub(crate) fn tear_erase(&mut self) {
        for page in self.pages.iter_mut().filter(|p| !p.state().is_free()) {
            page.mark_invalid();
            page.set_spare(SpareArea::default());
        }
        self.invalid_pages += self.valid_pages;
        self.valid_pages = 0;
    }

    /// Programs the bad-block marker into the spare area of page 0,
    /// regardless of the page's state (spare bytes of real chips can be
    /// programmed independently of the data area). Page states and counts
    /// are untouched: the marker is out-of-band metadata only.
    pub(crate) fn mark_bad(&mut self) {
        self.pages[0].set_spare(SpareArea::bad_block());
    }

    pub(crate) fn erase(&mut self) {
        self.pages.fill(Page::default());
        self.erase_count += 1;
        self.valid_pages = 0;
        self.invalid_pages = 0;
    }

    /// Wear status relative to `endurance` rated cycles.
    pub fn state(&self, endurance: u32) -> BlockState {
        if self.erase_count >= u64::from(endurance) {
            BlockState::WornOut
        } else {
            BlockState::Healthy
        }
    }

    /// Iterates over `(page_index, state)` pairs.
    pub fn page_states(&self) -> impl Iterator<Item = (u32, PageState)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p.state()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `peak_rss_mb` guard: a 4096 × 128 chip is half a million of these,
    /// 8 MiB of records.
    #[test]
    fn page_record_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Page>(), 16);
    }

    const ZERO: Page = Page {
        data: 0,
        status: 0,
        tag: 0,
    };

    #[test]
    fn erased_record_is_all_zero_bytes() {
        assert_eq!(Page::default(), ZERO);
        assert_eq!(ZERO.state(), PageState::Free);
        assert_eq!(ZERO.spare(), SpareArea::default());

        let mut b = Block::new(4);
        assert!(b.pages.iter().all(|p| *p == ZERO));
        b.program(0, 7, SpareArea::with_status(SpareArea::MAX_LBA, 3));
        b.program(1, 8, SpareArea::metadata(9));
        b.invalidate(0);
        b.mark_bad();
        b.erase();
        assert!(b.pages.iter().all(|p| *p == ZERO));
    }

    #[test]
    fn tag_keeps_state_and_lba_apart() {
        let mut b = Block::new(2);
        b.program(0, 1, SpareArea::valid(SpareArea::MAX_LBA));
        b.program(1, 2, SpareArea::metadata(5));
        b.invalidate(0);
        assert!(b.page_state(0).is_invalid());
        assert_eq!(b.spare(0), SpareArea::valid(SpareArea::MAX_LBA));
        assert!(b.page_state(1).is_valid());
        assert_eq!(b.spare(1), SpareArea::metadata(5));
        assert_eq!((b.data(0), b.data(1)), (1, 2));
    }

    #[test]
    fn bad_block_marker_keeps_state_and_is_overwritten_then_erased() {
        // On a free page 0: the page stays free, and a program replaces the
        // marker with its own spare.
        let mut b = Block::new(2);
        b.mark_bad();
        assert!(b.spare(0).is_bad_block_marker());
        assert!(b.page_state(0).is_free());
        assert_eq!(b.free_pages(), 2);
        b.program(0, 4, SpareArea::valid(6));
        assert!(b.page_state(0).is_valid());
        assert_eq!(b.spare(0), SpareArea::valid(6));
        b.erase();
        assert_eq!(b.spare(0), SpareArea::default());

        // On a programmed page 0 (valid, then invalid): the state and the
        // payload stay; an erase clears the marker.
        b.program(0, 5, SpareArea::valid(3));
        b.mark_bad();
        assert!(b.spare(0).is_bad_block_marker());
        assert!(b.page_state(0).is_valid());
        assert_eq!(b.data(0), 5);
        b.invalidate(0);
        assert!(b.spare(0).is_bad_block_marker());
        assert!(b.page_state(0).is_invalid());
        b.erase();
        assert!(b.page_state(0).is_free());
        assert_eq!(b.spare(0), SpareArea::default());
    }

    #[test]
    fn torn_ops_leave_the_default_spare_on_non_free_pages() {
        let mut b = Block::new(4);
        b.tear_program(0);
        assert!(b.page_state(0).is_invalid());
        assert_eq!(b.spare(0), SpareArea::default());

        b.program(1, 1, SpareArea::valid(SpareArea::MAX_LBA));
        b.program(2, 2, SpareArea::with_status(8, 4));
        b.invalidate(2);
        b.tear_erase();
        for page in 0..3 {
            assert!(b.page_state(page).is_invalid(), "page {page}");
            assert_eq!(b.spare(page), SpareArea::default(), "page {page}");
        }
        assert!(b.page_state(3).is_free());
        assert_eq!((b.valid_pages(), b.invalid_pages()), (0, 3));
    }

    #[test]
    fn fresh_block_is_all_free() {
        let b = Block::new(8);
        assert_eq!(b.free_pages(), 8);
        assert_eq!(b.valid_pages(), 0);
        assert_eq!(b.invalid_pages(), 0);
        assert_eq!(b.erase_count(), 0);
        assert!(b.page_states().all(|(_, s)| s.is_free()));
    }

    #[test]
    fn program_then_invalidate_tracks_counts() {
        let mut b = Block::new(4);
        b.program(1, 0xAA, SpareArea::valid(9));
        assert_eq!(b.valid_pages(), 1);
        assert_eq!(b.free_pages(), 3);
        assert_eq!(b.spare(1).lba(), Some(9));
        assert_eq!(b.data(1), 0xAA);

        b.invalidate(1);
        assert_eq!(b.valid_pages(), 0);
        assert_eq!(b.invalid_pages(), 1);
        assert!(b.page_state(1).is_invalid());
    }

    #[test]
    fn erase_resets_pages_and_bumps_count() {
        let mut b = Block::new(4);
        b.program(0, 1, SpareArea::valid(0));
        b.program(1, 2, SpareArea::valid(1));
        b.invalidate(0);
        b.erase();
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.free_pages(), 4);
        assert!(b.page_states().all(|(_, s)| s.is_free()));
        assert_eq!(b.spare(0).lba(), None);
    }

    #[test]
    fn wear_state_transitions_at_endurance() {
        let mut b = Block::new(1);
        for _ in 0..3 {
            b.erase();
        }
        assert_eq!(b.state(4), BlockState::Healthy);
        assert_eq!(b.state(3), BlockState::WornOut);
        assert_eq!(b.state(2), BlockState::WornOut);
    }
}
