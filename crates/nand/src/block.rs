//! Erase blocks: one record per page (payload, spare, state), and wear.

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

/// Everything the chip keeps per page, side by side: the payload token, the
/// two spare-area words and the lifecycle state. A read, a program or an
/// invalidate touches one of these — one cache line — where three parallel
/// vectors cost three.
#[derive(Debug, Clone, Copy)]
struct Page {
    data: u64,
    raw_lba: u64,
    status: u32,
    state: PageState,
}

impl Page {
    fn erased() -> Self {
        let SpareArea { raw_lba, status } = SpareArea::default();
        Self {
            data: 0,
            raw_lba,
            status,
            state: PageState::Free,
        }
    }

    fn set_spare(&mut self, spare: SpareArea) {
        self.raw_lba = spare.raw_lba;
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
            pages: vec![Page::erased(); pages as usize].into_boxed_slice(),
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
        self.pages[page as usize].state
    }

    /// Spare-area contents of page `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn spare(&self, page: u32) -> SpareArea {
        let page = &self.pages[page as usize];
        SpareArea {
            raw_lba: page.raw_lba,
            status: page.status,
        }
    }

    pub(crate) fn data(&self, page: u32) -> u64 {
        self.pages[page as usize].data
    }

    pub(crate) fn program(&mut self, page: u32, data: u64, spare: SpareArea) {
        let page = &mut self.pages[page as usize];
        debug_assert!(page.state.is_free());
        page.data = data;
        page.set_spare(spare);
        page.state = PageState::Valid;
        self.valid_pages += 1;
    }

    pub(crate) fn invalidate(&mut self, page: u32) {
        let page = &mut self.pages[page as usize];
        debug_assert!(page.state.is_valid());
        page.state = PageState::Invalid;
        self.valid_pages -= 1;
        self.invalid_pages += 1;
    }

    /// Models a program torn by a fault or power cut: the page is consumed
    /// (free → invalid) but carries no readable metadata, exactly how the
    /// translation layers treat a half-programmed page at mount time.
    pub(crate) fn tear_program(&mut self, page: u32) {
        let page = &mut self.pages[page as usize];
        debug_assert!(page.state.is_free());
        page.state = PageState::Invalid;
        page.set_spare(SpareArea::default());
        self.invalid_pages += 1;
    }

    /// Models an erase torn by a power cut: the erase pulse started, so every
    /// page's contents are untrustworthy, but the pages never reached the
    /// clean free state. All non-free pages collapse to invalid with default
    /// spares; the erase count does not advance (the cycle never completed).
    pub(crate) fn tear_erase(&mut self) {
        for page in self.pages.iter_mut().filter(|p| !p.state.is_free()) {
            page.state = PageState::Invalid;
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
        self.pages.fill(Page::erased());
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
            .map(|(i, p)| (i as u32, p.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `peak_rss_mb` guard: a 4096 × 128 chip is half a million of these,
    /// and three parallel vectors spent 25 bytes a page.
    #[test]
    fn page_record_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Page>(), 24);
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
