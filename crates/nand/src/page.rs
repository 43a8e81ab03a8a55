//! Pages: addressing, state, and the spare (out-of-band) area.

use std::fmt;

use crate::Lba;

/// Physical page address: an erase-block index plus a page offset inside it.
///
/// # Example
///
/// ```
/// use nand::{Geometry, PageAddr};
///
/// let g = Geometry::new(8, 4, 512);
/// let addr = PageAddr::new(2, 3);
/// assert_eq!(addr.flat_index(&g), 11);
/// assert_eq!(PageAddr::from_flat_index(&g, 11), addr);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageAddr {
    /// Erase-block index.
    pub block: u32,
    /// Page offset within the block.
    pub page: u32,
}

impl PageAddr {
    /// Creates a page address.
    pub fn new(block: u32, page: u32) -> Self {
        Self { block, page }
    }

    /// Flat page index under `geometry`.
    pub fn flat_index(&self, geometry: &crate::Geometry) -> u64 {
        geometry.page_index(self.block, self.page)
    }

    /// Reconstructs an address from a flat page index.
    pub fn from_flat_index(geometry: &crate::Geometry, index: u64) -> Self {
        let (block, page) = geometry.split_page_index(index);
        Self { block, page }
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.block, self.page)
    }
}

/// Lifecycle state of a physical page.
///
/// The translation layer drives the `Free → Valid → Invalid → (erase) → Free`
/// cycle; the device enforces that only free pages are programmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageState {
    /// Erased and ready to be programmed.
    #[default]
    Free,
    /// Holds live data for some LBA.
    Valid,
    /// Held data that has since been superseded; reclaimed by erasing the
    /// containing block.
    Invalid,
}

impl PageState {
    /// `true` for [`PageState::Free`].
    pub fn is_free(&self) -> bool {
        matches!(self, PageState::Free)
    }

    /// `true` for [`PageState::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, PageState::Valid)
    }

    /// `true` for [`PageState::Invalid`].
    pub fn is_invalid(&self) -> bool {
        matches!(self, PageState::Invalid)
    }
}

/// The out-of-band ("spare") area a translation layer writes next to each
/// page: the owning LBA and a free-form status word.
///
/// Real chips reserve 16–64 bytes per page for this; we model only the fields
/// the translation layers need. `lba == u64::MAX` encodes "no LBA recorded"
/// (e.g. metadata pages), exposed as `None` by [`SpareArea::lba`].
///
/// The chip stores the LBA in a 30-bit field, so a recorded LBA is at most
/// [`SpareArea::MAX_LBA`] (2^30 − 2); [`NandDevice::program`] refuses a wider
/// one with [`NandError::SpareLbaOutOfRange`]. The constructors accept any
/// `u64`; the chip enforces the width.
///
/// [`NandDevice::program`]: crate::NandDevice::program
/// [`NandError::SpareLbaOutOfRange`]: crate::NandError::SpareLbaOutOfRange
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpareArea {
    pub(crate) raw_lba: u64,
    pub(crate) status: u32,
}

/// Status word value for a freshly written live page.
pub const STATUS_LIVE: u32 = 0;

/// Status word of the on-flash bad-block marker (all bits set — the
/// "non-clean byte in the spare area" convention of real chips).
pub const STATUS_BAD_BLOCK: u32 = u32::MAX;

impl SpareArea {
    /// The largest LBA the chip's 30-bit spare field records (2^30 − 2:
    /// the field holds the LBA + 1, and 0 means "no LBA").
    pub const MAX_LBA: Lba = (1 << crate::block::LBA_BITS) - 2;

    /// Whether the chip can store `raw_lba` — an LBA up to
    /// [`MAX_LBA`](Self::MAX_LBA), or `u64::MAX` for none.
    pub(crate) fn lba_fits(raw_lba: u64) -> bool {
        raw_lba <= Self::MAX_LBA || raw_lba == u64::MAX
    }

    /// Spare area recording that the page holds live data for `lba`.
    pub fn valid(lba: Lba) -> Self {
        Self {
            raw_lba: lba,
            status: STATUS_LIVE,
        }
    }

    /// Spare area with an explicit status word (translation-layer defined).
    pub fn with_status(lba: Lba, status: u32) -> Self {
        Self {
            raw_lba: lba,
            status,
        }
    }

    /// Spare area carrying no LBA (metadata / bookkeeping pages).
    pub fn metadata(status: u32) -> Self {
        Self {
            raw_lba: u64::MAX,
            status,
        }
    }

    /// The firmware bad-block marker. Programmed into the spare area of
    /// page 0 when a translation layer retires a block, so that a later
    /// mount rediscovers the retirement instead of resurrecting stale data
    /// (real chips use a designated non-clean spare byte the same way).
    pub fn bad_block() -> Self {
        Self {
            raw_lba: u64::MAX,
            status: STATUS_BAD_BLOCK,
        }
    }

    /// Whether this spare area carries the bad-block marker.
    pub fn is_bad_block_marker(&self) -> bool {
        self.raw_lba == u64::MAX && self.status == STATUS_BAD_BLOCK
    }

    /// The LBA recorded in the spare area, if any.
    pub fn lba(&self) -> Option<Lba> {
        (self.raw_lba != u64::MAX).then_some(self.raw_lba)
    }

    /// The translation-layer status word.
    pub fn status(&self) -> u32 {
        self.status
    }
}

impl Default for SpareArea {
    fn default() -> Self {
        Self::metadata(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Geometry;

    #[test]
    fn page_addr_round_trips_flat_index() {
        let g = Geometry::new(4, 8, 512);
        for flat in 0..g.total_pages() {
            let addr = PageAddr::from_flat_index(&g, flat);
            assert_eq!(addr.flat_index(&g), flat);
        }
    }

    #[test]
    fn state_predicates() {
        assert!(PageState::Free.is_free());
        assert!(PageState::Valid.is_valid());
        assert!(PageState::Invalid.is_invalid());
        assert!(!PageState::Free.is_valid());
        assert_eq!(PageState::default(), PageState::Free);
    }

    #[test]
    fn spare_area_records_lba() {
        let spare = SpareArea::valid(77);
        assert_eq!(spare.lba(), Some(77));
        assert_eq!(spare.status(), STATUS_LIVE);
    }

    #[test]
    fn metadata_spare_has_no_lba() {
        let spare = SpareArea::metadata(9);
        assert_eq!(spare.lba(), None);
        assert_eq!(spare.status(), 9);
    }

    #[test]
    fn display_shows_block_and_page() {
        assert_eq!(PageAddr::new(3, 12).to_string(), "(3,12)");
    }
}
