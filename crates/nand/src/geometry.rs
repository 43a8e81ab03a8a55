//! Chip geometry: block count, pages per block, page size.

use std::fmt;

/// Physical organisation of a NAND chip.
///
/// The paper's three reference configurations are available as constructors:
///
/// | preset | page | pages/block | typical cell |
/// |---|---|---|---|
/// | [`Geometry::small_block_slc`] | 512 B | 32 | SLC |
/// | [`Geometry::large_block_slc`] | 2 KiB | 64 | SLC |
/// | [`Geometry::mlc2_1gib`] | 2 KiB | 128 | MLC×2 |
///
/// # Example
///
/// ```
/// use nand::Geometry;
///
/// let g = Geometry::mlc2_1gib();
/// assert_eq!(g.blocks(), 4096);
/// assert_eq!(g.pages_per_block(), 128);
/// assert_eq!(g.capacity_bytes(), 1 << 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    blocks: u32,
    pages_per_block: u32,
    page_bytes: u32,
}

impl Geometry {
    /// Creates a geometry from raw dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(blocks: u32, pages_per_block: u32, page_bytes: u32) -> Self {
        assert!(blocks > 0, "geometry must have at least one block");
        assert!(pages_per_block > 0, "blocks must have at least one page");
        assert!(page_bytes > 0, "pages must be at least one byte");
        Self {
            blocks,
            pages_per_block,
            page_bytes,
        }
    }

    /// Small-block SLC flash: 512 B pages, 32 pages per block.
    ///
    /// `capacity_bytes` is rounded down to a whole number of blocks.
    pub fn small_block_slc(capacity_bytes: u64) -> Self {
        Self::for_capacity(capacity_bytes, 32, 512)
    }

    /// Large-block SLC flash: 2 KiB pages, 64 pages per block.
    pub fn large_block_slc(capacity_bytes: u64) -> Self {
        Self::for_capacity(capacity_bytes, 64, 2048)
    }

    /// The paper's evaluation chip: 1 GiB MLC×2, 2 KiB pages, 128 pages per
    /// block — 4096 blocks in total.
    pub fn mlc2_1gib() -> Self {
        Self::for_capacity(1 << 30, 128, 2048)
    }

    fn for_capacity(capacity_bytes: u64, pages_per_block: u32, page_bytes: u32) -> Self {
        let block_bytes = u64::from(pages_per_block) * u64::from(page_bytes);
        let blocks = capacity_bytes / block_bytes;
        assert!(blocks > 0, "capacity smaller than a single block");
        assert!(blocks <= u64::from(u32::MAX), "capacity too large");
        Self::new(blocks as u32, pages_per_block, page_bytes)
    }

    /// Returns a copy with the block count replaced.
    ///
    /// Useful for shrinking a standard geometry so that tests and
    /// scaled-down experiments run quickly while preserving the page layout.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    pub fn with_blocks(self, blocks: u32) -> Self {
        Self::new(blocks, self.pages_per_block, self.page_bytes)
    }

    /// Number of erase blocks on the chip.
    pub fn blocks(&self) -> u32 {
        self.blocks
    }

    /// Number of pages in each erase block.
    pub fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    /// User-data bytes per page (spare area not included).
    pub fn page_bytes(&self) -> u32 {
        self.page_bytes
    }

    /// Total number of pages on the chip.
    pub fn total_pages(&self) -> u64 {
        u64::from(self.blocks) * u64::from(self.pages_per_block)
    }

    /// Total user-data capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * u64::from(self.page_bytes)
    }

    /// Bytes held by one erase block.
    pub fn block_bytes(&self) -> u64 {
        u64::from(self.pages_per_block) * u64::from(self.page_bytes)
    }

    /// Flat page index of `(block, page)`, the inverse of
    /// [`Geometry::split_page_index`].
    pub fn page_index(&self, block: u32, page: u32) -> u64 {
        debug_assert!(block < self.blocks && page < self.pages_per_block);
        u64::from(block) * u64::from(self.pages_per_block) + u64::from(page)
    }

    /// Splits a flat page index back into `(block, page)`.
    pub fn split_page_index(&self, index: u64) -> (u32, u32) {
        let ppb = u64::from(self.pages_per_block);
        ((index / ppb) as u32, (index % ppb) as u32)
    }

    /// Checks that a block index is on-chip.
    pub fn contains_block(&self, block: u32) -> bool {
        block < self.blocks
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} blocks x {} pages x {} B ({} MiB)",
            self.blocks,
            self.pages_per_block,
            self.page_bytes,
            self.capacity_bytes() >> 20
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let small = Geometry::small_block_slc(128 << 20);
        assert_eq!(small.page_bytes(), 512);
        assert_eq!(small.pages_per_block(), 32);
        assert_eq!(small.capacity_bytes(), 128 << 20);

        let large = Geometry::large_block_slc(1 << 30);
        assert_eq!(large.page_bytes(), 2048);
        assert_eq!(large.pages_per_block(), 64);

        let mlc = Geometry::mlc2_1gib();
        assert_eq!(mlc.blocks(), 4096);
        assert_eq!(mlc.pages_per_block(), 128);
        assert_eq!(mlc.page_bytes(), 2048);
        assert_eq!(mlc.capacity_bytes(), 1 << 30);
    }

    #[test]
    fn mlc_lba_space_matches_paper() {
        // The paper reports 2,097,152 LBAs for the 1 GiB MLC×2 chip
        // (one LBA per 512 B sector... no: per 2 KiB page would be 524,288;
        // the paper's 2,097,152 counts 512 B sectors). Our device addresses
        // pages; the trace crate maps sectors onto pages.
        let g = Geometry::mlc2_1gib();
        assert_eq!(g.total_pages(), 524_288);
        assert_eq!(g.capacity_bytes() / 512, 2_097_152);
    }

    #[test]
    fn page_index_round_trips() {
        let g = Geometry::new(10, 16, 512);
        for block in 0..10 {
            for page in 0..16 {
                let idx = g.page_index(block, page);
                assert_eq!(g.split_page_index(idx), (block, page));
            }
        }
    }

    #[test]
    fn with_blocks_overrides_count() {
        let g = Geometry::mlc2_1gib().with_blocks(64);
        assert_eq!(g.blocks(), 64);
        assert_eq!(g.pages_per_block(), 128);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        Geometry::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "capacity smaller")]
    fn sub_block_capacity_rejected() {
        Geometry::small_block_slc(1);
    }

    #[test]
    fn display_mentions_dimensions() {
        let g = Geometry::mlc2_1gib();
        let s = g.to_string();
        assert!(s.contains("4096 blocks"));
        assert!(s.contains("1024 MiB"));
    }
}
