//! Error type for device operations.

use std::error::Error;
use std::fmt;

use crate::page::PageAddr;

/// Errors raised by [`crate::NandDevice`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum NandError {
    /// The block index is outside the chip geometry.
    BlockOutOfRange {
        /// Offending block index.
        block: u32,
        /// Number of blocks on the chip.
        blocks: u32,
    },
    /// The page offset is outside the block.
    PageOutOfRange {
        /// Offending address.
        addr: PageAddr,
        /// Pages per block on this chip.
        pages_per_block: u32,
    },
    /// Attempt to program a page that is not in the free state
    /// (NAND pages must be erased before they can be programmed again).
    ProgramOnUsedPage {
        /// Offending address.
        addr: PageAddr,
    },
    /// A program whose spare area records an LBA wider than the chip's
    /// 30-bit spare field (above [`crate::SpareArea::MAX_LBA`]). Refused
    /// before the page is touched or any time is charged.
    SpareLbaOutOfRange {
        /// Target address of the refused program.
        addr: PageAddr,
        /// The LBA that does not fit.
        lba: u64,
    },
    /// Attempt to read a page that has never been programmed since the last
    /// erase; real chips return all-`0xFF`, we surface it as an error so the
    /// translation layers catch mapping bugs immediately.
    ReadOfFreePage {
        /// Offending address.
        addr: PageAddr,
    },
    /// Attempt to invalidate a page that is not valid.
    InvalidateNonValidPage {
        /// Offending address.
        addr: PageAddr,
    },
    /// Erase refused because the block is worn out and the device runs under
    /// [`crate::WearPolicy::FailWornBlocks`].
    BlockWornOut {
        /// The worn-out block.
        block: u32,
        /// Its erase count at the time of the refused erase.
        erase_count: u64,
    },
    /// A page program failed (injected by the [`crate::FaultPlan`]). The
    /// target page is consumed — torn to the invalid state with no readable
    /// metadata — and the containing block is marked grown-bad, so its next
    /// erase will fail with [`NandError::EraseFailed`]. The translation layer
    /// must retry the write on a different block.
    ProgramFailed {
        /// Address of the page that failed to program.
        addr: PageAddr,
    },
    /// A block erase failed permanently (injected by the
    /// [`crate::FaultPlan`]: a grown-bad block, a per-block endurance limit,
    /// or a probabilistic erase fault). The block must be retired from
    /// rotation; retrying will fail again.
    EraseFailed {
        /// The bad block.
        block: u32,
    },
    /// The fault plan's power-cut point has fired: simulated power is off and
    /// every device operation fails until the harness calls
    /// [`crate::NandDevice::power_cycle`].
    PowerCut,
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::BlockOutOfRange { block, blocks } => {
                write!(f, "block {block} out of range (chip has {blocks} blocks)")
            }
            NandError::PageOutOfRange {
                addr,
                pages_per_block,
            } => write!(
                f,
                "page {addr} out of range (blocks have {pages_per_block} pages)"
            ),
            NandError::ProgramOnUsedPage { addr } => {
                write!(f, "program on non-free page {addr}")
            }
            NandError::SpareLbaOutOfRange { addr, lba } => write!(
                f,
                "spare LBA {lba} at page {addr} exceeds the 30-bit spare field"
            ),
            NandError::ReadOfFreePage { addr } => {
                write!(f, "read of never-programmed page {addr}")
            }
            NandError::InvalidateNonValidPage { addr } => {
                write!(f, "invalidate on non-valid page {addr}")
            }
            NandError::BlockWornOut { block, erase_count } => {
                write!(f, "block {block} worn out after {erase_count} erases")
            }
            NandError::ProgramFailed { addr } => {
                write!(f, "program failed at page {addr} (block is grown-bad)")
            }
            NandError::EraseFailed { block } => {
                write!(f, "erase failed on bad block {block}")
            }
            NandError::PowerCut => {
                write!(f, "power is cut; device needs a power cycle")
            }
        }
    }
}

impl Error for NandError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let e = NandError::BlockOutOfRange {
            block: 9,
            blocks: 4,
        };
        let msg = e.to_string();
        assert!(msg.starts_with("block 9"));
        assert!(msg.contains('4'));

        let e = NandError::ProgramOnUsedPage {
            addr: PageAddr::new(1, 2),
        };
        assert!(e.to_string().contains("(1,2)"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NandError>();
    }
}
