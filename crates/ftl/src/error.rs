//! FTL error type.

use std::error::Error;
use std::fmt;

use hotid::BuildIdentifierError;
use nand::{NandError, PageAddr};
use swl_core::SwlError;

/// Errors surfaced by [`crate::PageMappedFtl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FtlError {
    /// The logical address is beyond the exported capacity.
    LbaOutOfRange {
        /// Offending logical page address.
        lba: u64,
        /// Exported logical capacity in pages.
        logical_pages: u64,
    },
    /// Garbage collection found no block with reclaimable (invalid) pages:
    /// the host has filled the logical space beyond what the layout can
    /// absorb. Increase overprovisioning or trim unused data.
    NoReclaimableSpace,
    /// The free-block pool ran dry while relocating data (should not happen
    /// when `min_free_blocks ≥ 2`; indicates a configuration error).
    FreeExhausted,
    /// A page claimed valid carries no LBA in its spare area — an internal
    /// consistency failure.
    CorruptSpare {
        /// The page whose spare area was unusable.
        addr: PageAddr,
    },
    /// Mounting found two valid pages claiming the same logical address.
    MountConflict {
        /// The doubly-claimed logical page.
        lba: u64,
    },
    /// A snapshot verb was called on an FTL built without
    /// [`crate::SnapshotConfig`].
    SnapshotsDisabled,
    /// The named snapshot does not exist.
    UnknownSnapshot {
        /// The snapshot id that was not found.
        id: u64,
    },
    /// A snapshot with this id already exists.
    SnapshotExists {
        /// The duplicate snapshot id.
        id: u64,
    },
    /// The snapshot manifest no longer fits in its reserved blocks; delete
    /// or merge snapshots, or raise `manifest_blocks`.
    ManifestFull,
    /// An online merge is already in flight; commit or finish it first.
    MergeInProgress,
    /// `merge_step`/`merge_commit` was called with no merge begun.
    NoMergeInProgress,
    /// The underlying device rejected an operation.
    Device(NandError),
    /// The attached SW Leveler rejected its configuration.
    Swl(SwlError),
    /// The hot-data identifier rejected its configuration.
    HotData(BuildIdentifierError),
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::LbaOutOfRange { lba, logical_pages } => {
                write!(f, "lba {lba} out of range ({logical_pages} logical pages)")
            }
            FtlError::NoReclaimableSpace => {
                f.write_str("no reclaimable space: logical capacity exhausted")
            }
            FtlError::FreeExhausted => f.write_str("free block pool exhausted during relocation"),
            FtlError::CorruptSpare { addr } => {
                write!(f, "valid page {addr} carries no lba in its spare area")
            }
            FtlError::MountConflict { lba } => {
                write!(f, "mount found two valid pages for lba {lba}")
            }
            FtlError::SnapshotsDisabled => f.write_str("snapshots are not enabled on this ftl"),
            FtlError::UnknownSnapshot { id } => write!(f, "no snapshot with id {id}"),
            FtlError::SnapshotExists { id } => write!(f, "snapshot {id} already exists"),
            FtlError::ManifestFull => f.write_str("snapshot manifest exceeds its reserved blocks"),
            FtlError::MergeInProgress => f.write_str("a snapshot merge is already in flight"),
            FtlError::NoMergeInProgress => f.write_str("no snapshot merge is in flight"),
            FtlError::Device(e) => write!(f, "device error: {e}"),
            FtlError::Swl(e) => write!(f, "wear leveler error: {e}"),
            FtlError::HotData(e) => write!(f, "hot-data identifier error: {e}"),
        }
    }
}

impl Error for FtlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FtlError::Device(e) => Some(e),
            FtlError::Swl(e) => Some(e),
            FtlError::HotData(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NandError> for FtlError {
    fn from(e: NandError) -> Self {
        FtlError::Device(e)
    }
}

impl From<SwlError> for FtlError {
    fn from(e: SwlError) -> Self {
        FtlError::Swl(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_context() {
        let e = FtlError::LbaOutOfRange {
            lba: 9,
            logical_pages: 4,
        };
        assert!(e.to_string().contains("lba 9"));
        let e = FtlError::Device(NandError::BlockOutOfRange {
            block: 1,
            blocks: 1,
        });
        assert!(e.to_string().starts_with("device error"));
    }

    #[test]
    fn sources_chain() {
        let e = FtlError::Device(NandError::ReadOfFreePage {
            addr: PageAddr::new(0, 0),
        });
        assert!(e.source().is_some());
        assert!(FtlError::NoReclaimableSpace.source().is_none());
    }
}
