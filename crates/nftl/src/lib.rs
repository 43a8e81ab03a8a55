//! # `nftl` — a block-mapping NAND flash translation layer
//!
//! The coarse-grained baseline of the DAC 2007 static wear leveling study,
//! after the M-Systems NFTL design: a logical address splits into a *virtual
//! block address* (VBA) and a *block offset*; each VBA maps to a **primary**
//! physical block, written in place at the offset, plus (once offsets start
//! being overwritten) a **replacement** block that absorbs updates
//! sequentially. A full replacement block triggers a *merge*: the newest
//! copy of every offset is gathered into a fresh primary and the two old
//! blocks are erased.
//!
//! As in the paper's experiments:
//!
//! - garbage collection (merging the pair with the most invalid pages,
//!   found by cyclic scan) runs when free blocks drop under 0.2 % of
//!   capacity;
//! - the allocator takes the lowest-erase-count free block (dynamic wear
//!   leveling);
//! - the [`SwLeveler`](swl_core::SwLeveler) forces cold blocks through
//!   recycling: [`BlockMappedNftl`] is the [`BlockMapping`] under the shared
//!   [`nand::SwlHost`] shell, over the shared [`nand::BlockPool`].
//!
//! ## Example
//!
//! ```
//! use nand::{CellKind, Geometry, NandDevice};
//! use nftl::{BlockMappedNftl, NftlConfig};
//!
//! # fn main() -> Result<(), nftl::NftlError> {
//! let device = NandDevice::new(Geometry::new(32, 8, 2048), CellKind::Mlc2.spec());
//! let mut nftl = BlockMappedNftl::new(device, NftlConfig::default())?;
//!
//! nftl.write(9, 0x11)?;
//! nftl.write(9, 0x22)?; // overwrite goes to a replacement block
//! assert_eq!(nftl.read(9)?, Some(0x22));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod translation;

pub use config::NftlConfig;
pub use error::NftlError;
/// What the NFTL did, split by cause — inputs to the paper's Figures 6/7.
///
/// The definition is shared with `ftl` and `flash-sim` (it lives in
/// `flash-telemetry`, so the metrics aggregator can rebuild the same totals
/// from a replayed event log); page-mapping-only `trims` stays zero here.
pub use flash_telemetry::FlashCounters as NftlCounters;
pub use translation::{BlockMappedNftl, BlockMapping};
