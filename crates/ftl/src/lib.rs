//! # `ftl` — a page-mapping flash translation layer
//!
//! The fine-grained baseline of the DAC 2007 static wear leveling study:
//! every logical page has its own entry in a RAM translation table, updates
//! are written out-of-place to a log-structured *frontier* block, and a
//! greedy garbage collector reclaims invalid pages.
//!
//! Faithful to the paper's experimental setup (§5.1):
//!
//! - **Greedy cost/benefit Cleaner** — victims are found by a cyclic scan
//!   over the chip; a block qualifies when its benefit (invalid pages)
//!   outweighs its cost (valid pages to copy).
//! - **GC trigger** — garbage collection runs when free blocks drop under
//!   0.2 % of capacity (configurable).
//! - **Dynamic wear leveling** — the allocator always takes the free block
//!   with the lowest erase count.
//! - **Static wear leveling** — optional [`swl_core::SwLeveler`] integration:
//!   [`PageMappedFtl`] is the [`PageMapping`] under the shared
//!   [`nand::SwlHost`] shell, which reports every erase to SWL-BETUpdate and
//!   lets SWL-Procedure force cold blocks through GC.
//!
//! The free list, block retirement and cause-attributed erases come from the
//! shared [`nand::BlockPool`]; this crate holds only what is particular to
//! page mapping.
//!
//! ## Example
//!
//! ```
//! use ftl::{FtlConfig, PageMappedFtl};
//! use nand::{CellKind, Geometry, NandDevice};
//! use swl_core::SwlConfig;
//!
//! # fn main() -> Result<(), ftl::FtlError> {
//! let device = NandDevice::new(Geometry::new(64, 16, 2048), CellKind::Mlc2.spec());
//! let mut ftl = PageMappedFtl::with_swl(device, FtlConfig::default(), SwlConfig::new(100, 0))?;
//!
//! ftl.write(10, 0xAA)?;
//! ftl.write(10, 0xBB)?; // out-of-place update
//! assert_eq!(ftl.read(10)?, Some(0xBB));
//! assert_eq!(ftl.counters().host_writes, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod snapshot;
mod translation;

pub use config::{FtlConfig, SnapshotConfig};
pub use error::FtlError;
/// What the FTL did, split by cause — the raw material for the paper's
/// Figures 6 and 7 (extra erases / extra live-page copyings due to SWL).
///
/// The definition is shared with `nftl` and `flash-sim` (it lives in
/// `flash-telemetry`, so the metrics aggregator can rebuild the same totals
/// from a replayed event log); the NFTL-only merge counts stay zero here.
pub use flash_telemetry::FlashCounters as FtlCounters;
pub use translation::{PageMappedFtl, PageMapping, SnapshotAudit};
