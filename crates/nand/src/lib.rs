//! # `nand` — a NAND flash memory device simulator
//!
//! This crate models the raw NAND flash chip that a flash translation layer
//! (FTL/NFTL) manages: blocks made of pages, program/erase semantics,
//! per-block wear, cell endurance, and operation timing. It is the substrate
//! for the DAC 2007 static wear leveling reproduction, but it is a
//! general-purpose simulator usable for any FTL research.
//!
//! ## Model
//!
//! - A chip is a [`Geometry`]: `blocks × pages_per_block × page_size` bytes.
//! - Reads and programs operate on single pages; erases operate on blocks
//!   (the smallest erasable unit), exactly as in real NAND.
//! - A page can be programmed **once** between erases; re-programming a page
//!   without an intervening block erase is rejected (out-place update is
//!   therefore forced onto the layer above).
//! - Each page carries a small **spare area** ([`SpareArea`]) in which the
//!   translation layer stores the owning LBA and a status word, mirroring the
//!   out-of-band region of real chips. As on a real 2 KiB-page chip the LBA
//!   field has a fixed width, 30 bits: an LBA up to [`SpareArea::MAX_LBA`]
//!   (2^30 − 2) is recorded, and [`NandDevice::program`] refuses a wider one
//!   with [`NandError::SpareLbaOutOfRange`] before it touches the page.
//! - A page costs 16 bytes of host RAM (payload token, status word, and one
//!   word packing the page state with the spare LBA), so the paper's
//!   4096 × 128 MLC×2 chip is 8 MiB of page records.
//! - Every block counts its erases. When a block exceeds the endurance of its
//!   [`CellKind`] (100 000 cycles for SLC, 10 000 for MLC×2), the device
//!   records the **first failure** — the primary endurance metric of the
//!   paper — and, depending on [`WearPolicy`], either keeps simulating or
//!   starts failing erases.
//! - The device accumulates busy time from per-op latencies ([`Timing`]), so
//!   experiments can report simulated device time without wall-clock cost.
//!
//! ## The Cleaner substrate
//!
//! What every translation layer needs to manage the chip, defined once:
//! [`BlockPool`] (free list, retirement, cause-attributed erases, spans),
//! [`VictimIndex`], and [`SwlHost`], the shell hosting the SW Leveler over
//! any [`Mapping`] — `ftl` and `nftl` are two mappings under that shell.
//!
//! ## Example
//!
//! ```
//! use nand::{CellKind, Geometry, NandDevice, PageAddr, SpareArea};
//!
//! # fn main() -> Result<(), nand::NandError> {
//! let geometry = Geometry::mlc2_1gib().with_blocks(16);
//! let mut device = NandDevice::new(geometry, CellKind::Mlc2.spec());
//!
//! let page = PageAddr::new(0, 0);
//! device.program(page, 0xDEAD_BEEF, SpareArea::valid(42))?;
//! let read = device.read(page)?;
//! assert_eq!(read.data, 0xDEAD_BEEF);
//! assert_eq!(read.spare.lba(), Some(42));
//!
//! device.erase(0)?;
//! assert_eq!(device.block(0).erase_count(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod block;
mod cell;
mod channels;
mod device;
mod error;
pub mod fault;
pub mod freelist;
mod geometry;
pub mod host;
mod page;
pub mod pool;
mod stats;
pub mod victim;
mod wearmap;

pub use block::{Block, BlockState};
pub use cell::{CellKind, CellSpec, Timing};
pub use channels::ChannelGeometry;
pub use device::{DeviceCounters, FailureRecord, NandDevice, ReadResult, WearPolicy};
pub use error::NandError;
pub use fault::FaultPlan;
pub use freelist::FreeBlockLadder;
pub use geometry::Geometry;
pub use host::{Mapping, ShellKey, SwlHost};
pub use page::{PageAddr, PageState, SpareArea};
pub use pool::BlockPool;
pub use stats::EraseStats;
pub use victim::VictimIndex;
pub use wearmap::WearMap;

/// Simulated time in nanoseconds since the device was powered on.
///
/// The device advances this clock by the latency of every operation it
/// performs, so it measures *device busy time*, not host wall-clock time.
pub type DeviceNanos = u64;

/// A logical block address as seen by the host (a 512 B–4 KiB sector index,
/// depending on the page size of the underlying geometry).
pub type Lba = u64;
