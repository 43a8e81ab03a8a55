//! # `swl-core` — an efficient static wear leveling design
//!
//! Implementation of the static wear leveling mechanism from
//!
//! > Y.-H. Chang, J.-W. Hsieh, T.-W. Kuo. *Endurance Enhancement of
//! > Flash-Memory Storage Systems: An Efficient Static Wear Leveling
//! > Design.* DAC 2007.
//!
//! **Dynamic** wear leveling (recycling blocks with low erase counts) cannot
//! touch blocks pinned under *cold* data: data that is never updated keeps
//! its blocks young forever while the rest of the chip wears out. **Static**
//! wear leveling fixes this by occasionally forcing cold data to move, so
//! that every block participates in wear.
//!
//! The design has two pieces:
//!
//! - the [`Bet`] (*Block Erasing Table*) — one RAM bit per set of `2^k`
//!   contiguous blocks, recording whether any block of the set was erased in
//!   the current *resetting interval*;
//! - the [`SwLeveler`] — the SWL-Procedure / SWL-BETUpdate pair
//!   (Algorithms 1 and 2 of the paper): when the *unevenness level*
//!   `ecnt / fcnt` reaches a threshold `T`, the leveler cyclically scans the
//!   BET for a cleared flag and asks the garbage collector (the *Cleaner*,
//!   abstracted as [`SwlCleaner`]) to recycle that block set, evicting
//!   whatever cold data sits there.
//!
//! The crate is deliberately independent of any flash translation layer:
//! `ftl` and `nftl` in this workspace plug in through [`SwlCleaner`], as
//! would any host FTL.
//!
//! Two auxiliary modules round out the paper's coverage:
//!
//! - [`persist`] — the dual-buffer snapshot scheme of §3.2 for rebuilding
//!   the BET across power cycles (tolerating a torn newest copy);
//! - [`analysis`] — the closed-form worst-case overhead bounds of §4
//!   (Tables 2 and 3).
//!
//! For multi-channel arrays, [`shard`] computes a *global* unevenness over
//! several per-channel levelers and picks the worst shard for the next
//! SWL-Procedure step ([`SwLeveler::level_step`]).
//!
//! ## Example
//!
//! ```
//! use swl_core::{LevelOutcome, SwLeveler, SwlCleaner, SwlConfig};
//!
//! /// A toy cleaner: erasing a block set just reports the erases back.
//! struct ToyCleaner;
//! impl SwlCleaner for ToyCleaner {
//!     type Error = std::convert::Infallible;
//!     fn erase_block_set(
//!         &mut self,
//!         first_block: u32,
//!         count: u32,
//!         erased: &mut Vec<u32>,
//!     ) -> Result<(), Self::Error> {
//!         erased.extend(first_block..first_block + count);
//!         Ok(())
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 64 blocks, flag granularity 2^0 = 1 block, threshold T = 4.
//! let mut leveler = SwLeveler::new(64, SwlConfig::new(4, 0))?;
//!
//! // Hot traffic hammers block 7: the unevenness level climbs to T.
//! for _ in 0..4 {
//!     leveler.note_erase(7);
//! }
//! assert!(leveler.needs_leveling());
//!
//! // SWL-Procedure now forces cold block sets through garbage collection.
//! let outcome = leveler.level(&mut ToyCleaner)?;
//! assert!(matches!(outcome, LevelOutcome::Leveled { .. }));
//! assert!(!leveler.needs_leveling());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
mod bet;
pub mod counting;
mod leveler;
pub mod persist;
pub mod rng;
pub mod shard;

pub use bet::Bet;
pub use leveler::{LevelOutcome, SwLeveler, SwlCleaner, SwlConfig, SwlError, SwlStats};
pub use shard::{global_over_threshold, global_unevenness, worst_shard, ShardView, StallRule};
