//! A counting wear leveler — the RAM-hungry alternative the BET avoids.
//!
//! The obvious way to do static wear leveling is to keep the **full
//! per-block erase-count table** in RAM and force-recycle the least-worn
//! block whenever the spread `max − min` exceeds a margin Δ. It works, but
//! the table costs 2–4 bytes per block (16 KiB for the paper's 4096-block
//! chip) where the BET costs one *bit* per 2^k blocks (≤ 512 B) — the
//! paper's central memory-footprint argument (§4.1).
//!
//! This module implements that strawman faithfully so the repository can
//! quantify the trade-off (see `repro baseline_wl`): comparable
//! leveling quality, an order of magnitude more controller RAM.
//!
//! # Example
//!
//! ```
//! use swl_core::counting::CountingLeveler;
//!
//! let mut wl = CountingLeveler::new(4, 16); // Δ = 16 over 4 blocks
//! for _ in 0..20 {
//!     wl.note_erase(0);
//! }
//! assert_eq!(wl.pick_victim(), Some(1)); // least-worn block needs a move
//! ```

use std::fmt;

/// Full-table wear leveler: triggers when `max − min` erase counts exceed
/// the margin, pointing at the least-worn block (which, by construction,
/// hoards the coldest data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingLeveler {
    counts: Vec<u32>,
    margin: u32,
    /// Cursor to break ties cyclically (fairness among equally-cold
    /// blocks).
    cursor: u32,
}

impl CountingLeveler {
    /// Creates a leveler over `blocks` blocks with the spread margin Δ.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` or `margin` is zero.
    pub fn new(blocks: u32, margin: u32) -> Self {
        assert!(blocks > 0, "leveler must cover at least one block");
        assert!(margin > 0, "margin must be positive");
        Self {
            counts: vec![0; blocks as usize],
            margin,
            cursor: 0,
        }
    }

    /// Rebuilds the table from device counts (e.g. after a mount).
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty or `margin` is zero.
    pub fn from_counts(counts: &[u64], margin: u32) -> Self {
        assert!(!counts.is_empty(), "leveler must cover at least one block");
        assert!(margin > 0, "margin must be positive");
        Self {
            counts: counts
                .iter()
                .map(|&c| c.min(u64::from(u32::MAX)) as u32)
                .collect(),
            margin,
            cursor: 0,
        }
    }

    /// Number of blocks covered.
    pub fn blocks(&self) -> u32 {
        self.counts.len() as u32
    }

    /// The spread margin Δ.
    pub fn margin(&self) -> u32 {
        self.margin
    }

    /// Controller RAM held by the erase-count table — contrast with
    /// [`crate::Bet::ram_bytes`].
    pub fn ram_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u32>()
    }

    /// Records an erase of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn note_erase(&mut self, block: u32) {
        self.counts[block as usize] = self.counts[block as usize].saturating_add(1);
    }

    /// Current spread `max − min`.
    pub fn spread(&self) -> u32 {
        let max = self.counts.iter().copied().max().unwrap_or(0);
        let min = self.counts.iter().copied().min().unwrap_or(0);
        max - min
    }

    /// `true` when the spread is at or past the margin.
    pub fn needs_leveling(&self) -> bool {
        self.spread() >= self.margin
    }

    /// The block to force-recycle, when leveling is needed: the least-worn
    /// block, ties broken cyclically. Returns `None` below the margin.
    pub fn pick_victim(&mut self) -> Option<u32> {
        if !self.needs_leveling() {
            return None;
        }
        let blocks = self.counts.len() as u32;
        let min = *self.counts.iter().min().expect("non-empty");
        for step in 0..blocks {
            let b = (self.cursor + step) % blocks;
            if self.counts[b as usize] == min {
                self.cursor = (b + 1) % blocks;
                return Some(b);
            }
        }
        unreachable!("a minimum always exists")
    }
}

impl fmt::Display for CountingLeveler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CountingLeveler({} blocks, margin {}, spread {}, {} B RAM)",
            self.blocks(),
            self.margin,
            self.spread(),
            self.ram_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_below_margin() {
        let mut wl = CountingLeveler::new(4, 10);
        for _ in 0..9 {
            wl.note_erase(2);
        }
        assert_eq!(wl.spread(), 9);
        assert!(!wl.needs_leveling());
        assert_eq!(wl.pick_victim(), None);
    }

    #[test]
    fn picks_least_worn_block() {
        let mut wl = CountingLeveler::new(4, 5);
        for _ in 0..3 {
            wl.note_erase(0);
        }
        for _ in 0..8 {
            wl.note_erase(1);
        }
        wl.note_erase(2);
        // counts: [3, 8, 1, 0] → spread 8 ≥ 5 → min block 3.
        assert_eq!(wl.pick_victim(), Some(3));
    }

    #[test]
    fn ties_break_cyclically() {
        let mut wl = CountingLeveler::new(4, 1);
        wl.note_erase(0);
        // counts [1,0,0,0]: min blocks 1,2,3 — picked round robin.
        assert_eq!(wl.pick_victim(), Some(1));
        assert_eq!(wl.pick_victim(), Some(2));
        assert_eq!(wl.pick_victim(), Some(3));
        assert_eq!(wl.pick_victim(), Some(1));
    }

    #[test]
    fn ram_cost_dwarfs_bet() {
        // The paper's §4.1 point, in numbers: 4096 blocks.
        let wl = CountingLeveler::new(4096, 16);
        let bet = crate::Bet::new(4096, 0);
        assert_eq!(wl.ram_bytes(), 16_384);
        assert_eq!(bet.ram_bytes(), 512);
        assert!(wl.ram_bytes() >= 32 * bet.ram_bytes());
    }

    #[test]
    fn from_counts_restores_state() {
        let wl = CountingLeveler::from_counts(&[5, 2, 9], 3);
        assert_eq!(wl.spread(), 7);
        assert_eq!(wl.blocks(), 3);
    }

    #[test]
    #[should_panic(expected = "margin must be positive")]
    fn zero_margin_rejected() {
        CountingLeveler::new(4, 0);
    }

    #[test]
    fn display_summarises() {
        let wl = CountingLeveler::new(8, 4);
        assert!(wl.to_string().contains("8 blocks"));
    }
}
