//! A wear-bucketed free-block list with O(1) amortized min-wear pop.
//!
//! The Cleaner of the paper allocates the free block with the *lowest* erase
//! count (dynamic wear leveling). A plain `Vec` makes that an O(free) scan
//! on every frontier allocation — one of the hottest paths of a simulated
//! run. Erase counts only ever grow, and grow by one per erase, so an
//! indexed bucket ladder (bucket = absolute erase count) gives O(1) push
//! and O(1) amortized pop: the minimum cursor only moves backward when a
//! lower-wear block is pushed, which itself bounds the forward re-scans.
//!
//! Shared by the page-mapping FTL and the NFTL (both of this workspace's
//! translation layers allocate the same way).

use std::collections::VecDeque;

/// Free blocks bucketed by absolute erase count; pops lowest wear first,
/// FIFO within a wear level (deterministic).
#[derive(Debug, Clone, Default)]
pub struct FreeBlockLadder {
    /// `buckets[w]` holds the free blocks with erase count `w`.
    buckets: Vec<VecDeque<u32>>,
    /// No non-empty bucket exists below this index.
    min_hint: usize,
    len: usize,
}

impl FreeBlockLadder {
    /// An empty ladder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of free blocks held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ladder holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `block` with the given erase count.
    pub fn push(&mut self, block: u32, wear: u64) {
        let wear = usize::try_from(wear).expect("erase count fits usize");
        if wear >= self.buckets.len() {
            self.buckets.resize_with(wear + 1, VecDeque::new);
        }
        self.buckets[wear].push_back(block);
        if self.len == 0 || wear < self.min_hint {
            self.min_hint = wear;
        }
        self.len += 1;
    }

    /// Removes and returns a block with the lowest erase count (FIFO among
    /// equals), or `None` when empty.
    pub fn pop_min(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        while self.buckets[self.min_hint].is_empty() {
            self.min_hint += 1;
        }
        let block = self.buckets[self.min_hint].pop_front().expect("non-empty");
        self.len -= 1;
        Some(block)
    }

    /// Removes a specific block, given the erase count it was pushed with.
    /// Returns whether it was present. O(bucket) — used only on the rare
    /// retire path.
    pub fn remove(&mut self, block: u32, wear: u64) -> bool {
        let wear = wear as usize;
        let Some(bucket) = self.buckets.get_mut(wear) else {
            return false;
        };
        match bucket.iter().position(|&b| b == block) {
            Some(at) => {
                bucket.remove(at);
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Moves a block from one wear level to another, preserving FIFO age at
    /// the new level. Needed when the SW Leveler erases a block *while it
    /// sits in the free pool* (in-place leveling of free blocks bumps their
    /// wear without an allocate/free round trip).
    pub fn reposition(&mut self, block: u32, old_wear: u64, new_wear: u64) {
        let removed = self.remove(block, old_wear);
        debug_assert!(removed, "repositioned block {block} was not in the ladder");
        if removed {
            self.push(block, new_wear);
        }
    }

    /// Iterates over all held blocks in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.buckets.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_lowest_wear_first() {
        let mut ladder = FreeBlockLadder::new();
        ladder.push(7, 3);
        ladder.push(1, 1);
        ladder.push(2, 2);
        assert_eq!(ladder.pop_min(), Some(1));
        assert_eq!(ladder.pop_min(), Some(2));
        assert_eq!(ladder.pop_min(), Some(7));
        assert_eq!(ladder.pop_min(), None);
    }

    #[test]
    fn fifo_within_a_wear_level() {
        let mut ladder = FreeBlockLadder::new();
        ladder.push(5, 2);
        ladder.push(9, 2);
        ladder.push(3, 2);
        assert_eq!(ladder.pop_min(), Some(5));
        assert_eq!(ladder.pop_min(), Some(9));
        assert_eq!(ladder.pop_min(), Some(3));
    }

    #[test]
    fn min_cursor_moves_back_on_fresh_push() {
        let mut ladder = FreeBlockLadder::new();
        ladder.push(1, 10);
        assert_eq!(ladder.pop_min(), Some(1));
        ladder.push(2, 10);
        ladder.push(3, 4); // fresher block arrives later
        assert_eq!(ladder.pop_min(), Some(3));
        assert_eq!(ladder.pop_min(), Some(2));
    }

    #[test]
    fn remove_and_reposition() {
        let mut ladder = FreeBlockLadder::new();
        ladder.push(1, 0);
        ladder.push(2, 0);
        assert!(ladder.remove(1, 0));
        assert!(!ladder.remove(1, 0));
        assert_eq!(ladder.len(), 1);
        // Block 2 erased in place: 0 → 1.
        ladder.reposition(2, 0, 1);
        ladder.push(4, 0);
        assert_eq!(ladder.pop_min(), Some(4));
        assert_eq!(ladder.pop_min(), Some(2));
        assert!(ladder.is_empty());
    }

    #[test]
    fn matches_linear_scan_reference() {
        // Randomized push/pop agree with a brute-force min scan that
        // replicates the old Vec behavior's *choice of wear level* (the
        // old swap_remove order within a level was arbitrary).
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ladder = FreeBlockLadder::new();
        let mut shadow: Vec<(u32, u64)> = Vec::new();
        for i in 0..4000u32 {
            if shadow.is_empty() || next() % 3 != 0 {
                let wear = next() % 32;
                ladder.push(i, wear);
                shadow.push((i, wear));
            } else {
                let popped = ladder.pop_min().unwrap();
                let min_wear = shadow.iter().map(|&(_, w)| w).min().unwrap();
                let (b, w) = shadow
                    .iter()
                    .copied()
                    .find(|&(b, _)| b == popped)
                    .expect("popped block tracked");
                assert_eq!(w, min_wear, "pop_min returned non-minimal wear");
                shadow.retain(|&(bb, _)| bb != b);
            }
            assert_eq!(ladder.len(), shadow.len());
        }
    }
}
