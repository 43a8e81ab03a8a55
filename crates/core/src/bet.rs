//! The Block Erasing Table (§3.2 of the paper).

use std::fmt;

/// The Block Erasing Table: one flag per set of `2^k` contiguous blocks.
///
/// A flag is set when any block in its set is erased during the current
/// resetting interval. `k = 0` is the one-to-one mode (one flag per block);
/// larger `k` trades BET resolution for RAM: a 4 GiB SLC chip needs only
/// 512 B of controller RAM at `k = 3` (Table 1 of the paper).
///
/// # Example
///
/// ```
/// use swl_core::Bet;
///
/// let mut bet = Bet::new(16, 1); // 16 blocks, 2 blocks per flag
/// assert_eq!(bet.flags(), 8);
/// assert!(bet.mark(5));          // first erase in set 2: flag newly set
/// assert!(!bet.mark(4));         // same set: already set
/// assert_eq!(bet.fcnt(), 1);
/// assert!(bet.test(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bet {
    words: Vec<u64>,
    flags: usize,
    k: u32,
    fcnt: usize,
}

impl Bet {
    /// Creates a cleared BET covering `blocks` blocks with `2^k` blocks per
    /// flag.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero or if `k > 31`.
    pub fn new(blocks: u32, k: u32) -> Self {
        assert!(blocks > 0, "bet must cover at least one block");
        assert!(k <= 31, "k out of range (max 31)");
        let set = 1u64 << k;
        let flags = u64::from(blocks).div_ceil(set);
        let flags = flags as usize;
        Self {
            words: vec![0; flags.div_ceil(64)],
            flags,
            k,
            fcnt: 0,
        }
    }

    /// The group factor `k`: each flag covers `2^k` blocks.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of blocks covered by one flag (`2^k`).
    pub fn blocks_per_flag(&self) -> u32 {
        1 << self.k
    }

    /// Number of flags — `size(BET)` in the paper's pseudo-code.
    pub fn flags(&self) -> usize {
        self.flags
    }

    /// Number of flags currently set — the paper's `fcnt`.
    pub fn fcnt(&self) -> usize {
        self.fcnt
    }

    /// `true` once every flag is set (the resetting interval is complete).
    pub fn all_set(&self) -> bool {
        self.fcnt == self.flags
    }

    /// RAM footprint of the flag array in bytes (Table 1).
    pub fn ram_bytes(&self) -> usize {
        self.flags.div_ceil(8)
    }

    /// Flag index covering `block` (`block / 2^k`).
    pub fn flag_of(&self, block: u32) -> usize {
        (block >> self.k) as usize
    }

    /// First block of the set covered by `flag`.
    pub fn first_block_of(&self, flag: usize) -> u32 {
        (flag as u32) << self.k
    }

    /// Records an erase of `block` (SWL-BETUpdate's flag half). Returns
    /// `true` when the flag was newly set.
    ///
    /// # Panics
    ///
    /// Panics if `block` is beyond the covered range.
    pub fn mark(&mut self, block: u32) -> bool {
        let flag = self.flag_of(block);
        assert!(flag < self.flags, "block {block} outside bet coverage");
        let (word, bit) = (flag / 64, flag % 64);
        let mask = 1u64 << bit;
        if self.words[word] & mask == 0 {
            self.words[word] |= mask;
            self.fcnt += 1;
            true
        } else {
            false
        }
    }

    /// Tests flag `flag`.
    ///
    /// # Panics
    ///
    /// Panics if `flag >= self.flags()`.
    pub fn test(&self, flag: usize) -> bool {
        assert!(flag < self.flags, "flag {flag} out of range");
        self.words[flag / 64] & (1u64 << (flag % 64)) != 0
    }

    /// Clears every flag, starting a new resetting interval.
    pub fn reset(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
        self.fcnt = 0;
    }

    /// First cleared flag at or cyclically after `from`, or `None` when all
    /// flags are set.
    ///
    /// This is the cyclic scan of Algorithm 1 (steps 9–10), implemented with
    /// word-at-a-time scanning so a 4096-flag BET costs at most 64 word
    /// inspections — the "bounded amount of time" requirement of §3.1.
    pub fn next_clear(&self, from: usize) -> Option<usize> {
        if self.all_set() || self.flags == 0 {
            return None;
        }
        let from = from % self.flags;
        // Scan [from, flags) then [0, from).
        self.scan_clear(from, self.flags)
            .or_else(|| self.scan_clear(0, from))
    }

    fn scan_clear(&self, start: usize, end: usize) -> Option<usize> {
        if start >= end {
            return None;
        }
        let mut idx = start;
        while idx < end {
            let word = idx / 64;
            let bit = idx % 64;
            // Invert: set bits mark *clear* flags; mask off bits below `bit`.
            let inverted = !self.words[word] & (!0u64 << bit);
            if inverted != 0 {
                let found = word * 64 + inverted.trailing_zeros() as usize;
                if found < end {
                    return Some(found);
                }
                return None;
            }
            idx = (word + 1) * 64;
        }
        None
    }

    /// Iterates over the raw flag words (for persistence).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a BET from persisted words, recomputing `fcnt`.
    ///
    /// Bits beyond `flags` are cleared so a corrupt tail cannot inflate
    /// `fcnt`.
    pub(crate) fn from_words(words: Vec<u64>, flags: usize, k: u32) -> Self {
        let mut words = words;
        words.resize(flags.div_ceil(64), 0);
        // Mask tail bits beyond the last flag.
        if !flags.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (flags % 64)) - 1;
            }
        }
        let fcnt = words.iter().map(|w| w.count_ones() as usize).sum();
        Self {
            words,
            flags,
            k,
            fcnt,
        }
    }
}

impl fmt::Display for Bet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BET(k={}, {}/{} flags set, {} B)",
            self.k,
            self.fcnt,
            self.flags,
            self.ram_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_to_one_mode_has_flag_per_block() {
        let bet = Bet::new(12, 0);
        assert_eq!(bet.flags(), 12);
        assert_eq!(bet.blocks_per_flag(), 1);
    }

    #[test]
    fn one_to_many_mode_groups_blocks() {
        let bet = Bet::new(12, 2);
        assert_eq!(bet.flags(), 3);
        assert_eq!(bet.blocks_per_flag(), 4);
        assert_eq!(bet.flag_of(0), 0);
        assert_eq!(bet.flag_of(3), 0);
        assert_eq!(bet.flag_of(4), 1);
        assert_eq!(bet.first_block_of(2), 8);
    }

    #[test]
    fn uneven_block_count_rounds_flags_up() {
        let bet = Bet::new(10, 2); // 10 blocks / 4 = 2.5 → 3 flags
        assert_eq!(bet.flags(), 3);
        assert_eq!(bet.flag_of(9), 2);
    }

    #[test]
    fn mark_sets_flag_once() {
        let mut bet = Bet::new(8, 1);
        assert!(bet.mark(2));
        assert!(!bet.mark(3)); // same set
        assert_eq!(bet.fcnt(), 1);
        assert!(bet.test(1));
        assert!(!bet.test(0));
    }

    #[test]
    fn reset_clears_everything() {
        let mut bet = Bet::new(8, 0);
        for b in 0..8 {
            bet.mark(b);
        }
        assert!(bet.all_set());
        bet.reset();
        assert_eq!(bet.fcnt(), 0);
        assert!(!bet.all_set());
        assert!((0..8).all(|f| !bet.test(f)));
    }

    #[test]
    fn ram_bytes_matches_table_1() {
        // Table 1: SLC flash, large-block (2 KiB pages × 64 → 128 KiB blocks).
        // 128 MB → 1024 blocks → k=0: 128 B; 4 GB → 32768 blocks → k=3: 512 B.
        let blocks_128mb = (128u64 << 20) / (128 << 10);
        let bet = Bet::new(blocks_128mb as u32, 0);
        assert_eq!(bet.ram_bytes(), 128);

        let blocks_4gb = (4u64 << 30) / (128 << 10);
        let bet = Bet::new(blocks_4gb as u32, 3);
        assert_eq!(bet.ram_bytes(), 512);
    }

    #[test]
    fn next_clear_finds_cyclically() {
        let mut bet = Bet::new(8, 0);
        for f in [0u32, 1, 2, 5, 6] {
            bet.mark(f);
        }
        // Clear flags: 3, 4, 7.
        assert_eq!(bet.next_clear(0), Some(3));
        assert_eq!(bet.next_clear(4), Some(4));
        assert_eq!(bet.next_clear(5), Some(7));
        assert_eq!(bet.next_clear(7), Some(7));
        // Wrap-around from beyond the last clear flag:
        bet.mark(7);
        assert_eq!(bet.next_clear(5), Some(3));
    }

    #[test]
    fn next_clear_none_when_full() {
        let mut bet = Bet::new(4, 0);
        for b in 0..4 {
            bet.mark(b);
        }
        assert_eq!(bet.next_clear(0), None);
    }

    #[test]
    fn next_clear_spans_word_boundaries() {
        let mut bet = Bet::new(130, 0);
        for b in 0..128 {
            bet.mark(b);
        }
        assert_eq!(bet.next_clear(0), Some(128));
        assert_eq!(bet.next_clear(129), Some(129));
        bet.mark(128);
        bet.mark(129);
        assert_eq!(bet.next_clear(64), None);
    }

    #[test]
    fn from_words_recomputes_fcnt_and_masks_tail() {
        // 10 flags; word has stray bits beyond flag 9 that must be ignored.
        let words = vec![0b1111_1111_1111u64]; // 12 bits set, only 10 valid
        let bet = Bet::from_words(words, 10, 0);
        assert_eq!(bet.fcnt(), 10);
        assert!(bet.all_set());
    }

    #[test]
    #[should_panic(expected = "outside bet coverage")]
    fn mark_out_of_range_panics() {
        let mut bet = Bet::new(4, 0);
        bet.mark(4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn test_out_of_range_panics() {
        let bet = Bet::new(4, 0);
        bet.test(4);
    }

    #[test]
    fn display_reports_occupancy() {
        let mut bet = Bet::new(16, 1);
        bet.mark(0);
        assert_eq!(bet.to_string(), "BET(k=1, 1/8 flags set, 1 B)");
    }
}
