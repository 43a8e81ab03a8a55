//! Oracle consistency of the GC victim index and the free-block ladder
//! when page refcounts pin and unpin blocks mid-scan.
//!
//! With copy-on-write snapshots, a block's valid/invalid split no longer
//! moves monotonically: an incref (snapshot pin) keeps a page valid that a
//! host overwrite would otherwise have invalidated, a decref (snapshot
//! delete, merge commit) can invalidate a page long after the head stopped
//! referencing it, and a whole block can leave the candidate set (all its
//! pages pinned → invalid = 0) and re-enter it later. The incremental
//! [`VictimIndex`] must keep making *exactly* the choice a literal linear
//! scan makes through every such transition, and the [`FreeBlockLadder`]
//! must keep returning minimum-wear blocks while erases and in-place SWL
//! repositions interleave with the pin churn.

use proptest::prelude::*;

use nand::{FreeBlockLadder, VictimIndex};
use swl_core::rng::SplitMix64;

const BLOCKS: u32 = 67; // crosses a bitset word boundary
const PAGES: u32 = 8;

/// The literal cyclic greedy scan the index replaces (same contract as the
/// unit-test oracle inside `nand::victim`): first candidate with
/// invalid > valid, else the cyclically-first holder of the max invalid.
fn reference_select(states: &[(bool, u32, u32)], cursor: u32) -> Option<u32> {
    let n = states.len() as u32;
    let mut fallback: Option<(u32, u32)> = None;
    for step in 0..n {
        let k = (cursor + step) % n;
        let (eligible, invalid, valid) = states[k as usize];
        if !eligible || invalid == 0 {
            continue;
        }
        if invalid > valid {
            return Some(k);
        }
        if fallback.is_none_or(|(best, _)| invalid > best) {
            fallback = Some((invalid, k));
        }
    }
    fallback.map(|(_, k)| k)
}

/// One simulated block: per-page refcounts (`None` = never programmed /
/// erased, `Some(0)` = invalid, `Some(n)` = valid with `n` references).
#[derive(Clone)]
struct ModelBlock {
    pages: Vec<Option<u32>>,
    /// In the free pool (ladder) rather than the candidate set.
    free: bool,
    wear: u64,
}

impl ModelBlock {
    fn invalid(&self) -> u32 {
        self.pages.iter().filter(|p| **p == Some(0)).count() as u32
    }

    fn valid(&self) -> u32 {
        self.pages
            .iter()
            .filter(|p| matches!(p, Some(n) if *n > 0))
            .count() as u32
    }

    fn eligible(&self) -> bool {
        !self.free
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random pin/unpin/program/erase churn: after every transition the
    /// index must agree with the linear scan, and the ladder must stay a
    /// faithful min-wear pool.
    #[test]
    fn victim_index_and_ladder_survive_refcount_churn(
        seed in any::<u64>(),
        steps in 2_000usize..6_000,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut blocks: Vec<ModelBlock> = (0..BLOCKS)
            .map(|_| ModelBlock { pages: vec![None; PAGES as usize], free: true, wear: 0 })
            .collect();
        let mut index = VictimIndex::new(BLOCKS);
        let mut ladder = FreeBlockLadder::new();
        for b in 0..BLOCKS {
            ladder.push(b, 0);
        }
        let mut shadow_free: Vec<u32> = (0..BLOCKS).collect();
        // The open block host writes land in (claimed min-wear from the
        // ladder, like a write frontier).
        let mut open: Option<u32> = None;

        let report = |index: &mut VictimIndex, blocks: &[ModelBlock], b: u32| {
            let m = &blocks[b as usize];
            index.update(b, m.eligible(), m.invalid(), m.valid());
        };

        for _ in 0..steps {
            match rng.next_below(10) {
                // Program: claim an open block if needed, write one page
                // with refcount 1.
                0..=3 => {
                    let b = match open {
                        Some(b) if blocks[b as usize].pages.iter().any(Option::is_none) => b,
                        _ => {
                            let Some(b) = ladder.pop_min() else { continue };
                            let min = shadow_free
                                .iter()
                                .map(|&f| blocks[f as usize].wear)
                                .min()
                                .unwrap();
                            prop_assert_eq!(
                                blocks[b as usize].wear, min,
                                "ladder popped a non-minimal-wear block"
                            );
                            shadow_free.retain(|&f| f != b);
                            blocks[b as usize].free = false;
                            open = Some(b);
                            b
                        }
                    };
                    let slot = blocks[b as usize]
                        .pages
                        .iter()
                        .position(Option::is_none)
                        .expect("open block has room");
                    blocks[b as usize].pages[slot] = Some(1);
                    if blocks[b as usize].pages.iter().all(Option::is_some) {
                        open = None;
                    }
                    report(&mut index, &blocks, b);
                }
                // Pin: incref a random valid page (snapshot create/clone).
                4 | 5 => {
                    let b = rng.next_below(u64::from(BLOCKS)) as u32;
                    let m = &mut blocks[b as usize];
                    if let Some(r) = m.pages.iter_mut().find_map(|p| match p {
                        Some(n) if *n > 0 => Some(n),
                        _ => None,
                    }) {
                        *r += 1;
                        report(&mut index, &blocks, b);
                    }
                }
                // Unpin: decref a random valid page; at zero the page goes
                // invalid — possibly flipping the block into (or up) the
                // candidate set mid-scan.
                6..=8 => {
                    let b = rng.next_below(u64::from(BLOCKS)) as u32;
                    let m = &mut blocks[b as usize];
                    if let Some(r) = m.pages.iter_mut().find_map(|p| match p {
                        Some(n) if *n > 0 => Some(n),
                        _ => None,
                    }) {
                        *r -= 1;
                        report(&mut index, &blocks, b);
                    }
                }
                // Erase: collect the current victim if it is fully
                // released, pushing it back to the pool with bumped wear;
                // otherwise SWL-reposition a random free block in place.
                _ => {
                    let cursor = rng.next_below(u64::from(BLOCKS)) as u32;
                    let victim = index.select(cursor);
                    match victim {
                        Some(b) if blocks[b as usize].valid() == 0 && open != Some(b) => {
                            let m = &mut blocks[b as usize];
                            m.pages.fill(None);
                            m.free = true;
                            m.wear += 1;
                            ladder.push(b, m.wear);
                            shadow_free.push(b);
                            report(&mut index, &blocks, b);
                        }
                        _ => {
                            // In-place SWL erase of a free block: its wear
                            // bumps without leaving the pool.
                            if let Some(&b) = shadow_free.first() {
                                let old = blocks[b as usize].wear;
                                blocks[b as usize].wear = old + 1;
                                ladder.reposition(b, old, old + 1);
                            }
                        }
                    }
                }
            }

            // The index must agree with the literal scan from an arbitrary
            // cursor after *every* transition.
            let states: Vec<(bool, u32, u32)> = blocks
                .iter()
                .map(|m| (m.eligible(), m.invalid(), m.valid()))
                .collect();
            let cursor = rng.next_below(u64::from(BLOCKS)) as u32;
            prop_assert_eq!(
                index.select(cursor),
                reference_select(&states, cursor),
                "victim index diverged from the linear scan at cursor {}",
                cursor
            );
            prop_assert_eq!(ladder.len(), shadow_free.len());
        }
    }
}
