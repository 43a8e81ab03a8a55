//! Property tests of the wear-map rendering.

use proptest::prelude::*;

use nand::WearMap;

const RAMP_ORDER: [char; 6] = ['.', '-', '=', '+', '#', '@'];

fn ramp_rank(c: char) -> usize {
    RAMP_ORDER
        .iter()
        .position(|&r| r == c)
        .expect("known glyph")
}

proptest! {
    /// Glyphs are monotone in the underlying count: a block with more
    /// erases never renders lighter than one with fewer.
    #[test]
    fn glyphs_are_monotone(counts in prop::collection::vec(0u64..100_000, 1..200)) {
        let map = WearMap::from_counts(&counts);
        let mut indexed: Vec<(u64, usize)> =
            counts.iter().copied().zip(0..counts.len()).collect();
        indexed.sort_unstable();
        for pair in indexed.windows(2) {
            let (low_count, low_idx) = pair[0];
            let (high_count, high_idx) = pair[1];
            if low_count <= high_count {
                prop_assert!(
                    ramp_rank(map.glyph(low_idx)) <= ramp_rank(map.glyph(high_idx)),
                    "count {low_count} rendered heavier than {high_count}"
                );
            }
        }
        // Extremes: zero is always '.', the maximum is always '@' (when
        // any wear exists).
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                prop_assert_eq!(map.glyph(i), '.');
            }
        }
        if map.stats().max > 0 {
            let hottest = counts.iter().position(|&c| c == map.stats().max).unwrap();
            prop_assert_eq!(map.glyph(hottest), '@');
        }
    }

    /// The histogram partitions the blocks: bucket counts always sum to
    /// the block count, for any bucket granularity.
    #[test]
    fn histogram_partitions_blocks(
        counts in prop::collection::vec(0u64..10_000, 1..200),
        buckets in 1usize..20,
    ) {
        let map = WearMap::from_counts(&counts);
        let histogram = map.histogram(buckets);
        prop_assert_eq!(histogram.len(), buckets);
        prop_assert_eq!(histogram.iter().sum::<usize>(), counts.len());
    }

    /// Rendering contains exactly one glyph per block regardless of row
    /// width.
    #[test]
    fn rendering_covers_every_block(
        counts in prop::collection::vec(0u64..1_000, 1..150),
        row_width in 1usize..80,
    ) {
        let map = WearMap::from_counts(&counts).with_row_width(row_width);
        let rendered = map.to_string();
        let glyphs: usize = rendered
            .lines()
            .skip(1) // stats header
            .map(|line| line.chars().count())
            .sum();
        prop_assert_eq!(glyphs, counts.len());
    }
}
