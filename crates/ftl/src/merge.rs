//! Streaming mapping-merge: lazy LBA-ordered iterators over translation
//! maps and a dual-iterator combinator that overlays a snapshot's mappings
//! onto its origin without materializing either side.
//!
//! The shape follows dm-thin's `thin-merge` tool (`mapping_iterator.rs`,
//! `merge.rs`, `stream.rs`): each side of the merge is a cheap cursor over
//! its mapping set, and the combinator walks both cursors in LBA order,
//! deciding overlaps one logical page at a time. The FTL's merge step
//! ([`crate::PageMapping::merge_step`]) does not drive it: both of its
//! maps are dense arrays over the same window, so it walks that window
//! directly and reads no entry past it.

use std::iter::Peekable;

/// Sentinel for "logical page unmapped" in a translation map.
pub const UNMAPPED: u32 = u32::MAX;

/// One logical-to-physical mapping yielded by a [`MappingStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// Logical page address.
    pub lba: u64,
    /// Flat physical page index.
    pub phys: u32,
}

/// Lazy LBA-ordered cursor over one translation map (`UNMAPPED` entries are
/// skipped). Never copies the map: iteration borrows the live table.
#[derive(Debug, Clone)]
pub struct MappingStream<'a> {
    map: &'a [u32],
    next: usize,
}

impl<'a> MappingStream<'a> {
    /// Streams every mapping of `map` in ascending LBA order.
    pub fn new(map: &'a [u32]) -> Self {
        Self { map, next: 0 }
    }

    /// Streams mappings with `lba >= start`.
    pub fn starting_at(map: &'a [u32], start: u64) -> Self {
        Self {
            map,
            next: start.min(map.len() as u64) as usize,
        }
    }
}

impl Iterator for MappingStream<'_> {
    type Item = Mapping;

    fn next(&mut self) -> Option<Mapping> {
        while self.next < self.map.len() {
            let lba = self.next as u64;
            let phys = self.map[self.next];
            self.next += 1;
            if phys != UNMAPPED {
                return Some(Mapping { lba, phys });
            }
        }
        None
    }
}

/// Which side of the merge produced a [`MergeStream`] item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeSource {
    /// The mapping came from (or stays with) the origin.
    Origin,
    /// The mapping is overlaid from the snapshot.
    Snapshot,
}

/// Dual-iterator combinator merging an origin map with a snapshot map in
/// LBA order.
///
/// Where only one side maps an LBA, that mapping is yielded. Where both
/// sides map the same LBA, the `keep_origin` policy closure decides: `true`
/// keeps the origin mapping (the online merge uses this for LBAs the host
/// rewrote after `merge_begin`, so live writes beat the historical
/// snapshot), `false` overlays the snapshot mapping.
pub struct MergeStream<'a, F: FnMut(u64, u32) -> bool> {
    origin: Peekable<MappingStream<'a>>,
    snapshot: Peekable<MappingStream<'a>>,
    keep_origin: F,
}

impl<'a, F: FnMut(u64, u32) -> bool> MergeStream<'a, F> {
    /// Builds the combinator from two already-positioned side streams.
    pub fn new(origin: MappingStream<'a>, snapshot: MappingStream<'a>, keep_origin: F) -> Self {
        Self {
            origin: origin.peekable(),
            snapshot: snapshot.peekable(),
            keep_origin,
        }
    }
}

impl<F: FnMut(u64, u32) -> bool> Iterator for MergeStream<'_, F> {
    type Item = (Mapping, MergeSource);

    fn next(&mut self) -> Option<(Mapping, MergeSource)> {
        match (self.origin.peek().copied(), self.snapshot.peek().copied()) {
            (None, None) => None,
            (Some(_), None) => Some((self.origin.next().unwrap(), MergeSource::Origin)),
            (None, Some(_)) => Some((self.snapshot.next().unwrap(), MergeSource::Snapshot)),
            (Some(o), Some(s)) => {
                if o.lba < s.lba {
                    return Some((self.origin.next().unwrap(), MergeSource::Origin));
                }
                if s.lba < o.lba {
                    return Some((self.snapshot.next().unwrap(), MergeSource::Snapshot));
                }
                // Overlap: both cursors advance, the policy picks a side.
                let keep = (self.keep_origin)(o.lba, o.phys);
                self.origin.next();
                self.snapshot.next();
                if keep {
                    Some((o, MergeSource::Origin))
                } else {
                    Some((s, MergeSource::Snapshot))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_stream_skips_unmapped() {
        let map = [UNMAPPED, 7, UNMAPPED, 9];
        let got: Vec<_> = MappingStream::new(&map).collect();
        assert_eq!(
            got,
            vec![
                Mapping { lba: 1, phys: 7 },
                Mapping { lba: 3, phys: 9 }
            ]
        );
    }

    #[test]
    fn mapping_stream_window_start() {
        let map = [1, 2, 3, 4];
        let got: Vec<_> = MappingStream::starting_at(&map, 2).map(|m| m.lba).collect();
        assert_eq!(got, vec![2, 3]);
        assert!(MappingStream::starting_at(&map, 99).next().is_none());
    }

    #[test]
    fn merge_overlays_snapshot_on_overlap() {
        let origin = [10, UNMAPPED, 12, 13];
        let snapshot = [UNMAPPED, 21, 22, UNMAPPED];
        let got: Vec<_> = MergeStream::new(
            MappingStream::new(&origin),
            MappingStream::new(&snapshot),
            |_, _| false,
        )
        .collect();
        assert_eq!(
            got,
            vec![
                (Mapping { lba: 0, phys: 10 }, MergeSource::Origin),
                (Mapping { lba: 1, phys: 21 }, MergeSource::Snapshot),
                (Mapping { lba: 2, phys: 22 }, MergeSource::Snapshot),
                (Mapping { lba: 3, phys: 13 }, MergeSource::Origin),
            ]
        );
    }

    #[test]
    fn keep_origin_policy_wins_overlaps() {
        let origin = [10, 11];
        let snapshot = [20, 21];
        // Keep the origin only at LBA 0.
        let got: Vec<_> = MergeStream::new(
            MappingStream::new(&origin),
            MappingStream::new(&snapshot),
            |lba, phys| {
                assert_eq!(phys, if lba == 0 { 10 } else { 11 });
                lba == 0
            },
        )
        .collect();
        assert_eq!(
            got,
            vec![
                (Mapping { lba: 0, phys: 10 }, MergeSource::Origin),
                (Mapping { lba: 1, phys: 21 }, MergeSource::Snapshot),
            ]
        );
    }

    #[test]
    fn empty_sides_merge_cleanly() {
        let empty: [u32; 0] = [];
        let one = [5u32];
        assert_eq!(
            MergeStream::new(
                MappingStream::new(&empty),
                MappingStream::new(&one),
                |_, _| true,
            )
            .count(),
            1
        );
        assert_eq!(
            MergeStream::new(
                MappingStream::new(&empty),
                MappingStream::new(&empty),
                |_, _| true,
            )
            .count(),
            0
        );
    }
}
