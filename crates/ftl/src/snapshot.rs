//! Copy-on-write snapshot bookkeeping: per-map epoch priority lists, page
//! refcounts, and the dual-buffer on-flash manifest codec.
//!
//! # Model
//!
//! Every host write is stamped (in the page's spare-area status word) with
//! the *epoch* that was current when it was programmed. Epoch 0 is
//! [`nand::SpareArea::valid`]'s `STATUS_LIVE`, so a snapshot-free FTL
//! programs exactly the spare bytes it always did.
//!
//! Each mapping set — the live head and every snapshot — owns an ordered
//! *epoch priority list*: index 0 is its most recent epoch, later entries
//! are older history. A mapping set "contains" a physical page when the
//! page's epoch appears in its list; when several valid pages claim the
//! same LBA, the one whose epoch ranks earliest in the list wins. This is
//! what lets [`mount`](crate::PageMappedFtl::mount) rebuild the head map
//! *and* every snapshot map from nothing but the on-flash spare areas plus
//! a tiny manifest of epoch lists:
//!
//! - **create(S)** freezes the head's current list as S's list, clones the
//!   head map into S (increfing every page), and opens a fresh epoch at the
//!   head of the head list.
//! - **clone(S)** (rollback) replaces the head list with a fresh epoch
//!   prepended to S's list and the head map with S's map.
//! - **merge(S)** overlays S onto the head: post-`merge_begin` host writes
//!   (stamped with the merge epoch) win, everything else takes S's mapping.
//!   The committed head list is `[merge-epoch] ++ S's list ++ old head
//!   list` (first occurrence wins), which makes mount resolution agree
//!   with the streamed RAM merge.
//!
//! Physical pages are refcounted: `refs[p]` counts the mapping sets whose
//! map currently points at `p`, plus (mid-merge only) pending merge
//! decrefs that [`crate::PageMappedFtl::merge_commit`] will apply. A page
//! is device-invalidated exactly when its refcount reaches zero, so GC and
//! SWL — which only see valid/invalid page counts — stay honest for free:
//! a snapshot-pinned page is valid, gets copied (once) on relocation, and
//! is never reclaimed while any mapping set references it.
//!
//! # Manifest
//!
//! The epoch lists (not the maps!) persist in a dual-buffer manifest in
//! `2 × manifest_blocks` blocks reserved at the top of the chip, one u64
//! word per page. A commit erases the standby buffer, programs the record,
//! and programs the checksum word *last* — the checksum is the commit
//! point. Mount parses both buffers (a torn or unprogrammed record fails
//! its checksum) and takes the valid one with the higher sequence number;
//! when neither parses, the book starts fresh (head `[0]`, no snapshots),
//! which is also the snapshots-were-never-used state.

use crate::config::SnapshotConfig;
use crate::translation::UNMAPPED;

/// Spare-status tag on manifest metadata pages. Distinct from every epoch
/// (epochs stay below `u32::MAX - 2`) and from the firmware bad-block
/// marker (`u32::MAX`).
pub(crate) const MANIFEST_STATUS: u32 = u32::MAX - 1;

/// First manifest word: magic xor format version.
const MANIFEST_MAGIC: u64 = 0x534e_4150_424f_4f4b; // "SNAPBOOK"
const MANIFEST_VERSION: u64 = 1;

/// Salt folded into the trailing checksum word.
const CHECKSUM_SALT: u64 = 0x6d61_7070_6d72_6765;

/// One retained snapshot: identity, frozen epoch list, materialized map.
#[derive(Debug, Clone)]
pub(crate) struct SnapEntry {
    /// Caller-chosen identity.
    pub id: u64,
    /// Frozen epoch priority list (index 0 = newest).
    pub epochs: Vec<u32>,
    /// Logical page → flat physical page (`UNMAPPED` when unmapped).
    pub map: Vec<u32>,
}

/// RAM-only state of an in-flight online merge. Deliberately *not*
/// persisted: a crash mid-merge resolves to the origin (the manifest
/// committed at `merge_begin` still lists the snapshot), a crash after
/// `merge_commit` resolves to the merged device — never a hybrid.
#[derive(Debug, Clone)]
pub(crate) struct MergeState {
    /// Snapshot being merged into the head.
    pub snap_id: u64,
    /// Epoch opened at `merge_begin`; host writes stamped with it beat the
    /// snapshot's mappings.
    pub epoch: u32,
    /// Next LBA the windowed merge will examine.
    pub cursor: u64,
    /// Origin pages the merge un-referenced; their decrefs (and any
    /// resulting device invalidations) apply at `merge_commit`. Until then
    /// each keeps its refcount so a crash can still resolve to the origin.
    pub pending: Vec<u32>,
}

/// The in-RAM snapshot book attached to a snapshot-enabled FTL.
#[derive(Debug, Clone)]
pub(crate) struct SnapBook {
    pub cfg: SnapshotConfig,
    /// Next epoch to hand out (epoch 0 is the initial head epoch).
    pub gen: u32,
    /// Head (live) mapping set's epoch priority list; `head_epochs[0]` is
    /// the epoch stamped on new host writes.
    pub head_epochs: Vec<u32>,
    /// Retained snapshots, in creation order.
    pub snaps: Vec<SnapEntry>,
    /// Per flat physical page: mapping sets referencing it (+ pending merge
    /// decrefs).
    pub refs: Vec<u32>,
    /// Per flat physical page: the epoch stamped in its spare area (RAM
    /// mirror so relocation and merge never re-read spares). Meaningful
    /// only while `refs > 0`.
    pub epoch_of: Vec<u32>,
    /// In-flight online merge, if any.
    pub merge: Option<MergeState>,
    /// Sequence number the *next* manifest commit will carry.
    pub seq: u64,
    /// Buffer index (0/1) the next commit programs.
    pub next_buffer: u32,
}

/// A parsed manifest record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ManifestRecord {
    pub seq: u64,
    pub gen: u32,
    pub head_epochs: Vec<u32>,
    /// Per snapshot: (id, epoch list). Maps are rebuilt from spare areas.
    pub snaps: Vec<(u64, Vec<u32>)>,
}

impl SnapBook {
    /// Fresh book: head epoch 0, no snapshots, all refcounts zero.
    pub fn new(cfg: SnapshotConfig, total_pages: usize) -> Self {
        Self {
            cfg,
            gen: 1,
            head_epochs: vec![0],
            snaps: Vec::new(),
            refs: vec![0; total_pages],
            epoch_of: vec![0; total_pages],
            merge: None,
            seq: 1,
            next_buffer: 0,
        }
    }

    /// Restores the epoch lists of a parsed manifest (maps and refcounts
    /// are rebuilt by the mount scan).
    pub fn restore(&mut self, record: ManifestRecord, logical_pages: usize) {
        self.gen = record.gen;
        self.head_epochs = record.head_epochs;
        self.snaps = record
            .snaps
            .into_iter()
            .map(|(id, epochs)| SnapEntry {
                id,
                epochs,
                map: vec![UNMAPPED; logical_pages],
            })
            .collect();
        self.seq = record.seq + 1;
    }

    /// Index of snapshot `id` in the book.
    pub fn snap_index(&self, id: u64) -> Option<usize> {
        self.snaps.iter().position(|s| s.id == id)
    }

    /// The epoch stamped on new host writes.
    pub fn head_epoch(&self) -> u32 {
        self.head_epochs[0]
    }

    /// Hands out the next epoch. Epochs never reach `u32::MAX - 1`, keeping
    /// them distinct from [`MANIFEST_STATUS`] and the bad-block marker.
    pub fn next_epoch(&mut self) -> u32 {
        assert!(self.gen < u32::MAX - 2, "snapshot epoch space exhausted");
        let e = self.gen;
        self.gen += 1;
        e
    }

    /// Drops one reference to flat page `p`; returns `true` when the count
    /// hits zero (the caller must then device-invalidate the page).
    pub fn decref(&mut self, p: u32) -> bool {
        let r = &mut self.refs[p as usize];
        debug_assert!(*r > 0, "decref of unreferenced page {p}");
        *r -= 1;
        *r == 0
    }

    /// Words the manifest record occupies for the given epoch-list shape
    /// (header + head list + per-snapshot id/len/list + checksum).
    pub fn record_words(head_len: usize, snap_lens: impl Iterator<Item = usize>) -> usize {
        4 + head_len + snap_lens.map(|l| 2 + l).sum::<usize>() + 1
    }

    /// Pages available per manifest buffer.
    pub fn buffer_words(&self, pages_per_block: u32) -> usize {
        self.cfg.manifest_blocks as usize * pages_per_block as usize
    }

    /// Encodes the current epoch lists as the next manifest record
    /// (checksum in the final word).
    pub fn encode(&self) -> Vec<u64> {
        let mut w = Vec::with_capacity(Self::record_words(
            self.head_epochs.len(),
            self.snaps.iter().map(|s| s.epochs.len()),
        ));
        w.push(MANIFEST_MAGIC ^ MANIFEST_VERSION);
        w.push(self.seq);
        w.push(u64::from(self.gen));
        w.push(self.head_epochs.len() as u64 | ((self.snaps.len() as u64) << 32));
        w.extend(self.head_epochs.iter().map(|&e| u64::from(e)));
        for s in &self.snaps {
            w.push(s.id);
            w.push(s.epochs.len() as u64);
            w.extend(s.epochs.iter().map(|&e| u64::from(e)));
        }
        w.push(checksum(&w));
        w
    }
}

/// Checksum over every record word before the trailing checksum word.
fn checksum(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(0u64, |acc, &w| acc.wrapping_mul(31).wrapping_add(w))
        ^ CHECKSUM_SALT
}

/// Parses one manifest buffer's words. `None` on any structural problem —
/// wrong magic, short record, oversized epoch values, checksum mismatch —
/// which mount treats as "this buffer holds no committed manifest".
pub(crate) fn decode(words: &[u64]) -> Option<ManifestRecord> {
    if words.len() < 5 || words[0] != MANIFEST_MAGIC ^ MANIFEST_VERSION {
        return None;
    }
    let seq = words[1];
    let gen = u32::try_from(words[2]).ok()?;
    if gen == 0 || gen >= u32::MAX - 2 {
        return None;
    }
    let head_len = (words[3] & 0xffff_ffff) as usize;
    let snap_count = (words[3] >> 32) as usize;
    if head_len == 0 || head_len.saturating_add(snap_count) > words.len() {
        return None;
    }
    let epoch = |w: u64| -> Option<u32> {
        let e = u32::try_from(w).ok()?;
        (e < gen).then_some(e)
    };
    let mut idx = 4;
    let head_epochs = words
        .get(idx..idx + head_len)?
        .iter()
        .map(|&w| epoch(w))
        .collect::<Option<Vec<u32>>>()?;
    idx += head_len;
    let mut snaps = Vec::with_capacity(snap_count);
    for _ in 0..snap_count {
        let id = *words.get(idx)?;
        let len = usize::try_from(*words.get(idx + 1)?).ok()?;
        if len == 0 || len > words.len() {
            return None;
        }
        idx += 2;
        let epochs = words
            .get(idx..idx + len)?
            .iter()
            .map(|&w| epoch(w))
            .collect::<Option<Vec<u32>>>()?;
        idx += len;
        snaps.push((id, epochs));
    }
    if *words.get(idx)? != checksum(&words[..idx]) {
        return None;
    }
    Some(ManifestRecord {
        seq,
        gen,
        head_epochs,
        snaps,
    })
}

/// Prepends `epoch` to `list`, dropping any later occurrence (priority
/// lists keep the first — highest-priority — occurrence of each epoch).
pub(crate) fn prepend_epoch(epoch: u32, list: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(list.len() + 1);
    out.push(epoch);
    out.extend(list.iter().copied().filter(|&e| e != epoch));
    out
}

/// First-occurrence-wins concatenation of epoch lists, used by
/// `merge_commit` to splice the snapshot's history into the head's.
pub(crate) fn splice_epochs(parts: &[&[u32]]) -> Vec<u32> {
    let mut out = Vec::new();
    for part in parts {
        for &e in *part {
            if !out.contains(&e) {
                out.push(e);
            }
        }
    }
    out
}

/// A copy of `map` that holds one new reference on every page it maps: the
/// one pass behind create (pin the head) and clone (pin the snapshot).
pub(crate) fn pin_copy(refs: &mut [u32], map: &[u32]) -> Vec<u32> {
    map.iter()
        .map(|&p| {
            if p != UNMAPPED {
                refs[p as usize] += 1;
            }
            p
        })
        .collect()
}

/// Rank lookup for mount resolution: epoch → position in a priority list
/// (lower rank wins). Built once per mapping set per mount.
#[derive(Debug)]
pub(crate) struct EpochRanks {
    ranks: std::collections::HashMap<u32, u32>,
}

impl EpochRanks {
    pub fn new(list: &[u32]) -> Self {
        let mut ranks = std::collections::HashMap::with_capacity(list.len());
        for (i, &e) in list.iter().enumerate() {
            // First occurrence wins, matching priority-list semantics.
            ranks.entry(e).or_insert(i as u32);
        }
        Self { ranks }
    }

    pub fn rank(&self, epoch: u32) -> Option<u32> {
        self.ranks.get(&epoch).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book() -> SnapBook {
        let mut b = SnapBook::new(SnapshotConfig::new(), 64);
        b.gen = 7;
        b.head_epochs = vec![6, 3, 0];
        b.snaps = vec![
            SnapEntry {
                id: 42,
                epochs: vec![3, 0],
                map: vec![UNMAPPED; 8],
            },
            SnapEntry {
                id: 1,
                epochs: vec![5, 3, 0],
                map: vec![UNMAPPED; 8],
            },
        ];
        b.seq = 9;
        b
    }

    #[test]
    fn manifest_roundtrips() {
        let b = book();
        let words = b.encode();
        assert_eq!(
            words.len(),
            SnapBook::record_words(3, [2usize, 3].into_iter())
        );
        let rec = decode(&words).expect("roundtrip");
        assert_eq!(rec.seq, 9);
        assert_eq!(rec.gen, 7);
        assert_eq!(rec.head_epochs, vec![6, 3, 0]);
        assert_eq!(rec.snaps, vec![(42, vec![3, 0]), (1, vec![5, 3, 0])]);
    }

    #[test]
    fn corruption_is_rejected() {
        let b = book();
        let good = b.encode();
        assert!(decode(&good).is_some());
        // Flip any single word: the record must fail to parse.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x10_0000_0001;
            assert!(decode(&bad).is_none(), "word {i} corruption accepted");
        }
        // Truncations (a torn commit) must fail too.
        for l in 0..good.len() {
            assert!(decode(&good[..l]).is_none(), "truncation to {l} accepted");
        }
    }

    #[test]
    fn epoch_list_helpers() {
        assert_eq!(prepend_epoch(9, &[4, 2]), vec![9, 4, 2]);
        assert_eq!(prepend_epoch(4, &[4, 2]), vec![4, 2]);
        assert_eq!(
            splice_epochs(&[&[9], &[5, 3, 0], &[6, 3, 0]]),
            vec![9, 5, 3, 0, 6]
        );
        let r = EpochRanks::new(&[6, 3, 0]);
        assert_eq!(r.rank(6), Some(0));
        assert_eq!(r.rank(0), Some(2));
        assert_eq!(r.rank(5), None);
    }

    #[test]
    fn refcounts_roundtrip() {
        let mut b = SnapBook::new(SnapshotConfig::new(), 4);
        let map = [3, UNMAPPED, 1, 3];
        assert_eq!(pin_copy(&mut b.refs, &map), map);
        assert_eq!(b.refs, [0, 1, 0, 2]);
        assert!(!b.decref(3));
        assert!(b.decref(3));
        assert!(b.decref(1));
    }
}
