//! Admission-managed RAM write cache for the block-device service.
//!
//! The cache sits between the service front-end and the engine and exists
//! to absorb **hot rewrites**: pages the host overwrites again and again
//! only need their *latest* value on flash, so every absorbed rewrite is a
//! flash program (and all its downstream GC/SWL work) that never happens —
//! the CACH-FTL argument (arXiv 1209.3099) applied in front of the DAC'07
//! static wear leveler instead of inside the FTL.
//!
//! Three policies make it a cache rather than a buffer:
//!
//! - **Admission**: a write enters the cache only when the multi-hash
//!   counting filter ([`hotid::MultiHashIdentifier`], the paper-adjacent
//!   hot-data identifier already in this workspace) classifies its LBA as
//!   hot. Cold writes pass straight through to the engine, so one
//!   sequential scan cannot wipe out the working set.
//! - **Batched flush-back**: once the dirty count crosses the sync
//!   watermark ([`WriteCache::need_sync`], the WondFS `WriteCache` shape),
//!   the oldest entries are drained in one LBA-sorted batch, which the
//!   service coalesces into contiguous span writes.
//! - **Bounded capacity**: admitting into a full cache first evicts a
//!   batch of the oldest entries (returned to the caller to write back),
//!   so RAM use never exceeds `capacity` entries.
//!
//! The structure keeps exactly **one dirty value per LBA** (a rewrite of a
//! dirty page updates it in place). That single invariant is what makes
//! flush-back order-safe: any value the engine ever sees for an LBA is
//! either an immediate write-through (no dirty entry existed) or the
//! newest cached value at flush time, so flash can never observe an older
//! value after a newer one. `crates/sim/tests/cache_properties.rs` checks
//! that property over randomized workloads.
//!
//! The cache is deliberately engine-agnostic — every method returns the
//! work the caller must forward — so property tests can drive it against a
//! plain model backend.

use std::collections::{HashMap, VecDeque};

use flash_telemetry::runtime::CacheSample;
use hotid::{BuildIdentifierError, HotDataConfig, MultiHashIdentifier};

/// Tuning for a [`WriteCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum dirty entries held in RAM (at least 1).
    pub capacity: usize,
    /// Dirty count at which [`WriteCache::need_sync`] starts reporting
    /// `true` (clamped into `1..=capacity`).
    pub sync_watermark: usize,
    /// Entries drained per flush-back batch (at least 1).
    pub batch: usize,
    /// Admission filter configuration (multi-hash counting filter).
    pub hot: HotDataConfig,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::sized(1024)
    }
}

impl CacheConfig {
    /// A config for `capacity` entries with proportional defaults: sync
    /// watermark at 3/4 capacity, flush batches of half the capacity, and
    /// the default admission filter.
    pub fn sized(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            sync_watermark: (capacity * 3 / 4).max(1),
            batch: (capacity / 2).max(1),
            hot: HotDataConfig::default(),
        }
    }

    /// Replaces the admission filter configuration.
    pub fn with_hot(mut self, hot: HotDataConfig) -> Self {
        self.hot = hot;
        self
    }

    /// Replaces the sync watermark (clamped into `1..=capacity` at build).
    pub fn with_watermark(mut self, watermark: usize) -> Self {
        self.sync_watermark = watermark;
        self
    }
}

/// What a [`WriteCache::write`] decided, and the flash work it implies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The LBA already had a dirty entry; its value was replaced in place.
    /// No flash traffic at all.
    Absorbed,
    /// The write was admitted as a new dirty entry. `evicted` holds the
    /// oldest entries that were pushed out to make room (LBA-sorted,
    /// usually empty); the caller must write them to flash now.
    Admitted {
        /// Capacity-evicted `(lba, value)` pairs to write back, LBA order.
        evicted: Vec<(u64, u64)>,
    },
    /// The admission filter judged the LBA cold; the caller must write the
    /// value to flash directly.
    WriteThrough,
}

/// The admission-managed RAM write cache (see module docs).
#[derive(Debug)]
pub struct WriteCache {
    /// The single dirty value per LBA.
    entries: HashMap<u64, u64>,
    /// Admission order of dirty LBAs (oldest first). May hold LBAs whose
    /// entry was since trimmed away; consumers skip those lazily.
    order: VecDeque<u64>,
    hot: MultiHashIdentifier,
    /// The counters, bumped in place (`dirty` is read off `entries`).
    counters: CacheSample,
    capacity: usize,
    watermark: usize,
    batch: usize,
}

impl WriteCache {
    /// Builds the cache, its counters at zero.
    ///
    /// # Errors
    ///
    /// Propagates admission-filter construction errors (zero counters /
    /// hash count out of range).
    pub fn new(config: CacheConfig) -> Result<Self, BuildIdentifierError> {
        let capacity = config.capacity.max(1);
        Ok(Self {
            entries: HashMap::new(),
            order: VecDeque::new(),
            hot: MultiHashIdentifier::new(config.hot)?,
            counters: CacheSample {
                capacity: capacity as u64,
                ..CacheSample::default()
            },
            capacity,
            watermark: config.sync_watermark.clamp(1, capacity),
            batch: config.batch.max(1),
        })
    }

    /// The counters as of now.
    pub fn sample(&self) -> CacheSample {
        CacheSample {
            dirty: self.entries.len() as u64,
            ..self.counters
        }
    }

    /// Dirty entries held right now.
    pub fn dirty(&self) -> usize {
        self.entries.len()
    }

    /// Maximum dirty entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accepts one host write and decides its path (see [`WriteOutcome`]).
    pub fn write(&mut self, lba: u64, value: u64) -> WriteOutcome {
        if let Some(entry) = self.entries.get_mut(&lba) {
            *entry = value;
            // Keep heat flowing even for absorbed rewrites, so the decay
            // cadence sees the true write rate.
            self.hot.record_write(lba);
            self.counters.write_hits += 1;
            return WriteOutcome::Absorbed;
        }
        if !self.hot.record_write(lba) {
            self.counters.write_through += 1;
            return WriteOutcome::WriteThrough;
        }
        let evicted = if self.entries.len() >= self.capacity {
            self.take_batch(self.batch, true)
        } else {
            Vec::new()
        };
        self.entries.insert(lba, value);
        self.order.push_back(lba);
        self.counters.admitted += 1;
        WriteOutcome::Admitted { evicted }
    }

    /// Looks up a dirty entry for a read (counts a read hit when found).
    pub fn lookup(&mut self, lba: u64) -> Option<u64> {
        let value = self.entries.get(&lba).copied();
        self.counters.read_hits += u64::from(value.is_some());
        value
    }

    /// Drops the dirty entry for `lba`, if any. The dropped value was
    /// never acknowledged as durable (an explicit flush would have drained
    /// it first), so discarding it is legal. Returns whether an entry
    /// existed.
    pub fn trim(&mut self, lba: u64) -> bool {
        // The stale `order` slot is skipped lazily by `take_batch`.
        let existed = self.entries.remove(&lba).is_some();
        self.counters.trimmed += u64::from(existed);
        existed
    }

    /// Whether the dirty count has crossed the sync watermark and a
    /// [`WriteCache::take_sync_batch`] is due (the WondFS `need_sync()`
    /// contract).
    pub fn need_sync(&self) -> bool {
        self.entries.len() >= self.watermark
    }

    /// Drains one batch of the oldest dirty entries for flush-back,
    /// LBA-sorted so the caller can coalesce contiguous runs into span
    /// writes. Empty when the cache is clean.
    pub fn take_sync_batch(&mut self) -> Vec<(u64, u64)> {
        self.take_batch(self.batch, false)
    }

    /// Drains *every* dirty entry (explicit host flush), LBA-sorted.
    pub fn drain_all(&mut self) -> Vec<(u64, u64)> {
        self.take_batch(usize::MAX, false)
    }

    /// Pops up to `limit` oldest entries, skipping stale order slots.
    fn take_batch(&mut self, limit: usize, evicting: bool) -> Vec<(u64, u64)> {
        let mut batch = Vec::new();
        while batch.len() < limit {
            let Some(lba) = self.order.pop_front() else {
                break;
            };
            if let Some(value) = self.entries.remove(&lba) {
                batch.push((lba, value));
            }
        }
        if !batch.is_empty() {
            batch.sort_unstable_by_key(|&(lba, _)| lba);
            self.counters.flushed_pages += batch.len() as u64;
            self.counters.flush_batches += 1;
            if evicting {
                self.counters.evicted += batch.len() as u64;
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An aggressive filter that admits everything from the first write.
    fn admit_all() -> HotDataConfig {
        HotDataConfig {
            hot_threshold: 1,
            ..HotDataConfig::default()
        }
    }

    fn cache(capacity: usize) -> WriteCache {
        WriteCache::new(CacheConfig::sized(capacity).with_hot(admit_all())).unwrap()
    }

    #[test]
    fn rewrite_absorbs_in_place() {
        let mut c = cache(8);
        assert!(matches!(c.write(3, 10), WriteOutcome::Admitted { .. }));
        assert!(matches!(c.write(3, 11), WriteOutcome::Absorbed));
        assert_eq!(c.lookup(3), Some(11));
        assert_eq!(c.dirty(), 1);
        let s = c.sample();
        assert_eq!((s.admitted, s.write_hits, s.read_hits), (1, 1, 1));
    }

    #[test]
    fn cold_writes_pass_through() {
        let hot = HotDataConfig {
            hot_threshold: 3,
            ..HotDataConfig::default()
        };
        let mut c = WriteCache::new(CacheConfig::sized(8).with_hot(hot)).unwrap();
        assert_eq!(c.write(5, 1), WriteOutcome::WriteThrough);
        assert_eq!(c.write(5, 2), WriteOutcome::WriteThrough);
        // Third write crosses the threshold and is admitted.
        assert!(matches!(c.write(5, 3), WriteOutcome::Admitted { .. }));
        assert_eq!(c.sample().write_through, 2);
    }

    #[test]
    fn capacity_eviction_returns_oldest_sorted() {
        let mut config = CacheConfig::sized(2)
            .with_hot(admit_all())
            .with_watermark(2);
        config.batch = 2;
        let mut c = WriteCache::new(config).unwrap();
        assert!(matches!(c.write(9, 90), WriteOutcome::Admitted { evicted } if evicted.is_empty()));
        assert!(matches!(c.write(4, 40), WriteOutcome::Admitted { evicted } if evicted.is_empty()));
        match c.write(7, 70) {
            WriteOutcome::Admitted { evicted } => {
                assert_eq!(evicted, vec![(4, 40), (9, 90)], "oldest two, LBA-sorted");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(c.dirty(), 1);
        assert_eq!(c.sample().evicted, 2);
    }

    #[test]
    fn need_sync_and_batch_drain() {
        let mut config = CacheConfig::sized(8)
            .with_hot(admit_all())
            .with_watermark(3);
        config.batch = 2;
        let mut c = WriteCache::new(config).unwrap();
        c.write(1, 1);
        c.write(2, 2);
        assert!(!c.need_sync());
        c.write(3, 3);
        assert!(c.need_sync());
        let batch = c.take_sync_batch();
        assert_eq!(batch, vec![(1, 1), (2, 2)], "oldest first, LBA-sorted");
        assert!(!c.need_sync());
        assert_eq!(c.drain_all(), vec![(3, 3)]);
        assert_eq!(c.dirty(), 0);
        assert_eq!(c.sample().flushed_pages, 3);
        assert_eq!(c.sample().flush_batches, 2);
    }

    #[test]
    fn trim_drops_dirty_entry_and_flushes_skip_it() {
        let mut c = cache(8);
        c.write(1, 1);
        c.write(2, 2);
        assert!(c.trim(1));
        assert!(!c.trim(1), "second trim finds nothing");
        assert_eq!(c.lookup(1), None);
        assert_eq!(c.drain_all(), vec![(2, 2)], "stale order slot skipped");
        assert_eq!(c.sample().trimmed, 1);
    }
}
