//! BET persistence across power cycles (§3.2 of the paper).
//!
//! The BET and the `(ecnt, findex)` pair are saved when the storage system
//! shuts down and reloaded when it is attached, because rescanning every
//! spare area of a large chip at attach time is too slow. Crash resistance
//! uses the classic **dual-buffer** scheme: snapshots alternate between two
//! slots, each carrying a sequence number and a checksum, so a crash that
//! tears the newest copy still leaves the previous one intact. A stale
//! snapshot merely loses a few erase counts, which the mechanism tolerates
//! by design.
//!
//! # Example
//!
//! ```
//! use swl_core::persist::DualBuffer;
//! use swl_core::{SwLeveler, SwlConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut leveler = SwLeveler::new(64, SwlConfig::new(100, 0))?;
//! leveler.note_erase(5);
//!
//! let mut nvram = DualBuffer::new();
//! nvram.save(&leveler);
//!
//! // ... power cycle ...
//! let restored = nvram.recover()?.into_leveler()?;
//! assert_eq!(restored.ecnt(), 1);
//! assert!(restored.bet().test(5));
//! # Ok(())
//! # }
//! ```
//!
//! # What a crash can do, and how recovery answers
//!
//! Power can vanish at any byte of a checkpoint write, so recovery never
//! assumes the newest slot is whole. Walking the timeline of one save:
//!
//! 1. **Before the first byte lands** — the older slot is untouched and
//!    still carries the previous generation. `recover` returns it; the
//!    restored `ecnt`/BET are at most one checkpoint interval stale, which
//!    SWL-Procedure tolerates (a few erase counts are double-counted into
//!    the next interval, never lost from the wear map).
//! 2. **Mid-write** — the slot holds a prefix of the new snapshot or a
//!    splice of old and new bytes. Every decode failure below maps to one
//!    [`PersistError`] variant, and [`DualBuffer::recover`] treats all of
//!    them the same way: skip the slot, fall back to the other one.
//! 3. **After the checksum lands** — the save is durable; the *other* slot
//!    becomes the sacrificial target of the next save. This alternation is
//!    why a single crash can never destroy both generations.
//!
//! Only when *both* slots fail to decode — a fresh device, or two crashes
//! tearing two consecutive saves — does `recover` report
//! [`PersistError::NoValidSnapshot`], and the integrator falls back to a
//! fresh leveler (losing wear history but never data).
//!
//! ## Decode failures, one by one
//!
//! [`PersistError::Truncated`] — the write stopped before the declared
//! payload (or even the header) was complete:
//!
//! ```
//! use swl_core::persist::{PersistError, Snapshot};
//! use swl_core::{SwLeveler, SwlConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let leveler = SwLeveler::new(64, SwlConfig::new(100, 0))?;
//! let bytes = Snapshot::capture(&leveler, 1).encode();
//! let torn = &bytes[..bytes.len() / 2];
//! assert_eq!(Snapshot::decode(torn), Err(PersistError::Truncated));
//! # Ok(())
//! # }
//! ```
//!
//! [`PersistError::BadMagic`] — the slot never held a snapshot (or its
//! first sector was destroyed); nothing after the first four bytes is
//! trusted:
//!
//! ```
//! use swl_core::persist::{PersistError, Snapshot};
//! use swl_core::{SwLeveler, SwlConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let leveler = SwLeveler::new(64, SwlConfig::new(100, 0))?;
//! let mut bytes = Snapshot::capture(&leveler, 1).encode();
//! bytes[0] = b'X';
//! assert_eq!(Snapshot::decode(&bytes), Err(PersistError::BadMagic));
//! # Ok(())
//! # }
//! ```
//!
//! [`PersistError::BadVersion`] — the snapshot is whole but written by an
//! incompatible firmware revision; refusing it beats misreading it:
//!
//! ```
//! use swl_core::persist::{PersistError, Snapshot};
//! use swl_core::{SwLeveler, SwlConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let leveler = SwLeveler::new(64, SwlConfig::new(100, 0))?;
//! let mut bytes = Snapshot::capture(&leveler, 1).encode();
//! bytes[4..6].copy_from_slice(&9u16.to_le_bytes());
//! assert_eq!(
//!     Snapshot::decode(&bytes),
//!     Err(PersistError::BadVersion { found: 9 })
//! );
//! # Ok(())
//! # }
//! ```
//!
//! [`PersistError::BadChecksum`] — the length and header look right but
//! the payload was spliced or bit-flipped; the FNV-1a 64 trailer catches
//! it:
//!
//! ```
//! use swl_core::persist::{PersistError, Snapshot};
//! use swl_core::{SwLeveler, SwlConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let leveler = SwLeveler::new(64, SwlConfig::new(100, 0))?;
//! let mut bytes = Snapshot::capture(&leveler, 1).encode();
//! let middle = bytes.len() / 2;
//! bytes[middle] ^= 0x5A;
//! assert_eq!(Snapshot::decode(&bytes), Err(PersistError::BadChecksum));
//! # Ok(())
//! # }
//! ```
//!
//! [`PersistError::NoValidSnapshot`] — both slots are gone; the caller
//! starts a fresh leveler instead:
//!
//! ```
//! use swl_core::persist::{DualBuffer, PersistError};
//! use swl_core::{SwLeveler, SwlConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nvram = DualBuffer::new(); // fresh device: nothing ever saved
//! assert_eq!(nvram.recover().unwrap_err(), PersistError::NoValidSnapshot);
//! let fresh = SwLeveler::new(64, SwlConfig::new(100, 0))?;
//! assert_eq!(fresh.ecnt(), 0);
//! # Ok(())
//! # }
//! ```
//!
//! The crash-consistency harness (`tests/crash_consistency.rs` and the
//! `repro crashmc` artifact) drives this exact recovery path at every power-cut
//! point of a live workload and checks the staleness bound end to end.

use std::error::Error;
use std::fmt;

use crate::bet::Bet;
use crate::leveler::{SwLeveler, SwlConfig, SwlError};

const MAGIC: [u8; 4] = *b"SWL1";
const VERSION: u16 = 1;

/// Errors from decoding or recovering a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PersistError {
    /// The buffer is too short to hold a snapshot header.
    Truncated,
    /// The magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The checksum over the payload did not verify.
    BadChecksum,
    /// Neither dual-buffer slot held a valid snapshot.
    NoValidSnapshot,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated => f.write_str("snapshot buffer truncated"),
            PersistError::BadMagic => f.write_str("snapshot magic mismatch"),
            PersistError::BadVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            PersistError::BadChecksum => f.write_str("snapshot checksum mismatch"),
            PersistError::NoValidSnapshot => f.write_str("no valid snapshot in either slot"),
        }
    }
}

impl Error for PersistError {}

/// A decoded (or captured) leveler snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    blocks: u32,
    k: u32,
    threshold: u64,
    seed: u64,
    config_flags: u8,
    ecnt: u64,
    findex: u64,
    sequence: u64,
    flags: u64,
    words: Vec<u64>,
}

impl Snapshot {
    /// Captures the current state of `leveler` with the given sequence
    /// number (the dual buffer manages sequence numbers for you).
    pub fn capture(leveler: &SwLeveler, sequence: u64) -> Self {
        let config = leveler.config();
        Self {
            blocks: leveler.blocks(),
            k: config.k,
            threshold: config.threshold,
            seed: config.seed,
            config_flags: u8::from(!config.randomize_reset) | (u8::from(config.deferred) << 1),
            ecnt: leveler.ecnt(),
            findex: leveler.findex() as u64,
            sequence,
            flags: leveler.bet().flags() as u64,
            words: leveler.bet().words().to_vec(),
        }
    }

    /// The snapshot's sequence number.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Serialises the snapshot to bytes (fixed little-endian layout plus an
    /// FNV-1a 64 checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.words.len() * 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.config_flags);
        out.push(0); // reserved
        out.extend_from_slice(&self.blocks.to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.threshold.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.ecnt.to_le_bytes());
        out.extend_from_slice(&self.findex.to_le_bytes());
        out.extend_from_slice(&self.sequence.to_le_bytes());
        out.extend_from_slice(&self.flags.to_le_bytes());
        out.extend_from_slice(&(self.words.len() as u32).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Deserialises a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`PersistError`] when the buffer is truncated, carries the
    /// wrong magic or version, or fails its checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        const HEADER: usize = 4 + 2 + 2 + 4 + 4 + 8 * 6 + 4;
        if bytes.len() < HEADER + 8 {
            return Err(PersistError::Truncated);
        }
        if bytes[0..4] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(PersistError::BadVersion { found: version });
        }
        let config_flags = bytes[6];
        let read_u32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let read_u64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let blocks = read_u32(8);
        let k = read_u32(12);
        let threshold = read_u64(16);
        let seed = read_u64(24);
        let ecnt = read_u64(32);
        let findex = read_u64(40);
        let sequence = read_u64(48);
        let flags = read_u64(56);
        let nwords = read_u32(64) as usize;
        let body_len = HEADER + nwords * 8;
        if bytes.len() < body_len + 8 {
            return Err(PersistError::Truncated);
        }
        let expected = read_u64(body_len);
        if fnv1a64(&bytes[..body_len]) != expected {
            return Err(PersistError::BadChecksum);
        }
        let words = (0..nwords)
            .map(|i| read_u64(HEADER + i * 8))
            .collect::<Vec<u64>>();
        Ok(Self {
            blocks,
            k,
            threshold,
            seed,
            config_flags,
            ecnt,
            findex,
            sequence,
            flags,
            words,
        })
    }

    /// Rebuilds a [`SwLeveler`] from this snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`SwlError`] when the persisted configuration is invalid
    /// (e.g. a zero threshold from a corrupted-but-checksummed source).
    pub fn into_leveler(self) -> Result<SwLeveler, SwlError> {
        let config = SwlConfig {
            threshold: self.threshold,
            k: self.k,
            seed: self.seed,
            randomize_reset: self.config_flags & 1 == 0,
            deferred: self.config_flags & 2 != 0,
        };
        let bet = Bet::from_words(self.words, self.flags as usize, self.k);
        SwLeveler::restore(self.blocks, config, bet, self.ecnt, self.findex as usize)
    }
}

/// Two alternating snapshot slots — the "popular dual buffer concept" the
/// paper cites for crash resistance.
///
/// [`DualBuffer::save`] always overwrites the *older* slot, so the newest
/// complete snapshot survives a crash mid-save. [`DualBuffer::recover`]
/// returns the valid snapshot with the highest sequence number.
#[derive(Debug, Clone, Default)]
pub struct DualBuffer {
    slots: [Option<Vec<u8>>; 2],
    next_sequence: u64,
}

impl DualBuffer {
    /// An empty dual buffer (fresh device).
    pub fn new() -> Self {
        Self::default()
    }

    /// Saves a snapshot of `leveler` into the older slot.
    pub fn save(&mut self, leveler: &SwLeveler) {
        self.next_sequence += 1;
        let snapshot = Snapshot::capture(leveler, self.next_sequence);
        let slot = (self.next_sequence % 2) as usize;
        self.slots[slot] = Some(snapshot.encode());
    }

    /// Recovers the newest valid snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::NoValidSnapshot`] when neither slot decodes.
    pub fn recover(&self) -> Result<Snapshot, PersistError> {
        let mut best: Option<Snapshot> = None;
        for slot in self.slots.iter().flatten() {
            if let Ok(snap) = Snapshot::decode(slot) {
                if best.as_ref().is_none_or(|b| snap.sequence() > b.sequence()) {
                    best = Some(snap);
                }
            }
        }
        best.ok_or(PersistError::NoValidSnapshot)
    }

    /// Mutable access to a raw slot, for fault-injection tests
    /// (simulating a torn or bit-flipped save).
    pub fn slot_mut(&mut self, index: usize) -> Option<&mut Vec<u8>> {
        self.slots[index].as_mut()
    }

    /// Read access to a raw slot.
    pub fn slot(&self, index: usize) -> Option<&[u8]> {
        self.slots[index].as_deref()
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SwlConfig;

    fn sample_leveler() -> SwLeveler {
        let mut l = SwLeveler::new(100, SwlConfig::new(50, 2).with_seed(3)).unwrap();
        for b in [0u32, 7, 42, 99] {
            l.note_erase(b);
        }
        l
    }

    #[test]
    fn snapshot_round_trips() {
        let l = sample_leveler();
        let snap = Snapshot::capture(&l, 1);
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        let restored = decoded.into_leveler().unwrap();
        assert_eq!(restored.ecnt(), l.ecnt());
        assert_eq!(restored.fcnt(), l.fcnt());
        assert_eq!(restored.findex(), l.findex());
        assert_eq!(restored.config(), l.config());
        for f in 0..l.bet().flags() {
            assert_eq!(restored.bet().test(f), l.bet().test(f));
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = Snapshot::capture(&sample_leveler(), 1).encode();
        for cut in [0, 4, 10, bytes.len() - 1] {
            assert!(matches!(
                Snapshot::decode(&bytes[..cut]),
                Err(PersistError::Truncated) | Err(PersistError::BadChecksum)
            ));
        }
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = Snapshot::capture(&sample_leveler(), 1).encode();
        bytes[0] ^= 0xFF;
        assert_eq!(Snapshot::decode(&bytes), Err(PersistError::BadMagic));
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut bytes = Snapshot::capture(&sample_leveler(), 1).encode();
        bytes[4] = 0xEE;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(PersistError::BadVersion { found: 0xEE })
        ));
    }

    #[test]
    fn decode_rejects_flipped_payload_bit() {
        let mut bytes = Snapshot::capture(&sample_leveler(), 1).encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert_eq!(Snapshot::decode(&bytes), Err(PersistError::BadChecksum));
    }

    #[test]
    fn randomize_reset_round_trips() {
        let config = crate::SwlConfig::new(50, 2).with_randomized_reset(false);
        let leveler = SwLeveler::new(100, config).unwrap();
        let snap = Snapshot::capture(&leveler, 1);
        let restored = Snapshot::decode(&snap.encode())
            .unwrap()
            .into_leveler()
            .unwrap();
        assert!(!restored.config().randomize_reset);

        let config = crate::SwlConfig::new(50, 2);
        let leveler = SwLeveler::new(100, config).unwrap();
        let restored = Snapshot::decode(&Snapshot::capture(&leveler, 1).encode())
            .unwrap()
            .into_leveler()
            .unwrap();
        assert!(restored.config().randomize_reset);
    }

    #[test]
    fn deferred_round_trips() {
        for (deferred, randomize) in [(false, false), (false, true), (true, false), (true, true)] {
            let config = crate::SwlConfig::new(50, 2)
                .with_randomized_reset(randomize)
                .with_deferred(deferred);
            let leveler = SwLeveler::new(100, config).unwrap();
            let restored = Snapshot::decode(&Snapshot::capture(&leveler, 1).encode())
                .unwrap()
                .into_leveler()
                .unwrap();
            assert_eq!(restored.config().deferred, deferred);
            assert_eq!(restored.config().randomize_reset, randomize);
        }
    }

    #[test]
    fn dual_buffer_alternates_slots() {
        let l = sample_leveler();
        let mut buf = DualBuffer::new();
        buf.save(&l);
        assert!(buf.slot(1).is_some() && buf.slot(0).is_none());
        buf.save(&l);
        assert!(buf.slot(0).is_some());
        assert_eq!(buf.recover().unwrap().sequence(), 2);
    }

    #[test]
    fn dual_buffer_survives_torn_newest_copy() {
        let mut l = sample_leveler();
        let mut buf = DualBuffer::new();
        buf.save(&l); // seq 1 → slot 1
        l.note_erase(1);
        buf.save(&l); // seq 2 → slot 0
                      // Tear the newest save (slot 0).
        buf.slot_mut(0).unwrap().truncate(12);
        let recovered = buf.recover().unwrap();
        assert_eq!(recovered.sequence(), 1, "falls back to older snapshot");
        let restored = recovered.into_leveler().unwrap();
        assert_eq!(restored.ecnt(), 4, "stale but consistent");
    }

    #[test]
    fn dual_buffer_empty_reports_no_snapshot() {
        assert_eq!(
            DualBuffer::new().recover().unwrap_err(),
            PersistError::NoValidSnapshot
        );
    }

    #[test]
    fn corrupt_both_slots_reports_no_snapshot() {
        let l = sample_leveler();
        let mut buf = DualBuffer::new();
        buf.save(&l);
        buf.save(&l);
        for i in 0..2 {
            buf.slot_mut(i).unwrap()[0] ^= 0xFF;
        }
        assert_eq!(buf.recover().unwrap_err(), PersistError::NoValidSnapshot);
    }

    #[test]
    fn leveling_continues_correctly_after_recovery() {
        // Restore, then verify Algorithm 1 still functions on the state.
        let mut l = SwLeveler::new(4, SwlConfig::new(2, 0)).unwrap();
        for _ in 0..8 {
            l.note_erase(0);
        }
        let mut buf = DualBuffer::new();
        buf.save(&l);
        let mut restored = buf.recover().unwrap().into_leveler().unwrap();
        assert!(restored.needs_leveling());
        struct Eraser;
        impl crate::SwlCleaner for Eraser {
            type Error = std::convert::Infallible;
            fn erase_block_set(
                &mut self,
                first: u32,
                count: u32,
                erased: &mut Vec<u32>,
            ) -> Result<(), Self::Error> {
                erased.extend(first..first + count);
                Ok(())
            }
        }
        restored.level(&mut Eraser).unwrap();
        assert!(!restored.needs_leveling());
    }

    #[test]
    fn stall_latch_is_not_persisted() {
        use crate::LevelOutcome;
        struct Stuck;
        impl crate::SwlCleaner for Stuck {
            type Error = std::convert::Infallible;
            fn erase_block_set(
                &mut self,
                _: u32,
                _: u32,
                _: &mut Vec<u32>,
            ) -> Result<(), Self::Error> {
                Ok(())
            }
        }
        let mut l = SwLeveler::new(4, SwlConfig::new(2, 0)).unwrap();
        for _ in 0..8 {
            l.note_erase(0);
        }
        let unlatched = Snapshot::capture(&l, 1).encode();
        assert_eq!(
            l.level(&mut Stuck).unwrap(),
            LevelOutcome::Stalled { sets_cleaned: 3 }
        );
        assert!(!l.needs_leveling());
        // The latch adds nothing to the bytes (findex came back round)...
        let bytes = Snapshot::capture(&l, 1).encode();
        assert_eq!(bytes, unlatched);
        // ...so the restored leveler finds the stall again, in one lap.
        let mut restored = Snapshot::decode(&bytes).unwrap().into_leveler().unwrap();
        assert!(restored.needs_leveling());
        assert_eq!(
            restored.level(&mut Stuck).unwrap(),
            LevelOutcome::Stalled { sets_cleaned: 3 }
        );
        assert!(!restored.needs_leveling());
    }
}
