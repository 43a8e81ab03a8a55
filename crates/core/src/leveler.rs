//! The SW Leveler: SWL-Procedure and SWL-BETUpdate (§3.3 of the paper).

use std::error::Error;
use std::fmt;

use crate::bet::Bet;
use crate::rng::SplitMix64;
use flash_telemetry::Event;

/// Configuration of the SW Leveler.
///
/// `threshold` is the paper's `T`: static wear leveling triggers when the
/// unevenness level `ecnt / fcnt` reaches `T`. `k` selects the BET
/// granularity (`2^k` blocks per flag).
///
/// # Example
///
/// ```
/// use swl_core::SwlConfig;
///
/// let config = SwlConfig::new(100, 0).with_seed(7);
/// assert_eq!(config.threshold, 100);
/// assert_eq!(config.k, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwlConfig {
    /// Unevenness-level threshold `T` (must be ≥ 1).
    pub threshold: u64,
    /// BET group factor: each flag covers `2^k` blocks.
    pub k: u32,
    /// Seed for the post-reset `findex` randomisation.
    pub seed: u64,
    /// Randomise `findex` after each BET reset (Algorithm 1, step 6). The
    /// paper surmises the sequential scan behaves like random selection
    /// anyway; disable this to ablate the design choice (`findex` then
    /// restarts each interval at flag 0).
    pub randomize_reset: bool,
    /// Defer triggering to an external coordinator: the translation layer
    /// keeps feeding erases through [`SwLeveler::note_erase`] but never
    /// invokes SWL-Procedure on its own. A multi-chip array uses this to
    /// treat each chip's leveler as one *shard* — the coordinator watches
    /// the global unevenness over shard sums (see [`crate::shard`]) and
    /// drives the worst shard with [`SwLeveler::level_step`].
    pub deferred: bool,
}

impl SwlConfig {
    /// Configuration with threshold `T` and group factor `k` (seed 0).
    pub fn new(threshold: u64, k: u32) -> Self {
        Self {
            threshold,
            k,
            seed: 0,
            randomize_reset: true,
            deferred: false,
        }
    }

    /// Replaces the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables post-reset `findex` randomisation.
    pub fn with_randomized_reset(mut self, randomize_reset: bool) -> Self {
        self.randomize_reset = randomize_reset;
        self
    }

    /// Enables or disables deferred (externally coordinated) triggering.
    pub fn with_deferred(mut self, deferred: bool) -> Self {
        self.deferred = deferred;
        self
    }
}

impl Default for SwlConfig {
    /// The paper's most effective setting: `T = 100`, `k = 0`.
    fn default() -> Self {
        Self::new(100, 0)
    }
}

/// Errors from building a [`SwLeveler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SwlError {
    /// The threshold `T` must be at least 1.
    ZeroThreshold,
    /// The chip must have at least one block.
    NoBlocks,
    /// `k` exceeds the supported range (max 31).
    KTooLarge {
        /// The offending group factor.
        k: u32,
    },
}

impl fmt::Display for SwlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwlError::ZeroThreshold => f.write_str("unevenness threshold must be at least 1"),
            SwlError::NoBlocks => f.write_str("leveler must cover at least one block"),
            SwlError::KTooLarge { k } => write!(f, "group factor k={k} too large (max 31)"),
        }
    }
}

impl Error for SwlError {}

/// The Cleaner interface the SW Leveler drives.
///
/// A translation layer implements this by running its garbage collector over
/// the requested block range: copying any valid pages elsewhere, updating its
/// address translation, and erasing the blocks. Every block erase performed
/// during the call — the requested ones *and* any collateral erases the GC
/// needed for free space — must be pushed into `erased` so the leveler can
/// run SWL-BETUpdate for each (the paper's re-entrant triggering, made
/// explicit to keep borrows simple).
///
/// # The no-erase contract
///
/// A call that reports no erase had no effect, and the same call will report
/// none again until some block of a set whose BET flag is clear has been
/// erased. The leveler's termination guard and its stall latch rest on this:
/// one fruitless lap of the clear flags proves every later lap fruitless
/// until `fcnt` moves. Both mappings of this workspace meet it — the blocks
/// they skip are out of circulation for good (FTL: retired or in the
/// snapshot-manifest reserve; NFTL: retired or stranded).
pub trait SwlCleaner {
    /// Error type surfaced by the garbage collector.
    type Error;

    /// Garbage-collects blocks `first_block .. first_block + count`,
    /// appending the indices of all blocks erased during the call to
    /// `erased`.
    ///
    /// # Errors
    ///
    /// Implementations should fail only on unrecoverable device errors; a
    /// block set with nothing to do must simply erase (or skip) and succeed.
    fn erase_block_set(
        &mut self,
        first_block: u32,
        count: u32,
        erased: &mut Vec<u32>,
    ) -> Result<(), Self::Error>;

    /// Forwards a leveler telemetry event ([`Event::SwlInvoke`],
    /// [`Event::IntervalReset`]) into the Cleaner's sink, if it has one.
    ///
    /// The leveler itself is not generic over a sink; routing its few events
    /// through the Cleaner keeps the type parameter out of `SwLeveler` and
    /// lets each translation layer merge them into its own event stream. The
    /// default implementation drops the event, so plain Cleaners (tests,
    /// custom integrations) need no changes.
    ///
    /// Causal spans are the *caller's* job, not the Cleaner's: the
    /// instrumented translation layers open an `swl` span around the whole
    /// [`SwLeveler::level`] call, so these events — and every erase, copy,
    /// and nested GC/merge span the Cleaner emits while the pass runs —
    /// land inside it and the pass's device time is attributed to SWL.
    fn emit_telemetry(&mut self, event: Event) {
        let _ = event;
    }
}

/// What a call to [`SwLeveler::level`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelOutcome {
    /// The unevenness level was below the threshold; nothing happened.
    Idle,
    /// One or more block sets were garbage-collected and the unevenness
    /// level fell back below the threshold.
    Leveled {
        /// Block sets handed to the Cleaner.
        sets_cleaned: u32,
        /// Total block erases reported back by the Cleaner.
        erases_triggered: u64,
    },
    /// Every BET flag became set: the table was reset, counters cleared and
    /// `findex` re-randomised — a new resetting interval begins.
    IntervalReset {
        /// Block sets handed to the Cleaner before the reset.
        sets_cleaned: u32,
        /// Total block erases reported back by the Cleaner before the reset.
        erases_triggered: u64,
    },
    /// The Cleaner made no progress for a whole lap of the clear flags (it
    /// erased nothing and set no flags); leveling aborted to guarantee
    /// termination. The stall is remembered: until `fcnt` moves, further
    /// calls return `sets_cleaned: 0` without asking the Cleaner again.
    Stalled {
        /// Block sets handed to the Cleaner before aborting.
        sets_cleaned: u32,
    },
}

/// Lifetime statistics of a [`SwLeveler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwlStats {
    /// Erases observed via [`SwLeveler::note_erase`] (all causes).
    pub erases_observed: u64,
    /// Block sets handed to the Cleaner by SWL-Procedure.
    pub sets_cleaned: u64,
    /// Erases reported back from SWL-triggered garbage collection.
    pub swl_erases: u64,
    /// Completed resetting intervals (BET resets).
    pub interval_resets: u64,
    /// Calls to [`SwLeveler::level`] that did work.
    pub activations: u64,
}

/// The SW Leveler: Block Erasing Table plus the two procedures of §3.3.
///
/// # Stability
///
/// Choose `T > 2^k` (threshold above blocks-per-flag). Every block set the
/// Cleaner recycles adds up to `2^k` erases to `ecnt` but sets at most one
/// new flag, so with `T ≤ 2^k` an activation can *raise* the unevenness
/// level and cascade into recycling the whole chip before the interval
/// resets. The paper's sweep (`T ≥ 100`, `k ≤ 3`) always satisfies this.
///
/// * [`SwLeveler::note_erase`] is **SWL-BETUpdate** (Algorithm 2): the
///   Cleaner calls it for every block erase.
/// * [`SwLeveler::level`] is **SWL-Procedure** (Algorithm 1): call it after
///   erases (or from a timer); when the unevenness level `ecnt / fcnt`
///   reaches `T` it drives the Cleaner over cold block sets until the level
///   drops or the BET fills up and a new resetting interval starts.
///
/// See the [crate-level example](crate) for a complete round trip.
#[derive(Debug, Clone)]
pub struct SwLeveler {
    config: SwlConfig,
    blocks: u32,
    bet: Bet,
    ecnt: u64,
    findex: usize,
    rng: SplitMix64,
    stats: SwlStats,
    scratch: Vec<u32>,
    /// The `fcnt` at which SWL-Procedure last stalled. While `fcnt` still has
    /// that value the clear sets are the ones the Cleaner could not touch, so
    /// another lap would stall too (see [`SwlCleaner`]'s no-erase contract).
    /// Not persisted: a restored leveler rediscovers a stall in one lap.
    stalled_at: Option<usize>,
}

impl SwLeveler {
    /// Creates a leveler for a chip with `blocks` erase blocks.
    ///
    /// # Errors
    ///
    /// Returns [`SwlError::ZeroThreshold`] when `config.threshold == 0`,
    /// [`SwlError::NoBlocks`] when `blocks == 0`, and
    /// [`SwlError::KTooLarge`] when `config.k > 31`.
    pub fn new(blocks: u32, config: SwlConfig) -> Result<Self, SwlError> {
        if config.threshold == 0 {
            return Err(SwlError::ZeroThreshold);
        }
        if blocks == 0 {
            return Err(SwlError::NoBlocks);
        }
        if config.k > 31 {
            return Err(SwlError::KTooLarge { k: config.k });
        }
        Ok(Self {
            config,
            blocks,
            bet: Bet::new(blocks, config.k),
            ecnt: 0,
            findex: 0,
            rng: SplitMix64::new(config.seed),
            stats: SwlStats::default(),
            scratch: Vec::new(),
            stalled_at: None,
        })
    }

    /// The configuration this leveler runs with.
    pub fn config(&self) -> SwlConfig {
        self.config
    }

    /// Number of blocks covered.
    pub fn blocks(&self) -> u32 {
        self.blocks
    }

    /// Read-only view of the Block Erasing Table.
    pub fn bet(&self) -> &Bet {
        &self.bet
    }

    /// Total erases observed this resetting interval (the paper's `ecnt`).
    pub fn ecnt(&self) -> u64 {
        self.ecnt
    }

    /// Set flags this resetting interval (the paper's `fcnt`).
    pub fn fcnt(&self) -> usize {
        self.bet.fcnt()
    }

    /// Current scan position (the paper's `findex`).
    pub fn findex(&self) -> usize {
        self.findex
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> SwlStats {
        self.stats
    }

    /// The unevenness level `ecnt / fcnt`, or `None` while `fcnt == 0`.
    pub fn unevenness(&self) -> Option<f64> {
        let fcnt = self.bet.fcnt();
        (fcnt > 0).then(|| self.ecnt as f64 / fcnt as f64)
    }

    /// `true` when the unevenness level has reached the threshold and
    /// [`SwLeveler::level`] would act — so `false` while a stall is latched
    /// (see [`LevelOutcome::Stalled`]).
    pub fn needs_leveling(&self) -> bool {
        self.over_threshold() && !self.stall_latched()
    }

    fn stall_latched(&self) -> bool {
        self.stalled_at == Some(self.bet.fcnt())
    }

    fn over_threshold(&self) -> bool {
        let fcnt = self.bet.fcnt() as u64;
        fcnt > 0 && self.ecnt >= self.config.threshold.saturating_mul(fcnt)
    }

    /// **SWL-BETUpdate** (Algorithm 2): records that `bindex` was erased.
    ///
    /// Increments `ecnt`; sets the covering BET flag (and thereby `fcnt`)
    /// if it was clear. Returns `true` when the flag was newly set.
    ///
    /// # Panics
    ///
    /// Panics if `bindex` is outside the covered block range.
    pub fn note_erase(&mut self, bindex: u32) -> bool {
        assert!(bindex < self.blocks, "block {bindex} out of range");
        self.ecnt += 1;
        self.stats.erases_observed += 1;
        self.bet.mark(bindex)
    }

    /// **SWL-Procedure** (Algorithm 1): if the unevenness level is at or
    /// above `T`, repeatedly garbage-collect the next block set whose flag
    /// is clear until the level drops, the BET fills (starting a new
    /// resetting interval), or the Cleaner stalls.
    ///
    /// Line-by-line correspondence with the paper's pseudo-code:
    ///
    /// | paper | here |
    /// |---|---|
    /// | 1: `if fcnt = 0 then return` | the `over_threshold` guard (false while `fcnt == 0`) |
    /// | 2: `while ecnt/fcnt ≥ T` | `while self.over_threshold()` (integer form `ecnt ≥ T·fcnt`) |
    /// | 3–8: reset when `fcnt ≥ size(BET)` | `if self.bet.all_set()` → the interval-reset branch → return |
    /// | 9–10: advance `findex` past set flags | [`crate::Bet::next_clear`] cyclic scan |
    /// | 11: `EraseBlockSet(findex, k)` | [`SwlCleaner::erase_block_set`] + `note_erase` feedback |
    /// | 12: `findex ← findex + 1 mod size` | the final cursor bump |
    ///
    /// The termination guard is not in the paper, which assumes a
    /// cooperative Cleaner: `flags − fcnt` consecutive sets without an erase
    /// are one lap of the clear flags (no erase, so the clear flags are the
    /// same ones throughout), and by the Cleaner's no-erase contract every
    /// further lap would be fruitless too. The pass ends
    /// [`LevelOutcome::Stalled`] and the stall is latched on the current
    /// `fcnt`: until a flag is set or the interval resets, this returns
    /// `Stalled { sets_cleaned: 0 }` at once — no Cleaner call, no event, no
    /// statistic. Where the lap stops, `findex` rests on one of the flags the
    /// Cleaner cannot set; which one carries no meaning.
    ///
    /// # Errors
    ///
    /// Propagates the first error returned by the Cleaner; the leveler's
    /// state remains consistent (erases reported before the error are
    /// recorded).
    pub fn level<C: SwlCleaner>(&mut self, cleaner: &mut C) -> Result<LevelOutcome, C::Error> {
        if !self.over_threshold() {
            return Ok(LevelOutcome::Idle);
        }
        if self.stall_latched() {
            return Ok(LevelOutcome::Stalled { sets_cleaned: 0 });
        }
        self.stats.activations += 1;
        cleaner.emit_telemetry(Event::SwlInvoke {
            ecnt: self.ecnt,
            fcnt: self.bet.fcnt() as u64,
            threshold: self.config.threshold,
        });

        let mut sets_cleaned = 0u32;
        let mut erases_triggered = 0u64;
        let mut fruitless_sets = 0usize;

        while self.over_threshold() {
            if self.bet.all_set() {
                cleaner.emit_telemetry(Event::IntervalReset {
                    interval: self.stats.interval_resets,
                    ecnt: self.ecnt,
                    fcnt: self.bet.fcnt() as u64,
                });
                self.start_new_interval();
                return Ok(LevelOutcome::IntervalReset {
                    sets_cleaned,
                    erases_triggered,
                });
            }

            let (erases, progressed, was_empty) = self.clean_next_set(cleaner)?;
            erases_triggered += erases;
            sets_cleaned += 1;

            // Termination guard: a lap of the clear flags with no erase and
            // no new flag means the Cleaner cannot make progress.
            if was_empty && !progressed {
                fruitless_sets += 1;
                if fruitless_sets >= self.bet.flags() - self.bet.fcnt() {
                    self.stalled_at = Some(self.bet.fcnt());
                    return Ok(LevelOutcome::Stalled { sets_cleaned });
                }
            } else {
                fruitless_sets = 0;
            }
        }

        Ok(LevelOutcome::Leveled {
            sets_cleaned,
            erases_triggered,
        })
    }

    /// One iteration of the Algorithm-1 loop body, **without** the threshold
    /// check: resets the interval if the BET is full, otherwise cleans
    /// exactly one clear block set and feeds the erases back through
    /// SWL-BETUpdate.
    ///
    /// This is the coordinated-mode entry point (see
    /// [`SwlConfig::deferred`]): an external coordinator that watches a
    /// *global* unevenness over several shards calls this on the worst shard
    /// until the global level drops, instead of letting each shard loop on
    /// its own local level. Returns [`LevelOutcome::IntervalReset`] when the
    /// step reset the interval, [`LevelOutcome::Stalled`] when the Cleaner
    /// neither erased nor flagged anything, and [`LevelOutcome::Leveled`]
    /// with `sets_cleaned == 1` otherwise.
    ///
    /// # Errors
    ///
    /// Propagates the Cleaner's error; erases reported before the error are
    /// recorded.
    pub fn level_step<C: SwlCleaner>(&mut self, cleaner: &mut C) -> Result<LevelOutcome, C::Error> {
        self.stats.activations += 1;
        cleaner.emit_telemetry(Event::SwlInvoke {
            ecnt: self.ecnt,
            fcnt: self.bet.fcnt() as u64,
            threshold: self.config.threshold,
        });
        if self.bet.all_set() {
            cleaner.emit_telemetry(Event::IntervalReset {
                interval: self.stats.interval_resets,
                ecnt: self.ecnt,
                fcnt: self.bet.fcnt() as u64,
            });
            self.start_new_interval();
            return Ok(LevelOutcome::IntervalReset {
                sets_cleaned: 0,
                erases_triggered: 0,
            });
        }
        let (erases_triggered, progressed, was_empty) = self.clean_next_set(cleaner)?;
        if was_empty && !progressed {
            return Ok(LevelOutcome::Stalled { sets_cleaned: 1 });
        }
        Ok(LevelOutcome::Leveled {
            sets_cleaned: 1,
            erases_triggered,
        })
    }

    /// Steps 9–12 of Algorithm 1: advance `findex` to the next clear flag,
    /// hand that block set to the Cleaner, and feed every reported erase
    /// back through SWL-BETUpdate. Returns `(erases, newly_flagged,
    /// cleaner_was_empty)`.
    fn clean_next_set<C: SwlCleaner>(
        &mut self,
        cleaner: &mut C,
    ) -> Result<(u64, bool, bool), C::Error> {
        // Steps 9–10: advance findex cyclically to the next clear flag.
        let target = self
            .bet
            .next_clear(self.findex)
            .expect("a clear flag exists because not all flags are set");
        self.findex = target;

        // Step 11: hand the block set to the Cleaner.
        let first_block = self.bet.first_block_of(target);
        let count = self.bet.blocks_per_flag().min(self.blocks - first_block);
        self.scratch.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = cleaner.erase_block_set(first_block, count, &mut scratch);
        // Feed every reported erase through SWL-BETUpdate (the paper's
        // re-entrant Cleaner → SWL-BETUpdate path).
        let mut progressed = false;
        for &erased in &scratch {
            progressed |= self.note_erase(erased);
        }
        let erases = scratch.len() as u64;
        self.stats.swl_erases += erases;
        let was_empty = scratch.is_empty();
        scratch.clear();
        self.scratch = scratch;
        self.stats.sets_cleaned += 1;
        result?;

        // Step 12: move past the set we just cleaned.
        self.findex = (target + 1) % self.bet.flags();
        Ok((erases, progressed, was_empty))
    }

    /// Steps 4–7 of Algorithm 1: clear counters and flags, re-randomise
    /// `findex`.
    fn start_new_interval(&mut self) {
        self.ecnt = 0;
        self.bet.reset();
        self.findex = if self.config.randomize_reset {
            self.rng.next_below(self.bet.flags() as u64) as usize
        } else {
            0
        };
        self.stats.interval_resets += 1;
        self.stalled_at = None;
    }

    /// Restores leveler state from persisted values (see [`crate::persist`]).
    ///
    /// Out-of-range `findex` values are wrapped; `ecnt` is taken as-is. The
    /// paper notes these values "could tolerate some errors", so a stale
    /// snapshot is acceptable.
    pub(crate) fn restore(
        blocks: u32,
        config: SwlConfig,
        bet: Bet,
        ecnt: u64,
        findex: usize,
    ) -> Result<Self, SwlError> {
        let mut leveler = Self::new(blocks, config)?;
        leveler.findex = findex % leveler.bet.flags().max(1);
        leveler.bet = bet;
        leveler.ecnt = ecnt;
        Ok(leveler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// Cleaner that erases every requested block and records the calls.
    struct RecordingCleaner {
        calls: Vec<(u32, u32)>,
    }

    impl RecordingCleaner {
        fn new() -> Self {
            Self { calls: Vec::new() }
        }
    }

    impl SwlCleaner for RecordingCleaner {
        type Error = Infallible;
        fn erase_block_set(
            &mut self,
            first_block: u32,
            count: u32,
            erased: &mut Vec<u32>,
        ) -> Result<(), Self::Error> {
            self.calls.push((first_block, count));
            erased.extend(first_block..first_block + count);
            Ok(())
        }
    }

    /// Cleaner that never erases anything.
    struct NoopCleaner;
    impl SwlCleaner for NoopCleaner {
        type Error = Infallible;
        fn erase_block_set(
            &mut self,
            _first_block: u32,
            _count: u32,
            _erased: &mut Vec<u32>,
        ) -> Result<(), Self::Error> {
            Ok(())
        }
    }

    /// Cleaner that fails immediately.
    struct FailingCleaner;
    #[derive(Debug, PartialEq)]
    struct CleanerBroke;
    impl SwlCleaner for FailingCleaner {
        type Error = CleanerBroke;
        fn erase_block_set(
            &mut self,
            _first_block: u32,
            _count: u32,
            _erased: &mut Vec<u32>,
        ) -> Result<(), Self::Error> {
            Err(CleanerBroke)
        }
    }

    #[test]
    fn construction_validates_inputs() {
        assert_eq!(
            SwLeveler::new(8, SwlConfig::new(0, 0)).unwrap_err(),
            SwlError::ZeroThreshold
        );
        assert_eq!(
            SwLeveler::new(0, SwlConfig::new(1, 0)).unwrap_err(),
            SwlError::NoBlocks
        );
        assert_eq!(
            SwLeveler::new(8, SwlConfig::new(1, 32)).unwrap_err(),
            SwlError::KTooLarge { k: 32 }
        );
    }

    #[test]
    fn note_erase_is_algorithm_2() {
        let mut l = SwLeveler::new(8, SwlConfig::new(10, 1)).unwrap();
        assert!(l.note_erase(3)); // sets flag 1
        assert!(!l.note_erase(2)); // same flag
        assert_eq!(l.ecnt(), 2);
        assert_eq!(l.fcnt(), 1);
        assert_eq!(l.unevenness(), Some(2.0));
    }

    #[test]
    fn idle_below_threshold() {
        let mut l = SwLeveler::new(8, SwlConfig::new(100, 0)).unwrap();
        l.note_erase(0);
        let mut cleaner = RecordingCleaner::new();
        assert_eq!(l.level(&mut cleaner).unwrap(), LevelOutcome::Idle);
        assert!(cleaner.calls.is_empty());
    }

    #[test]
    fn idle_when_fcnt_zero() {
        // Step 1 of Algorithm 1: return immediately after a reset.
        let mut l = SwLeveler::new(8, SwlConfig::new(1, 0)).unwrap();
        let mut cleaner = RecordingCleaner::new();
        assert_eq!(l.level(&mut cleaner).unwrap(), LevelOutcome::Idle);
    }

    #[test]
    fn leveling_cleans_cold_sets_until_even() {
        let mut l = SwLeveler::new(4, SwlConfig::new(2, 0)).unwrap();
        // Block 0 erased 8 times: ecnt=8, fcnt=1 → unevenness 8 ≥ 2.
        for _ in 0..8 {
            l.note_erase(0);
        }
        let mut cleaner = RecordingCleaner::new();
        let outcome = l.level(&mut cleaner).unwrap();
        // Each cleaned set adds 1 erase and 1 flag:
        //   after set 1: ecnt 9, fcnt 2 → 4.5 ≥ 2
        //   after set 2: ecnt 10, fcnt 3 → 3.33 ≥ 2
        //   after set 3: ecnt 11, fcnt 4 → all flags set → reset.
        assert_eq!(
            outcome,
            LevelOutcome::IntervalReset {
                sets_cleaned: 3,
                erases_triggered: 3
            }
        );
        assert_eq!(cleaner.calls, vec![(1, 1), (2, 1), (3, 1)]);
        assert_eq!(l.ecnt(), 0);
        assert_eq!(l.fcnt(), 0);
        assert_eq!(l.stats().interval_resets, 1);
    }

    #[test]
    fn leveling_stops_once_threshold_satisfied() {
        let mut l = SwLeveler::new(64, SwlConfig::new(3, 0)).unwrap();
        for _ in 0..6 {
            l.note_erase(0);
        }
        // unevenness 6/1 = 6 ≥ 3; after one cleaned set: 7/2 = 3.5 ≥ 3;
        // after two: 8/3 ≈ 2.67 < 3 → stop.
        let mut cleaner = RecordingCleaner::new();
        let outcome = l.level(&mut cleaner).unwrap();
        assert_eq!(
            outcome,
            LevelOutcome::Leveled {
                sets_cleaned: 2,
                erases_triggered: 2
            }
        );
        assert!(!l.needs_leveling());
    }

    #[test]
    fn cyclic_scan_skips_set_flags() {
        let mut l = SwLeveler::new(4, SwlConfig::new(100, 0)).unwrap();
        l.note_erase(0);
        l.note_erase(1);
        // Force a high unevenness on flag 0/1 only; flags 2,3 clear.
        for _ in 0..400 {
            l.note_erase(0);
        }
        let mut cleaner = RecordingCleaner::new();
        l.level(&mut cleaner).unwrap();
        // First cleaned set must be block 2 (first clear flag from findex 0).
        assert_eq!(cleaner.calls.first(), Some(&(2, 1)));
    }

    #[test]
    fn grouped_mode_cleans_whole_sets() {
        let mut l = SwLeveler::new(8, SwlConfig::new(2, 1)).unwrap();
        for _ in 0..8 {
            l.note_erase(0);
        }
        let mut cleaner = RecordingCleaner::new();
        l.level(&mut cleaner).unwrap();
        assert!(cleaner.calls.iter().all(|&(_, count)| count == 2));
    }

    #[test]
    fn last_partial_set_is_clamped() {
        // 5 blocks, k=1 → flags cover {0,1},{2,3},{4}.
        let mut l = SwLeveler::new(5, SwlConfig::new(1, 1)).unwrap();
        for _ in 0..10 {
            l.note_erase(0);
        }
        let mut cleaner = RecordingCleaner::new();
        l.level(&mut cleaner).unwrap();
        assert!(cleaner.calls.contains(&(4, 1)), "partial set clamped to 1");
    }

    #[test]
    fn stalled_when_cleaner_does_nothing() {
        let mut l = SwLeveler::new(4, SwlConfig::new(1, 0)).unwrap();
        for _ in 0..10 {
            l.note_erase(0);
        }
        let outcome = l.level(&mut NoopCleaner).unwrap();
        assert!(matches!(outcome, LevelOutcome::Stalled { .. }));
    }

    /// Cleaner with a fixed set of blocks it cannot touch (out of
    /// circulation, as a retired or reserved block is); every other requested
    /// block is erased. Keeps every call, the calls that erased, and the
    /// events it was handed.
    struct DeadSetCleaner {
        dead: Vec<u32>,
        calls: Vec<(u32, u32)>,
        erasing_calls: Vec<(u32, u32)>,
        events: Vec<Event>,
    }

    impl DeadSetCleaner {
        fn new(dead: &[u32]) -> Self {
            Self {
                dead: dead.to_vec(),
                calls: Vec::new(),
                erasing_calls: Vec::new(),
                events: Vec::new(),
            }
        }
    }

    impl SwlCleaner for DeadSetCleaner {
        type Error = Infallible;
        fn erase_block_set(
            &mut self,
            first_block: u32,
            count: u32,
            erased: &mut Vec<u32>,
        ) -> Result<(), Self::Error> {
            self.calls.push((first_block, count));
            let before = erased.len();
            erased.extend((first_block..first_block + count).filter(|b| !self.dead.contains(b)));
            if erased.len() > before {
                self.erasing_calls.push((first_block, count));
            }
            Ok(())
        }
        fn emit_telemetry(&mut self, event: Event) {
            self.events.push(event);
        }
    }

    #[test]
    fn stall_is_one_lap_of_the_clear_flags_and_is_remembered() {
        let mut l = SwLeveler::new(16, SwlConfig::new(1, 0)).unwrap();
        for _ in 0..100 {
            l.note_erase(0);
        }
        let mut cleaner = DeadSetCleaner::new(&[3, 7, 12]);
        // The first lap cleans the 12 live sets among the 15 clear ones; the
        // second is over the 3 dead flags alone and ends the pass.
        assert_eq!(
            l.level(&mut cleaner).unwrap(),
            LevelOutcome::Stalled { sets_cleaned: 18 }
        );
        assert_eq!(cleaner.erasing_calls.len(), 12);
        assert_eq!(cleaner.calls.len(), 15 + (l.bet().flags() - l.fcnt()));
        assert!(!l.needs_leveling(), "a latched stall is at rest");

        // At the same fcnt: no Cleaner call, no event, no statistic.
        let (stats, calls, events) = (l.stats(), cleaner.calls.len(), cleaner.events.len());
        l.note_erase(1); // flag already set: fcnt does not move
        assert_eq!(
            l.level(&mut cleaner).unwrap(),
            LevelOutcome::Stalled { sets_cleaned: 0 }
        );
        assert_eq!(cleaner.calls.len(), calls);
        assert_eq!(cleaner.events.len(), events);
        assert_eq!(
            l.stats(),
            SwlStats {
                erases_observed: stats.erases_observed + 1,
                ..stats
            }
        );

        // level_step takes no notice of the latch, and leaves it alone.
        assert_eq!(
            l.level_step(&mut cleaner).unwrap(),
            LevelOutcome::Stalled { sets_cleaned: 1 }
        );
        assert_eq!(cleaner.calls.len(), calls + 1);
        assert!(!l.needs_leveling());

        // A newly set flag drops it: the next lap is over the 2 flags left.
        assert!(l.note_erase(7));
        assert!(l.needs_leveling());
        let calls = cleaner.calls.len();
        assert_eq!(
            l.level(&mut cleaner).unwrap(),
            LevelOutcome::Stalled { sets_cleaned: 2 }
        );
        assert_eq!(cleaner.calls.len(), calls + 2);
    }

    #[test]
    fn interval_reset_drops_the_stall_latch() {
        let mut l = SwLeveler::new(4, SwlConfig::new(1, 0)).unwrap();
        for _ in 0..10 {
            l.note_erase(0);
        }
        let mut cleaner = DeadSetCleaner::new(&[2, 3]);
        assert_eq!(
            l.level(&mut cleaner).unwrap(),
            LevelOutcome::Stalled { sets_cleaned: 3 }
        );
        assert_eq!(l.fcnt(), 2);
        // The host erases the two dead blocks itself: the BET fills, resets.
        l.note_erase(2);
        l.note_erase(3);
        assert!(matches!(
            l.level(&mut cleaner).unwrap(),
            LevelOutcome::IntervalReset {
                sets_cleaned: 0,
                ..
            }
        ));
        // Back at the fcnt the stall was seen at, in a new interval.
        for _ in 0..10 {
            l.note_erase(0);
        }
        l.note_erase(1);
        assert_eq!(l.fcnt(), 2);
        assert!(l.needs_leveling());
        assert_eq!(
            l.level(&mut cleaner).unwrap(),
            LevelOutcome::Stalled { sets_cleaned: 2 }
        );
    }

    #[test]
    fn cleaner_error_propagates_after_state_update() {
        let mut l = SwLeveler::new(4, SwlConfig::new(1, 0)).unwrap();
        for _ in 0..10 {
            l.note_erase(0);
        }
        assert_eq!(l.level(&mut FailingCleaner).unwrap_err(), CleanerBroke);
        // The set was still counted.
        assert_eq!(l.stats().sets_cleaned, 1);
    }

    #[test]
    fn reset_randomises_findex_deterministically() {
        let build = |seed| {
            let mut l = SwLeveler::new(64, SwlConfig::new(1, 0).with_seed(seed)).unwrap();
            for b in 0..64 {
                for _ in 0..2 {
                    l.note_erase(b);
                }
            }
            let mut cleaner = RecordingCleaner::new();
            // All flags already set: first level() call resets immediately.
            assert!(matches!(
                l.level(&mut cleaner).unwrap(),
                LevelOutcome::IntervalReset {
                    sets_cleaned: 0,
                    ..
                }
            ));
            l.findex()
        };
        assert_eq!(build(9), build(9), "same seed, same findex");
        // Different seeds usually differ; check a couple to avoid flakiness.
        let positions: Vec<usize> = (0..8).map(build).collect();
        assert!(
            positions.windows(2).any(|w| w[0] != w[1]),
            "randomised findex should vary across seeds: {positions:?}"
        );
    }

    #[test]
    fn sequential_reset_mode_restarts_at_zero() {
        let config = SwlConfig::new(1, 0).with_randomized_reset(false);
        let mut l = SwLeveler::new(16, config).unwrap();
        for b in 0..16 {
            l.note_erase(b);
        }
        let mut cleaner = RecordingCleaner::new();
        assert!(matches!(
            l.level(&mut cleaner).unwrap(),
            LevelOutcome::IntervalReset { .. }
        ));
        assert_eq!(l.findex(), 0, "sequential mode restarts the scan at 0");
    }

    #[test]
    fn stats_accumulate() {
        let mut l = SwLeveler::new(8, SwlConfig::new(2, 0)).unwrap();
        for _ in 0..8 {
            l.note_erase(0);
        }
        let mut cleaner = RecordingCleaner::new();
        l.level(&mut cleaner).unwrap();
        let stats = l.stats();
        assert!(stats.activations == 1);
        assert!(stats.sets_cleaned > 0);
        assert_eq!(stats.swl_erases, stats.sets_cleaned); // 1 block per set
        assert_eq!(stats.erases_observed, 8 + stats.swl_erases);
    }

    #[test]
    fn threshold_at_or_below_set_size_cascades_to_full_sweep() {
        // Documented stability condition: with T ≤ 2^k each cleaned set
        // raises the unevenness level (adds 2^k to ecnt, 1 to fcnt), so one
        // activation sweeps the whole chip and resets the interval.
        let mut l = SwLeveler::new(64, SwlConfig::new(8, 3)).unwrap(); // T = 2^k
        for _ in 0..64 {
            l.note_erase(0);
        }
        let mut cleaner = RecordingCleaner::new();
        let outcome = l.level(&mut cleaner).unwrap();
        assert!(
            matches!(
                outcome,
                LevelOutcome::IntervalReset {
                    sets_cleaned: 7,
                    ..
                }
            ),
            "expected a full sweep of the 7 remaining sets, got {outcome:?}"
        );
        // A threshold comfortably above 2^k converges after a few sets:
        // level after n cleanings is (32 + 8n)/(1 + n), dropping below
        // T = 16 at n = 3.
        let mut l = SwLeveler::new(64, SwlConfig::new(16, 3)).unwrap();
        for _ in 0..32 {
            l.note_erase(0);
        }
        let mut cleaner = RecordingCleaner::new();
        let outcome = l.level(&mut cleaner).unwrap();
        assert_eq!(
            outcome,
            LevelOutcome::Leveled {
                sets_cleaned: 3,
                erases_triggered: 24
            }
        );
    }

    #[test]
    fn telemetry_routed_through_cleaner() {
        /// Cleaner that erases everything and keeps the events it is handed.
        struct TelemetryCleaner {
            inner: RecordingCleaner,
            events: Vec<Event>,
        }
        impl SwlCleaner for TelemetryCleaner {
            type Error = Infallible;
            fn erase_block_set(
                &mut self,
                first_block: u32,
                count: u32,
                erased: &mut Vec<u32>,
            ) -> Result<(), Self::Error> {
                self.inner.erase_block_set(first_block, count, erased)
            }
            fn emit_telemetry(&mut self, event: Event) {
                self.events.push(event);
            }
        }

        let mut l = SwLeveler::new(4, SwlConfig::new(2, 0)).unwrap();
        for _ in 0..8 {
            l.note_erase(0);
        }
        let mut cleaner = TelemetryCleaner {
            inner: RecordingCleaner::new(),
            events: Vec::new(),
        };
        l.level(&mut cleaner).unwrap();
        // Same scenario as leveling_cleans_cold_sets_until_even: the
        // activation levels three sets, fills the BET, and resets.
        assert_eq!(
            cleaner.events,
            vec![
                Event::SwlInvoke {
                    ecnt: 8,
                    fcnt: 1,
                    threshold: 2,
                },
                Event::IntervalReset {
                    interval: 0,
                    ecnt: 11,
                    fcnt: 4,
                },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn note_erase_out_of_range_panics() {
        let mut l = SwLeveler::new(4, SwlConfig::new(1, 0)).unwrap();
        l.note_erase(4);
    }

    #[test]
    fn level_step_cleans_exactly_one_set() {
        let mut l = SwLeveler::new(4, SwlConfig::new(2, 0)).unwrap();
        for _ in 0..8 {
            l.note_erase(0);
        }
        let mut cleaner = RecordingCleaner::new();
        assert_eq!(
            l.level_step(&mut cleaner).unwrap(),
            LevelOutcome::Leveled {
                sets_cleaned: 1,
                erases_triggered: 1
            }
        );
        assert_eq!(cleaner.calls, vec![(1, 1)]);
        assert_eq!(l.ecnt(), 9);
        assert_eq!(l.fcnt(), 2);
    }

    #[test]
    fn level_step_ignores_threshold() {
        // Below threshold — level() would be Idle, level_step still cleans.
        let mut l = SwLeveler::new(8, SwlConfig::new(100, 0)).unwrap();
        l.note_erase(0);
        let mut cleaner = RecordingCleaner::new();
        assert_eq!(
            l.level(&mut RecordingCleaner::new()).unwrap(),
            LevelOutcome::Idle
        );
        assert!(matches!(
            l.level_step(&mut cleaner).unwrap(),
            LevelOutcome::Leveled {
                sets_cleaned: 1,
                ..
            }
        ));
        assert_eq!(cleaner.calls.len(), 1);
    }

    #[test]
    fn level_step_sequence_matches_level() {
        // Repeating level_step until the interval resets walks the exact
        // same Cleaner call sequence as one level() activation.
        let build = || {
            let mut l = SwLeveler::new(4, SwlConfig::new(2, 0).with_seed(7)).unwrap();
            for _ in 0..8 {
                l.note_erase(0);
            }
            l
        };
        let mut whole = build();
        let mut whole_cleaner = RecordingCleaner::new();
        whole.level(&mut whole_cleaner).unwrap();

        let mut stepped = build();
        let mut step_cleaner = RecordingCleaner::new();
        loop {
            match stepped.level_step(&mut step_cleaner).unwrap() {
                LevelOutcome::IntervalReset { .. } => break,
                LevelOutcome::Leveled { .. } | LevelOutcome::Stalled { .. } => {}
                LevelOutcome::Idle => unreachable!("level_step never returns Idle"),
            }
        }
        assert_eq!(step_cleaner.calls, whole_cleaner.calls);
        assert_eq!(stepped.ecnt(), whole.ecnt());
        assert_eq!(stepped.fcnt(), whole.fcnt());
        assert_eq!(stepped.findex(), whole.findex());
    }

    #[test]
    fn level_step_resets_full_interval() {
        let mut l = SwLeveler::new(4, SwlConfig::new(2, 0)).unwrap();
        for b in 0..4 {
            for _ in 0..2 {
                l.note_erase(b);
            }
        }
        let mut cleaner = RecordingCleaner::new();
        assert_eq!(
            l.level_step(&mut cleaner).unwrap(),
            LevelOutcome::IntervalReset {
                sets_cleaned: 0,
                erases_triggered: 0
            }
        );
        assert!(cleaner.calls.is_empty());
        assert_eq!(l.ecnt(), 0);
        assert_eq!(l.fcnt(), 0);
    }

    #[test]
    fn level_step_reports_stall() {
        let mut l = SwLeveler::new(4, SwlConfig::new(1, 0)).unwrap();
        for _ in 0..10 {
            l.note_erase(0);
        }
        assert_eq!(
            l.level_step(&mut NoopCleaner).unwrap(),
            LevelOutcome::Stalled { sets_cleaned: 1 }
        );
    }

    /// `level` as it was before the stall latch: the guard fires after
    /// `flags` fruitless sets in a row, and nothing is remembered.
    fn level_unlatched(l: &mut SwLeveler, cleaner: &mut DeadSetCleaner) -> LevelOutcome {
        if !l.over_threshold() {
            return LevelOutcome::Idle;
        }
        let (mut sets_cleaned, mut erases_triggered, mut fruitless_sets) = (0u32, 0u64, 0usize);
        while l.over_threshold() {
            if l.bet.all_set() {
                l.start_new_interval();
                return LevelOutcome::IntervalReset {
                    sets_cleaned,
                    erases_triggered,
                };
            }
            let (erases, progressed, was_empty) = l.clean_next_set(cleaner).unwrap();
            erases_triggered += erases;
            sets_cleaned += 1;
            if was_empty && !progressed {
                fruitless_sets += 1;
                if fruitless_sets >= l.bet.flags() {
                    return LevelOutcome::Stalled { sets_cleaned };
                }
            } else {
                fruitless_sets = 0;
            }
        }
        LevelOutcome::Leveled {
            sets_cleaned,
            erases_triggered,
        }
    }

    /// What of an outcome the latch may not change: its kind and its erases.
    fn kind_and_erases(outcome: LevelOutcome) -> (u8, u64) {
        match outcome {
            LevelOutcome::Idle => (0, 0),
            LevelOutcome::Leveled {
                erases_triggered, ..
            } => (1, erases_triggered),
            LevelOutcome::IntervalReset {
                erases_triggered, ..
            } => (2, erases_triggered),
            LevelOutcome::Stalled { .. } => (3, 0),
        }
    }

    proptest::proptest! {
        /// Against a Cleaner with a fixed dead set, the latched leveler and
        /// the loop it replaced agree on everything but the fruitless calls:
        /// BET, `ecnt`, `fcnt`, what each pass erased, and every Cleaner call
        /// that erased. `findex` may rest on a different flag only where
        /// both rest on dead ones.
        #[test]
        fn latched_leveler_matches_the_unlatched_loop(
            blocks in 1u32..48,
            k in 0u32..3,
            threshold in 1u64..5,
            seed in proptest::prelude::any::<u64>(),
            dead in proptest::collection::vec(0u32..48, 0..12),
            ops in proptest::collection::vec((0u32..48, 0u32..4), 1..300),
        ) {
            use proptest::prop_assert_eq;
            let dead: Vec<u32> = dead.into_iter().filter(|&b| b < blocks).collect();
            let config = SwlConfig::new(threshold, k).with_seed(seed);
            let mut new = SwLeveler::new(blocks, config).unwrap();
            let mut old = new.clone();
            let (mut new_cleaner, mut old_cleaner) =
                (DeadSetCleaner::new(&dead), DeadSetCleaner::new(&dead));
            for (block, op) in ops {
                if op > 0 {
                    // The host erasing a dead block moves its flag like any other.
                    new.note_erase(block % blocks);
                    old.note_erase(block % blocks);
                    continue;
                }
                let lap = new.bet.flags() - new.fcnt();
                let (calls, erasing) = (new_cleaner.calls.len(), new_cleaner.erasing_calls.len());
                let outcome = new.level(&mut new_cleaner).unwrap();
                let reference = level_unlatched(&mut old, &mut old_cleaner);
                prop_assert_eq!(kind_and_erases(outcome), kind_and_erases(reference));
                if let LevelOutcome::Stalled { sets_cleaned } = outcome {
                    prop_assert_eq!(new_cleaner.calls.len() - calls, sets_cleaned as usize);
                    if sets_cleaned > 0 && new_cleaner.erasing_calls.len() == erasing {
                        // Nothing to clean: the pass was the one lap.
                        prop_assert_eq!(sets_cleaned as usize, lap);
                    }
                    // A stall is final until fcnt moves.
                    let calls = new_cleaner.calls.len();
                    prop_assert_eq!(
                        new.level(&mut new_cleaner).unwrap(),
                        LevelOutcome::Stalled { sets_cleaned: 0 }
                    );
                    prop_assert_eq!(new_cleaner.calls.len(), calls);
                }
                prop_assert_eq!(new.bet.words(), old.bet.words());
                prop_assert_eq!((new.ecnt, new.fcnt()), (old.ecnt, old.fcnt()));
                prop_assert_eq!(&new_cleaner.erasing_calls, &old_cleaner.erasing_calls);
                prop_assert_eq!(new.stats.swl_erases, old.stats.swl_erases);
                prop_assert_eq!(new.stats.interval_resets, old.stats.interval_resets);
                let dead_flag = |l: &SwLeveler| {
                    l.bet.next_clear(l.findex).is_some_and(|f| {
                        let first = l.bet.first_block_of(f);
                        let count = l.bet.blocks_per_flag().min(blocks - first);
                        (first..first + count).all(|b| dead.contains(&b))
                    })
                };
                proptest::prop_assert!(
                    new.findex == old.findex || (dead_flag(&new) && dead_flag(&old))
                );
            }
        }
    }
}
