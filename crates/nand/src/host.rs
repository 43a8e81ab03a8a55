//! The SW-Leveler host shell: one Cleaner front-end, generic over the
//! address mapping.
//!
//! The paper draws a single Cleaner that the SW Leveler calls into and
//! evaluates it under two mappings. [`SwlHost`] is that drawing: it owns the
//! optional [`SwLeveler`], brackets host operations in root spans, feeds
//! every erase to SWL-BETUpdate and runs SWL-Procedure when due. A
//! translation layer contributes a [`Mapping`]: address translation, victim
//! choice and copy/merge mechanics over a shared [`BlockPool`]. Dispatch is
//! static; the shell adds no indirection to the write path.

use std::ops::{Deref, DerefMut};

use flash_telemetry::{Event, FlashCounters, Sink, SpanKind};
use swl_core::{LevelOutcome, SwLeveler, SwlCleaner, SwlConfig, SwlError};

use crate::{BlockPool, NandDevice};

/// Proof that a call comes from [`SwlHost`]. Only this module can make one,
/// so the shell-only half of [`Mapping`] — the methods that take a key —
/// cannot be called on a host through its `Deref`, which would bypass the
/// root span and the SWL-BETUpdate feed and desynchronise the BET.
///
/// ```compile_fail
/// let key = nand::ShellKey(());
/// ```
#[derive(Debug)]
pub struct ShellKey(());

/// What a translation layer supplies to run under [`SwlHost`].
///
/// Every erase a method performs — the requested ones *and* any collateral
/// erases needed for free space — must be appended to its `erased` argument
/// (going through [`BlockPool::erase_and_free`] does that), so the shell can
/// run SWL-BETUpdate for each.
pub trait Mapping: Sized {
    /// Telemetry sink of the underlying device.
    type Sink: Sink;
    /// Layer settings.
    type Config;
    /// Layer error; wraps device errors and invalid leveler configurations.
    type Error: From<SwlError>;

    /// Builds the mapping over a fresh chip; fails on an invalid `config`.
    fn new(device: NandDevice<Self::Sink>, config: Self::Config) -> Result<Self, Self::Error>;

    /// Rebuilds the mapping from the spare areas of a previously used chip —
    /// the firmware mount path; fails when they are not a consistent layout
    /// of this mapping.
    fn mount(device: NandDevice<Self::Sink>, config: Self::Config) -> Result<Self, Self::Error>;

    /// Shuts the mapping down, returning the chip with all its data and wear.
    fn into_device(self) -> NandDevice<Self::Sink>;

    /// The shared block pool (chip, free list, counters).
    fn pool(&self) -> &BlockPool<Self::Sink>;

    /// Mutable access to the shared block pool, for the shell only.
    fn pool_mut(&mut self, key: ShellKey) -> &mut BlockPool<Self::Sink>;

    /// Exported logical capacity in pages.
    fn logical_pages(&self) -> u64;

    /// Writes one logical page out of place, reclaiming space first when the
    /// free pool is under its target. Fails on a bad address or when nothing
    /// can be reclaimed.
    fn host_write(
        &mut self,
        key: ShellKey,
        lba: u64,
        data: u64,
        erased: &mut Vec<u32>,
    ) -> Result<(), Self::Error>;

    /// Reads one logical page; `None` when it has never been written.
    fn host_read(&mut self, key: ShellKey, lba: u64) -> Result<Option<u64>, Self::Error>;

    /// Recycles physical block `block` for the SW Leveler: live data is moved
    /// elsewhere and the block erased; a free block is erased in place
    /// (touching it both levels its wear and sets its BET flag); a retired or
    /// reserved block is skipped. A block with nothing to do must simply
    /// succeed; only unrecoverable device or reclamation errors are returned.
    fn recycle_block(
        &mut self,
        key: ShellKey,
        block: u32,
        erased: &mut Vec<u32>,
    ) -> Result<(), Self::Error>;

    /// Runs `op` inside a causal span of `kind`. The span closes on the error
    /// path too, so the emitted stream stays balanced.
    #[inline]
    fn spanned<T>(&mut self, kind: SpanKind, op: impl FnOnce(&mut Self) -> T) -> T {
        let span = self.pool_mut(ShellKey(())).span_begin(kind);
        let out = op(self);
        self.pool_mut(ShellKey(())).span_end(span);
        out
    }
}

/// The [`SwlCleaner`] the leveler drives: a block set is recycled one block
/// at a time by the mapping, and leveler events join the device's stream.
struct Recycler<'a, M>(&'a mut M);

impl<M: Mapping> SwlCleaner for Recycler<'_, M> {
    type Error = M::Error;

    fn erase_block_set(
        &mut self,
        first_block: u32,
        count: u32,
        erased: &mut Vec<u32>,
    ) -> Result<(), M::Error> {
        let blocks = self.0.pool().device.geometry().blocks();
        for b in first_block..first_block.saturating_add(count).min(blocks) {
            self.0.recycle_block(ShellKey(()), b, erased)?;
        }
        Ok(())
    }

    fn emit_telemetry(&mut self, event: Event) {
        self.0.pool_mut(ShellKey(())).emit(event);
    }
}

/// A translation layer with an optional static wear leveler: the shell both
/// [`Mapping`]s of this workspace run under.
///
/// Generic over the mapping (and through it over a telemetry [`Sink`]
/// inherited from the device); the default `NullSink` compiles all emission
/// sites out. Host operations, GC picks, live copies, cause-attributed
/// erases and leveler activity all flow into the single attached sink.
///
/// Dereferences to the mapping, so mapping-specific verbs (trim, snapshots,
/// configuration accessors) are called on the host directly.
#[derive(Debug)]
pub struct SwlHost<M> {
    mapping: M,
    swl: Option<SwLeveler>,
    /// Erase log of the operation in flight, reused across operations.
    erased_buf: Vec<u32>,
}

impl<M> Deref for SwlHost<M> {
    type Target = M;

    fn deref(&self) -> &M {
        &self.mapping
    }
}

impl<M> DerefMut for SwlHost<M> {
    fn deref_mut(&mut self) -> &mut M {
        &mut self.mapping
    }
}

impl<M: Mapping> SwlHost<M> {
    fn over(mapping: M) -> Self {
        Self {
            mapping,
            swl: None,
            erased_buf: Vec::new(),
        }
    }

    /// Builds a layer over `device` without static wear leveling.
    ///
    /// # Errors
    ///
    /// Configuration validation failures of the mapping.
    pub fn new(device: NandDevice<M::Sink>, config: M::Config) -> Result<Self, M::Error> {
        M::new(device, config).map(Self::over)
    }

    /// Builds a layer with the SW Leveler attached.
    ///
    /// # Errors
    ///
    /// The mapping's error wrapping [`SwlError`] when the leveler
    /// configuration is invalid.
    pub fn with_swl(
        device: NandDevice<M::Sink>,
        config: M::Config,
        swl_config: SwlConfig,
    ) -> Result<Self, M::Error> {
        let swl = SwLeveler::new(device.geometry().blocks(), swl_config)?;
        let mut host = Self::new(device, config)?;
        host.swl = Some(swl);
        Ok(host)
    }

    /// Re-attaches a previously used chip, rebuilding the translation state
    /// from the spare areas on flash — the firmware mount path. Pair with
    /// [`SwlHost::into_device`] to simulate power cycles. No leveler is
    /// attached; see [`SwlHost::attach_swl`].
    ///
    /// # Errors
    ///
    /// The on-flash state is not a consistent layout of the mapping.
    pub fn mount(device: NandDevice<M::Sink>, config: M::Config) -> Result<Self, M::Error> {
        M::mount(device, config).map(Self::over)
    }

    /// Shuts the layer down, returning the chip (with all its data and wear)
    /// for a later [`SwlHost::mount`].
    pub fn into_device(self) -> NandDevice<M::Sink> {
        self.mapping.into_device()
    }

    /// Attaches (or replaces) a pre-built SW Leveler, e.g. one restored from
    /// a [`swl_core::persist::DualBuffer`] snapshot.
    pub fn attach_swl(&mut self, swl: SwLeveler) {
        self.swl = Some(swl);
    }

    /// Runs `op` under a root span of `kind` with a cleared erase log, then
    /// feeds the log to the leveler. Returns how many blocks `op` erased.
    // The `#[inline]` hints on this path keep `host_write` inlined into
    // `write`, as it was before the shell was generic (~20 % on ftl/write).
    #[inline]
    fn with_erase_log(
        &mut self,
        kind: SpanKind,
        op: impl FnOnce(&mut M, &mut Vec<u32>) -> Result<(), M::Error>,
    ) -> Result<u64, M::Error> {
        // The root span brackets the whole operation — GC, merges, remaps,
        // and any SWL pass it triggers — mirroring the simulator's latency
        // bracket exactly.
        let span = self.mapping.pool_mut(ShellKey(())).span_begin(kind);
        let mut erased = std::mem::take(&mut self.erased_buf);
        erased.clear();
        let result = op(&mut self.mapping, &mut erased);
        let erase_count = erased.len() as u64;
        let follow_up = self.notify_swl(&erased);
        self.erased_buf = erased;
        self.mapping.pool_mut(ShellKey(())).span_end(span);
        result.and(follow_up)?;
        Ok(erase_count)
    }

    /// Feeds erases to SWL-BETUpdate and invokes SWL-Procedure when needed.
    #[inline]
    fn notify_swl(&mut self, erased: &[u32]) -> Result<(), M::Error> {
        let Some(swl) = self.swl.as_mut() else {
            return Ok(());
        };
        for &b in erased {
            swl.note_erase(b);
        }
        // In deferred mode an external coordinator (e.g. the multi-channel
        // striped layer) watches a global unevenness and drives
        // `run_swl_step`; the layer itself only feeds SWL-BETUpdate.
        if !swl.config().deferred && swl.needs_leveling() {
            self.mapping
                .spanned(SpanKind::Swl, |m| swl.level(&mut Recycler(m)))?;
        }
        Ok(())
    }

    /// Writes `data` to logical page `lba` (out-of-place), then gives the SW
    /// Leveler a chance to run.
    ///
    /// # Errors
    ///
    /// The mapping's out-of-range error for bad addresses, and reclamation
    /// failures when the logical space is over-committed.
    #[inline]
    pub fn write(&mut self, lba: u64, data: u64) -> Result<(), M::Error> {
        self.with_erase_log(SpanKind::HostWrite, |m, erased| {
            m.host_write(ShellKey(()), lba, data, erased)
        })
        .map(drop)
    }

    /// Reads logical page `lba`; `None` when it has never been written.
    ///
    /// # Errors
    ///
    /// The mapping's out-of-range error for bad addresses.
    #[inline]
    pub fn read(&mut self, lba: u64) -> Result<Option<u64>, M::Error> {
        self.mapping
            .spanned(SpanKind::HostRead, |m| m.host_read(ShellKey(()), lba))
    }

    /// Forces recycling of a block range, as an external wear leveling policy
    /// (e.g. [`swl_core::counting::CountingLeveler`]) would: live data is
    /// relocated, the blocks are erased, and any attached SW Leveler is
    /// notified of the erases. Blocks past the end of the chip are ignored.
    /// Returns the number of blocks erased.
    ///
    /// # Errors
    ///
    /// Propagates reclamation failures.
    pub fn force_recycle(&mut self, first_block: u32, count: u32) -> Result<u64, M::Error> {
        // Externally driven collection: a root `gc` span rather than a host
        // kind, since no host op is paying for it.
        self.with_erase_log(SpanKind::Gc, |m, erased| {
            Recycler(m).erase_block_set(first_block, count, erased)
        })
    }

    /// One leveler pass inside an `swl` span; idle without a leveler.
    fn run_leveler(
        &mut self,
        pass: impl FnOnce(&mut SwLeveler, &mut Recycler<'_, M>) -> Result<LevelOutcome, M::Error>,
    ) -> Result<LevelOutcome, M::Error> {
        let Some(swl) = self.swl.as_mut() else {
            return Ok(LevelOutcome::Idle);
        };
        self.mapping
            .spanned(SpanKind::Swl, |m| pass(swl, &mut Recycler(m)))
    }

    /// Manually invokes SWL-Procedure (e.g. from a timer), returning what it
    /// did. A no-op returning [`LevelOutcome::Idle`] without a leveler.
    ///
    /// # Errors
    ///
    /// Propagates reclamation failures.
    pub fn run_swl(&mut self) -> Result<LevelOutcome, M::Error> {
        self.run_leveler(|swl, cleaner| swl.level(cleaner))
    }

    /// Runs exactly one SWL-Procedure step, ignoring the local threshold —
    /// the entry point for an external multi-shard coordinator (see
    /// [`SwLeveler::level_step`]).
    ///
    /// # Errors
    ///
    /// Propagates reclamation failures.
    pub fn run_swl_step(&mut self) -> Result<LevelOutcome, M::Error> {
        self.run_leveler(|swl, cleaner| swl.level_step(cleaner))
    }

    /// Exported logical capacity in pages.
    pub fn logical_pages(&self) -> u64 {
        self.mapping.logical_pages()
    }

    /// The underlying device (erase counts, busy time, failure record).
    pub fn device(&self) -> &NandDevice<M::Sink> {
        &self.mapping.pool().device
    }

    /// Attribution counters.
    pub fn counters(&self) -> FlashCounters {
        self.mapping.pool().counters
    }

    /// The attached SW Leveler, if any.
    pub fn swl(&self) -> Option<&SwLeveler> {
        self.swl.as_ref()
    }
}
