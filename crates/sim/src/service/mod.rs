//! Block-device service front-end over the threaded execution engine.
//!
//! [`Engine`] is a closed-loop replayer: one driver owns it
//! and feeds it a trace. This module promotes it to a *served* device:
//! [`Service`] owns the engine plus an optional admission-managed RAM
//! write cache ([`cache::WriteCache`]), exposes the four block-device verbs
//! — `write` / `read` / `trim` / `flush` — beside the snapshot plane's one,
//! `snapshot(verb)`, and can hand out in-process client handles
//! ([`Service::serve`]) so N concurrent threads drive one array.
//!
//! # Ack semantics (the durability contract)
//!
//! - A **write** ack means *accepted*: the data is readable back through
//!   the service, but it may still live only in the RAM cache. A power cut
//!   before the next flush may legally lose it.
//! - A **flush** ack means *durable*: every write accepted before the
//!   flush has been written back to flash and survives a power cut. The
//!   crashmc harness asserts both sides of this contract over exhaustive
//!   cut-point sweeps.
//! - A **trim** is advisory: it drops any cached (never-acked-durable)
//!   data for the span and masks subsequent reads to `None`. It does not
//!   reclaim flash space and the mask is not persisted across a crash.
//! - A **read** ack returns one `Option<u64>` per page — cached dirty
//!   values win over flash, trimmed/never-written pages read `None`.
//! - A **snapshot** ack ([`Service::snapshot`]) means the verb is *durable
//!   on every channel*. A **refused** verb — an `Err` — leaves the served
//!   device as it was: accepted writes stay accepted, trimmed pages stay
//!   trimmed. So whatever a verb does to the RAM-side state it does *after*
//!   the engine has applied it on every lane:
//!
//! | [`SnapshotVerb`] | before the engine verb | after it returned `Ok`             |
//! |------------------|------------------------|------------------------------------|
//! | `Create(id)`     | flush (image = acked)  | —                                  |
//! | `Delete(id)`     | —                      | —                                  |
//! | `Clone(id)`      | —                      | drop the dirty cache, clear trims  |
//! | `Merge(id)`      | flush                  | clear trims (the snapshot wins)    |
//!
//! # Health
//!
//! [`Service::stats`] drains the engine, reads the health figures off its
//! lanes ([`Engine::health_sample`]) and folds them into the service's
//! [`HealthMonitor`]: nothing is mirrored on the data path for it.
//!
//! # Determinism
//!
//! The service stamps engine events from a logical clock (one fixed
//! [`ServiceConfig::op_interval_ns`] tick per accepted op), never from
//! wall time, so a single-client run is fully deterministic. With the
//! cache disabled a service run is **bit-identical** to driving the engine
//! directly with the same op sequence — report, per-lane state, and flash
//! contents (`tests/service_oracle.rs` pins this). Cache flush-back keeps
//! at most one dirty value per LBA and never reorders values of the same
//! LBA around a write-through, so the virtual-time oracle still pins
//! cache-on results (see [`cache`] module docs).
//!
//! # Served concurrency
//!
//! [`Service::serve`] moves the service behind one lock shared by the
//! [`ServiceServer`] and its [`ServiceClient`]s; no thread is spawned. A
//! client verb takes the lock and runs the [`Service`] method on the
//! caller's own thread, holding the lock for the verb's whole duration —
//! the engine barrier of a read, flush or snapshot verb included, which
//! *executes* there too (the [`engine`](crate::engine) docs, *Who runs a
//! command*). Nothing else happens on the way: a client handle keeps no
//! clock and no record of its calls, so a served page costs the engine's
//! page loop, the service's bookkeeping and the lock. Ops are linearised by
//! lock acquisition, and the ack semantics and the single-client
//! bit-identity above hold unchanged. `std::sync::Mutex` promises no
//! fairness, so concurrent clients are not served in arrival order. A client
//! that panics inside a verb poisons the lock: every later client call, and
//! [`ServiceServer::join`], panics naming that.
//!
//! ## Example
//!
//! ```
//! use flash_sim::service::{cache::CacheConfig, Service, ServiceConfig};
//! use flash_sim::{LayerKind, SimConfig, SwlCoordination};
//! use nand::{CellKind, ChannelGeometry, Geometry};
//!
//! # fn main() -> Result<(), flash_sim::SimError> {
//! let mut service = Service::build(
//!     LayerKind::Ftl,
//!     ChannelGeometry::new(2, 1, Geometry::new(64, 8, 2048)),
//!     CellKind::Mlc2.spec().with_endurance(100_000),
//!     None,
//!     SwlCoordination::PerChannel,
//!     &SimConfig::default(),
//!     ServiceConfig::default().with_cache(CacheConfig::sized(64)),
//! )?;
//! service.write(3, &[7, 8])?;
//! assert_eq!(service.read(3, 2)?, vec![Some(7), Some(8)]);
//! service.flush()?; // now durable
//! let run = service.finish()?;
//! assert_eq!(run.ops, 2); // write + read (flush is a barrier, not an op)
//! # Ok(())
//! # }
//! ```

pub mod cache;

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};

use flash_telemetry::health::{HealthConfig, HealthMonitor, HealthReport, HealthSample};
use flash_telemetry::runtime::CacheSample;
use nand::{CellSpec, ChannelGeometry, NandDevice};
use swl_core::SwlConfig;

use crate::engine::{Engine, EngineConfig, EngineMetricsHandle, EngineRun};
use crate::error::SimError;
use crate::layer::{LayerKind, SimConfig, SnapshotVerb};
use crate::striped::SwlCoordination;

use cache::{CacheConfig, WriteCache, WriteOutcome};

/// Tuning for a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Engine front-end tuning (threads, queue depth, metrics).
    pub engine: EngineConfig,
    /// Write-cache tuning; `None` runs cache-less (every write goes
    /// straight to the engine — the oracle-comparable mode).
    pub cache: Option<CacheConfig>,
    /// Virtual nanoseconds the logical clock advances per accepted op
    /// (must be positive; stamps engine events deterministically).
    pub op_interval_ns: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            cache: None,
            op_interval_ns: 1_000,
        }
    }
}

impl ServiceConfig {
    /// Replaces the engine tuning.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Enables the write cache with `cache` tuning.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Replaces the logical-clock tick per accepted op.
    pub fn with_op_interval_ns(mut self, interval: u64) -> Self {
        self.op_interval_ns = interval.max(1);
        self
    }
}

/// Everything a finished [`Service`] produced: the engine run (report,
/// lanes, metrics) plus the final cache counters.
pub struct ServiceRun {
    /// The underlying engine run; `run.report` is the virtual-time report.
    pub run: EngineRun,
    /// Final cache counters (`None` when the service ran cache-less).
    pub cache: Option<CacheSample>,
    /// Host ops the service accepted (writes + reads + trims).
    pub ops: u64,
}

/// The block-device service: engine + optional write cache + logical
/// clock. Use directly for single-driver runs, or hand out concurrent
/// client handles with [`Service::serve`].
pub struct Service {
    engine: Engine,
    cache: Option<WriteCache>,
    /// Folds the engine's [`HealthSample`]s into wear rates ([`Service::stats`]).
    monitor: HealthMonitor,
    /// Pages masked by a trim since their last write. Advisory and
    /// RAM-only: not persisted across a crash.
    trimmed: HashSet<u64>,
    /// Scratch for [`Service::submit_batch`]: the values of the batch being
    /// written back (capacity kept between batches).
    batch_values: Vec<u64>,
    /// Scratch for [`Service::read`]: the contiguous runs of pages that must
    /// come from flash, as `(out index, start lba, page count)`.
    read_spans: Vec<(usize, u64, u32)>,
    clock_ns: u64,
    op_interval_ns: u64,
    ops: u64,
}

impl Service {
    /// Builds the lanes, spawns the engine workers, and (when configured)
    /// the write cache.
    ///
    /// # Errors
    ///
    /// Propagates layer construction failures.
    ///
    /// # Panics
    ///
    /// Panics when the cache admission-filter config is invalid (zero
    /// counter table / hash count out of range) — cache tuning is
    /// programmer-supplied, not data-dependent.
    pub fn build(
        kind: LayerKind,
        geometry: ChannelGeometry,
        spec: CellSpec,
        swl: Option<SwlConfig>,
        coordination: SwlCoordination,
        sim: &SimConfig,
        config: ServiceConfig,
    ) -> Result<Self, SimError> {
        let engine = Engine::new(kind, geometry, spec, swl, coordination, sim, config.engine)?;
        let cache = config
            .cache
            .map(|c| WriteCache::new(c).expect("invalid cache admission config"));
        // The estimators' work constant is an eighth of the expected device
        // lifetime in host pages (~ blocks × endurance × ppb / 2 at write
        // amplification ≈ 2), so the forecast averages over recent life, not
        // just the last few reports.
        let lifetime_pages = geometry
            .total_blocks()
            .saturating_mul(u64::from(spec.endurance))
            .saturating_mul(u64::from(geometry.chip().pages_per_block()))
            / 2;
        let tau = (lifetime_pages / 8).max(1024) as f64;
        let monitor =
            HealthMonitor::new(HealthConfig::new(u64::from(spec.endurance)).with_tau_pages(tau));
        Ok(Self {
            engine,
            cache,
            monitor,
            trimmed: HashSet::new(),
            batch_values: Vec::new(),
            read_spans: Vec::new(),
            clock_ns: 0,
            op_interval_ns: config.op_interval_ns.max(1),
            ops: 0,
        })
    }

    /// Exported logical capacity in pages (striped over all channels).
    pub fn logical_pages(&self) -> u64 {
        self.engine.logical_pages()
    }

    /// Host ops accepted so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// First block wear-out the engine has finalized so far (`None` until
    /// one happens). Endurance studies poll this to stop at first failure
    /// instead of driving a fixed op count.
    pub fn first_failure(&self) -> Option<crate::report::FirstFailure> {
        self.engine.first_failure()
    }

    /// Current cache counters (`None` when cache-less).
    pub fn cache_sample(&self) -> Option<CacheSample> {
        self.cache.as_ref().map(WriteCache::sample)
    }

    /// The engine's metrics observer handle (all-zero counters unless the
    /// engine was built with [`EngineConfig::with_metrics`]).
    pub fn metrics_handle(&self) -> EngineMetricsHandle {
        self.engine.metrics_handle()
    }

    /// The device's health figures, read off the engine's lanes once every
    /// op accepted so far has run ([`Engine::health_sample`]), without
    /// folding them into the monitor [`Service::stats`] reports from.
    ///
    /// # Errors
    ///
    /// The engine's first finalized lane error (sticky).
    pub fn health_sample(&mut self) -> Result<HealthSample, SimError> {
        self.engine.health_sample()
    }

    /// SMART-style health report at this instant: drains the engine, reads
    /// its lanes ([`Service::health_sample`]), folds the delta since the
    /// previous report into the wear-rate estimators, and attaches the
    /// current cache counters.
    ///
    /// A read of the management plane: no logical-clock tick, and the drain
    /// finalizes ops without changing what they do — a cache-off service
    /// that interleaves `stats` calls stays bit-identical to a direct engine
    /// run of the same I/O sequence (`tests/service_oracle.rs` pins this).
    ///
    /// # Errors
    ///
    /// The engine's first finalized lane error (sticky).
    pub fn stats(&mut self) -> Result<HealthReport, SimError> {
        let sample = self.engine.health_sample()?;
        let cache = self.cache_sample();
        Ok(self.monitor.report_on(&sample, cache))
    }

    /// Advances the logical clock by one op tick and returns the stamp.
    fn tick(&mut self) -> u64 {
        self.ops += 1;
        // A wrapped clock would stamp engine events backwards in time.
        self.clock_ns = self
            .clock_ns
            .checked_add(self.op_interval_ns)
            .expect("service logical clock overflowed u64 nanoseconds");
        self.clock_ns
    }

    /// Bounds-checks `[lba, lba + len)` against the logical space.
    fn check_span(&self, lba: u64, len: usize) -> Result<(), SimError> {
        let logical_pages = self.engine.logical_pages();
        let end = (len as u64)
            .checked_add(lba)
            .filter(|&e| e <= logical_pages && len <= u32::MAX as usize);
        if len > 0 && end.is_none() {
            return Err(SimError::TraceOutOfRange {
                lba: lba.saturating_add(len as u64 - 1),
                logical_pages,
            });
        }
        Ok(())
    }

    /// Accepts one write of `data.len()` pages starting at `lba`. The ack
    /// means *accepted* (readable back), not durable — see the module
    /// docs' durability contract. Zero-length writes are no-ops.
    ///
    /// # Errors
    ///
    /// [`SimError::TraceOutOfRange`] for spans outside the logical space;
    /// otherwise the engine's first finalized lane error (sticky).
    pub fn write(&mut self, lba: u64, data: &[u64]) -> Result<(), SimError> {
        self.check_span(lba, data.len())?;
        if data.is_empty() {
            return Ok(());
        }
        let at = self.tick();
        if !self.trimmed.is_empty() {
            for i in 0..data.len() as u64 {
                self.trimmed.remove(&(lba + i));
            }
        }
        if self.cache.is_none() {
            return self.engine.submit_write_data(at, lba, data);
        }
        for (i, &value) in data.iter().enumerate() {
            let page = lba + i as u64;
            let outcome = self
                .cache
                .as_mut()
                .expect("cache-on path")
                .write(page, value);
            match outcome {
                WriteOutcome::Absorbed => {}
                WriteOutcome::Admitted { evicted } => {
                    if !evicted.is_empty() {
                        self.submit_batch(at, &evicted)?;
                    }
                }
                WriteOutcome::WriteThrough => {
                    self.engine.submit_write_data(at, page, &[value])?;
                }
            }
        }
        if self.cache.as_ref().expect("cache-on path").need_sync() {
            let batch = self
                .cache
                .as_mut()
                .expect("cache-on path")
                .take_sync_batch();
            self.submit_batch(at, &batch)?;
        }
        Ok(())
    }

    /// Coalesces an LBA-sorted flush-back batch into contiguous span
    /// writes and submits them, preserving batch order.
    fn submit_batch(&mut self, at_ns: u64, batch: &[(u64, u64)]) -> Result<(), SimError> {
        // One reused buffer holds the whole batch's values; every contiguous
        // LBA run is a slice of it.
        self.batch_values.clear();
        self.batch_values
            .extend(batch.iter().map(|&(_, value)| value));
        let mut i = 0;
        while i < batch.len() {
            let start = batch[i].0;
            let mut j = i + 1;
            while j < batch.len() && batch[j].0 == start + (j - i) as u64 {
                j += 1;
            }
            self.engine
                .submit_write_data(at_ns, start, &self.batch_values[i..j])?;
            i = j;
        }
        Ok(())
    }

    /// Reads `len` pages starting at `lba`: one `Option<u64>` per page.
    /// Cached dirty values win over flash; trimmed or never-written pages
    /// read `None`. Synchronizing — flushes the engine pipeline when any
    /// page must come from flash.
    ///
    /// A miss is a barrier on the engine ([`Engine::read`], once per run of
    /// pages that must come from flash) that runs the work it waits for — any
    /// writes still queued ahead of it, then the read's page loop — on the
    /// calling thread: served, the client's, inside the service lock.
    ///
    /// # Errors
    ///
    /// [`SimError::TraceOutOfRange`] for spans outside the logical space;
    /// otherwise the engine's first finalized lane error (sticky).
    pub fn read(&mut self, lba: u64, len: usize) -> Result<Vec<Option<u64>>, SimError> {
        self.check_span(lba, len)?;
        if len == 0 {
            return Ok(Vec::new());
        }
        let at = self.tick();
        // Allocated at the first page served from RAM: a read that misses on
        // every page hands the engine's result vector on instead.
        let mut out: Vec<Option<u64>> = Vec::new();
        self.read_spans.clear();
        let mut run: Option<(usize, u64, u32)> = None;
        for i in 0..len {
            let page = lba + i as u64;
            let local = if !self.trimmed.is_empty() && self.trimmed.contains(&page) {
                Some(None)
            } else {
                self.cache.as_mut().and_then(|c| c.lookup(page)).map(Some)
            };
            match local {
                Some(value) => {
                    out.resize(len, None);
                    out[i] = value;
                    if let Some(span) = run.take() {
                        self.read_spans.push(span);
                    }
                }
                None => match run.as_mut() {
                    Some(span) => span.2 += 1,
                    None => run = Some((i, page, 1)),
                },
            }
        }
        if let Some(span) = run.take() {
            self.read_spans.push(span);
        }
        for &(index, start, pages) in &self.read_spans {
            let values = self.engine.read(at, start, pages)?;
            if out.is_empty() {
                // One flash span covers the whole read.
                return Ok(values);
            }
            out[index..index + values.len()].copy_from_slice(&values);
        }
        Ok(out)
    }

    /// Advisory trim of `len` pages starting at `lba`: drops cached dirty
    /// data for the span (legal — it was never acked durable) and masks
    /// subsequent reads to `None` until rewritten. RAM-only; a crash
    /// forgets the mask. Zero-length trims are no-ops.
    ///
    /// # Errors
    ///
    /// [`SimError::TraceOutOfRange`] for spans outside the logical space.
    pub fn trim(&mut self, lba: u64, len: usize) -> Result<(), SimError> {
        self.check_span(lba, len)?;
        if len == 0 {
            return Ok(());
        }
        self.tick();
        for i in 0..len as u64 {
            let page = lba + i;
            if let Some(cache) = self.cache.as_mut() {
                cache.trim(page);
            }
            self.trimmed.insert(page);
        }
        Ok(())
    }

    /// Durability barrier: writes back every dirty cache entry and drains
    /// the engine pipeline. When this returns `Ok`, every previously acked
    /// write is on flash and survives a power cut. Like a read miss, the
    /// drain executes whatever is still queued on the calling thread rather
    /// than parking it behind a worker wake-up.
    ///
    /// # Errors
    ///
    /// The engine's first finalized lane error (sticky).
    pub fn flush(&mut self) -> Result<(), SimError> {
        let at = self.clock_ns;
        if let Some(cache) = self.cache.as_mut() {
            let batch = cache.drain_all();
            self.submit_batch(at, &batch)?;
        }
        self.engine.flush()
    }

    /// Runs a snapshot verb on the served device; what each verb does to the
    /// RAM-side state is the table in the module docs' *Ack semantics*. A
    /// rollback discards the current live image *including* accepted-but-
    /// unflushed cache contents and trim masks — they describe the state the
    /// caller is explicitly abandoning — and a merge clears the advisory trim
    /// masks so that the pages the snapshot restores are readable. An `Ok` ack
    /// is *durable and exact*: a `Create` images precisely the acked state,
    /// and the on-flash manifest commit makes the snapshot itself survive a
    /// power cut — crashmc sweeps assert that an acked create is always
    /// present after remount. A refused verb leaves the served device as it
    /// was.
    ///
    /// # Errors
    ///
    /// The engine's (sticky) error, or the snapshot plane's rejection
    /// (duplicate or unknown id, manifest full, snapshots disabled, NFTL
    /// layer).
    pub fn snapshot(&mut self, verb: SnapshotVerb) -> Result<(), SimError> {
        if matches!(verb, SnapshotVerb::Create(_) | SnapshotVerb::Merge(_)) {
            self.flush()?;
        }
        self.engine.snapshot(verb)?;
        // Only now that every lane has applied the verb: a refused one must
        // not cost an accepted write or bring a trimmed page back.
        match verb {
            SnapshotVerb::Clone(_) => {
                if let Some(cache) = self.cache.as_mut() {
                    // Dropped, not written back: the rollback supersedes them.
                    drop(cache.drain_all());
                }
                self.trimmed.clear();
            }
            SnapshotVerb::Merge(_) => self.trimmed.clear(),
            SnapshotVerb::Create(_) | SnapshotVerb::Delete(_) => {}
        }
        Ok(())
    }

    /// Flushes, tears the engine down, and assembles the run summary.
    ///
    /// # Errors
    ///
    /// Returns the first finalized lane error; the engine is torn down
    /// either way.
    pub fn finish(mut self) -> Result<ServiceRun, SimError> {
        self.flush()?;
        let cache = self.cache_sample();
        let run = self.engine.finish()?;
        Ok(ServiceRun {
            run,
            cache,
            ops: self.ops,
        })
    }

    /// Crash-harness teardown: drops the cache (its dirty entries were
    /// never acked durable, so losing them models exactly what a power
    /// cut does to a RAM cache) and returns the raw devices in channel
    /// order for `disarm_power_cut` / `power_cycle` / re-mount.
    pub fn into_devices(self) -> Vec<NandDevice> {
        self.engine.into_devices()
    }
}

/// What the server and its clients share: the service behind the lock
/// that linearises their verbs, `None` once [`ServiceServer::join`] took it.
type ServedSlot = Arc<Mutex<Option<Service>>>;

/// Locks the served slot.
///
/// # Panics
///
/// Panics when a client panicked inside a verb: the service may be
/// mid-update, so every later call fails loudly instead of serving it.
fn lock_served(slot: &ServedSlot) -> MutexGuard<'_, Option<Service>> {
    slot.lock()
        .expect("service lock poisoned: a client panicked inside a served verb")
}

/// A client handle onto a served [`Service`]: the blocking block-device
/// verbs. Every verb takes the service lock and runs the matching
/// [`Service`] method on the caller's own thread, so ops are linearised by
/// lock acquisition.
pub struct ServiceClient {
    id: usize,
    served: ServedSlot,
}

impl ServiceClient {
    /// This client's index among the handles [`Service::serve`] returned.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Runs `verb` on the service under the lock, held for the verb's whole
    /// duration (a read's or flush's engine barrier included).
    ///
    /// # Panics
    ///
    /// Panics when the server was joined while this client was still
    /// active — join the server only after its clients are done — and when
    /// another client panicked inside a verb and poisoned the lock.
    fn with_service<R>(&self, verb: impl FnOnce(&mut Service) -> R) -> R {
        let mut slot = lock_served(&self.served);
        let Some(service) = slot.as_mut() else {
            // Released first: this misuse must not poison the other clients.
            drop(slot);
            panic!("service joined while client {} was active", self.id);
        };
        verb(service)
    }

    /// Writes `data` starting at `lba` (ack = accepted, not durable).
    ///
    /// # Errors
    ///
    /// As [`Service::write`].
    pub fn write(&mut self, lba: u64, data: Vec<u64>) -> Result<(), SimError> {
        self.with_service(|service| service.write(lba, &data))
    }

    /// Reads `len` pages starting at `lba`.
    ///
    /// # Errors
    ///
    /// As [`Service::read`].
    pub fn read(&mut self, lba: u64, len: usize) -> Result<Vec<Option<u64>>, SimError> {
        self.with_service(|service| service.read(lba, len))
    }

    /// Advisory trim of `len` pages starting at `lba`.
    ///
    /// # Errors
    ///
    /// As [`Service::trim`].
    pub fn trim(&mut self, lba: u64, len: usize) -> Result<(), SimError> {
        self.with_service(|service| service.trim(lba, len))
    }

    /// Queries the service's SMART-style health report under the same lock
    /// as I/O (linearised with the data path, no side channel).
    ///
    /// # Errors
    ///
    /// As [`Service::stats`].
    pub fn stats(&mut self) -> Result<HealthReport, SimError> {
        self.with_service(Service::stats)
    }

    /// Durability barrier: when this returns `Ok`, every write this (or
    /// any) client had acked before the call survives a power cut.
    ///
    /// # Errors
    ///
    /// As [`Service::flush`].
    pub fn flush(&mut self) -> Result<(), SimError> {
        self.with_service(Service::flush)
    }

    /// Runs a snapshot verb (ack = durable; see [`Service::snapshot`]).
    ///
    /// # Errors
    ///
    /// As [`Service::snapshot`].
    pub fn snapshot(&mut self, verb: SnapshotVerb) -> Result<(), SimError> {
        self.with_service(|service| service.snapshot(verb))
    }
}

/// The owner's handle onto a served [`Service`]; join it to get the
/// service back (for [`Service::finish`] or crash teardown).
pub struct ServiceServer {
    served: ServedSlot,
}

impl ServiceServer {
    /// Takes the service back out from under the lock, waiting for a verb
    /// in progress. Client handles may outlive this call, but one that is
    /// used afterwards panics: join only after the clients are done.
    ///
    /// # Panics
    ///
    /// Panics when a client panicked inside a verb and poisoned the lock.
    pub fn join(self) -> Service {
        lock_served(&self.served)
            .take()
            .expect("the one ServiceServer takes the service exactly once")
    }
}

impl Service {
    /// Serves this service to `clients` concurrent in-process clients (at
    /// least 1): the service moves behind one lock that the returned
    /// handles share, and each client verb runs under it on the calling
    /// thread — see the module docs' served-concurrency contract.
    pub fn serve(self, clients: usize) -> (ServiceServer, Vec<ServiceClient>) {
        let served: ServedSlot = Arc::new(Mutex::new(Some(self)));
        let handles = (0..clients.max(1))
            .map(|id| ServiceClient {
                id,
                served: Arc::clone(&served),
            })
            .collect();
        (ServiceServer { served }, handles)
    }
}
