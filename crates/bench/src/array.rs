//! The multi-channel array fixture of the served runs (`swl top`,
//! `repro cache`, `repro health`) and of `telbench`: a scale's chip split
//! over lanes, the served FTL built on it, and the two deterministic host
//! workloads those runs drive — [`client_ops`], the paper-shaped mixed
//! sequence, and [`HotWrites`], the health runs' write-only stream.

use flash_sim::experiments::ExperimentScale;
use flash_sim::service::cache::CacheConfig;
use flash_sim::service::{Service, ServiceConfig};
use flash_sim::{EngineConfig, LayerKind, SimConfig, SimError, SwlCoordination};
use hotid::HotDataConfig;
use nand::{CellKind, CellSpec, ChannelGeometry, Geometry};
use swl_core::rng::SplitMix64;

/// Lanes of the fixed-width benches.
pub const CHANNELS: u32 = 4;

/// The scale's chip split evenly over `channels` lanes.
///
/// # Panics
///
/// Panics when `channels` does not divide the scale's block count.
pub fn geometry(scale: &ExperimentScale, channels: u32) -> ChannelGeometry {
    assert!(
        scale.blocks.is_multiple_of(channels),
        "{channels} channels must divide {} blocks",
        scale.blocks
    );
    ChannelGeometry::new(
        channels,
        1,
        Geometry::new(scale.blocks / channels, scale.pages_per_block, 2048),
    )
}

/// MLC×2 cells at the scale's endurance.
pub fn spec(scale: &ExperimentScale) -> CellSpec {
    CellKind::Mlc2.spec().with_endurance(scale.endurance)
}

/// Write-cache pages of the served runs: deliberately smaller than a single
/// client's hot eighth (~100 LBAs at the quick scale), with the sync
/// watermark parked at capacity, so the steady state overflows and must
/// capacity-evict — the regime a bounded cache actually lives in.
pub const CACHE_PAGES: usize = 32;

/// The served runs' write cache: [`CACHE_PAGES`] pages, admitting an LBA
/// from its second write. With the watermark at capacity the between-call
/// drain only runs once the cache is full, so mid-span admissions against a
/// full cache take the capacity-eviction path.
pub fn cache_config() -> CacheConfig {
    let hot = HotDataConfig {
        hot_threshold: 2,
        ..HotDataConfig::default()
    };
    CacheConfig::sized(CACHE_PAGES)
        .with_hot(hot)
        .with_watermark(CACHE_PAGES)
}

/// The served array: `cell` chips of the scale's geometry over [`CHANNELS`]
/// lanes, the FTL with per-channel SWL (T=100, k=0), `engine` tuning and,
/// when given, a write cache.
///
/// # Panics
///
/// Panics when the array cannot be built.
pub fn service(
    scale: &ExperimentScale,
    cell: CellSpec,
    engine: EngineConfig,
    cache: Option<CacheConfig>,
) -> Service {
    let config = ServiceConfig {
        engine,
        cache,
        ..ServiceConfig::default()
    };
    Service::build(
        LayerKind::Ftl,
        geometry(scale, CHANNELS),
        cell,
        Some(scale.swl_config(100, 0)),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        config,
    )
    .expect("service build failed")
}

/// Client ops between two durability barriers of [`client_ops`].
pub const FLUSH_EVERY: usize = 64;

/// One deterministic client op.
#[derive(Debug, Clone)]
pub enum ClientOp {
    /// Write `data` from `lba` on.
    Write {
        /// First page.
        lba: u64,
        /// One value per page, every value unique.
        data: Vec<u64>,
    },
    /// Read `len` pages from `lba` on.
    Read {
        /// First page.
        lba: u64,
        /// Pages.
        len: usize,
    },
    /// A durability barrier.
    Flush,
}

impl ClientOp {
    /// Host pages the op writes.
    pub fn pages(&self) -> u64 {
        match self {
            ClientOp::Write { data, .. } => data.len() as u64,
            _ => 0,
        }
    }

    /// Runs the op on `service`, on the caller's thread.
    ///
    /// # Errors
    ///
    /// The verb's error.
    pub fn apply(&self, service: &mut Service) -> Result<(), SimError> {
        match self {
            ClientOp::Write { lba, data } => service.write(*lba, data),
            ClientOp::Read { lba, len } => service.read(*lba, *len).map(drop),
            ClientOp::Flush => service.flush(),
        }
    }
}

/// The `span` pages from `base` one client owns: ~40 % of the logical
/// space, split over `clients` disjoint slices. (The default FTL exports
/// the full chip with zero over-provisioning, so near-full footprints would
/// starve GC; the paper's workload writes 36.62 % of its LBA space.)
pub fn client_slices(logical_pages: u64, clients: usize) -> Vec<(u64, u64)> {
    let footprint = (logical_pages * 2 / 5).max(clients as u64 * 8);
    let span = footprint / clients as u64;
    (0..clients as u64).map(|c| (c * span, span)).collect()
}

/// A client's sequence, shaped like the paper's workload: a sequential
/// prefill freezes the whole slice once (cold data that then never moves on
/// its own — the reason static wear leveling exists), then `ops` ops of
/// hot-rewrite-biased writes (70 %, 1–4 pages, 90 % inside the hot eighth)
/// and reads, with a flush every [`FLUSH_EVERY`] ops. Values encode
/// (client, sequence) so every write is unique.
pub fn client_ops(client: usize, base: u64, span: u64, ops: usize, seed: u64) -> Vec<ClientOp> {
    let mut rng = SplitMix64::new(seed ^ (0x5EC0 + client as u64));
    let hot_set = (span / 8).max(4).min(span);
    let mut next_value = 0u64;
    let mut values = |len: usize| -> Vec<u64> {
        (0..len)
            .map(|_| {
                next_value += 1;
                ((client as u64 + 1) << 40) + next_value
            })
            .collect()
    };
    let mut sequence: Vec<ClientOp> = Vec::new();
    let mut lba = base;
    while lba < base + span {
        let len = 4.min(base + span - lba) as usize;
        sequence.push(ClientOp::Write {
            lba,
            data: values(len),
        });
        lba += len as u64;
    }
    sequence.push(ClientOp::Flush);
    sequence.extend((0..ops).map(|i| {
        if (i + 1) % FLUSH_EVERY == 0 {
            return ClientOp::Flush;
        }
        let len = rng.range_usize(1..5).min(span as usize);
        let lba = base
            + if rng.chance(0.9) {
                rng.next_below(hot_set)
            } else {
                rng.next_below(span)
            }
            .min(span - len as u64);
        if rng.chance(0.7) {
            ClientOp::Write {
                lba,
                data: values(len),
            }
        } else {
            ClientOp::Read { lba, len }
        }
    }));
    sequence
}

/// The health runs' driven workload (`repro health`,
/// `tests/health_forecast.rs`): hot-biased single-client writes over ~40 %
/// of the logical space (the [`client_slices`] footprint), 90 % of them
/// inside the hot eighth — the cold majority is what static wear leveling
/// exists for, the hot minority is what wears the tail out. Deterministic
/// in `seed`.
pub struct HotWrites {
    rng: SplitMix64,
    span: u64,
    hot_set: u64,
    next_value: u64,
}

impl HotWrites {
    /// The stream over a device of `logical_pages`.
    pub fn new(logical_pages: u64, seed: u64) -> Self {
        let span = (logical_pages * 2 / 5).max(8);
        Self {
            rng: SplitMix64::new(seed ^ 0x5EA1),
            span,
            hot_set: (span / 8).max(4).min(span),
            next_value: 0,
        }
    }

    /// The next write: `(lba, data)`, 1–4 pages, every value unique.
    pub fn next_write(&mut self) -> (u64, Vec<u64>) {
        let len = self.rng.range_usize(1..5).min(self.span as usize);
        let lba = if self.rng.chance(0.9) {
            self.rng.next_below(self.hot_set)
        } else {
            self.rng.next_below(self.span)
        }
        .min(self.span - len as u64);
        let data = (0..len)
            .map(|_| {
                self.next_value += 1;
                self.next_value
            })
            .collect();
        (lba, data)
    }
}

/// A fraction as a percentage with one decimal.
pub fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}
