//! The crash-consistency harness: cut power at an operation boundary of a
//! GC/SWL-heavy workload, remount, and check the recovery contract. One
//! copy, under both the exhaustive `repro crashmc` artifact (every cut point
//! of every configuration) and `tests/crash_consistency.rs` (a strided and a
//! random subset, in CI time).
//!
//! A [`Sweep`] names one configuration (a [`Stack`], its layer, its
//! leveler); [`Sweep::total_ops`] counts the cut points its workload exposes
//! and [`Sweep::check`] runs one crash / remount / verify cycle, recording
//! what it finds in a [`SweepStats`] — a counter per violation category plus
//! one message per violation naming the configuration, the cut point and the
//! offending page. Nothing here panics on a violation: the artifact
//! tabulates them, the tests assert that there are none.
//!
//! Every sweep checks, through the same host model and the same routines:
//!
//! - the replay ends in the armed power cut, and some device reports it
//!   (`power_is_cut`) before the shared rail is disarmed and cycled;
//! - the stack remounts through its firmware mount path;
//! - **no acked write is lost**: every page reads the last value the host
//!   holds an ack for, or a value that was in flight to that page at the cut
//!   (one write on the plain and striped sweeps, up to a flush interval of
//!   them behind the engine and the service); in-flight values that did not
//!   survive are counted in [`SweepStats::vanished`], not as violations;
//! - the stack **keeps serving writes** after the remount.
//!
//! On top of that, per sweep:
//!
//! - [`Stack::Plain`] checkpoints the SW Leveler into an NVRAM
//!   [`DualBuffer`] every 25 acked writes and, on a torn cut, tears the
//!   newest slot too: the recovered leveler must carry the `ecnt` of one of
//!   the last two checkpoints, [`PersistError::NoValidSnapshot`] is legal
//!   only when no checkpoint (or, torn, one) existed, and after the resume
//!   writes the unevenness level is back below `T` (`needs_leveling()` is
//!   false).
//! - [`Stack::Striped`] writes page by page over span-sized requests, so
//!   every cut lands mid-stripe, and remounts through
//!   [`StripedLayer::mount`].
//! - [`Stack::Engine`] has up to four requests in flight on worker threads
//!   and acks only at `flush`; [`Stack::Service`] puts the RAM write cache
//!   in front, whose un-flushed writes a cut is allowed to lose.
//! - [`Stack::Snapshot`] cuts across snapshot creates, a delete, a rollback
//!   clone and an online merge: every acked snapshot keeps its exact frozen
//!   image, a verb cut inside its manifest commit fully happened or fully
//!   did not (the head matches one whole legal image, never a mixture), no
//!   unacked snapshot appears, the refcount identity holds, and a fresh
//!   snapshot cycle works after recovery.

use std::collections::HashMap;
use std::fmt::{self, Display};

use flash_sim::service::cache::CacheConfig;
use flash_sim::{
    Engine, EngineConfig, Layer, LayerKind, Service, ServiceConfig, SimConfig, SimError,
    StripedLayer, SwlCoordination, TranslationLayer,
};
use flash_telemetry::Sink;
use flash_trace::TraceEvent;
use ftl::{FtlConfig, FtlError, PageMappedFtl, SnapshotConfig};
use hotid::HotDataConfig;
use nand::{CellKind, CellSpec, ChannelGeometry, FaultPlan, Geometry, NandDevice, NandError};
use nftl::NftlError;
use swl_core::persist::{DualBuffer, PersistError};
use swl_core::{SwLeveler, SwlConfig};

/// Blocks of the single-chip sweeps.
pub const BLOCKS: u32 = 24;
/// Pages per block, everywhere.
pub const PAGES: u32 = 8;
/// Acked writes between SW Leveler checkpoints (one "interval").
const SAVE_EVERY: u64 = 25;
/// Lanes of the engine and service sweeps (and of `repro crashmc`'s striped
/// one).
pub const CHANNELS: u32 = 2;
/// Blocks per lane of the array sweeps.
const LANE_BLOCKS: u32 = 16;
/// Host request size (pages) of the array sweeps — every request spans all
/// lanes, so any cut point inside one lands mid-stripe.
const SPAN: u64 = 4;
/// Host queue depth of the engine and service sweeps: several requests are
/// in flight when the rail cuts.
const ENGINE_QD: usize = 4;
/// Worker threads of the engine and service sweeps (one per channel).
const ENGINE_THREADS: u32 = 2;
/// Submitted requests between `flush` barriers — the ack boundary of the
/// engine and service sweeps.
const FLUSH_EVERY: u64 = 4;
/// RAM write-cache capacity (pages) of the service sweep — small enough
/// that capacity evictions and watermark batches fire between flushes.
const CACHE_PAGES: usize = 8;

/// The chip of the single-chip sweeps (it never wears out).
fn device() -> NandDevice {
    NandDevice::new(Geometry::new(BLOCKS, PAGES, 2048), cell())
}

fn cell() -> CellSpec {
    CellKind::Mlc2.spec().with_endurance(u32::MAX)
}

/// The leveler every SWL-on sweep runs: `T = 8`, `k = 1`, so SWL-Procedure
/// fires within the short workloads.
pub fn swl_config() -> SwlConfig {
    SwlConfig::new(8, 1).with_seed(7)
}

/// Whether `e` is the armed power cut surfacing through a layer.
pub fn is_power_cut(e: &SimError) -> bool {
    matches!(
        e,
        SimError::Ftl(FtlError::Device(NandError::PowerCut))
            | SimError::Nftl(NftlError::Device(NandError::PowerCut))
    )
}

/// `Ok(true)` when `result` failed with the armed power cut.
fn cut<T, E: Into<SimError>>(result: Result<T, E>) -> Result<bool, SimError> {
    match result.map_err(Into::into) {
        Ok(_) => Ok(false),
        Err(e) if is_power_cut(&e) => Ok(true),
        Err(e) => Err(e),
    }
}

/// A fault plan with the power cut armed at `cut` (`(op, torn)`), or — for
/// the baseline run that counts the cut points — with nothing armed.
fn fault_config(cut: Option<(u64, bool)>) -> SimConfig {
    let plan = FaultPlan::new(1);
    SimConfig {
        fault: Some(match cut {
            Some((at, torn)) => plan.with_power_cut(at, torn),
            None => plan,
        }),
        ..SimConfig::default()
    }
}

/// The cut-point count of an array: every cut point below the busiest
/// lane's operation count fires on some lane.
fn max_fault_ops<S: Sink>(devices: &[NandDevice<S>]) -> u64 {
    devices.iter().map(NandDevice::fault_ops).max().unwrap_or(0)
}

/// What the host believes about its own data across the crash.
#[derive(Default)]
struct HostModel {
    /// Writes the host holds an ack for: these MUST survive.
    acked: HashMap<u64, u64>,
    /// Writes submitted since the last ack, in order: each may have landed
    /// or not.
    in_flight: Vec<(u64, u64)>,
}

impl HostModel {
    fn submit(&mut self, lba: u64, value: u64) {
        self.in_flight.push((lba, value));
    }

    fn ack(&mut self) {
        self.acked.extend(self.in_flight.drain(..));
    }
}

/// What a sweep found, by category.
#[derive(Debug, Default)]
pub struct SweepStats {
    /// Cut points checked.
    pub points: u64,
    /// Acked pages (or snapshot images) that did not read back.
    pub lost_acked: u64,
    /// Recovered levelers more than one checkpoint stale.
    pub stale_checkpoints: u64,
    /// Stacks that stopped serving, or stayed uneven, after recovery.
    pub resume_failures: u64,
    /// Replays the cut never reached, failed remounts, broken audits.
    pub recovery_errors: u64,
    /// In-flight writes that did not survive the cut (legal).
    pub vanished: u64,
    /// One line per violation: configuration, cut point, offending page.
    pub messages: Vec<String>,
}

impl SweepStats {
    /// Violations across all four categories.
    pub fn violations(&self) -> u64 {
        self.lost_acked + self.stale_checkpoints + self.resume_failures + self.recovery_errors
    }
}

#[derive(Clone, Copy)]
enum Violation {
    LostAcked,
    StaleCheckpoint,
    ResumeFailure,
    RecoveryError,
}
use Violation::{LostAcked, RecoveryError, ResumeFailure, StaleCheckpoint};

/// The pages of `expected` that read back neither their expected value nor
/// a value in flight to them at the cut — the one read-back loop.
fn lost_pages<E: Display>(
    expected: impl IntoIterator<Item = (u64, Option<u64>)>,
    in_flight: &[(u64, u64)],
    mut read: impl FnMut(u64) -> Result<Option<u64>, E>,
) -> Vec<String> {
    let mut lost = Vec::new();
    for (lba, want) in expected {
        match read(lba) {
            Ok(got) if got == want => {}
            Ok(Some(got)) if in_flight.contains(&(lba, got)) => {}
            Ok(got) => lost.push(format!("lba {lba} lost acked {want:x?}, read {got:x?}")),
            Err(e) => lost.push(format!("read({lba}) failed after remount: {e}")),
        }
    }
    lost
}

/// One cut point being checked: where violations are recorded.
struct CutPoint<'a> {
    ctx: String,
    stats: &'a mut SweepStats,
}

impl CutPoint<'_> {
    fn flag(&mut self, violation: Violation, what: impl Display) {
        *match violation {
            LostAcked => &mut self.stats.lost_acked,
            StaleCheckpoint => &mut self.stats.stale_checkpoints,
            ResumeFailure => &mut self.stats.resume_failures,
            RecoveryError => &mut self.stats.recovery_errors,
        } += 1;
        self.stats.messages.push(format!("{}: {what}", self.ctx));
    }

    /// Whether the replay ended in the armed cut, as it must.
    fn was_cut(&mut self, replayed: Result<bool, SimError>) -> bool {
        match replayed {
            Ok(true) => return true,
            Ok(false) => self.flag(RecoveryError, "cut point is not inside the workload"),
            Err(e) => self.flag(RecoveryError, format_args!("workload failed: {e}")),
        }
        false
    }

    /// Power returns on the one shared rail: the cut that fired on one
    /// device took the whole array down, so the devices it never reached
    /// are disarmed.
    fn restore_power<S: Sink>(&mut self, devices: &mut [NandDevice<S>]) {
        if !devices.iter().any(NandDevice::power_is_cut) {
            self.flag(RecoveryError, "no device reports the cut");
        }
        for device in devices {
            device.disarm_power_cut();
            device.power_cycle();
        }
    }

    fn remounted<T, E: Display>(&mut self, mounted: Result<T, E>) -> Option<T> {
        mounted
            .map_err(|e| self.flag(RecoveryError, format_args!("remount failed: {e}")))
            .ok()
    }

    /// Contract 1, acked-write durability, through `read`.
    fn read_back<E: Display>(
        &mut self,
        model: &HostModel,
        mut read: impl FnMut(u64) -> Result<Option<u64>, E>,
    ) {
        let acked = model.acked.iter().map(|(&lba, &value)| (lba, Some(value)));
        for lost in lost_pages(acked, &model.in_flight, &mut read) {
            self.flag(LostAcked, lost);
        }
        let newest: HashMap<u64, u64> = model.in_flight.iter().copied().collect();
        for (lba, value) in newest {
            if read(lba).is_ok_and(|got| got != Some(value)) {
                self.stats.vanished += 1;
            }
        }
    }

    /// Contract 3, the stack keeps serving: `rounds` passes over the first
    /// `lbas` pages through `write`.
    fn resume<E: Display>(
        &mut self,
        lbas: u64,
        rounds: u64,
        tag: u64,
        mut write: impl FnMut(u64, u64) -> Result<(), E>,
    ) -> bool {
        for round in 0..rounds {
            for lba in 0..lbas {
                if let Err(e) = write(lba, tag | (round << 8) | lba) {
                    self.flag(
                        ResumeFailure,
                        format_args!("post-recovery write({lba}): {e}"),
                    );
                    return false;
                }
            }
        }
        true
    }

    /// Contract 2, bounded checkpoint staleness: the leveler to re-attach
    /// after the crash, recovered from `nvram` (whose newest slot a torn cut
    /// tore too) or fresh when no checkpoint can be expected to survive.
    fn recovered_leveler(
        &mut self,
        swl: SwlConfig,
        nvram: &mut DualBuffer,
        saved_ecnts: &[u64],
        torn: bool,
    ) -> Option<SwLeveler> {
        if torn {
            if let Some(slot) = nvram.slot_mut(0) {
                let cut_len = slot.len() / 2;
                slot.truncate(cut_len);
            }
        }
        let last_two = &saved_ecnts[saved_ecnts.len().saturating_sub(2)..];
        match nvram.recover().map(|snapshot| snapshot.into_leveler()) {
            Ok(Ok(leveler)) => {
                if !last_two.contains(&leveler.ecnt()) {
                    self.flag(
                        StaleCheckpoint,
                        format_args!(
                            "recovered ecnt {} is more than one checkpoint stale \
                             (last saves: {last_two:?})",
                            leveler.ecnt()
                        ),
                    );
                }
                Some(leveler)
            }
            Err(PersistError::NoValidSnapshot) => {
                if saved_ecnts.len() > 1 || (!torn && !saved_ecnts.is_empty()) {
                    self.flag(
                        StaleCheckpoint,
                        "valid checkpoints existed but none recovered",
                    );
                }
                Some(SwLeveler::new(BLOCKS, swl).expect("sweep leveler config is valid"))
            }
            Ok(Err(e)) => {
                self.flag(RecoveryError, format_args!("checkpoint decode failed: {e}"));
                None
            }
            Err(e) => {
                self.flag(
                    RecoveryError,
                    format_args!("checkpoint recovery failed: {e}"),
                );
                None
            }
        }
    }
}

/// What a sweep drives the flash through.
#[derive(Debug, Clone, Copy)]
pub enum Stack {
    /// One chip under a plain layer, the leveler checkpointed to NVRAM.
    Plain,
    /// A striped array of this many lanes, written page by page
    /// (per-channel SWL).
    Striped(u32),
    /// The threaded engine at queue depth 4 over [`CHANNELS`]
    /// lanes, their levelers coordinated this way.
    Engine(SwlCoordination),
    /// The served front-end with its RAM write cache, over the same engine.
    Service(SwlCoordination),
    /// The snapshot plane (of the page-mapped FTL: `kind` must be `Ftl`).
    Snapshot,
}

/// One crash-sweep configuration.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// The stack under test.
    pub stack: Stack,
    /// Translation layer, of every lane.
    pub kind: LayerKind,
    /// Leveler configuration, `None` for SWL off.
    pub swl: Option<SwlConfig>,
}

impl Sweep {
    /// The stack under test, as `repro crashmc` labels its rows.
    pub fn layer_label(&self) -> String {
        let kind = self.kind;
        match self.stack {
            Stack::Plain => kind.to_string(),
            Stack::Striped(channels) => format!("{kind}\u{d7}{channels}ch"),
            Stack::Engine(_) => format!("{kind}\u{d7}{CHANNELS}ch qd{ENGINE_QD}"),
            Stack::Service(_) => format!("{kind}\u{d7}{CHANNELS}ch cache"),
            Stack::Snapshot => "ftl snap".to_owned(),
        }
    }

    /// `off`, `on` (per lane) or `global`.
    pub fn swl_label(&self) -> &'static str {
        match (self.swl, self.stack) {
            (None, _) => "off",
            (
                _,
                Stack::Engine(SwlCoordination::Global) | Stack::Service(SwlCoordination::Global),
            ) => "global",
            _ => "on",
        }
    }

    /// Fault-visible operations (programs + erases; the maximum over the
    /// lanes of an array) of the whole `rounds`-round workload: every cut
    /// point below it fires on some device.
    ///
    /// # Panics
    ///
    /// Panics when the un-cut baseline run fails.
    pub fn total_ops(&self, rounds: u64) -> u64 {
        let Sweep { stack, kind, swl } = *self;
        let cfg = fault_config(None);
        let mut model = HostModel::default();
        let (replayed, total) = match stack {
            Stack::Plain => {
                let mut layer = Layer::build(kind, device(), swl, &cfg).expect("baseline build");
                let mut nvram = DualBuffer::new();
                let replayed = replay(&mut layer, rounds, &mut nvram, &mut model, &mut Vec::new());
                (replayed, layer.device().fault_ops())
            }
            Stack::Striped(channels) => {
                let mut striped = striped_build(kind, channels, swl, &cfg);
                let replayed = striped_replay(&mut striped, rounds, &mut model);
                (replayed, max_fault_ops(&striped.into_devices()))
            }
            Stack::Engine(coordination) => {
                let mut engine = engine_build(kind, swl, coordination, &cfg);
                let replayed = engine_replay(&mut engine, rounds, &mut model);
                (replayed, max_fault_ops(&engine.into_devices()))
            }
            Stack::Service(coordination) => {
                let mut service = service_build(kind, swl, coordination, &cfg);
                let replayed = service_replay(&mut service, rounds, &mut model);
                (replayed, max_fault_ops(&service.into_devices()))
            }
            Stack::Snapshot => {
                let mut ftl = snapshot_build(kind, swl, FaultPlan::new(1));
                let replayed = snapshot_replay(&mut ftl, rounds, &mut SnapModel::default());
                (replayed, ftl.into_device().fault_ops())
            }
        };
        let was_cut = replayed.unwrap_or_else(|e| panic!("{self}: baseline replay failed: {e}"));
        assert!(!was_cut, "{self}: baseline run must not see a power cut");
        total
    }

    /// One crash / remount / verify cycle with the power cut armed at
    /// operation `cut_at` (`torn`: the cut tears the page being programmed
    /// and the newest NVRAM slot). Findings go to `stats`.
    pub fn check(&self, rounds: u64, cut_at: u64, torn: bool, stats: &mut SweepStats) {
        let Sweep { stack, kind, swl } = *self;
        stats.points += 1;
        let mut out = CutPoint {
            ctx: format!("{self} cut_at={cut_at} torn={torn}"),
            stats,
        };
        let cfg = fault_config(Some((cut_at, torn)));
        let mut model = HostModel::default();
        match stack {
            Stack::Plain => check_plain(kind, swl, rounds, torn, &cfg, model, &mut out),
            Stack::Striped(channels) => {
                check_striped(kind, swl, channels, rounds, &cfg, model, &mut out);
            }
            Stack::Engine(coordination) => {
                let mut engine = engine_build(kind, swl, coordination, &cfg);
                if out.was_cut(engine_replay(&mut engine, rounds, &mut model)) {
                    check_lanes(kind, engine.into_devices(), &model, 0xBEEF_0000, &mut out);
                }
            }
            Stack::Service(coordination) => {
                let mut service = service_build(kind, swl, coordination, &cfg);
                if out.was_cut(service_replay(&mut service, rounds, &mut model)) {
                    // Teardown drops the RAM cache — what a power cut does.
                    check_lanes(kind, service.into_devices(), &model, 0xFACE_0000, &mut out);
                }
            }
            Stack::Snapshot => {
                let plan = FaultPlan::new(1).with_power_cut(cut_at, torn);
                check_snapshot(kind, swl, rounds, plan, &mut out);
            }
        }
    }
}

impl Display for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} swl={}", self.layer_label(), self.swl_label())
    }
}

/// The plain workload: two hot writes for every cold one churn the same few
/// pages hard enough to keep the Cleaner and SWL busy; the leveler is
/// checkpointed every [`SAVE_EVERY`] acked writes. `Ok(true)` on a cut.
fn replay(
    layer: &mut Layer,
    rounds: u64,
    nvram: &mut DualBuffer,
    model: &mut HostModel,
    saved_ecnts: &mut Vec<u64>,
) -> Result<bool, SimError> {
    let lbas = layer.logical_pages().min(28);
    let mut acked_since_save = 0u64;
    for round in 0..rounds {
        for step in 0..lbas {
            let lba = if step % 3 == 0 {
                step
            } else {
                (round + step) % 4
            };
            let value = (round << 32) | (step << 8) | lba;
            model.submit(lba, value);
            if cut(layer.write(lba, value))? {
                return Ok(true);
            }
            model.ack();
            acked_since_save += 1;
            if let Some(swl) = layer.swl() {
                if acked_since_save >= SAVE_EVERY {
                    nvram.save(swl);
                    saved_ecnts.push(swl.ecnt());
                    acked_since_save = 0;
                }
            }
        }
    }
    Ok(false)
}

fn check_plain(
    kind: LayerKind,
    swl: Option<SwlConfig>,
    rounds: u64,
    torn: bool,
    cfg: &SimConfig,
    mut model: HostModel,
    out: &mut CutPoint,
) {
    let mut layer = Layer::build(kind, device(), swl, cfg).expect("build");
    let mut nvram = DualBuffer::new();
    let mut saved_ecnts = Vec::new();
    if !out.was_cut(replay(
        &mut layer,
        rounds,
        &mut nvram,
        &mut model,
        &mut saved_ecnts,
    )) {
        return;
    }
    let mut chip = layer.into_device();
    out.restore_power(std::slice::from_mut(&mut chip));
    // Mounting applies no fault plan, which leaves the chip's grown-bad
    // state untouched instead of re-arming a new plan.
    let Some(mut layer) = out.remounted(Layer::mount(kind, chip, &SimConfig::default())) else {
        return;
    };
    if let Some(swl) = swl {
        if let Some(leveler) = out.recovered_leveler(swl, &mut nvram, &saved_ecnts, torn) {
            layer.attach_swl(leveler);
        }
    }
    out.read_back(&model, |lba| layer.read(lba));
    let lbas = layer.logical_pages().min(28);
    if out.resume(lbas, 3, 0xCAFE_0000, |lba, value| layer.write(lba, value)) {
        if let Some(leveler) = layer.swl().filter(|l| l.needs_leveling()) {
            out.flag(
                ResumeFailure,
                format_args!(
                    "unevenness {:?} still at or above T={} after resume",
                    leveler.unevenness(),
                    leveler.config().threshold
                ),
            );
        }
    }
}

/// Shape of a `channels`-lane crash array.
pub fn striped_geometry(channels: u32) -> ChannelGeometry {
    ChannelGeometry::new(channels, 1, Geometry::new(LANE_BLOCKS, PAGES, 2048))
}

/// A `channels`-lane striped array with per-channel SWL.
pub fn striped_build(
    kind: LayerKind,
    channels: u32,
    swl: Option<SwlConfig>,
    cfg: &SimConfig,
) -> StripedLayer {
    let coordination = SwlCoordination::PerChannel;
    StripedLayer::build(
        kind,
        striped_geometry(channels),
        cell(),
        swl,
        coordination,
        cfg,
    )
    .expect("striped build")
}

/// The span-sized hot/cold request stream of the array sweeps, as
/// `(round, request, first lba)`.
fn spans(logical_pages: u64, rounds: u64) -> impl Iterator<Item = (u64, u64, u64)> {
    let spans = (logical_pages / SPAN).min(8);
    (0..rounds).flat_map(move |round| {
        (0..spans).map(move |i| {
            (
                round,
                i,
                (if i % 3 == 0 { i } else { (round + i) % 2 }) * SPAN,
            )
        })
    })
}

/// The mid-stripe workload as `(lba, value)` page writes.
pub fn striped_workload(logical_pages: u64, rounds: u64) -> impl Iterator<Item = (u64, u64)> {
    spans(logical_pages, rounds).flat_map(|(round, i, base)| {
        (0..SPAN).map(move |off| (base + off, (round << 32) | (i << 16) | (off << 8) | 0xA5))
    })
}

/// Replays the workload page by page; `Ok(true)` on a cut.
fn striped_replay(
    striped: &mut StripedLayer,
    rounds: u64,
    model: &mut HostModel,
) -> Result<bool, SimError> {
    for (lba, value) in striped_workload(striped.logical_pages(), rounds) {
        model.submit(lba, value);
        if cut(striped.write(lba, value))? {
            return Ok(true);
        }
        model.ack();
    }
    Ok(false)
}

fn check_striped(
    kind: LayerKind,
    swl: Option<SwlConfig>,
    channels: u32,
    rounds: u64,
    cfg: &SimConfig,
    mut model: HostModel,
    out: &mut CutPoint,
) {
    let mut striped = striped_build(kind, channels, swl, cfg);
    if !out.was_cut(striped_replay(&mut striped, rounds, &mut model)) {
        return;
    }
    let mut devices = striped.into_devices();
    out.restore_power(&mut devices);
    let mounted = StripedLayer::mount(
        kind,
        striped_geometry(channels),
        devices,
        SwlCoordination::PerChannel,
        &SimConfig::default(),
    );
    let Some(mut striped) = out.remounted(mounted) else {
        return;
    };
    out.read_back(&model, |lba| striped.read(lba));
    let lbas = striped.logical_pages().min(SPAN * 8);
    out.resume(lbas, 2, 0xD00D_0000, |lba, value| striped.write(lba, value));
}

fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_threads(ENGINE_THREADS)
        .with_queue_depth(ENGINE_QD)
}

fn engine_build(
    kind: LayerKind,
    swl: Option<SwlConfig>,
    coordination: SwlCoordination,
    cfg: &SimConfig,
) -> Engine {
    let geometry = striped_geometry(CHANNELS);
    Engine::new(
        kind,
        geometry,
        cell(),
        swl,
        coordination,
        cfg,
        engine_config(),
    )
    .expect("engine build")
}

fn service_build(
    kind: LayerKind,
    swl: Option<SwlConfig>,
    coordination: SwlCoordination,
    cfg: &SimConfig,
) -> Service {
    // An eager admission threshold so the small cache absorbs the
    // workload's hot spans within a couple of rewrites.
    let hot = HotDataConfig {
        hot_threshold: 2,
        ..HotDataConfig::default()
    };
    let config = ServiceConfig::default()
        .with_engine(engine_config())
        .with_cache(CacheConfig::sized(CACHE_PAGES).with_hot(hot));
    Service::build(
        kind,
        striped_geometry(CHANNELS),
        cell(),
        swl,
        coordination,
        cfg,
        config,
    )
    .expect("service build")
}

/// Submits the span stream to `target` with a `flush` — the only ack —
/// every [`FLUSH_EVERY`] requests and one at the end; `Ok(true)` on a cut.
fn flushed_replay<T>(
    target: &mut T,
    logical_pages: u64,
    rounds: u64,
    model: &mut HostModel,
    mut submit: impl FnMut(&mut T, &mut HostModel, (u64, u64, u64)) -> Result<(), SimError>,
    flush: fn(&mut T) -> Result<(), SimError>,
) -> Result<bool, SimError> {
    let mut since_flush = 0;
    for span in spans(logical_pages, rounds) {
        if cut(submit(target, model, span))? {
            return Ok(true);
        }
        since_flush += 1;
        if since_flush == FLUSH_EVERY {
            since_flush = 0;
            if cut(flush(target))? {
                return Ok(true);
            }
            model.ack();
        }
    }
    if cut(flush(target))? {
        return Ok(true);
    }
    model.ack();
    Ok(false)
}

/// The engine writes its own page tokens (one global counter, incremented
/// per page in submission order), so the model mirrors that counter to know
/// which value every submitted page will carry.
fn engine_replay(
    engine: &mut Engine,
    rounds: u64,
    model: &mut HostModel,
) -> Result<bool, SimError> {
    let (mut at_ns, mut token) = (0u64, 0u64);
    let submit = |engine: &mut Engine, model: &mut HostModel, (_, _, base): (u64, u64, u64)| {
        at_ns += 1;
        for off in 0..SPAN {
            token += 1;
            model.submit(base + off, token);
        }
        engine.submit(TraceEvent::write_span(at_ns, base, SPAN as u32))
    };
    flushed_replay(
        engine,
        engine.logical_pages(),
        rounds,
        model,
        submit,
        Engine::flush,
    )
}

/// Cache-absorbed writes touch no device op, so cut points land only on
/// real flash traffic (flush-backs, evictions, GC).
fn service_replay(
    service: &mut Service,
    rounds: u64,
    model: &mut HostModel,
) -> Result<bool, SimError> {
    let submit =
        |service: &mut Service, model: &mut HostModel, (round, i, base): (u64, u64, u64)| {
            let values: Vec<u64> = (0..SPAN)
                .map(|off| (round << 32) | (i << 16) | (off << 8) | 0x5C)
                .collect();
            for (off, &value) in values.iter().enumerate() {
                model.submit(base + off as u64, value);
            }
            service.write(base, &values)
        };
    flushed_replay(
        service,
        service.logical_pages(),
        rounds,
        model,
        submit,
        Service::flush,
    )
}

/// The recovery half of the engine and service sweeps: the torn-down
/// array's devices are remounted lane by lane and addressed through the
/// stripe geometry.
fn check_lanes<S: Sink>(
    kind: LayerKind,
    mut devices: Vec<NandDevice<S>>,
    model: &HostModel,
    tag: u64,
    out: &mut CutPoint,
) {
    out.restore_power(&mut devices);
    let geometry = striped_geometry(CHANNELS);
    let mut lanes = Vec::with_capacity(devices.len());
    for device in devices {
        match out.remounted(Layer::mount(kind, device, &SimConfig::default())) {
            Some(lane) => lanes.push(lane),
            None => return,
        }
    }
    out.read_back(model, |lba| {
        lanes[geometry.channel_of(lba) as usize].read(geometry.lane_lba(lba))
    });
    let lbas = (lanes[0].logical_pages() * u64::from(CHANNELS)).min(SPAN * 8);
    out.resume(lbas, 2, tag, |lba, value| {
        lanes[geometry.channel_of(lba) as usize].write(geometry.lane_lba(lba), value)
    });
}

/// Blocks per manifest buffer of the snapshot sweep. Three keep the
/// workload's epoch lists (two creates, a clone, a merge splice) and the
/// post-recovery resume snapshot inside one buffer on the 8-page geometry.
const SNAP_MANIFEST_BLOCKS: u32 = 3;
/// Logical pages the snapshot sweep touches.
const SNAP_LBAS: u64 = 24;

type Image = HashMap<u64, u64>;

fn snap_ftl_config() -> FtlConfig {
    FtlConfig::new()
        .with_overprovision_blocks(2)
        .with_snapshots(SnapshotConfig::new().with_manifest_blocks(SNAP_MANIFEST_BLOCKS))
}

fn snapshot_build(kind: LayerKind, swl: Option<SwlConfig>, plan: FaultPlan) -> PageMappedFtl {
    assert_eq!(kind, LayerKind::Ftl, "snapshots are the page-mapped FTL's");
    let chip = device().with_fault_plan(plan);
    match swl {
        Some(swl) => PageMappedFtl::with_swl(chip, snap_ftl_config(), swl),
        None => PageMappedFtl::new(chip, snap_ftl_config()),
    }
    .expect("snapshot build")
}

/// A snapshot verb whose atomic point (the manifest commit) the cut may
/// have landed inside: recovery is allowed to show the verb fully done or
/// fully undone, nothing in between.
enum PendingVerb {
    Create {
        id: u64,
    },
    Delete {
        id: u64,
    },
    Clone {
        id: u64,
        old_head: Image,
    },
    /// `merge_begin` submitted — both outcomes resolve to the origin.
    MergeBegin,
    /// `merge_commit` submitted — origin if the snapshot survived the cut,
    /// merged if it is gone.
    MergeCommit,
}

/// RAM state of an acked online merge (begin acked, commit not yet).
struct MergeModel {
    id: u64,
    /// Acked host writes made after `merge_begin`: they beat the snapshot
    /// image on the merged branch and are ordinary acked writes on the
    /// origin branch.
    post_begin: Image,
}

/// What the host believes across the snapshot-sweep crash.
#[derive(Default)]
struct SnapModel {
    host: HostModel,
    /// Acked snapshots in creation order: id → frozen image.
    snaps: Vec<(u64, Image)>,
    pending: Option<PendingVerb>,
    merging: Option<MergeModel>,
}

impl SnapModel {
    fn snapshot(&self, id: u64) -> Option<&Image> {
        self.snaps
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, img)| img)
    }

    /// The head image of the *merged* branch: acked overlaid with the
    /// snapshot image, post-begin writes winning both.
    fn merged_image(&self) -> Image {
        let m = self.merging.as_ref().expect("merge in flight");
        let image = self.snapshot(m.id).expect("merge target is acked");
        let mut merged = self.host.acked.clone();
        for (&lba, &value) in image {
            if !m.post_begin.contains_key(&lba) {
                merged.insert(lba, value);
            }
        }
        merged
    }

    /// One host write; `Ok(true)` on a cut.
    fn write(&mut self, ftl: &mut PageMappedFtl, lba: u64, value: u64) -> Result<bool, SimError> {
        self.host.submit(lba, value);
        if cut(ftl.write(lba, value))? {
            return Ok(true);
        }
        self.host.ack();
        if let Some(m) = self.merging.as_mut() {
            m.post_begin.insert(lba, value);
        }
        Ok(false)
    }
}

/// The deterministic snapshot workload: wear-building writes, two creates,
/// a divergence, a delete, a rollback clone, an online merge with writes
/// interleaved between merge steps, then more writes. `Ok(true)` on a cut.
fn snapshot_replay(
    ftl: &mut PageMappedFtl,
    rounds: u64,
    model: &mut SnapModel,
) -> Result<bool, SimError> {
    let mut value = 0u64;
    let mut write = |ftl: &mut PageMappedFtl, model: &mut SnapModel, lba: u64| {
        value += 1;
        model.write(ftl, lba, value)
    };
    // Phase A: the hot/cold mix of the single-device sweep, scaled by
    // `rounds` so GC and SWL interleave with everything that follows.
    for round in 0..rounds.div_ceil(4).max(2) {
        for step in 0..SNAP_LBAS {
            let lba = if step % 3 == 0 {
                step
            } else {
                (round + step) % 4
            };
            if write(ftl, model, lba)? {
                return Ok(true);
            }
        }
    }

    // Arm `pending`, call the verb, settle the model.
    macro_rules! verb {
        ($pending:expr, $call:expr, $on_ok:expr) => {{
            model.pending = Some($pending);
            if cut($call)? {
                return Ok(true);
            }
            model.pending = None;
            #[allow(clippy::redundant_closure_call)]
            $on_ok(model);
        }};
    }

    verb!(
        PendingVerb::Create { id: 1 },
        ftl.snapshot_create(1),
        |m: &mut SnapModel| m.snaps.push((1, m.host.acked.clone()))
    );
    // Phase B: diverge half the space away from snapshot 1.
    for step in 0..SNAP_LBAS / 2 {
        if write(ftl, model, step * 2)? {
            return Ok(true);
        }
    }
    verb!(
        PendingVerb::Create { id: 2 },
        ftl.snapshot_create(2),
        |m: &mut SnapModel| m.snaps.push((2, m.host.acked.clone()))
    );
    // Phase C: diverge the other half.
    for step in 0..SNAP_LBAS / 2 {
        if write(ftl, model, step * 2 + 1)? {
            return Ok(true);
        }
    }
    verb!(
        PendingVerb::Delete { id: 2 },
        ftl.snapshot_delete(2),
        |m: &mut SnapModel| m.snaps.retain(|(i, _)| *i != 2)
    );
    verb!(
        PendingVerb::Clone {
            id: 1,
            old_head: model.host.acked.clone(),
        },
        ftl.snapshot_clone(1),
        |m: &mut SnapModel| m.host.acked = m.snapshot(1).expect("snapshot 1 acked").clone()
    );
    // Phase D: diverge away from the restored image again.
    for step in (0..SNAP_LBAS).filter(|step| step % 3 != 1) {
        if write(ftl, model, step)? {
            return Ok(true);
        }
    }

    // Online merge of snapshot 1 with host writes racing the cursor.
    verb!(
        PendingVerb::MergeBegin,
        ftl.merge_begin(1),
        |m: &mut SnapModel| {
            m.merging = Some(MergeModel {
                id: 1,
                post_begin: Image::new(),
            })
        }
    );
    if write(ftl, model, 2)? {
        return Ok(true);
    }
    // Merge steps are pure RAM — no device op, so no cut can land in them.
    ftl.merge_step(SNAP_LBAS / 3)?;
    if write(ftl, model, 9)? {
        return Ok(true);
    }
    while !ftl.merge_step(SNAP_LBAS / 3)? {}
    verb!(
        PendingVerb::MergeCommit,
        ftl.merge_commit(),
        |m: &mut SnapModel| {
            let merged = m.merged_image();
            let id = m.merging.take().expect("merge in flight").id;
            m.host.acked = merged;
            m.snaps.retain(|(i, _)| *i != id);
        }
    );

    // Phase E: keep writing on the merged device.
    for step in 0..SNAP_LBAS {
        if write(ftl, model, step)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Every page of the snapshot sweep's space as `image` holds it (`None`:
/// never written).
fn whole(image: &Image) -> impl Iterator<Item = (u64, Option<u64>)> + '_ {
    (0..SNAP_LBAS).map(|lba| (lba, image.get(&lba).copied()))
}

fn check_snapshot(
    kind: LayerKind,
    swl: Option<SwlConfig>,
    rounds: u64,
    plan: FaultPlan,
    out: &mut CutPoint,
) {
    let mut ftl = snapshot_build(kind, swl, plan);
    let mut model = SnapModel::default();
    if !out.was_cut(snapshot_replay(&mut ftl, rounds, &mut model)) {
        return;
    }
    let mut chip = ftl.into_device();
    out.restore_power(std::slice::from_mut(&mut chip));
    let Some(mut ftl) = out.remounted(PageMappedFtl::mount(chip, snap_ftl_config())) else {
        return;
    };

    // Refcount identity after recovery: Σ refs == live mappings (no merge
    // survives a crash, so no pending releases either).
    match ftl.snapshot_audit() {
        Some(audit) if audit.refcount_sum == audit.mapping_count && audit.pending_merge == 0 => {}
        audit => {
            out.flag(
                RecoveryError,
                format_args!("refcount audit broken: {audit:?}"),
            );
            return;
        }
    }

    let ids = ftl.snapshot_ids();
    let merge_target = model.merging.as_ref().map(|m| m.id);
    // Every acked snapshot must still exist with its exact frozen image —
    // unless the cut landed inside the verb that was removing it.
    for (id, image) in &model.snaps {
        let removable = match &model.pending {
            Some(PendingVerb::Delete { id: d }) => d == id,
            Some(PendingVerb::MergeCommit) => merge_target == Some(*id),
            _ => false,
        };
        if !ids.contains(id) {
            if !removable {
                out.flag(LostAcked, format_args!("acked snapshot {id} is gone"));
            }
        } else if let Some(lost) =
            lost_pages(whole(image), &[], |lba| ftl.read_snapshot(*id, lba)).first()
        {
            out.flag(LostAcked, format_args!("snapshot {id}: {lost}"));
        }
    }
    // No snapshot the host never acked may appear — except the one whose
    // create was cut mid-commit, which must then carry the exact image.
    for &id in &ids {
        if model.snapshot(id).is_some() {
            continue;
        }
        match &model.pending {
            Some(PendingVerb::Create { id: c }) if *c == id => {
                let expected = whole(&model.host.acked);
                if let Some(lost) =
                    lost_pages(expected, &[], |lba| ftl.read_snapshot(id, lba)).first()
                {
                    out.flag(
                        LostAcked,
                        format_args!("half-created snapshot {id}: {lost}"),
                    );
                }
            }
            _ => out.flag(
                RecoveryError,
                format_args!("unacked snapshot {id} appeared"),
            ),
        }
    }

    // The head must match exactly one legal full image — mixtures are the
    // hybrid states the manifest commit point exists to rule out.
    let mut head =
        |image: &Image| lost_pages(whole(image), &model.host.in_flight, |lba| ftl.read(lba));
    let lost = match (&model.pending, merge_target) {
        // Mid-merge (or mid-begin/mid-commit): the snapshot's survival
        // picks the branch, and the head must match that branch wholly.
        (_, Some(id)) if ids.contains(&id) => head(&model.host.acked),
        (_, Some(_)) => head(&model.merged_image()),
        // Mid-clone: old head or clone image, never a page-wise mixture.
        (Some(PendingVerb::Clone { id, old_head }), None) => {
            let lost = head(old_head);
            if lost.is_empty() {
                lost
            } else {
                head(model.snapshot(*id).expect("clone target is acked"))
            }
        }
        _ => head(&model.host.acked),
    };
    if let Some(lost) = lost.first() {
        out.flag(
            LostAcked,
            format_args!("head matches no legal image: {lost}"),
        );
    }

    // The device keeps serving: plain writes and a fresh snapshot cycle.
    if out.resume(SNAP_LBAS, 2, 0x50AC_0000, |lba, value| {
        ftl.write(lba, value)
    }) {
        let resumed = ftl.snapshot_create(99).is_ok()
            && ftl
                .read_snapshot(99, 0)
                .is_ok_and(|got| got == ftl.read(0).unwrap_or(None))
            && ftl.snapshot_delete(99).is_ok();
        if !resumed {
            out.flag(ResumeFailure, "post-recovery snapshot cycle failed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cut_point(stats: &mut SweepStats) -> CutPoint<'_> {
        CutPoint {
            ctx: "test".to_owned(),
            stats,
        }
    }

    #[test]
    fn an_acked_write_the_device_never_took_is_lost_acked() {
        let mut layer =
            Layer::build(LayerKind::Ftl, device(), None, &SimConfig::default()).expect("build");
        layer.write(3, 0x33).expect("write");
        let mut model = HostModel::default();
        model.submit(3, 0x33);
        model.submit(5, 0xDEAD);
        model.ack();
        let mut stats = SweepStats::default();
        cut_point(&mut stats).read_back(&model, |lba| layer.read(lba));
        assert_eq!((stats.lost_acked, stats.violations()), (1, 1));
        assert!(stats.messages[0].contains("lba 5"), "{:?}", stats.messages);
    }

    #[test]
    fn a_value_in_flight_at_the_cut_may_or_may_not_have_landed() {
        let mut layer =
            Layer::build(LayerKind::Ftl, device(), None, &SimConfig::default()).expect("build");
        layer.write(3, 0x34).expect("write");
        let mut model = HostModel::default();
        model.submit(3, 0x33);
        model.ack();
        model.submit(3, 0x34);
        model.submit(4, 0x44);
        let mut stats = SweepStats::default();
        cut_point(&mut stats).read_back(&model, |lba| layer.read(lba));
        assert_eq!((stats.violations(), stats.vanished), (0, 1));
    }

    #[test]
    fn a_leveler_two_checkpoints_stale_is_a_stale_checkpoint() {
        let leveler = SwLeveler::new(BLOCKS, swl_config()).expect("leveler");
        let mut nvram = DualBuffer::new();
        nvram.save(&leveler);
        let ecnt = leveler.ecnt();
        let mut stats = SweepStats::default();
        let recovered = cut_point(&mut stats).recovered_leveler(
            swl_config(),
            &mut nvram,
            &[ecnt, ecnt + 1, ecnt + 2],
            false,
        );
        assert!(recovered.is_some());
        assert_eq!((stats.stale_checkpoints, stats.violations()), (1, 1));
        // Fresh enough: the previous checkpoint is inside the window.
        let mut stats = SweepStats::default();
        cut_point(&mut stats).recovered_leveler(swl_config(), &mut nvram, &[ecnt, 9], false);
        assert_eq!(stats.violations(), 0);
    }

    #[test]
    fn a_replay_the_cut_never_reaches_is_a_recovery_error() {
        let sweep = Sweep {
            stack: Stack::Plain,
            kind: LayerKind::Ftl,
            swl: None,
        };
        let mut stats = SweepStats::default();
        sweep.check(2, u64::MAX, false, &mut stats);
        assert_eq!(
            (stats.points, stats.recovery_errors, stats.violations()),
            (1, 1, 1)
        );
        assert!(
            stats.messages[0].contains("FTL swl=off cut_at="),
            "{:?}",
            stats.messages
        );
    }
}
