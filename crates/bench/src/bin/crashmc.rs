//! Crash-consistency model checker: exhaustively cut power at **every**
//! operation boundary of a GC/SWL-heavy workload, remount, and verify the
//! recovery contract at each point.
//!
//! For every configuration (FTL/NFTL × SWL on/off × torn/clean cut) the
//! sweep covers all cut points `0..total_ops` and checks:
//!
//! 1. no acked write is lost (the page being written at the cut may read
//!    the new, unacked value — anything else is a violation);
//! 2. the SW Leveler recovered from the NVRAM dual buffer is at most one
//!    checkpoint interval stale;
//! 3. the stack keeps serving writes after remount and the unevenness
//!    level settles below the threshold `T`.
//!
//! Violations are counted and summarised; the exit code is non-zero when
//! any cut point breaks the contract. The integration test
//! `tests/crash_consistency.rs` runs a strided subset of the same checks
//! in CI.
//!
//! A second sweep repeats the exercise on a 2-channel striped array driven
//! by span-sized host requests, so power cuts land *mid-stripe*: the lanes
//! that already acked their sub-writes must keep them across the remount,
//! on every channel.
//!
//! A fourth sweep interposes the **service write cache**: host requests go
//! through a cache-enabled `Service` whose flush is the only durability
//! ack. Writes acked only as *accepted* live in RAM until flush-back, so
//! the sweep checks both sides of the service's durability contract —
//! every flush-acked write survives every cut point, and un-acked cached
//! writes really do vanish at some cut points (counted and required, so
//! the lossy side of the contract is asserted, not assumed).
//!
//! A fifth sweep cuts power across the **snapshot plane**: a
//! snapshot-enabled FTL drives creates, a delete, a rollback clone, and an
//! online merge with host writes interleaved between merge steps, with the
//! rail dropping at every device-op boundary — including inside the
//! dual-buffer manifest commits that are each verb's atomic point. After
//! remount the sweep demands: every *acked* `snapshot_create` is still
//! present with its exact frozen image; a verb that was cut mid-commit
//! either fully happened or fully didn't (a rolled-back head must match
//! the old head or the clone image page for page — never a mixture); a
//! mid-merge cut resolves to the origin (snapshot intact, post-begin
//! acked writes kept) or the merged device, never a hybrid; and the
//! refcount identity (`Σ refs == live mappings`) holds after recovery.
//!
//! Usage: `crashmc [rounds]` (default 16; higher = more cut points)

use std::collections::HashMap;
use std::process::ExitCode;

use flash_bench::print_table;
use flash_sim::service::cache::CacheConfig;
use flash_sim::{
    Engine, EngineConfig, Layer, LayerKind, Service, ServiceConfig, SimConfig, SimError,
    StripedLayer, SwlCoordination, TranslationLayer,
};
use flash_trace::TraceEvent;
use ftl::{FtlConfig, FtlError, PageMappedFtl, SnapshotConfig};
use hotid::HotDataConfig;
use nand::{CellKind, ChannelGeometry, FaultPlan, Geometry, NandDevice, NandError};
use nftl::NftlError;
use swl_core::persist::{DualBuffer, PersistError};
use swl_core::{SwLeveler, SwlConfig};

const BLOCKS: u32 = 24;
const PAGES: u32 = 8;
/// Acked writes between SW Leveler checkpoints (one "interval").
const SAVE_EVERY: u64 = 25;
/// Lanes of the striped sweep.
const CHANNELS: u32 = 2;
/// Blocks per lane of the striped sweep.
const LANE_BLOCKS: u32 = 16;
/// Host request size (pages) of the striped sweep — every request spans
/// both channels, so any cut point inside one lands mid-stripe.
const SPAN: u64 = 4;
/// Host queue depth of the threaded-engine sweep: several requests are in
/// flight when the rail cuts, so the recovery contract is checked with
/// writes the host has *not* yet been acked for alongside ones it has.
const ENGINE_QD: usize = 4;
/// Worker threads of the threaded-engine sweep (one per channel).
const ENGINE_THREADS: u32 = 2;
/// Submitted requests between `flush` barriers — the engine host model's
/// ack boundary: everything flushed is acked, everything after is in
/// flight.
const FLUSH_EVERY: u64 = 4;
/// RAM write-cache capacity (pages) of the service sweep — small enough
/// that capacity evictions and watermark batches fire between flushes.
const CACHE_PAGES: usize = 8;

fn device() -> NandDevice {
    NandDevice::new(
        Geometry::new(BLOCKS, PAGES, 2048),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
    )
}

fn swl_config() -> SwlConfig {
    SwlConfig::new(8, 1).with_seed(7)
}

fn is_power_cut(e: &SimError) -> bool {
    matches!(
        e,
        SimError::Ftl(FtlError::Device(NandError::PowerCut))
            | SimError::Nftl(NftlError::Device(NandError::PowerCut))
    )
}

/// What the host believes about its own data across the crash.
#[derive(Default)]
struct HostModel {
    acked: HashMap<u64, u64>,
    in_flight: Option<(u64, u64)>,
}

/// Replays the deterministic workload until it completes or the armed
/// power cut fires; returns `Ok(true)` on a cut.
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
            model.in_flight = Some((lba, value));
            match layer.write(lba, value) {
                Ok(()) => {
                    model.acked.insert(lba, value);
                    acked_since_save += 1;
                    if layer.swl().is_some() && acked_since_save >= SAVE_EVERY {
                        let swl = layer.swl().unwrap();
                        nvram.save(swl);
                        saved_ecnts.push(swl.ecnt());
                        acked_since_save = 0;
                    }
                }
                Err(e) if is_power_cut(&e) => return Ok(true),
                Err(e) => return Err(e),
            }
        }
    }
    Ok(false)
}

#[derive(Default)]
struct SweepStats {
    points: u64,
    lost_acked: u64,
    stale_checkpoints: u64,
    resume_failures: u64,
    recovery_errors: u64,
}

/// One crash/remount/verify cycle; violations are recorded, not panicked.
fn check_cut_point(
    kind: LayerKind,
    with_swl: bool,
    rounds: u64,
    cut_at: u64,
    torn: bool,
    stats: &mut SweepStats,
) {
    stats.points += 1;
    let cfg = SimConfig {
        fault: Some(FaultPlan::new(1).with_power_cut(cut_at, torn)),
        ..SimConfig::default()
    };
    let swl = with_swl.then(swl_config);
    let mut layer = Layer::build(kind, device(), swl, &cfg).expect("build");
    let mut nvram = DualBuffer::new();
    let mut model = HostModel::default();
    let mut saved_ecnts = Vec::new();
    match replay(&mut layer, rounds, &mut nvram, &mut model, &mut saved_ecnts) {
        Ok(true) => {}
        Ok(false) | Err(_) => {
            stats.recovery_errors += 1;
            return;
        }
    }

    let mut chip = layer.into_device();
    chip.power_cycle();
    let mut layer = match Layer::mount(kind, chip, &SimConfig::default()) {
        Ok(l) => l,
        Err(_) => {
            stats.recovery_errors += 1;
            return;
        }
    };

    if with_swl {
        // Model a checkpoint torn by the same crash.
        if torn {
            if let Some(slot) = nvram.slot_mut(0) {
                let cut_len = slot.len() / 2;
                slot.truncate(cut_len);
            }
        }
        match nvram.recover() {
            Ok(snapshot) => match snapshot.into_leveler() {
                Ok(leveler) => {
                    let fresh_enough = saved_ecnts
                        .iter()
                        .rev()
                        .take(2)
                        .any(|&e| e == leveler.ecnt());
                    if !fresh_enough {
                        stats.stale_checkpoints += 1;
                    }
                    layer.attach_swl(leveler);
                }
                Err(_) => stats.recovery_errors += 1,
            },
            Err(PersistError::NoValidSnapshot) => {
                if saved_ecnts.len() > 1 || (!torn && !saved_ecnts.is_empty()) {
                    stats.stale_checkpoints += 1;
                }
                layer.attach_swl(SwLeveler::new(BLOCKS, swl_config()).unwrap());
            }
            Err(_) => stats.recovery_errors += 1,
        }
    }

    for (&lba, &value) in &model.acked {
        let got = match layer.read(lba) {
            Ok(g) => g,
            Err(_) => {
                stats.lost_acked += 1;
                continue;
            }
        };
        let in_flight_ok = matches!(model.in_flight, Some((l, v)) if l == lba && got == Some(v));
        if got != Some(value) && !in_flight_ok {
            stats.lost_acked += 1;
        }
    }

    let lbas = layer.logical_pages().min(28);
    for round in 0..3u64 {
        for lba in 0..lbas {
            if layer.write(lba, 0xCAFE_0000 | (round << 8) | lba).is_err() {
                stats.resume_failures += 1;
                return;
            }
        }
    }
    if with_swl && layer.swl().is_some_and(SwLeveler::needs_leveling) {
        stats.resume_failures += 1;
    }
}

fn striped_geometry() -> ChannelGeometry {
    ChannelGeometry::new(CHANNELS, 1, Geometry::new(LANE_BLOCKS, PAGES, 2048))
}

fn striped_build(kind: LayerKind, with_swl: bool, cfg: &SimConfig) -> StripedLayer {
    StripedLayer::build(
        kind,
        striped_geometry(),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
        with_swl.then(swl_config),
        SwlCoordination::PerChannel,
        cfg,
    )
    .expect("striped build")
}

/// Replays span-sized host requests over the striped array until they
/// complete or the armed power cut fires on some lane; `Ok(true)` on a cut.
fn striped_replay(
    striped: &mut StripedLayer,
    rounds: u64,
    model: &mut HostModel,
) -> Result<bool, SimError> {
    let spans = (striped.logical_pages() / SPAN).min(8);
    for round in 0..rounds {
        for i in 0..spans {
            let base = (if i % 3 == 0 { i } else { (round + i) % 2 }) * SPAN;
            for off in 0..SPAN {
                let lba = base + off;
                let value = (round << 32) | (i << 16) | (off << 8) | 0xA5;
                model.in_flight = Some((lba, value));
                match striped.write(lba, value) {
                    Ok(()) => {
                        model.acked.insert(lba, value);
                    }
                    Err(e) if is_power_cut(&e) => return Ok(true),
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(false)
}

/// One striped crash/remount/verify cycle: after the mid-stripe cut, every
/// acked page on every channel must survive the remount, and the array
/// must keep serving writes.
fn check_striped_cut_point(
    kind: LayerKind,
    with_swl: bool,
    rounds: u64,
    cut_at: u64,
    torn: bool,
    stats: &mut SweepStats,
) {
    stats.points += 1;
    let cfg = SimConfig {
        fault: Some(FaultPlan::new(1).with_power_cut(cut_at, torn)),
        ..SimConfig::default()
    };
    let mut striped = striped_build(kind, with_swl, &cfg);
    let mut model = HostModel::default();
    match striped_replay(&mut striped, rounds, &mut model) {
        Ok(true) => {}
        Ok(false) | Err(_) => {
            stats.recovery_errors += 1;
            return;
        }
    }

    let mut devices = striped.into_devices();
    for device in &mut devices {
        // One shared power rail: the cut that fired on one lane is consumed
        // for the whole array, so disarm the lanes it never reached.
        device.disarm_power_cut();
        device.power_cycle();
    }
    let mut striped = match StripedLayer::mount(
        kind,
        striped_geometry(),
        devices,
        SwlCoordination::PerChannel,
        &SimConfig::default(),
    ) {
        Ok(s) => s,
        Err(_) => {
            stats.recovery_errors += 1;
            return;
        }
    };

    for (&lba, &value) in &model.acked {
        let got = match striped.read(lba) {
            Ok(g) => g,
            Err(_) => {
                stats.lost_acked += 1;
                continue;
            }
        };
        let in_flight_ok = matches!(model.in_flight, Some((l, v)) if l == lba && got == Some(v));
        if got != Some(value) && !in_flight_ok {
            stats.lost_acked += 1;
        }
    }

    let lbas = striped.logical_pages().min(SPAN * 8);
    for round in 0..2u64 {
        for lba in 0..lbas {
            if striped.write(lba, 0xD00D_0000 | (round << 8) | lba).is_err() {
                stats.resume_failures += 1;
                return;
            }
        }
    }
}

fn engine_build(
    kind: LayerKind,
    with_swl: bool,
    coordination: SwlCoordination,
    cfg: &SimConfig,
) -> Engine {
    Engine::new(
        kind,
        striped_geometry(),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
        with_swl.then(swl_config),
        coordination,
        cfg,
        EngineConfig::default()
            .with_threads(ENGINE_THREADS)
            .with_queue_depth(ENGINE_QD),
    )
    .expect("engine build")
}

/// Host model of the queue-depth-`ENGINE_QD` engine run. The engine writes
/// its own page tokens (one global counter, incremented per page in
/// submission order), so the model mirrors that counter to know which
/// value every submitted page will carry.
#[derive(Default)]
struct EngineModel {
    /// Writes acknowledged by a successful `flush`: these MUST survive.
    acked: HashMap<u64, u64>,
    /// Writes submitted since the last successful `flush`, in order: the
    /// host holds no ack for them, so after a crash each page may read any
    /// of its in-flight values or the last acked one.
    pending: Vec<(u64, u64)>,
    next_token: u64,
}

impl EngineModel {
    fn ack_pending(&mut self) {
        for (lba, value) in self.pending.drain(..) {
            self.acked.insert(lba, value);
        }
    }
}

/// Replays span-sized host requests through the threaded engine with up to
/// `ENGINE_QD` requests in flight, flushing every [`FLUSH_EVERY`] requests;
/// `Ok(true)` when the armed power cut surfaces.
fn engine_replay(
    engine: &mut Engine,
    rounds: u64,
    model: &mut EngineModel,
) -> Result<bool, SimError> {
    let spans = (engine.logical_pages() / SPAN).min(8);
    let mut at_ns = 0u64;
    let mut since_flush = 0u64;
    for round in 0..rounds {
        for i in 0..spans {
            let base = (if i % 3 == 0 { i } else { (round + i) % 2 }) * SPAN;
            at_ns += 1;
            for off in 0..SPAN {
                model.next_token += 1;
                model.pending.push((base + off, model.next_token));
            }
            match engine.submit(TraceEvent::write_span(at_ns, base, SPAN as u32)) {
                Ok(()) => {}
                Err(e) if is_power_cut(&e) => return Ok(true),
                Err(e) => return Err(e),
            }
            since_flush += 1;
            if since_flush >= FLUSH_EVERY {
                since_flush = 0;
                match engine.flush() {
                    Ok(()) => model.ack_pending(),
                    Err(e) if is_power_cut(&e) => return Ok(true),
                    Err(e) => return Err(e),
                }
            }
        }
    }
    match engine.flush() {
        Ok(()) => model.ack_pending(),
        Err(e) if is_power_cut(&e) => return Ok(true),
        Err(e) => return Err(e),
    }
    Ok(false)
}

/// One threaded-engine crash/remount/verify cycle: the cut lands with
/// several host requests in flight; the shared rail then disarms every
/// lane. After remount, every *acked* write must read back — an lba with
/// in-flight writes may also read any of those unacked candidates, and the
/// lanes must keep serving writes.
fn check_engine_cut_point(
    kind: LayerKind,
    with_swl: bool,
    coordination: SwlCoordination,
    rounds: u64,
    cut_at: u64,
    torn: bool,
    stats: &mut SweepStats,
) {
    stats.points += 1;
    let cfg = SimConfig {
        fault: Some(FaultPlan::new(1).with_power_cut(cut_at, torn)),
        ..SimConfig::default()
    };
    let mut engine = engine_build(kind, with_swl, coordination, &cfg);
    let mut model = EngineModel::default();
    match engine_replay(&mut engine, rounds, &mut model) {
        Ok(true) => {}
        Ok(false) | Err(_) => {
            stats.recovery_errors += 1;
            return;
        }
    }

    let mut devices = engine.into_devices();
    for device in &mut devices {
        // Shared power rail: the cut that fired on one lane took the whole
        // array down, so disarm the lanes it never reached.
        device.disarm_power_cut();
        device.power_cycle();
    }
    let geometry = striped_geometry();
    let mut lanes = Vec::with_capacity(devices.len());
    for device in devices {
        match Layer::mount(kind, device, &SimConfig::default()) {
            Ok(lane) => lanes.push(lane),
            Err(_) => {
                stats.recovery_errors += 1;
                return;
            }
        }
    }

    let mut candidates: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(lba, value) in &model.pending {
        candidates.entry(lba).or_default().push(value);
    }
    for (&lba, &value) in &model.acked {
        let lane = geometry.channel_of(lba) as usize;
        let got = match lanes[lane].read(geometry.lane_lba(lba)) {
            Ok(g) => g,
            Err(_) => {
                stats.lost_acked += 1;
                continue;
            }
        };
        let in_flight_ok = candidates
            .get(&lba)
            .is_some_and(|values| values.iter().any(|&v| got == Some(v)));
        if got != Some(value) && !in_flight_ok {
            stats.lost_acked += 1;
        }
    }

    let lbas = (lanes[0].logical_pages() * u64::from(CHANNELS)).min(SPAN * 8);
    for round in 0..2u64 {
        for lba in 0..lbas {
            let lane = geometry.channel_of(lba) as usize;
            if lanes[lane]
                .write(geometry.lane_lba(lba), 0xBEEF_0000 | (round << 8) | lba)
                .is_err()
            {
                stats.resume_failures += 1;
                return;
            }
        }
    }
}

fn service_build(kind: LayerKind, with_swl: bool, cfg: &SimConfig) -> Service {
    // An eager admission threshold so the small cache absorbs the
    // workload's hot spans within a couple of rewrites.
    let hot = HotDataConfig {
        hot_threshold: 2,
        ..HotDataConfig::default()
    };
    Service::build(
        kind,
        striped_geometry(),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
        with_swl.then(swl_config),
        SwlCoordination::PerChannel,
        cfg,
        ServiceConfig::default()
            .with_engine(
                EngineConfig::default()
                    .with_threads(ENGINE_THREADS)
                    .with_queue_depth(ENGINE_QD),
            )
            .with_cache(CacheConfig::sized(CACHE_PAGES).with_hot(hot)),
    )
    .expect("service build")
}

/// Host model of the served-with-cache run. The client supplies page
/// values, so no token mirroring is needed: `acked` holds writes covered
/// by a successful `flush` (these MUST survive), `pending` the writes
/// acked only as *accepted* since then — the RAM cache makes losing those
/// the common case, which the sweep counts to prove the lossy side of the
/// contract is exercised.
#[derive(Default)]
struct ServiceModel {
    acked: HashMap<u64, u64>,
    pending: Vec<(u64, u64)>,
}

impl ServiceModel {
    fn ack_pending(&mut self) {
        for (lba, value) in self.pending.drain(..) {
            self.acked.insert(lba, value);
        }
    }
}

/// Replays span-sized host writes through the cache-enabled service,
/// flushing every [`FLUSH_EVERY`] requests; `Ok(true)` when the armed
/// power cut surfaces. Cache-absorbed writes touch no device op, so cut
/// points land only on real flash traffic (flush-backs, evictions, GC).
fn service_replay(
    service: &mut Service,
    rounds: u64,
    model: &mut ServiceModel,
) -> Result<bool, SimError> {
    let spans = (service.logical_pages() / SPAN).min(8);
    let mut since_flush = 0u64;
    for round in 0..rounds {
        for i in 0..spans {
            let base = (if i % 3 == 0 { i } else { (round + i) % 2 }) * SPAN;
            let values: Vec<u64> = (0..SPAN)
                .map(|off| (round << 32) | (i << 16) | (off << 8) | 0x5C)
                .collect();
            for (off, &value) in values.iter().enumerate() {
                model.pending.push((base + off as u64, value));
            }
            match service.write(base, &values) {
                Ok(()) => {}
                Err(e) if is_power_cut(&e) => return Ok(true),
                Err(e) => return Err(e),
            }
            since_flush += 1;
            if since_flush >= FLUSH_EVERY {
                since_flush = 0;
                match service.flush() {
                    Ok(()) => model.ack_pending(),
                    Err(e) if is_power_cut(&e) => return Ok(true),
                    Err(e) => return Err(e),
                }
            }
        }
    }
    match service.flush() {
        Ok(()) => model.ack_pending(),
        Err(e) if is_power_cut(&e) => return Ok(true),
        Err(e) => return Err(e),
    }
    Ok(false)
}

/// One service crash/remount/verify cycle: the cut lands with dirty cache
/// entries and queued engine writes in flight. Teardown drops the RAM
/// cache (exactly what a power cut does), the shared rail disarms every
/// lane, and after remount every *flush-acked* write must read back —
/// newer un-acked candidates are also legal. Un-acked writes whose value
/// is nowhere to be found are counted in `vanished`, not as violations:
/// the contract says they *may* vanish, and the sweep requires that some
/// actually do.
fn check_service_cut_point(
    kind: LayerKind,
    with_swl: bool,
    rounds: u64,
    cut_at: u64,
    torn: bool,
    stats: &mut SweepStats,
    vanished: &mut u64,
) {
    stats.points += 1;
    let cfg = SimConfig {
        fault: Some(FaultPlan::new(1).with_power_cut(cut_at, torn)),
        ..SimConfig::default()
    };
    let mut service = service_build(kind, with_swl, &cfg);
    let mut model = ServiceModel::default();
    match service_replay(&mut service, rounds, &mut model) {
        Ok(true) => {}
        Ok(false) | Err(_) => {
            stats.recovery_errors += 1;
            return;
        }
    }

    let mut devices = service.into_devices();
    for device in &mut devices {
        // Shared power rail: the cut that fired on one lane took the whole
        // array down, so disarm the lanes it never reached.
        device.disarm_power_cut();
        device.power_cycle();
    }
    let geometry = striped_geometry();
    let mut lanes = Vec::with_capacity(devices.len());
    for device in devices {
        match Layer::mount(kind, device, &SimConfig::default()) {
            Ok(lane) => lanes.push(lane),
            Err(_) => {
                stats.recovery_errors += 1;
                return;
            }
        }
    }

    let mut candidates: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut last_pending: HashMap<u64, u64> = HashMap::new();
    for &(lba, value) in &model.pending {
        candidates.entry(lba).or_default().push(value);
        last_pending.insert(lba, value);
    }
    for (&lba, &value) in &model.acked {
        let lane = geometry.channel_of(lba) as usize;
        let got = match lanes[lane].read(geometry.lane_lba(lba)) {
            Ok(g) => g,
            Err(_) => {
                stats.lost_acked += 1;
                continue;
            }
        };
        let in_flight_ok = candidates
            .get(&lba)
            .is_some_and(|values| values.iter().any(|&v| got == Some(v)));
        if got != Some(value) && !in_flight_ok {
            stats.lost_acked += 1;
        }
    }
    for (&lba, &value) in &last_pending {
        let lane = geometry.channel_of(lba) as usize;
        if let Ok(got) = lanes[lane].read(geometry.lane_lba(lba)) {
            if got != Some(value) {
                *vanished += 1;
            }
        }
    }

    let lbas = (lanes[0].logical_pages() * u64::from(CHANNELS)).min(SPAN * 8);
    for round in 0..2u64 {
        for lba in 0..lbas {
            let lane = geometry.channel_of(lba) as usize;
            if lanes[lane]
                .write(geometry.lane_lba(lba), 0xFACE_0000 | (round << 8) | lba)
                .is_err()
            {
                stats.resume_failures += 1;
                return;
            }
        }
    }
}

/// Blocks per manifest buffer of the snapshot sweep. Three keep the
/// workload's epoch lists (two creates, a clone, a merge splice) and the
/// post-recovery resume snapshot inside one buffer on the 8-page geometry.
const SNAP_MANIFEST_BLOCKS: u32 = 3;
/// Logical pages the snapshot sweep touches.
const SNAP_LBAS: u64 = 24;

fn snap_ftl_config() -> FtlConfig {
    FtlConfig::new()
        .with_overprovision_blocks(2)
        .with_snapshots(SnapshotConfig::new().with_manifest_blocks(SNAP_MANIFEST_BLOCKS))
}

fn is_ftl_power_cut(e: &FtlError) -> bool {
    matches!(e, FtlError::Device(NandError::PowerCut))
}

/// A snapshot verb whose atomic point (the manifest commit) the cut may
/// have landed inside: recovery is allowed to show the verb fully done or
/// fully undone, nothing in between.
enum PendingVerb {
    Create { id: u64 },
    Delete { id: u64 },
    Clone { id: u64, old_head: HashMap<u64, u64> },
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
    post_begin: HashMap<u64, u64>,
}

/// What the host believes across the snapshot-sweep crash.
#[derive(Default)]
struct SnapModel {
    acked: HashMap<u64, u64>,
    in_flight: Option<(u64, u64)>,
    /// Acked snapshots in creation order: id → frozen image.
    snaps: Vec<(u64, HashMap<u64, u64>)>,
    pending: Option<PendingVerb>,
    merging: Option<MergeModel>,
}

impl SnapModel {
    fn snapshot(&self, id: u64) -> Option<&HashMap<u64, u64>> {
        self.snaps.iter().find(|(i, _)| *i == id).map(|(_, img)| img)
    }

    /// The head image of the *merged* branch: acked overlaid with the
    /// snapshot image, post-begin writes winning both.
    fn merged_image(&self) -> HashMap<u64, u64> {
        let m = self.merging.as_ref().expect("merge in flight");
        let image = self.snapshot(m.id).expect("merge target is acked");
        let mut merged = self.acked.clone();
        for (&lba, &value) in image {
            if !m.post_begin.contains_key(&lba) {
                merged.insert(lba, value);
            }
        }
        merged
    }
}

/// One host write through the snapshot-sweep FTL; `Ok(true)` on a cut.
fn snap_write(
    ftl: &mut PageMappedFtl,
    model: &mut SnapModel,
    lba: u64,
    value: u64,
) -> Result<bool, FtlError> {
    model.in_flight = Some((lba, value));
    match ftl.write(lba, value) {
        Ok(()) => {
            model.acked.insert(lba, value);
            if let Some(m) = model.merging.as_mut() {
                m.post_begin.insert(lba, value);
            }
            Ok(false)
        }
        Err(e) if is_ftl_power_cut(&e) => Ok(true),
        Err(e) => Err(e),
    }
}

/// The deterministic snapshot workload: wear-building writes, two creates,
/// a divergence, a delete, a rollback clone, an online merge with writes
/// interleaved between merge steps, then more writes. `Ok(true)` on a cut.
fn snapshot_replay(
    ftl: &mut PageMappedFtl,
    rounds: u64,
    model: &mut SnapModel,
) -> Result<bool, FtlError> {
    let mut value = 0u64;
    // Phase A: the hot/cold mix of the single-device sweep, scaled by
    // `rounds` so GC and SWL interleave with everything that follows.
    for round in 0..rounds.div_ceil(4).max(2) {
        for step in 0..SNAP_LBAS {
            let lba = if step % 3 == 0 { step } else { (round + step) % 4 };
            value += 1;
            if snap_write(ftl, model, lba, value)? {
                return Ok(true);
            }
        }
    }

    // Helper-free verb pattern: arm `pending`, call, settle the model.
    macro_rules! verb {
        ($pending:expr, $call:expr, $on_ok:expr) => {{
            model.pending = Some($pending);
            match $call {
                Ok(()) => {
                    model.pending = None;
                    #[allow(clippy::redundant_closure_call)]
                    $on_ok(model);
                }
                Err(e) if is_ftl_power_cut(&e) => return Ok(true),
                Err(e) => return Err(e),
            }
        }};
    }

    verb!(
        PendingVerb::Create { id: 1 },
        ftl.snapshot_create(1),
        |m: &mut SnapModel| m.snaps.push((1, m.acked.clone()))
    );

    // Phase B: diverge half the space away from snapshot 1.
    for step in 0..SNAP_LBAS / 2 {
        value += 1;
        if snap_write(ftl, model, step * 2, value)? {
            return Ok(true);
        }
    }

    verb!(
        PendingVerb::Create { id: 2 },
        ftl.snapshot_create(2),
        |m: &mut SnapModel| m.snaps.push((2, m.acked.clone()))
    );

    // Phase C: diverge the other half.
    for step in 0..SNAP_LBAS / 2 {
        value += 1;
        if snap_write(ftl, model, step * 2 + 1, value)? {
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
            old_head: model.acked.clone(),
        },
        ftl.snapshot_clone(1),
        |m: &mut SnapModel| m.acked = m.snapshot(1).expect("snapshot 1 acked").clone()
    );

    // Phase D: diverge away from the restored image again.
    for step in 0..SNAP_LBAS {
        if step % 3 == 1 {
            continue;
        }
        value += 1;
        if snap_write(ftl, model, step, value)? {
            return Ok(true);
        }
    }

    // Online merge of snapshot 1 with host writes racing the cursor.
    verb!(PendingVerb::MergeBegin, ftl.merge_begin(1), |m: &mut SnapModel| {
        m.merging = Some(MergeModel {
            id: 1,
            post_begin: HashMap::new(),
        })
    });
    value += 1;
    if snap_write(ftl, model, 2, value)? {
        return Ok(true);
    }
    // Merge steps are pure RAM — no device op, so no cut can land in them.
    ftl.merge_step(SNAP_LBAS / 3)?;
    value += 1;
    if snap_write(ftl, model, 9, value)? {
        return Ok(true);
    }
    while !ftl.merge_step(SNAP_LBAS / 3)? {}
    verb!(PendingVerb::MergeCommit, ftl.merge_commit(), |m: &mut SnapModel| {
        let merged = m.merged_image();
        let id = m.merging.take().expect("merge in flight").id;
        m.acked = merged;
        m.snaps.retain(|(i, _)| *i != id);
    });

    // Phase E: keep writing on the merged device.
    for step in 0..SNAP_LBAS {
        value += 1;
        if snap_write(ftl, model, step, value)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Does the remounted head match `image` exactly (the in-flight write may
/// read its new value instead)?
fn head_matches(
    ftl: &mut PageMappedFtl,
    image: &HashMap<u64, u64>,
    in_flight: Option<(u64, u64)>,
) -> bool {
    for lba in 0..SNAP_LBAS {
        let got = match ftl.read(lba) {
            Ok(g) => g,
            Err(_) => return false,
        };
        let in_flight_ok = matches!(in_flight, Some((l, v)) if l == lba && got == Some(v));
        if got != image.get(&lba).copied() && !in_flight_ok {
            return false;
        }
    }
    true
}

/// Does remounted snapshot `id` match its frozen image exactly?
fn snapshot_matches(ftl: &mut PageMappedFtl, id: u64, image: &HashMap<u64, u64>) -> bool {
    for lba in 0..SNAP_LBAS {
        match ftl.read_snapshot(id, lba) {
            Ok(got) if got == image.get(&lba).copied() => {}
            _ => return false,
        }
    }
    true
}

/// One snapshot-sweep crash/remount/verify cycle (see the module docs'
/// fifth-sweep contract).
fn check_snapshot_cut_point(
    with_swl: bool,
    rounds: u64,
    cut_at: u64,
    torn: bool,
    stats: &mut SweepStats,
) {
    stats.points += 1;
    let chip = device().with_fault_plan(FaultPlan::new(1).with_power_cut(cut_at, torn));
    let config = snap_ftl_config();
    let mut ftl = if with_swl {
        PageMappedFtl::with_swl(chip, config, swl_config()).expect("snapshot build")
    } else {
        PageMappedFtl::new(chip, config).expect("snapshot build")
    };
    let mut model = SnapModel::default();
    match snapshot_replay(&mut ftl, rounds, &mut model) {
        Ok(true) => {}
        Ok(false) | Err(_) => {
            stats.recovery_errors += 1;
            return;
        }
    }

    let mut chip = ftl.into_device();
    chip.power_cycle();
    let mut ftl = match PageMappedFtl::mount(chip, snap_ftl_config()) {
        Ok(f) => f,
        Err(_) => {
            stats.recovery_errors += 1;
            return;
        }
    };

    // Refcount identity after recovery: Σ refs == live mappings (no merge
    // survives a crash, so no pending releases either).
    match ftl.snapshot_audit() {
        Some(audit)
            if audit.refcount_sum == audit.mapping_count && audit.pending_merge == 0 => {}
        _ => {
            stats.recovery_errors += 1;
            return;
        }
    }

    let ids = ftl.snapshot_ids();

    // Every acked snapshot must still exist with its exact frozen image —
    // unless the cut landed inside the verb that was removing it.
    for (id, image) in &model.snaps {
        let removable = match &model.pending {
            Some(PendingVerb::Delete { id: d }) => d == id,
            Some(PendingVerb::MergeCommit) => {
                model.merging.as_ref().is_some_and(|m| m.id == *id)
            }
            _ => false,
        };
        if !ids.contains(id) {
            if !removable {
                stats.lost_acked += 1;
            }
            continue;
        }
        if !snapshot_matches(&mut ftl, *id, image) {
            stats.lost_acked += 1;
        }
    }
    // No snapshot the host never acked may appear — except the one whose
    // create was cut mid-commit, which must then carry the exact image.
    for &id in &ids {
        if model.snaps.iter().any(|(i, _)| *i == id) {
            continue;
        }
        match &model.pending {
            Some(PendingVerb::Create { id: c }) if *c == id => {
                if !snapshot_matches(&mut ftl, id, &model.acked) {
                    stats.lost_acked += 1;
                }
            }
            _ => stats.recovery_errors += 1,
        }
    }

    // The head must match exactly one legal full image — mixtures are the
    // hybrid states the manifest commit point exists to rule out.
    let head_ok = match (&model.pending, &model.merging) {
        // Mid-merge (or mid-begin/mid-commit): the snapshot's survival
        // picks the branch, and the head must match that branch wholly.
        (_, Some(m)) => {
            if ids.contains(&m.id) {
                head_matches(&mut ftl, &model.acked, model.in_flight)
            } else {
                head_matches(&mut ftl, &model.merged_image(), model.in_flight)
            }
        }
        // Mid-clone: old head or clone image, never a page-wise mixture.
        (Some(PendingVerb::Clone { id, old_head }), None) => {
            let image = model.snapshot(*id).expect("clone target is acked").clone();
            head_matches(&mut ftl, old_head, model.in_flight)
                || head_matches(&mut ftl, &image, model.in_flight)
        }
        _ => head_matches(&mut ftl, &model.acked, model.in_flight),
    };
    if !head_ok {
        stats.lost_acked += 1;
    }

    // The device keeps serving: plain writes and a fresh snapshot cycle.
    for round in 0..2u64 {
        for lba in 0..SNAP_LBAS {
            if ftl.write(lba, 0x50AC_0000 | (round << 8) | lba).is_err() {
                stats.resume_failures += 1;
                return;
            }
        }
    }
    let resumed = ftl.snapshot_create(99).is_ok()
        && ftl.read_snapshot(99, 0).is_ok_and(|got| got == ftl.read(0).unwrap_or(None))
        && ftl.snapshot_delete(99).is_ok();
    if !resumed {
        stats.resume_failures += 1;
    }
}

fn main() -> ExitCode {
    let rounds: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("rounds must be a number"))
        .unwrap_or(16);

    println!(
        "crashmc: exhaustive power-cut sweep ({BLOCKS} blocks x {PAGES} pages, \
         {rounds} workload rounds)\n"
    );

    let mut rows = Vec::new();
    let mut grand_points = 0u64;
    let mut grand_violations = 0u64;
    for kind in [LayerKind::Ftl, LayerKind::Nftl] {
        for with_swl in [false, true] {
            // Baseline run without a cut: measures how many operation
            // boundaries the workload exposes.
            let cfg = SimConfig {
                fault: Some(FaultPlan::new(1)),
                ..SimConfig::default()
            };
            let swl = with_swl.then(swl_config);
            let mut layer = Layer::build(kind, device(), swl, &cfg).expect("baseline build");
            let mut nvram = DualBuffer::new();
            let mut model = HostModel::default();
            let mut saved = Vec::new();
            let cut = replay(&mut layer, rounds, &mut nvram, &mut model, &mut saved)
                .expect("baseline replay");
            assert!(!cut, "baseline run must not see a power cut");
            let total = layer.device().fault_ops();

            for torn in [false, true] {
                let mut stats = SweepStats::default();
                for cut_at in 0..total {
                    check_cut_point(kind, with_swl, rounds, cut_at, torn, &mut stats);
                }
                let violations = stats.lost_acked
                    + stats.stale_checkpoints
                    + stats.resume_failures
                    + stats.recovery_errors;
                grand_points += stats.points;
                grand_violations += violations;
                rows.push(vec![
                    kind.to_string(),
                    if with_swl { "on" } else { "off" }.to_owned(),
                    if torn { "torn" } else { "clean" }.to_owned(),
                    stats.points.to_string(),
                    stats.lost_acked.to_string(),
                    stats.stale_checkpoints.to_string(),
                    stats.resume_failures.to_string(),
                    stats.recovery_errors.to_string(),
                ]);
            }
        }
    }

    // Multi-channel: the same exhaustive sweep over the 2-channel striped
    // array, every cut landing mid-stripe.
    for kind in [LayerKind::Ftl, LayerKind::Nftl] {
        for with_swl in [false, true] {
            let cfg = SimConfig {
                fault: Some(FaultPlan::new(1)),
                ..SimConfig::default()
            };
            let mut striped = striped_build(kind, with_swl, &cfg);
            let mut model = HostModel::default();
            let cut = striped_replay(&mut striped, rounds, &mut model)
                .expect("striped baseline replay");
            assert!(!cut, "striped baseline run must not see a power cut");
            let total = striped
                .lanes()
                .iter()
                .map(|lane| lane.device().fault_ops())
                .max()
                .unwrap_or(0);

            for torn in [false, true] {
                let mut stats = SweepStats::default();
                for cut_at in 0..total {
                    check_striped_cut_point(kind, with_swl, rounds, cut_at, torn, &mut stats);
                }
                let violations = stats.lost_acked
                    + stats.stale_checkpoints
                    + stats.resume_failures
                    + stats.recovery_errors;
                grand_points += stats.points;
                grand_violations += violations;
                rows.push(vec![
                    format!("{kind}\u{d7}{CHANNELS}ch"),
                    if with_swl { "on" } else { "off" }.to_owned(),
                    if torn { "torn" } else { "clean" }.to_owned(),
                    stats.points.to_string(),
                    stats.lost_acked.to_string(),
                    stats.stale_checkpoints.to_string(),
                    stats.resume_failures.to_string(),
                    stats.recovery_errors.to_string(),
                ]);
            }
        }
    }

    // Threaded engine: the same mid-stripe cuts, but with `ENGINE_QD` host
    // requests in flight on `ENGINE_THREADS` real worker threads when the
    // shared rail drops — acked (flushed) writes must survive; in-flight
    // ones may land or not. The Global arms run with the leveler on: the
    // FTL's writes run ahead between erases there too, so the cut finds the
    // same window of unacknowledged requests (the NFTL's go page by page).
    let engine_arms = [
        (false, SwlCoordination::PerChannel, "off"),
        (true, SwlCoordination::PerChannel, "on"),
        (true, SwlCoordination::Global, "global"),
    ];
    for kind in [LayerKind::Ftl, LayerKind::Nftl] {
        for (with_swl, coordination, swl_label) in engine_arms {
            let cfg = SimConfig {
                fault: Some(FaultPlan::new(1)),
                ..SimConfig::default()
            };
            let mut engine = engine_build(kind, with_swl, coordination, &cfg);
            let mut model = EngineModel::default();
            let cut =
                engine_replay(&mut engine, rounds, &mut model).expect("engine baseline replay");
            assert!(!cut, "engine baseline run must not see a power cut");
            let total = engine
                .into_devices()
                .iter()
                .map(|device| device.fault_ops())
                .max()
                .unwrap_or(0);

            for torn in [false, true] {
                let mut stats = SweepStats::default();
                for cut_at in 0..total {
                    check_engine_cut_point(
                        kind,
                        with_swl,
                        coordination,
                        rounds,
                        cut_at,
                        torn,
                        &mut stats,
                    );
                }
                let violations = stats.lost_acked
                    + stats.stale_checkpoints
                    + stats.resume_failures
                    + stats.recovery_errors;
                grand_points += stats.points;
                grand_violations += violations;
                rows.push(vec![
                    format!("{kind}\u{d7}{CHANNELS}ch qd{ENGINE_QD}"),
                    swl_label.to_owned(),
                    if torn { "torn" } else { "clean" }.to_owned(),
                    stats.points.to_string(),
                    stats.lost_acked.to_string(),
                    stats.stale_checkpoints.to_string(),
                    stats.resume_failures.to_string(),
                    stats.recovery_errors.to_string(),
                ]);
            }
        }
    }

    // Service write cache: the same mid-stripe cuts with the RAM cache
    // interposed — flush is the only durability ack, so the sweep checks
    // flush-acked survival AND that un-acked cached writes really vanish.
    let mut vanished_unacked = 0u64;
    for kind in [LayerKind::Ftl, LayerKind::Nftl] {
        for with_swl in [false, true] {
            let cfg = SimConfig {
                fault: Some(FaultPlan::new(1)),
                ..SimConfig::default()
            };
            let mut service = service_build(kind, with_swl, &cfg);
            let mut model = ServiceModel::default();
            let cut =
                service_replay(&mut service, rounds, &mut model).expect("service baseline replay");
            assert!(!cut, "service baseline run must not see a power cut");
            let total = service
                .into_devices()
                .iter()
                .map(|device| device.fault_ops())
                .max()
                .unwrap_or(0);

            for torn in [false, true] {
                let mut stats = SweepStats::default();
                for cut_at in 0..total {
                    check_service_cut_point(
                        kind,
                        with_swl,
                        rounds,
                        cut_at,
                        torn,
                        &mut stats,
                        &mut vanished_unacked,
                    );
                }
                let violations = stats.lost_acked
                    + stats.stale_checkpoints
                    + stats.resume_failures
                    + stats.recovery_errors;
                grand_points += stats.points;
                grand_violations += violations;
                rows.push(vec![
                    format!("{kind}\u{d7}{CHANNELS}ch cache"),
                    if with_swl { "on" } else { "off" }.to_owned(),
                    if torn { "torn" } else { "clean" }.to_owned(),
                    stats.points.to_string(),
                    stats.lost_acked.to_string(),
                    stats.stale_checkpoints.to_string(),
                    stats.resume_failures.to_string(),
                    stats.recovery_errors.to_string(),
                ]);
            }
        }
    }

    // Snapshot plane: exhaustive cuts across creates, a delete, a rollback
    // clone, and an online merge — every manifest commit is a verb's atomic
    // point, so recovery must land on a whole pre- or post-verb image.
    for with_swl in [false, true] {
        let chip = device().with_fault_plan(FaultPlan::new(1));
        let config = snap_ftl_config();
        let mut ftl = if with_swl {
            PageMappedFtl::with_swl(chip, config, swl_config()).expect("snapshot baseline build")
        } else {
            PageMappedFtl::new(chip, config).expect("snapshot baseline build")
        };
        let mut model = SnapModel::default();
        let cut =
            snapshot_replay(&mut ftl, rounds, &mut model).expect("snapshot baseline replay");
        assert!(!cut, "snapshot baseline run must not see a power cut");
        let total = ftl.into_device().fault_ops();

        for torn in [false, true] {
            let mut stats = SweepStats::default();
            for cut_at in 0..total {
                check_snapshot_cut_point(with_swl, rounds, cut_at, torn, &mut stats);
            }
            let violations = stats.lost_acked
                + stats.stale_checkpoints
                + stats.resume_failures
                + stats.recovery_errors;
            grand_points += stats.points;
            grand_violations += violations;
            rows.push(vec![
                "ftl snap".to_owned(),
                if with_swl { "on" } else { "off" }.to_owned(),
                if torn { "torn" } else { "clean" }.to_owned(),
                stats.points.to_string(),
                stats.lost_acked.to_string(),
                stats.stale_checkpoints.to_string(),
                stats.resume_failures.to_string(),
                stats.recovery_errors.to_string(),
            ]);
        }
    }

    print_table(
        &[
            "layer", "swl", "cut", "points", "lost", "stale", "resume", "recover",
        ],
        &rows,
    );
    println!("\n{grand_points} cut points checked, {grand_violations} violations");
    println!(
        "cache sweep: {vanished_unacked} un-acked cached write(s) vanished across cut points \
         (the contract's lossy side, exercised)"
    );
    if grand_points < 1000 {
        println!("warning: fewer than 1000 cut points — raise the rounds argument");
    }
    if vanished_unacked == 0 {
        println!("crashmc: FAILED — cache sweep never lost an un-acked write; the lossy side of \
                  the durability contract went unexercised");
        return ExitCode::FAILURE;
    }
    if grand_violations == 0 {
        println!("crashmc: OK");
        ExitCode::SUCCESS
    } else {
        println!("crashmc: FAILED");
        ExitCode::FAILURE
    }
}
