//! Crash-consistency harness: replay a GC/SWL-heavy workload, cut power at
//! operation boundaries, remount, and check the recovery contract.
//!
//! The contract, for every cut point:
//!
//! 1. **No acked-write loss** — after remount every logical page reads the
//!    last value whose write returned `Ok`, except the single page whose
//!    write was in flight at the cut, which may read the new (unacked)
//!    value instead.
//! 2. **Bounded checkpoint staleness** — the SW Leveler recovered through
//!    [`DualBuffer::recover`] carries the `ecnt` of the newest or the
//!    previous checkpoint (at most one interval stale), even when the
//!    newest NVRAM slot was itself torn by the crash.
//! 3. **Wear leveling resumes** — after reattaching the recovered leveler
//!    the workload continues, and the unevenness level stays below the
//!    threshold `T` once leveling has run.
//!
//! Exhaustive all-cut-points sweeps live in the `crashmc` bench binary;
//! here each configuration strides across the op space and proptest
//! samples random (cut, torn) pairs so CI time stays bounded.

use std::collections::HashMap;

use flash_sim::{Layer, LayerKind, SimConfig, SimError, TranslationLayer};
use ftl::FtlError;
use nand::{CellKind, FaultPlan, Geometry, NandDevice, NandError};
use nftl::NftlError;
use proptest::prelude::*;
use swl_core::persist::{DualBuffer, PersistError};
use swl_core::{SwLeveler, SwlConfig};

const BLOCKS: u32 = 24;
const PAGES: u32 = 8;
const ROUNDS: u64 = 10;
/// Acked writes between SW Leveler checkpoints (one "interval").
const SAVE_EVERY: u64 = 25;

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

/// Tracks what the host believes about its own data across the crash.
#[derive(Default)]
struct HostModel {
    acked: HashMap<u64, u64>,
    in_flight: Option<(u64, u64)>,
}

/// Replays the deterministic workload until it finishes or the power cut
/// fires. Mixes sequential cold writes with a hot overwrite set so GC,
/// merges, and SWL-Procedure all run. Returns `Ok(true)` when a power cut
/// ended the run.
fn replay(
    layer: &mut Layer,
    nvram: &mut DualBuffer,
    model: &mut HostModel,
    saved_ecnts: &mut Vec<u64>,
) -> Result<bool, SimError> {
    let lbas = layer.logical_pages().min(28);
    let mut acked_since_save = 0u64;
    for round in 0..ROUNDS {
        for step in 0..lbas {
            // Two hot writes for every cold one churns the same few pages
            // hard enough to keep the Cleaner and SWL busy.
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

/// Counts the fault-visible operations (programs + erases) of the full
/// workload, so cut points can be chosen to land inside it.
fn total_ops(kind: LayerKind, with_swl: bool) -> u64 {
    let cfg = SimConfig {
        fault: Some(FaultPlan::new(1)),
        ..SimConfig::default()
    };
    let swl = with_swl.then(swl_config);
    let mut layer = Layer::build(kind, device(), swl, &cfg).expect("baseline build");
    let mut nvram = DualBuffer::new();
    let mut model = HostModel::default();
    let mut saved = Vec::new();
    let cut = replay(&mut layer, &mut nvram, &mut model, &mut saved).expect("baseline replay");
    assert!(!cut, "baseline run must not see a power cut");
    layer.device().fault_ops()
}

/// One full crash/remount/verify cycle at `cut_at`.
fn run_cut_point(kind: LayerKind, with_swl: bool, cut_at: u64, torn: bool) {
    let ctx = format!("{kind} swl={with_swl} cut_at={cut_at} torn={torn}");
    let cfg = SimConfig {
        fault: Some(FaultPlan::new(1).with_power_cut(cut_at, torn)),
        ..SimConfig::default()
    };
    let swl = with_swl.then(swl_config);
    let mut layer = Layer::build(kind, device(), swl, &cfg).expect("build");
    let mut nvram = DualBuffer::new();
    let mut model = HostModel::default();
    let mut saved_ecnts = Vec::new();
    let cut = replay(&mut layer, &mut nvram, &mut model, &mut saved_ecnts)
        .unwrap_or_else(|e| panic!("{ctx}: workload failed: {e}"));
    assert!(cut, "{ctx}: cut point must land inside the workload");

    // -- power comes back --
    let mut chip = layer.into_device();
    assert!(chip.power_is_cut(), "{ctx}: device must report the cut");
    chip.power_cycle();
    // Layer::mount applies no fault plan, which leaves the chip's
    // grown-bad state untouched instead of re-arming a new plan.
    let mut layer = Layer::mount(kind, chip, &SimConfig::default())
        .unwrap_or_else(|e| panic!("{ctx}: remount failed: {e}"));

    if with_swl {
        // Model a checkpoint torn by the same crash: clobber one NVRAM
        // slot. recover() must fall back, never panic.
        if torn {
            if let Some(slot) = nvram.slot_mut(0) {
                let cut_len = slot.len() / 2;
                slot.truncate(cut_len);
            }
        }
        match nvram.recover() {
            Ok(snapshot) => {
                let leveler = snapshot
                    .into_leveler()
                    .unwrap_or_else(|e| panic!("{ctx}: snapshot decode failed: {e}"));
                let window = saved_ecnts.iter().rev().take(2);
                assert!(
                    window.clone().any(|&e| e == leveler.ecnt()),
                    "{ctx}: recovered ecnt {} is more than one checkpoint stale \
                     (last saves: {:?})",
                    leveler.ecnt(),
                    saved_ecnts.iter().rev().take(2).collect::<Vec<_>>(),
                );
                layer.attach_swl(leveler);
            }
            Err(PersistError::NoValidSnapshot) => {
                assert!(
                    saved_ecnts.len() <= 1 && torn || saved_ecnts.is_empty(),
                    "{ctx}: valid checkpoints existed but none recovered"
                );
                layer.attach_swl(SwLeveler::new(BLOCKS, swl_config()).unwrap());
            }
            Err(e) => panic!("{ctx}: recover failed: {e}"),
        }
    }

    // 1. Acked-write durability.
    for (&lba, &value) in &model.acked {
        let got = layer
            .read(lba)
            .unwrap_or_else(|e| panic!("{ctx}: read({lba}) failed after remount: {e}"));
        let in_flight_ok =
            matches!(model.in_flight, Some((l, v)) if l == lba && got == Some(v));
        assert!(
            got == Some(value) || in_flight_ok,
            "{ctx}: lba {lba} lost acked value {value:#x}, read {got:?}"
        );
    }

    // 3. The stack keeps working and wear leveling resumes bounded.
    let lbas = layer.logical_pages().min(28);
    for round in 0..3u64 {
        for lba in 0..lbas {
            let value = 0xCAFE_0000 | (round << 8) | lba;
            layer
                .write(lba, value)
                .unwrap_or_else(|e| panic!("{ctx}: post-recovery write failed: {e}"));
        }
    }
    if with_swl {
        let swl = layer.swl().expect("leveler attached");
        assert!(
            !swl.needs_leveling(),
            "{ctx}: unevenness {:?} still at or above T={} after resume",
            swl.unevenness(),
            swl.config().threshold,
        );
    }
}

/// Strided sweep: every configuration, cut points spread across the whole
/// op space, both torn and clean cuts.
#[test]
fn power_cut_sweep_preserves_acked_writes() {
    for kind in [LayerKind::Ftl, LayerKind::Nftl] {
        for with_swl in [false, true] {
            let total = total_ops(kind, with_swl);
            assert!(total > 50, "{kind} swl={with_swl}: workload too small");
            let step = (total / 24).max(1);
            for torn in [false, true] {
                let mut cut_at = if torn { step / 2 } else { 0 };
                while cut_at < total {
                    run_cut_point(kind, with_swl, cut_at, torn);
                    cut_at += step;
                }
            }
        }
    }
}

/// A cut during the very first operations: nothing acked yet, no
/// checkpoint on NVRAM — remount must still come up clean.
#[test]
fn power_cut_before_first_checkpoint_recovers_fresh() {
    for kind in [LayerKind::Ftl, LayerKind::Nftl] {
        for cut_at in 0..4 {
            run_cut_point(kind, true, cut_at, true);
        }
    }
}

proptest! {
    /// Random (layer, cut, torn) samples fill the gaps the strided sweep
    /// leaves between its lattice points.
    #[test]
    fn random_cut_points_recover(
        seed in any::<u64>(),
        torn in any::<bool>(),
        ftl_side in any::<bool>(),
        with_swl in any::<bool>(),
    ) {
        let kind = if ftl_side { LayerKind::Ftl } else { LayerKind::Nftl };
        let total = total_ops(kind, with_swl);
        run_cut_point(kind, with_swl, seed % total, torn);
    }
}

// ---------------------------------------------------------------------------
// Multi-channel: power cuts mid-stripe on a striped array.
// ---------------------------------------------------------------------------

use flash_sim::{StripedLayer, SwlCoordination};
use nand::ChannelGeometry;

/// Blocks per lane of the striped crash runs.
const LANE_BLOCKS: u32 = 16;
/// Host request size (pages): every request spans all lanes, so any cut
/// inside one lands mid-stripe.
const SPAN: u64 = 4;

fn striped_geometry(channels: u32) -> ChannelGeometry {
    ChannelGeometry::new(channels, 1, Geometry::new(LANE_BLOCKS, PAGES, 2048))
}

fn striped_build(kind: LayerKind, channels: u32, cfg: &SimConfig) -> StripedLayer {
    StripedLayer::build(
        kind,
        striped_geometry(channels),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
        Some(swl_config()),
        SwlCoordination::PerChannel,
        cfg,
    )
    .expect("striped build")
}

/// The deterministic mid-stripe workload, as `(lba, value)` pairs: rounds
/// of span-sized hot/cold host requests.
fn striped_workload(logical_pages: u64) -> Vec<(u64, u64)> {
    let spans = (logical_pages / SPAN).min(8);
    let mut ops = Vec::new();
    for round in 0..ROUNDS {
        for i in 0..spans {
            let base = (if i % 3 == 0 { i } else { (round + i) % 2 }) * SPAN;
            for off in 0..SPAN {
                ops.push((base + off, (round << 32) | (i << 16) | (off << 8) | 0xA5));
            }
        }
    }
    ops
}

/// Replays the workload on the striped array until done or cut;
/// `Ok(true)` on a cut.
fn striped_replay(
    striped: &mut StripedLayer,
    model: &mut HostModel,
) -> Result<bool, SimError> {
    for (lba, value) in striped_workload(striped.logical_pages()) {
        model.in_flight = Some((lba, value));
        match striped.write(lba, value) {
            Ok(()) => {
                model.acked.insert(lba, value);
            }
            Err(e) if is_power_cut(&e) => return Ok(true),
            Err(e) => return Err(e),
        }
    }
    Ok(false)
}

/// Op count of the full striped workload (max over lanes, so every cut
/// point below it fires on some lane).
fn striped_total_ops(kind: LayerKind, channels: u32) -> u64 {
    let cfg = SimConfig {
        fault: Some(FaultPlan::new(1)),
        ..SimConfig::default()
    };
    let mut striped = striped_build(kind, channels, &cfg);
    let mut model = HostModel::default();
    let cut = striped_replay(&mut striped, &mut model).expect("striped baseline");
    assert!(!cut, "striped baseline must not see a power cut");
    striped
        .lanes()
        .iter()
        .map(|lane| lane.device().fault_ops())
        .max()
        .unwrap_or(0)
}

/// One striped crash/remount/verify cycle: after a mid-stripe cut, every
/// acked sub-write on every channel must survive, and the array must keep
/// serving writes.
fn run_striped_cut_point(kind: LayerKind, channels: u32, cut_at: u64, torn: bool) {
    let ctx = format!("{kind}\u{d7}{channels}ch cut_at={cut_at} torn={torn}");
    let cfg = SimConfig {
        fault: Some(FaultPlan::new(1).with_power_cut(cut_at, torn)),
        ..SimConfig::default()
    };
    let mut striped = striped_build(kind, channels, &cfg);
    let mut model = HostModel::default();
    let cut = striped_replay(&mut striped, &mut model)
        .unwrap_or_else(|e| panic!("{ctx}: workload failed: {e}"));
    assert!(cut, "{ctx}: cut point must land inside the workload");

    // -- power comes back on the shared rail: the cut consumed on one lane
    // is consumed for the whole array --
    let mut devices = striped.into_devices();
    assert!(
        devices.iter().any(|d| d.power_is_cut()),
        "{ctx}: some lane must report the cut"
    );
    for device in &mut devices {
        device.disarm_power_cut();
        device.power_cycle();
    }
    let mut striped = StripedLayer::mount(
        kind,
        striped_geometry(channels),
        devices,
        SwlCoordination::PerChannel,
        &SimConfig::default(),
    )
    .unwrap_or_else(|e| panic!("{ctx}: remount failed: {e}"));

    for (&lba, &value) in &model.acked {
        let got = striped
            .read(lba)
            .unwrap_or_else(|e| panic!("{ctx}: read({lba}) failed after remount: {e}"));
        let in_flight_ok =
            matches!(model.in_flight, Some((l, v)) if l == lba && got == Some(v));
        assert!(
            got == Some(value) || in_flight_ok,
            "{ctx}: lba {lba} lost acked value {value:#x}, read {got:?}"
        );
    }

    let lbas = striped.logical_pages().min(SPAN * 8);
    for round in 0..2u64 {
        for lba in 0..lbas {
            striped
                .write(lba, 0xD00D_0000 | (round << 8) | lba)
                .unwrap_or_else(|e| panic!("{ctx}: post-recovery write failed: {e}"));
        }
    }
}

/// Strided mid-stripe sweep over the 2-channel array, both layers, torn
/// and clean cuts.
#[test]
fn striped_power_cuts_preserve_acked_writes_on_every_channel() {
    for kind in [LayerKind::Ftl, LayerKind::Nftl] {
        let total = striped_total_ops(kind, 2);
        assert!(total > 50, "{kind}: striped workload too small");
        let step = (total / 12).max(1);
        for torn in [false, true] {
            let mut cut_at = if torn { step / 2 } else { 0 };
            while cut_at < total {
                run_striped_cut_point(kind, 2, cut_at, torn);
                cut_at += step;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Service write cache: power cuts with the RAM cache interposed.
// ---------------------------------------------------------------------------

use flash_sim::service::cache::CacheConfig;
use flash_sim::{EngineConfig, Service, ServiceConfig};
use hotid::HotDataConfig;

/// Host requests between service `flush` barriers — the durability ack
/// boundary of the cached runs.
const SERVICE_FLUSH_EVERY: u64 = 4;
/// RAM write-cache capacity (pages): small enough that evictions and
/// watermark batches fire between flushes.
const SERVICE_CACHE_PAGES: usize = 8;

fn service_build(kind: LayerKind, coordination: SwlCoordination, cfg: &SimConfig) -> Service {
    // Eager admission so the small cache absorbs the workload's hot spans
    // within a couple of rewrites.
    let hot = HotDataConfig {
        hot_threshold: 2,
        ..HotDataConfig::default()
    };
    Service::build(
        kind,
        striped_geometry(2),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
        Some(swl_config()),
        coordination,
        cfg,
        ServiceConfig::default()
            .with_engine(EngineConfig::default().with_threads(2).with_queue_depth(4))
            .with_cache(CacheConfig::sized(SERVICE_CACHE_PAGES).with_hot(hot)),
    )
    .expect("service build")
}

/// Host model of the cached runs: `acked` holds writes covered by a
/// successful `flush` (these MUST survive a cut), `pending` the writes
/// acked only as *accepted* since then (these may vanish).
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

/// Replays the mid-stripe workload through the cache-enabled service,
/// flushing every [`SERVICE_FLUSH_EVERY`] requests; `Ok(true)` on a cut.
fn service_replay(service: &mut Service, model: &mut ServiceModel) -> Result<bool, SimError> {
    let spans = (service.logical_pages() / SPAN).min(8);
    let mut since_flush = 0u64;
    for round in 0..ROUNDS {
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
            if since_flush >= SERVICE_FLUSH_EVERY {
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

/// Device-op count of the full cached workload (max over lanes). The cache
/// absorbs hot rewrites, so this is smaller than the cache-less runs.
fn service_total_ops(kind: LayerKind, coordination: SwlCoordination) -> u64 {
    let cfg = SimConfig {
        fault: Some(FaultPlan::new(1)),
        ..SimConfig::default()
    };
    let mut service = service_build(kind, coordination, &cfg);
    let mut model = ServiceModel::default();
    let cut = service_replay(&mut service, &mut model).expect("service baseline");
    assert!(!cut, "service baseline must not see a power cut");
    service
        .into_devices()
        .iter()
        .map(|device| device.fault_ops())
        .max()
        .unwrap_or(0)
}

/// One cached crash/remount/verify cycle. Teardown drops the RAM cache —
/// exactly what a power cut does to one — so un-acked writes may vanish;
/// flush-acked writes must not. Returns how many un-acked writes did
/// vanish, so the caller can assert the lossy side of the contract was
/// actually exercised rather than vacuously true.
fn run_service_cut_point(
    kind: LayerKind,
    coordination: SwlCoordination,
    cut_at: u64,
    torn: bool,
) -> u64 {
    let ctx = format!(
        "{kind} {} cache cut_at={cut_at} torn={torn}",
        coordination.token()
    );
    let cfg = SimConfig {
        fault: Some(FaultPlan::new(1).with_power_cut(cut_at, torn)),
        ..SimConfig::default()
    };
    let mut service = service_build(kind, coordination, &cfg);
    let mut model = ServiceModel::default();
    let cut = service_replay(&mut service, &mut model)
        .unwrap_or_else(|e| panic!("{ctx}: workload failed: {e}"));
    assert!(cut, "{ctx}: cut point must land inside the workload");

    // -- power comes back on the shared rail; the RAM cache is gone --
    let mut devices = service.into_devices();
    assert!(
        devices.iter().any(|d| d.power_is_cut()),
        "{ctx}: some lane must report the cut"
    );
    for device in &mut devices {
        device.disarm_power_cut();
        device.power_cycle();
    }
    let geometry = striped_geometry(2);
    let mut lanes = Vec::with_capacity(devices.len());
    for device in devices {
        lanes.push(
            Layer::mount(kind, device, &SimConfig::default())
                .unwrap_or_else(|e| panic!("{ctx}: remount failed: {e}")),
        );
    }

    let mut candidates: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut last_pending: HashMap<u64, u64> = HashMap::new();
    for &(lba, value) in &model.pending {
        candidates.entry(lba).or_default().push(value);
        last_pending.insert(lba, value);
    }
    for (&lba, &value) in &model.acked {
        let lane = geometry.channel_of(lba) as usize;
        let got = lanes[lane]
            .read(geometry.lane_lba(lba))
            .unwrap_or_else(|e| panic!("{ctx}: read({lba}) failed after remount: {e}"));
        let in_flight_ok = candidates
            .get(&lba)
            .is_some_and(|values| values.iter().any(|&v| got == Some(v)));
        assert!(
            got == Some(value) || in_flight_ok,
            "{ctx}: lba {lba} lost flush-acked value {value:#x}, read {got:?}"
        );
    }
    let mut vanished = 0u64;
    for (&lba, &value) in &last_pending {
        let lane = geometry.channel_of(lba) as usize;
        if let Ok(got) = lanes[lane].read(geometry.lane_lba(lba)) {
            if got != Some(value) {
                vanished += 1;
            }
        }
    }

    let lbas = (lanes[0].logical_pages() * 2).min(SPAN * 8);
    for round in 0..2u64 {
        for lba in 0..lbas {
            let lane = geometry.channel_of(lba) as usize;
            lanes[lane]
                .write(geometry.lane_lba(lba), 0xFACE_0000 | (round << 8) | lba)
                .unwrap_or_else(|e| panic!("{ctx}: post-recovery write failed: {e}"));
        }
    }
    vanished
}

/// Strided sweep with the write cache interposed: flush-acked writes
/// survive every cut point on both layers, and across the sweep some
/// un-acked cached writes really vanish (the lossy side of the ack
/// contract, asserted rather than assumed). Under Global coordination the
/// FTL's writes run ahead between erases just as they do per channel, so
/// the rail drops with up to a queue depth of requests in flight there too.
#[test]
fn service_cache_cuts_preserve_flush_acked_writes() {
    let mut vanished = 0u64;
    for coordination in [SwlCoordination::PerChannel, SwlCoordination::Global] {
        for kind in [LayerKind::Ftl, LayerKind::Nftl] {
            let total = service_total_ops(kind, coordination);
            assert!(total > 50, "{kind}: cached workload too small");
            let step = (total / 10).max(1);
            for torn in [false, true] {
                let mut cut_at = if torn { step / 2 } else { 0 };
                while cut_at < total {
                    vanished += run_service_cut_point(kind, coordination, cut_at, torn);
                    cut_at += step;
                }
            }
        }
    }
    assert!(
        vanished > 0,
        "no un-acked cached write vanished across the sweep — the lossy side \
         of the durability contract went unexercised"
    );
}

/// At one channel the striped crash cycle is the plain one: the same
/// workload, cut point, and remount must leave bit-identical contents,
/// counters, and wear on a standalone layer of the lane geometry.
#[test]
fn single_channel_striped_crash_matches_plain() {
    for kind in [LayerKind::Ftl, LayerKind::Nftl] {
        let total = striped_total_ops(kind, 1);
        for (frac, torn) in [(3u64, false), (2, true)] {
            let cut_at = total / frac;
            let ctx = format!("{kind} cut_at={cut_at} torn={torn}");
            let cfg = SimConfig {
                fault: Some(FaultPlan::new(1).with_power_cut(cut_at, torn)),
                ..SimConfig::default()
            };
            let mut striped = striped_build(kind, 1, &cfg);
            let mut plain = Layer::build(
                kind,
                NandDevice::new(
                    Geometry::new(LANE_BLOCKS, PAGES, 2048),
                    CellKind::Mlc2.spec().with_endurance(u32::MAX),
                ),
                Some(swl_config()),
                &cfg,
            )
            .expect("plain build");

            let mut cuts = (false, false);
            for (lba, value) in striped_workload(striped.logical_pages()) {
                if !cuts.0 {
                    match striped.write(lba, value) {
                        Ok(()) => {}
                        Err(e) if is_power_cut(&e) => cuts.0 = true,
                        Err(e) => panic!("{ctx}: striped write failed: {e}"),
                    }
                }
                if !cuts.1 {
                    match plain.write(lba, value) {
                        Ok(()) => {}
                        Err(e) if is_power_cut(&e) => cuts.1 = true,
                        Err(e) => panic!("{ctx}: plain write failed: {e}"),
                    }
                }
            }
            assert_eq!(cuts.0, cuts.1, "{ctx}: cut fired on one stack only");

            let mut devices = striped.into_devices();
            for device in &mut devices {
                device.power_cycle();
            }
            let mut striped = StripedLayer::mount(
                kind,
                striped_geometry(1),
                devices,
                SwlCoordination::PerChannel,
                &SimConfig::default(),
            )
            .expect("striped remount");
            let mut chip = plain.into_device();
            chip.power_cycle();
            let mut plain =
                Layer::mount(kind, chip, &SimConfig::default()).expect("plain remount");

            for lba in 0..striped.logical_pages() {
                assert_eq!(
                    striped.read(lba).expect("striped read"),
                    plain.read(lba).expect("plain read"),
                    "{ctx}: contents diverged at lba {lba}"
                );
            }
            assert_eq!(
                striped.lane(0).counters(),
                plain.counters(),
                "{ctx}: counters diverged"
            );
            assert_eq!(
                striped.lane(0).device().erase_stats(),
                plain.device().erase_stats(),
                "{ctx}: wear diverged"
            );
        }
    }
}
