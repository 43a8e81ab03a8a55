//! Bit-for-bit verification of snapshot merge through the served stack.
//!
//! The tentpole guarantee: merging a snapshot into its origin produces
//! exactly *the origin overlaid with the snapshot image* — the snapshot
//! wins every page it images, the origin keeps everything else. That must
//! hold through the full service → engine → lane → FTL path, for every
//! channel-fanout and SWL-coordination combination the simulator supports,
//! while GC and the SW Leveler are live and relocating pinned pages
//! underneath the merge.
//!
//! Three suites:
//!
//! 1. **Merge verifier** over {1, 4} channels × {PerChannel, Global} SWL:
//!    build an origin image, snapshot it, diverge (overwrites, fresh LBAs,
//!    advisory trims), merge, and read the entire logical space back
//!    against the overlay model.
//! 2. **Rollback and release**: `Clone` returns the served device
//!    to the frozen image exactly; deleting the snapshot afterwards while
//!    the head still shares its pages must not disturb the live contents.
//! 3. **Durability**: an acked `Create` survives service teardown
//!    and per-lane remount, and the snapshot merges correctly *after* the
//!    remount.

use std::collections::HashMap;

use flash_sim::service::cache::CacheConfig;
use flash_sim::service::{Service, ServiceConfig};
use flash_sim::{
    EngineConfig, Layer, LayerKind, SimConfig, SimError, SnapshotVerb, SwlCoordination,
    TranslationLayer,
};
use ftl::{FtlConfig, FtlError, SnapshotConfig};
use nand::{CellKind, CellSpec, ChannelGeometry, Geometry};
use swl_core::rng::SplitMix64;
use swl_core::SwlConfig;

fn chip() -> Geometry {
    Geometry::new(32, 8, 2048)
}

fn spec() -> CellSpec {
    CellKind::Mlc2.spec().with_endurance(1_000_000)
}

fn geometry(channels: u32) -> ChannelGeometry {
    ChannelGeometry::new(channels, 1, chip())
}

/// Aggressive leveling so the SW Leveler actually relocates snapshot-pinned
/// cold pages during the divergence phase.
fn swl() -> SwlConfig {
    SwlConfig::new(2, 0).with_seed(11)
}

fn sim_config() -> SimConfig {
    SimConfig {
        ftl: FtlConfig::new()
            .with_overprovision_blocks(2)
            .with_snapshots(SnapshotConfig::new().with_manifest_blocks(2)),
        ..SimConfig::default()
    }
}

fn build(channels: u32, coordination: SwlCoordination) -> Service {
    build_cached(channels, coordination, None)
}

fn build_cached(
    channels: u32,
    coordination: SwlCoordination,
    cache: Option<CacheConfig>,
) -> Service {
    let config = ServiceConfig {
        engine: EngineConfig::default().with_threads(2).with_queue_depth(8),
        cache,
        ..ServiceConfig::default()
    };
    Service::build(
        LayerKind::Ftl,
        geometry(channels),
        spec(),
        Some(swl()),
        coordination,
        &sim_config(),
        config,
    )
    .unwrap()
}

/// Drives origin → snapshot → divergence → merge and checks the overlay
/// model over the whole logical space.
fn merge_round_trip(channels: u32, coordination: SwlCoordination) {
    let mut service = build(channels, coordination);
    let logical = service.logical_pages();
    let footprint = (logical / 4).max(8);
    let mut rng = SplitMix64::new(0x5EED ^ u64::from(channels));
    // `flash` is the last value ever written per LBA: service trims are a
    // RAM-only read mask that never reaches the FTL, and the merge clears
    // the mask, so the on-flash value is what resurfaces for any trimmed
    // page the snapshot does not image.
    let mut flash: HashMap<u64, u64> = HashMap::new();
    let mut value = 0u64;
    let mut write = |service: &mut Service, flash: &mut HashMap<u64, u64>, lba: u64| {
        value += 1;
        service.write(lba, &[value]).unwrap();
        flash.insert(lba, value);
    };

    // Origin image: cold data written once, then a tiny hot set hammered —
    // the skew the paper's leveler exists for, so SWL provably interleaves
    // with the pin.
    let hot = (footprint / 8).max(4);
    for lba in 0..footprint {
        write(&mut service, &mut flash, lba);
    }
    for _ in 0..footprint * 20 {
        let lba = if rng.chance(0.9) {
            rng.next_below(hot)
        } else {
            rng.next_below(footprint)
        };
        write(&mut service, &mut flash, lba);
    }
    service.snapshot(SnapshotVerb::Create(7)).unwrap();
    let snap = flash.clone();

    // Diverge: overwrites inside the image, fresh LBAs beyond it, trims.
    let extra = (footprint / 2).min(logical - footprint).max(1);
    for _ in 0..footprint * 8 {
        match rng.next_below(5) {
            0 => {
                let lba = footprint + rng.next_below(extra);
                write(&mut service, &mut flash, lba);
            }
            1 => service.trim(rng.next_below(footprint), 1).unwrap(),
            _ => {
                let lba = rng.next_below(hot);
                write(&mut service, &mut flash, lba);
            }
        }
    }

    service.snapshot(SnapshotVerb::Merge(7)).unwrap();

    for lba in 0..logical {
        let got = service.read(lba, 1).unwrap()[0];
        let expected = snap.get(&lba).or(flash.get(&lba)).copied();
        assert_eq!(
            got, expected,
            "×{channels}ch {coordination:?}: merged image diverged at lba {lba}"
        );
    }
    let run = service.finish().unwrap().run;
    assert!(
        run.report.counters.swl_erases > 0,
        "×{channels}ch {coordination:?}: the leveler was meant to be live during the merge \
         workload (swl_erases = {}, gc_erases = {})",
        run.report.counters.swl_erases,
        run.report.counters.gc_erases,
    );
}

#[test]
fn merge_is_origin_overlaid_with_snapshot_1ch_per_channel() {
    merge_round_trip(1, SwlCoordination::PerChannel);
}

#[test]
fn merge_is_origin_overlaid_with_snapshot_1ch_global() {
    merge_round_trip(1, SwlCoordination::Global);
}

#[test]
fn merge_is_origin_overlaid_with_snapshot_4ch_per_channel() {
    merge_round_trip(4, SwlCoordination::PerChannel);
}

#[test]
fn merge_is_origin_overlaid_with_snapshot_4ch_global() {
    merge_round_trip(4, SwlCoordination::Global);
}

/// Rollback restores the frozen image exactly, and deleting the snapshot
/// while the rolled-back head still shares every one of its pages must not
/// perturb the live contents.
#[test]
fn rollback_restores_image_and_delete_keeps_shared_pages() {
    let mut service = build(2, SwlCoordination::PerChannel);
    let logical = service.logical_pages();
    let footprint = (logical / 4).max(8);
    let mut value = 0u64;
    let mut image: HashMap<u64, u64> = HashMap::new();
    for lba in 0..footprint {
        value += 1;
        service.write(lba, &[value]).unwrap();
        image.insert(lba, value);
    }
    service.snapshot(SnapshotVerb::Create(3)).unwrap();

    // Diverge away from the image, including trims and fresh LBAs.
    for lba in 0..footprint {
        value += 1;
        service.write(lba / 2, &[value]).unwrap();
        service.write(footprint + lba / 2, &[value]).unwrap();
    }
    service.trim(0, footprint as usize / 2).unwrap();

    service.snapshot(SnapshotVerb::Clone(3)).unwrap();
    for lba in 0..logical {
        let got = service.read(lba, 1).unwrap()[0];
        assert_eq!(
            got,
            image.get(&lba).copied(),
            "rollback diverged from the frozen image at lba {lba}"
        );
    }

    // The head now shares every page with snapshot 3; dropping the
    // snapshot must release only its references, never live data.
    service.snapshot(SnapshotVerb::Delete(3)).unwrap();
    for lba in 0..footprint {
        let got = service.read(lba, 1).unwrap()[0];
        assert_eq!(
            got,
            image.get(&lba).copied(),
            "deleting the donor snapshot corrupted live lba {lba}"
        );
    }

    // And the device still takes writes afterwards.
    for lba in 0..footprint {
        value += 1;
        service.write(lba, &[value]).unwrap();
        assert_eq!(service.read(lba, 1).unwrap()[0], Some(value));
    }
    service.finish().unwrap();
}

/// An acked `Create` is durable: after tearing the service down
/// and remounting every lane from its bare device, the snapshot is still
/// there and merging it post-remount yields the overlay image.
#[test]
fn acked_snapshot_survives_remount_and_merges_after() {
    let channels = 2u32;
    let mut service = build(channels, SwlCoordination::PerChannel);
    let logical = service.logical_pages();
    let footprint = (logical / 4).max(8);
    let mut value = 0u64;
    let mut flash: HashMap<u64, u64> = HashMap::new();
    for lba in 0..footprint {
        value += 1;
        service.write(lba, &[value]).unwrap();
        flash.insert(lba, value);
    }
    service.snapshot(SnapshotVerb::Create(9)).unwrap();
    let snap = flash.clone();
    for lba in 0..footprint / 2 {
        value += 1;
        service.write(lba, &[value]).unwrap();
        flash.insert(lba, value);
        value += 1;
        service.write(footprint + lba, &[value]).unwrap();
        flash.insert(footprint + lba, value);
    }
    service.flush().unwrap();

    let geo = geometry(channels);
    let config = sim_config();
    let mut lanes: Vec<Layer<_>> = service
        .into_devices()
        .into_iter()
        .map(|device| Layer::mount(LayerKind::Ftl, device, &config).unwrap())
        .collect();
    for lane in &mut lanes {
        lane.snapshot(SnapshotVerb::Merge(9))
            .expect("acked snapshot must survive remount on every lane");
    }
    for lba in 0..logical {
        let got = lanes[geo.channel_of(lba) as usize]
            .read(geo.lane_lba(lba))
            .unwrap();
        let expected = snap.get(&lba).or(flash.get(&lba)).copied();
        assert_eq!(got, expected, "post-remount merge diverged at lba {lba}");
    }
}

/// A refused verb leaves the served device as it was: rolling back to a
/// snapshot that does not exist must not cost the write cache its dirty
/// entries — they are accepted writes, and nothing was rolled back.
#[test]
fn refused_clone_keeps_accepted_writes() {
    let cache = CacheConfig::sized(16);
    let mut service = build_cached(2, SwlCoordination::PerChannel, Some(cache));
    service.write(3, &[3]).unwrap();
    service.flush().unwrap();
    // Rewrite until the admission filter takes the page in: from then on the
    // last accepted value lives in RAM only, over the 3 on flash.
    let mut value = 3u64;
    while service.cache_sample().unwrap().dirty == 0 {
        value += 1;
        service.write(3, &[value]).unwrap();
        assert!(value < 1_000, "lba 3 never became a dirty cache entry");
    }
    assert_eq!(
        service.snapshot(SnapshotVerb::Clone(999)),
        Err(SimError::Ftl(FtlError::UnknownSnapshot { id: 999 }))
    );
    assert_eq!(service.read(3, 1).unwrap(), [Some(value)]);
    service.finish().unwrap();
}

/// Nor may a refused merge bring a trimmed page back.
#[test]
fn refused_merge_keeps_the_trim_mask() {
    let mut service = build(2, SwlCoordination::PerChannel);
    service.write(3, &[3]).unwrap();
    service.flush().unwrap();
    service.trim(3, 1).unwrap();
    assert!(service.snapshot(SnapshotVerb::Merge(999)).is_err());
    assert_eq!(service.read(3, 1).unwrap(), [None]);
    service.finish().unwrap();
}

/// The snapshot verbs work over the served (multi-client, real-thread)
/// front-end: one client snapshots, every client keeps writing, a merge
/// brings the imaged pages back, and duplicate/unknown ids error cleanly
/// through the wire without wedging the server.
#[test]
fn served_clients_drive_snapshot_verbs() {
    let service = build(2, SwlCoordination::PerChannel);
    let logical = service.logical_pages();
    let (server, mut handles) = service.serve(2);
    let mut admin = handles.remove(0);
    let mut writer = handles.remove(0);

    // Origin image via the wire.
    let span = (logical / 8).max(8);
    for lba in 0..span {
        admin.write(lba, vec![10_000 + lba]).unwrap();
    }
    admin.snapshot(SnapshotVerb::Create(1)).unwrap();
    let duplicate = admin.snapshot(SnapshotVerb::Create(1));
    assert!(
        matches!(duplicate, Err(SimError::Ftl(_))),
        "duplicate snapshot id must be rejected over the wire"
    );
    let unknown = admin.snapshot(SnapshotVerb::Merge(42));
    assert!(
        matches!(unknown, Err(SimError::Ftl(_))),
        "unknown snapshot id must be rejected over the wire"
    );

    // A second client diverges the head while the snapshot pins the image.
    for lba in 0..span {
        writer.write(lba, vec![20_000 + lba]).unwrap();
    }
    for lba in 0..span {
        assert_eq!(writer.read(lba, 1).unwrap()[0], Some(20_000 + lba));
    }

    // Merge from the admin client: the snapshot wins every imaged page.
    admin.snapshot(SnapshotVerb::Merge(1)).unwrap();
    for lba in 0..span {
        assert_eq!(
            admin.read(lba, 1).unwrap()[0],
            Some(10_000 + lba),
            "served merge must restore the imaged value at lba {lba}"
        );
    }

    // The server keeps serving after those verbs: rollback round-trip.
    writer.write(0, vec![77]).unwrap();
    writer.snapshot(SnapshotVerb::Create(2)).unwrap();
    writer.write(0, vec![88]).unwrap();
    writer.snapshot(SnapshotVerb::Clone(2)).unwrap();
    assert_eq!(writer.read(0, 1).unwrap()[0], Some(77));
    writer.snapshot(SnapshotVerb::Delete(2)).unwrap();
    assert_eq!(writer.read(0, 1).unwrap()[0], Some(77));

    drop(admin);
    drop(writer);
    server.join().finish().unwrap();
}
