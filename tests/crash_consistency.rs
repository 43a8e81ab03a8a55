//! Crash-consistency tests: replay a GC/SWL-heavy workload, cut power at
//! operation boundaries, remount, and check the recovery contract — no
//! acked-write loss, bounded checkpoint staleness, wear leveling resumes.
//!
//! The harness — host model, workloads, and the full list of what is
//! checked at every cut point — is `flash_bench::crash`, shared with the
//! `repro crashmc` artifact, which sweeps every cut point; here each
//! configuration strides across the op space and proptest samples random
//! (cut, torn) pairs so CI time stays bounded. A checker reports what it
//! finds as data; these tests assert that it found nothing, and print every
//! message (configuration, cut point, offending page) when it did.

use flash_bench::crash::{
    is_power_cut, striped_build, striped_geometry, striped_workload, swl_config, Stack, Sweep,
    SweepStats,
};
use flash_sim::{Layer, LayerKind, SimConfig, StripedLayer, SwlCoordination, TranslationLayer};
use nand::{CellKind, FaultPlan, NandDevice};
use proptest::prelude::*;

const ROUNDS: u64 = 10;
const KINDS: [LayerKind; 2] = [LayerKind::Ftl, LayerKind::Nftl];

fn assert_clean(stats: &SweepStats) {
    assert!(
        stats.messages.is_empty() && stats.violations() == 0,
        "{} violation(s) over {} cut point(s):\n{}",
        stats.violations(),
        stats.points,
        stats.messages.join("\n")
    );
}

/// Cut points spread across the sweep's whole op space, `total / divisor`
/// apart, clean cuts on the lattice and torn ones half a step off it.
fn strided(sweep: Sweep, divisor: u64, stats: &mut SweepStats) {
    let total = sweep.total_ops(ROUNDS);
    assert!(total > 50, "{sweep}: workload too small");
    let step = (total / divisor).max(1);
    for torn in [false, true] {
        let mut cut_at = if torn { step / 2 } else { 0 };
        while cut_at < total {
            sweep.check(ROUNDS, cut_at, torn, stats);
            cut_at += step;
        }
    }
}

/// Strided sweep: every configuration, both torn and clean cuts.
#[test]
fn power_cut_sweep_preserves_acked_writes() {
    let mut stats = SweepStats::default();
    for kind in KINDS {
        for swl in [None, Some(swl_config())] {
            strided(
                Sweep {
                    stack: Stack::Plain,
                    kind,
                    swl,
                },
                24,
                &mut stats,
            );
        }
    }
    assert_clean(&stats);
}

/// A cut during the very first operations: nothing acked yet, no
/// checkpoint on NVRAM — remount must still come up clean.
#[test]
fn power_cut_before_first_checkpoint_recovers_fresh() {
    let mut stats = SweepStats::default();
    for kind in KINDS {
        let sweep = Sweep {
            stack: Stack::Plain,
            kind,
            swl: Some(swl_config()),
        };
        for cut_at in 0..4 {
            sweep.check(ROUNDS, cut_at, true, &mut stats);
        }
    }
    assert_clean(&stats);
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
        let sweep = Sweep {
            stack: Stack::Plain,
            kind: if ftl_side { LayerKind::Ftl } else { LayerKind::Nftl },
            swl: with_swl.then(swl_config),
        };
        let mut stats = SweepStats::default();
        sweep.check(ROUNDS, seed % sweep.total_ops(ROUNDS), torn, &mut stats);
        assert_clean(&stats);
    }
}

/// Strided mid-stripe sweep over the 2-channel array: after the cut every
/// acked sub-write on every channel must survive, and the array must keep
/// serving writes.
#[test]
fn striped_power_cuts_preserve_acked_writes_on_every_channel() {
    let mut stats = SweepStats::default();
    for kind in KINDS {
        let sweep = Sweep {
            stack: Stack::Striped(2),
            kind,
            swl: Some(swl_config()),
        };
        strided(sweep, 12, &mut stats);
    }
    assert_clean(&stats);
}

/// Strided sweep with the write cache interposed: flush-acked writes
/// survive every cut point on both layers, and across the sweep some
/// un-acked cached writes really vanish (the lossy side of the ack
/// contract, asserted rather than assumed). Under Global coordination the
/// FTL's writes run ahead between erases just as they do per channel, so
/// the rail drops with up to a queue depth of requests in flight there too.
#[test]
fn service_cache_cuts_preserve_flush_acked_writes() {
    let mut stats = SweepStats::default();
    for coordination in [SwlCoordination::PerChannel, SwlCoordination::Global] {
        for kind in KINDS {
            let sweep = Sweep {
                stack: Stack::Service(coordination),
                kind,
                swl: Some(swl_config()),
            };
            strided(sweep, 10, &mut stats);
        }
    }
    assert_clean(&stats);
    assert!(
        stats.vanished > 0,
        "no un-acked cached write vanished across the sweep — the lossy side \
         of the durability contract went unexercised"
    );
}

/// At one channel the striped crash cycle is the plain one: the same
/// workload, cut point, and remount must leave bit-identical contents,
/// counters, and wear on a standalone layer of the lane geometry.
#[test]
fn single_channel_striped_crash_matches_plain() {
    let swl = Some(swl_config());
    for kind in KINDS {
        let stack = Stack::Striped(1);
        let total = Sweep { stack, kind, swl }.total_ops(ROUNDS);
        for (frac, torn) in [(3u64, false), (2, true)] {
            let cut_at = total / frac;
            let ctx = format!("{kind} cut_at={cut_at} torn={torn}");
            let cfg = SimConfig {
                fault: Some(FaultPlan::new(1).with_power_cut(cut_at, torn)),
                ..SimConfig::default()
            };
            let mut striped = striped_build(kind, 1, swl, &cfg);
            let chip = NandDevice::new(
                striped_geometry(1).lane_geometry(),
                CellKind::Mlc2.spec().with_endurance(u32::MAX),
            );
            let mut plain = Layer::build(kind, chip, swl, &cfg).expect("plain build");

            let mut cuts = (false, false);
            for (lba, value) in striped_workload(striped.logical_pages(), ROUNDS) {
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
            let mut plain = Layer::mount(kind, chip, &SimConfig::default()).expect("plain remount");

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
