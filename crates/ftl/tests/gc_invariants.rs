//! Garbage-collection and wear invariants of the page-mapping FTL under
//! randomized workloads.

use proptest::prelude::*;

use ftl::{FtlConfig, PageMappedFtl, SnapshotConfig};
use hotid::HotDataConfig;
use nand::{CellKind, FaultPlan, Geometry, NandDevice, PageState};
use swl_core::SwlConfig;

fn device(blocks: u32, pages: u32) -> NandDevice {
    NandDevice::new(
        Geometry::new(blocks, pages, 2048),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
    )
}

/// Recounts valid pages on the device and checks they equal the number of
/// distinct live LBAs.
fn assert_valid_page_conservation(ftl: &PageMappedFtl, live_lbas: usize) {
    let d = ftl.device();
    let valid: u64 = (0..d.geometry().blocks())
        .map(|b| u64::from(d.block(b).valid_pages()))
        .sum();
    assert_eq!(
        valid, live_lbas as u64,
        "every live LBA owns exactly one valid physical page"
    );
}

/// The FTL variants whose erase-free write bound is checked: the allocator
/// shapes (one frontier, two, a withheld reserve, refcounted pages) times
/// the leveler modes, plus the two kinds of fault plan.
fn quiet_bound_arm(arm: usize) -> PageMappedFtl {
    // Hot after two writes, so both frontiers fill.
    let eager = HotDataConfig {
        hot_threshold: 2,
        ..HotDataConfig::default()
    };
    let plain = FtlConfig::default();
    let (chip, config, swl) = match arm {
        0 => (device(16, 8), plain, None),
        1 => (device(16, 8), plain.with_hot_data(eager), None),
        2 => (device(16, 8), plain.with_overprovision_blocks(4), None),
        3 => (
            device(22, 8),
            plain.with_snapshots(SnapshotConfig::new().with_manifest_blocks(3)),
            None,
        ),
        4 => (device(16, 8), plain, Some(SwlConfig::new(3, 0))),
        5 => (
            device(16, 8),
            plain.with_hot_data(eager),
            Some(SwlConfig::new(3, 0).with_deferred(true)),
        ),
        // A power cut stops the chip; it cannot make one write open two blocks.
        6 => (
            device(16, 8).with_fault_plan(FaultPlan::new(3).with_power_cut(150, true)),
            plain,
            None,
        ),
        _ => (
            device(16, 8).with_fault_plan(FaultPlan::new(3).with_program_fail_prob(0.05)),
            plain,
            None,
        ),
    };
    match swl {
        Some(swl) => PageMappedFtl::with_swl(chip, config, swl).unwrap(),
        None => PageMappedFtl::new(chip, config).unwrap(),
    }
}

/// A stalled leveler costs nothing: on the `ftl_snapshots` chip of the
/// benchmark (1024 × 128, an 8-block manifest reserve the Cleaner skips,
/// `T = 2`) every flag but the reserve's fills, the interval can never reset,
/// and from then on SWL-Procedure has nothing it can do. It must find that
/// out once per set flag, not once per erase — a count, not a timing — and
/// must stop holding the erase-free write bound at 0.
#[test]
fn stalled_leveler_stops_calling_the_cleaner() {
    let config = FtlConfig::new()
        .with_overprovision_blocks(64)
        .with_snapshots(SnapshotConfig::new().with_manifest_blocks(4));
    let mut ftl = PageMappedFtl::with_swl(
        device(1024, 128),
        config,
        SwlConfig::new(2, 0).with_seed(42),
    )
    .unwrap();
    for lba in 0..ftl.logical_pages() {
        ftl.write(lba, lba).unwrap();
    }
    let stalled = |ftl: &PageMappedFtl| {
        let swl = ftl.swl().unwrap();
        swl.unevenness().is_some_and(|u| u >= 2.0) && !swl.needs_leveling()
    };
    let (mut stalled_writes, mut quiet_while_stalled) = (0u64, 0u64);
    for i in 0..300_000u64 {
        ftl.write(i % 4096, i).unwrap();
        if stalled(&ftl) {
            stalled_writes += 1;
            // Over threshold but latched: the mapping's own bound shows through.
            assert_eq!(ftl.quiet_writes(), nand::Mapping::quiet_writes(&*ftl));
            quiet_while_stalled += u64::from(ftl.quiet_writes() > 0);
        }
    }
    let swl = ftl.swl().unwrap();
    let stats = swl.stats();
    assert_eq!(
        (swl.fcnt(), swl.bet().flags()),
        (1016, 1024),
        "all but the reserve"
    );
    assert_eq!(stats.interval_resets, 0);
    assert!(
        stalled_writes > 100_000,
        "stalled for {stalled_writes} writes"
    );
    assert!(
        quiet_while_stalled > stalled_writes / 2,
        "run-ahead on {quiet_while_stalled} of {stalled_writes} stalled writes"
    );
    assert!(stats.erases_observed > 2_000, "{stats:?}");
    // Each set flag is the end of at most one lap of the 8 dead flags, on top
    // of the sets that were cleaned; the unlatched loop made 1024 calls per
    // erase here (millions).
    assert!(
        stats.sets_cleaned <= stats.swl_erases + 8 * 1016,
        "{stats:?}"
    );
    assert!(stats.sets_cleaned < stats.erases_observed, "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The erase-free write bound is a promise: after every write, the next
    /// `quiet_writes()` writes — whatever they address — erase nothing. A
    /// plan that fails programs gets no promise at all.
    #[test]
    fn quiet_writes_is_a_lower_bound(
        writes in prop::collection::vec((0u64..64, any::<u64>()), 1..500),
        arm in 0usize..8,
    ) {
        let mut ftl = quiet_bound_arm(arm);
        let erases = |ftl: &PageMappedFtl| ftl.device().counters().erases;
        if arm == 3 {
            // Pin some pages, so overwrites go through the refcounts.
            for lba in 0..24 {
                ftl.write(lba, lba).unwrap();
            }
            ftl.snapshot_create(1).unwrap();
        }
        // Writes with an index under `promised` are covered by a bound
        // recorded earlier; promises only ever extend.
        let mut promised = ftl.quiet_writes() as usize;
        let mut seen = erases(&ftl);
        let mut longest = promised;
        for (i, &(lba, data)) in writes.iter().enumerate() {
            // Under a fault plan a write may fail; the promise covers it too.
            let _ = ftl.write(lba, data);
            let now = erases(&ftl);
            prop_assert!(
                now == seen || i >= promised,
                "arm {}: write {} erased inside a bound that reached {}", arm, i, promised
            );
            seen = now;
            let bound = ftl.quiet_writes() as usize;
            prop_assert!(arm != 7 || bound == 0, "a failing program voids the bound");
            longest = longest.max(bound);
            promised = promised.max(i + 1 + bound);
        }
        // Not vacuous: a fresh pool promises whole blocks.
        prop_assert!(arm == 7 || longest > 8, "arm {}: longest bound {}", arm, longest);
    }

    /// Valid-page conservation: however GC and SWL shuffle data, the number
    /// of valid pages equals the number of live LBAs.
    #[test]
    fn valid_pages_equal_live_lbas(
        writes in prop::collection::vec((0u64..100, any::<u64>()), 1..600),
        with_swl in any::<bool>(),
    ) {
        let mut ftl = if with_swl {
            PageMappedFtl::with_swl(device(24, 8), FtlConfig::default(), SwlConfig::new(5, 0))
                .unwrap()
        } else {
            PageMappedFtl::new(device(24, 8), FtlConfig::default()).unwrap()
        };
        let mut live = std::collections::HashSet::new();
        for (lba, data) in writes {
            ftl.write(lba, data).unwrap();
            live.insert(lba);
        }
        assert_valid_page_conservation(&ftl, live.len());
    }

    /// Spare areas always agree with the forward map for live data.
    #[test]
    fn spare_areas_name_live_lbas(
        writes in prop::collection::vec(0u64..64, 1..400),
    ) {
        let mut ftl = PageMappedFtl::new(device(16, 8), FtlConfig::default()).unwrap();
        for (i, lba) in writes.iter().enumerate() {
            ftl.write(*lba, i as u64).unwrap();
        }
        let d = ftl.device();
        for b in 0..d.geometry().blocks() {
            for (page, state) in d.block(b).page_states() {
                if state == PageState::Valid {
                    let lba = d.block(b).spare(page).lba().expect("live page has lba");
                    prop_assert!(lba < ftl.logical_pages());
                }
            }
        }
    }

    /// Wear spread: with SWL at an aggressive threshold, the max/mean wear
    /// ratio stays bounded under a pathological single-page workload.
    #[test]
    fn swl_bounds_wear_ratio(hot_lba in 0u64..100, rounds in 300u64..900) {
        let mut ftl =
            PageMappedFtl::with_swl(device(16, 8), FtlConfig::default(), SwlConfig::new(3, 0))
                .unwrap();
        // Pin some cold data first.
        for lba in 100..120u64 {
            ftl.write(lba, lba).unwrap();
        }
        for round in 0..rounds {
            ftl.write(hot_lba, round).unwrap();
        }
        let stats = ftl.device().erase_stats();
        prop_assert!(
            stats.max_over_mean() < 4.0,
            "wear ratio too high: {stats}"
        );
    }
}
