//! Garbage-collection and wear invariants of the page-mapping FTL under
//! randomized workloads.

use proptest::prelude::*;

use ftl::{FtlConfig, PageMappedFtl};
use nand::{CellKind, Geometry, NandDevice, PageState};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
