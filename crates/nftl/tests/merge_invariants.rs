//! Merge-correctness and accounting invariants of the NFTL under
//! randomized workloads.

use proptest::prelude::*;

use nand::{CellKind, Geometry, NandDevice};
use nftl::{BlockMappedNftl, NftlConfig};
use swl_core::SwlConfig;

fn device(blocks: u32, pages: u32) -> NandDevice {
    NandDevice::new(
        Geometry::new(blocks, pages, 2048),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Merges (forced by replacement overflow, GC pressure, or the SW
    /// Leveler) never lose or reorder data: the newest write per LBA wins.
    #[test]
    fn newest_version_always_wins(
        writes in prop::collection::vec(0u64..96, 1..800),
        with_swl in any::<bool>(),
    ) {
        let mut nftl = if with_swl {
            BlockMappedNftl::with_swl(device(32, 8), NftlConfig::default(), SwlConfig::new(4, 0))
                .unwrap()
        } else {
            BlockMappedNftl::new(device(32, 8), NftlConfig::default()).unwrap()
        };
        let mut newest = std::collections::HashMap::new();
        for (version, lba) in writes.iter().enumerate() {
            nftl.write(*lba, version as u64).unwrap();
            newest.insert(*lba, version as u64);
        }
        for (lba, version) in newest {
            prop_assert_eq!(nftl.read(lba).unwrap(), Some(version));
        }
    }

    /// Whether a write merges depends on which virtual block it lands in, so
    /// the NFTL promises no erase-free writes, in any state.
    #[test]
    fn quiet_writes_is_always_zero(writes in prop::collection::vec(0u64..96, 1..300)) {
        let mut nftl = BlockMappedNftl::new(device(32, 8), NftlConfig::default()).unwrap();
        prop_assert_eq!(nftl.quiet_writes(), 0);
        for (version, lba) in writes.iter().enumerate() {
            nftl.write(*lba, version as u64).unwrap();
            prop_assert_eq!(nftl.quiet_writes(), 0);
        }
    }

    /// One replacement block at most per virtual block, and every open
    /// replacement belongs to a primary.
    #[test]
    fn replacement_accounting(writes in prop::collection::vec(0u64..128, 1..600)) {
        let mut nftl = BlockMappedNftl::new(device(48, 8), NftlConfig::default()).unwrap();
        for (i, lba) in writes.iter().enumerate() {
            nftl.write(*lba, i as u64).unwrap();
        }
        let virtual_blocks = (nftl.logical_pages() / 8) as usize;
        prop_assert!(nftl.open_replacements() <= virtual_blocks);
    }

    /// Sibling offsets in a virtual block survive any amount of hammering
    /// on one offset.
    #[test]
    fn siblings_survive_hammering(offset in 0u64..8, rounds in 50u64..400) {
        let mut nftl = BlockMappedNftl::new(device(16, 8), NftlConfig::default()).unwrap();
        for o in 0..8u64 {
            nftl.write(o, 1000 + o).unwrap();
        }
        for round in 0..rounds {
            nftl.write(offset, round).unwrap();
        }
        for o in 0..8u64 {
            let expected = if o == offset { rounds - 1 } else { 1000 + o };
            prop_assert_eq!(nftl.read(o).unwrap(), Some(expected));
        }
    }
}
