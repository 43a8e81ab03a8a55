//! Merge-correctness and accounting invariants of the NFTL under
//! randomized workloads.

use proptest::prelude::*;

use nand::{CellKind, DeviceCounters, FaultPlan, Geometry, NandDevice, NandError};
use nftl::{BlockMappedNftl, NftlConfig, NftlCounters, NftlError};
use swl_core::{SwLeveler, SwlConfig};

fn device(blocks: u32, pages: u32) -> NandDevice {
    NandDevice::new(
        Geometry::new(blocks, pages, 2048),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
    )
}

/// On-flash kind byte (low byte of the spare status word) of a page appended
/// to a replacement block.
const STATUS_REPL: u32 = 2;

/// Open replacement blocks as the spare areas tell it — what `mount` would
/// find: blocks not marked bad whose first page with surviving metadata is a
/// replacement page.
fn replacements_on_flash(device: &NandDevice) -> usize {
    (0..device.geometry().blocks())
        .map(|b| device.block(b))
        .filter(|block| !block.spare(0).is_bad_block_marker())
        .filter(|block| {
            block
                .page_states()
                .filter(|(_, state)| !state.is_free())
                .map(|(page, _)| block.spare(page))
                .find(|spare| spare.lba().is_some())
                .is_some_and(|spare| spare.status() & 0xFF == STATUS_REPL)
        })
        .count()
}

const FAULT_BLOCKS: u32 = 24;
const FAULT_PAGES: u32 = 4;

/// One session of `steps` (`(is_read, lba)`) on a 24 × 4 chip under `plan`
/// with the SW Leveler at `T = 1`, surviving the plan's power cut by
/// remounting. After every step the replacement table agrees with the flash
/// and with itself, and every read returns the newest acknowledged value.
/// Returns what two sessions of one plan must agree on.
fn faulty_session(
    plan: FaultPlan,
    steps: &[(bool, u64)],
) -> Result<(Vec<u64>, NftlCounters, DeviceCounters), TestCaseError> {
    let swl = SwlConfig::new(1, 0);
    let device = device(FAULT_BLOCKS, FAULT_PAGES).with_fault_plan(plan);
    let mut nftl = BlockMappedNftl::with_swl(device, NftlConfig::default(), swl).unwrap();
    let mut newest = std::collections::HashMap::new();
    for (step, &(is_read, lba)) in steps.iter().enumerate() {
        if is_read {
            prop_assert_eq!(nftl.read(lba).unwrap(), newest.get(&lba).copied());
        } else {
            let data = step as u64 + 1;
            match nftl.write(lba, data) {
                Ok(()) => {
                    newest.insert(lba, data);
                }
                Err(error) => {
                    let cut = matches!(error, NftlError::Device(NandError::PowerCut));
                    if cut {
                        let mut chip = nftl.into_device();
                        chip.power_cycle();
                        nftl = BlockMappedNftl::mount(chip, NftlConfig::default()).unwrap();
                        nftl.attach_swl(SwLeveler::new(FAULT_BLOCKS, swl).unwrap());
                    } else {
                        // Faults retired the chip's slack away.
                        prop_assert!(matches!(
                            error,
                            NftlError::NoReclaimableSpace | NftlError::FreeExhausted
                        ));
                    }
                    // The write was not acknowledged: it may have landed (a
                    // cut or a dry pool inside the leveler pass after it).
                    let got = nftl.read(lba).unwrap();
                    prop_assert!(got == newest.get(&lba).copied() || got == Some(data));
                    newest.extend(got.map(|data| (lba, data)));
                    if !cut {
                        break;
                    }
                }
            }
        }
        prop_assert_eq!(
            nftl.open_replacements(),
            replacements_on_flash(nftl.device()),
            "step {}",
            step
        );
        nftl.check_consistency();
    }
    for (lba, data) in newest {
        prop_assert_eq!(nftl.read(lba).unwrap(), Some(data));
    }
    let device = nftl.device();
    Ok((device.erase_counts(), nftl.counters(), device.counters()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The replacement table under faults: program and erase failures drive
    /// `undo_merge` and the retire-and-retry copy loop, the power cut drives
    /// both mount passes, and the leveler (`T = 1`) closes replacements at
    /// moments of its own choosing — so the count is checked against the
    /// flash, not against a model of the policy.
    #[test]
    fn replacement_table_matches_flash_under_faults(
        steps in prop::collection::vec((any::<bool>(), 0u64..48), 1..500),
        seed in any::<u64>(),
        program_faults in any::<bool>(),
        erase_faults in any::<bool>(),
        cut_at in 0u64..1500,
        torn in any::<bool>(),
    ) {
        let plan = FaultPlan::new(seed)
            .with_program_fail_prob(if program_faults { 0.02 } else { 0.0 })
            .with_erase_fail_prob(if erase_faults { 0.02 } else { 0.0 })
            .with_power_cut(cut_at, torn);
        let first = faulty_session(plan, &steps)?;
        prop_assert_eq!(first, faulty_session(plan, &steps)?);
    }

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
