//! Property tests of the NAND device state machine.

use proptest::prelude::*;

use nand::{CellKind, Geometry, NandDevice, NandError, PageAddr, PageState, SpareArea};

#[derive(Debug, Clone)]
enum DeviceOp {
    Program {
        block: u32,
        page: u32,
        data: u64,
        lba: Option<u64>,
    },
    Invalidate {
        block: u32,
        page: u32,
    },
    Erase {
        block: u32,
    },
    Read {
        block: u32,
        page: u32,
    },
}

/// The spare LBA of a program, drawn apart from its data: mostly one the
/// 30-bit spare field holds, some at its edge or anywhere in `u64` (those
/// above `SpareArea::MAX_LBA` are refused; `u64::MAX` means none), some none.
fn spare_lba() -> impl Strategy<Value = Option<u64>> {
    let max = SpareArea::MAX_LBA;
    prop_oneof![
        6 => (0..max + 1).prop_map(Some),
        1 => (max - 1..max + 3).prop_map(Some),
        2 => any::<u64>().prop_map(Some),
        1 => Just(None),
    ]
}

fn spare_of(lba: Option<u64>) -> SpareArea {
    lba.map_or(SpareArea::metadata(0), SpareArea::valid)
}

fn ops(blocks: u32, pages: u32, len: usize) -> impl Strategy<Value = Vec<DeviceOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0..blocks, 0..pages, any::<u64>(), spare_lba())
                .prop_map(|(block, page, data, lba)| DeviceOp::Program { block, page, data, lba }),
            2 => (0..blocks, 0..pages)
                .prop_map(|(block, page)| DeviceOp::Invalidate { block, page }),
            1 => (0..blocks).prop_map(|block| DeviceOp::Erase { block }),
            2 => (0..blocks, 0..pages).prop_map(|(block, page)| DeviceOp::Read { block, page }),
        ],
        0..len,
    )
}

proptest! {
    /// The device agrees with a naive shadow state machine on every
    /// operation outcome (a program whose spare LBA does not fit the 30-bit
    /// field is refused, leaving the page as it was, counting no program and
    /// charging no time), reads return the programmed data and spare, and
    /// per-block valid/invalid counters always match a recount.
    #[test]
    fn device_matches_shadow_state_machine(ops in ops(6, 4, 400)) {
        let geometry = Geometry::new(6, 4, 512);
        let spec = CellKind::Slc.spec();
        let mut device = NandDevice::new(geometry, spec);
        let blank = (PageState::Free, 0u64, SpareArea::default());
        let mut shadow = vec![vec![blank; 4]; 6];
        let mut shadow_erases = [0u64; 6];
        let (mut programs, mut reads) = (0u64, 0u64);

        for op in ops {
            match op {
                DeviceOp::Program { block, page, data, lba } => {
                    let addr = PageAddr::new(block, page);
                    let spare = spare_of(lba);
                    let before = (device.counters(), device.busy_ns());
                    let result = device.program(addr, data, spare);
                    let cell = &mut shadow[block as usize][page as usize];
                    match lba {
                        Some(lba) if lba > SpareArea::MAX_LBA && lba != u64::MAX => {
                            prop_assert_eq!(
                                result,
                                Err(NandError::SpareLbaOutOfRange { addr, lba })
                            );
                            prop_assert_eq!(device.block(block).page_state(page), cell.0);
                            prop_assert_eq!((device.counters(), device.busy_ns()), before);
                        }
                        _ if cell.0 == PageState::Free => {
                            prop_assert!(result.is_ok());
                            *cell = (PageState::Valid, data, spare);
                            programs += 1;
                        }
                        _ => {
                            prop_assert_eq!(result, Err(NandError::ProgramOnUsedPage { addr }));
                        }
                    }
                }
                DeviceOp::Invalidate { block, page } => {
                    let addr = PageAddr::new(block, page);
                    let result = device.invalidate(addr);
                    let cell = &mut shadow[block as usize][page as usize];
                    if cell.0 == PageState::Valid {
                        prop_assert!(result.is_ok());
                        cell.0 = PageState::Invalid;
                    } else {
                        prop_assert!(result.is_err());
                    }
                }
                DeviceOp::Erase { block } => {
                    prop_assert!(device.erase(block).is_ok());
                    for cell in &mut shadow[block as usize] {
                        *cell = blank;
                    }
                    shadow_erases[block as usize] += 1;
                }
                DeviceOp::Read { block, page } => {
                    let addr = PageAddr::new(block, page);
                    let result = device.read(addr);
                    let cell = shadow[block as usize][page as usize];
                    if cell.0 == PageState::Free {
                        prop_assert_eq!(result, Err(NandError::ReadOfFreePage { addr }));
                    } else {
                        let read = result.unwrap();
                        prop_assert_eq!((read.data, read.spare), (cell.1, cell.2));
                        reads += 1;
                    }
                }
            }
        }

        for b in 0..6u32 {
            let blk = device.block(b);
            let valid = shadow[b as usize]
                .iter()
                .filter(|(s, _, _)| *s == PageState::Valid)
                .count() as u32;
            let invalid = shadow[b as usize]
                .iter()
                .filter(|(s, _, _)| *s == PageState::Invalid)
                .count() as u32;
            prop_assert_eq!(blk.valid_pages(), valid);
            prop_assert_eq!(blk.invalid_pages(), invalid);
            prop_assert_eq!(blk.erase_count(), shadow_erases[b as usize]);
        }
        let erases: u64 = shadow_erases.iter().sum();
        let counters = device.counters();
        prop_assert_eq!((counters.programs, counters.reads, counters.erases), (programs, reads, erases));
        let t = spec.timing;
        prop_assert_eq!(
            device.busy_ns(),
            programs * t.program_ns + reads * t.read_ns + erases * t.erase_ns
        );
    }

    /// The first-failure record points at the first block to reach the
    /// endurance limit and is never displaced.
    #[test]
    fn first_failure_is_earliest(erase_seq in prop::collection::vec(0u32..4, 1..200)) {
        let endurance = 5u32;
        let geometry = Geometry::new(4, 2, 512);
        let mut device =
            NandDevice::new(geometry, CellKind::Mlc2.spec().with_endurance(endurance));
        let mut counts = [0u64; 4];
        let mut expected: Option<u32> = None;
        for block in erase_seq {
            device.erase(block).unwrap();
            counts[block as usize] += 1;
            if counts[block as usize] == u64::from(endurance) && expected.is_none() {
                expected = Some(block);
            }
        }
        prop_assert_eq!(device.first_failure().map(|f| f.block), expected);
    }

    /// Busy time equals the sum of per-op latencies.
    #[test]
    fn busy_time_is_additive(programs in 0u32..8, erases in 0u32..5) {
        let geometry = Geometry::new(2, 8, 512);
        let spec = CellKind::Slc.spec();
        let mut device = NandDevice::new(geometry, spec);
        for p in 0..programs {
            device
                .program(PageAddr::new(0, p), 0, SpareArea::valid(0))
                .unwrap();
        }
        for _ in 0..erases {
            device.erase(1).unwrap();
        }
        let expected = u64::from(programs) * spec.timing.program_ns
            + u64::from(erases) * spec.timing.erase_ns;
        prop_assert_eq!(device.busy_ns(), expected);
    }
}

/// The fault paths on the page record, driven through the device: a torn
/// program, the bad-block marker, a torn erase and a completed erase each
/// leave exactly the spare, payload visibility and state the translation
/// layers' mount passes rely on.
#[test]
fn torn_ops_and_the_bad_block_marker_on_the_page_record() {
    use nand::FaultPlan;

    let blank = SpareArea::default();
    // Mutating op 2 (the third program) is cut mid-flight.
    let mut device = NandDevice::new(Geometry::new(2, 4, 512), CellKind::Slc.spec())
        .with_fault_plan(FaultPlan::new(1).with_power_cut(2, true));
    device
        .program(PageAddr::new(0, 0), 10, SpareArea::valid(100))
        .unwrap();
    device
        .program(PageAddr::new(0, 1), 11, SpareArea::valid(101))
        .unwrap();
    assert_eq!(
        device.program(PageAddr::new(0, 2), 12, SpareArea::valid(102)),
        Err(NandError::PowerCut)
    );
    device.power_cycle();

    // tear_program: the page is consumed, carries no metadata, and its
    // payload is not the one the host sent; its neighbours are untouched.
    let block = device.block(0);
    assert!(block.page_state(2).is_invalid());
    assert_eq!(block.spare(2), blank);
    assert_eq!((block.valid_pages(), block.invalid_pages()), (2, 1));
    assert_ne!(device.read(PageAddr::new(0, 2)).unwrap().data, 12);
    let kept = device.read(PageAddr::new(0, 1)).unwrap();
    assert_eq!((kept.data, kept.spare.lba()), (11, Some(101)));

    // mark_bad: page 0's spare becomes the marker; its state, its payload
    // and the block's counts stay as they were.
    device.mark_bad(0).unwrap();
    let block = device.block(0);
    assert!(block.spare(0).is_bad_block_marker());
    assert!(block.page_state(0).is_valid());
    assert_eq!((block.valid_pages(), block.invalid_pages()), (2, 1));
    assert_eq!(device.read(PageAddr::new(0, 0)).unwrap().data, 10);

    // tear_erase: every programmed page collapses to invalid with a blank
    // spare (the marker goes with it), free pages stay free, no wear.
    device.rearm_power_cut(device.fault_ops(), true);
    assert_eq!(device.erase(0), Err(NandError::PowerCut));
    device.power_cycle();
    let block = device.block(0);
    for page in 0..3 {
        assert!(block.page_state(page).is_invalid(), "page {page}");
        assert_eq!(block.spare(page), blank, "page {page}");
    }
    assert!(block.page_state(3).is_free());
    assert_eq!((block.valid_pages(), block.invalid_pages()), (0, 3));
    assert_eq!(block.erase_count(), 0);

    // A marker programmed onto a *free* page 0 does not consume the page.
    device.mark_bad(1).unwrap();
    assert!(device.block(1).spare(0).is_bad_block_marker());
    assert!(device.block(1).page_state(0).is_free());
    assert_eq!(device.block(1).free_pages(), 4);

    // erase: every spare back to default, every payload unreadable because
    // the state is free, counts zeroed, one cycle of wear.
    for b in 0..2 {
        device.erase(b).unwrap();
        assert_eq!(device.block(b).erase_count(), 1);
        assert_eq!(device.block(b).free_pages(), 4);
        for page in 0..4 {
            assert_eq!(device.block(b).spare(page), blank);
            let addr = PageAddr::new(b, page);
            assert_eq!(device.read(addr), Err(NandError::ReadOfFreePage { addr }));
        }
    }
    // And the erased pages program again.
    device
        .program(PageAddr::new(0, 2), 22, SpareArea::valid(7))
        .unwrap();
    assert_eq!(device.read(PageAddr::new(0, 2)).unwrap().data, 22);
}
