//! Micro-benchmarks of the SW Leveler primitives: the operations a firmware
//! controller runs on every erase (SWL-BETUpdate) and on every leveling
//! pass (the cyclic BET scan), plus snapshot codec and trace generation.
//!
//! Uses the in-repo `flash_bench::timing` harness (the registry-less build
//! cannot resolve Criterion). Run with `cargo bench -p flash-bench`.

use flash_bench::timing::{black_box, BenchGroup};
use flash_trace::{SyntheticTrace, WorkloadSpec, Zipf};
use hotid::{HotDataConfig, MultiHashIdentifier};
use nand::{CellKind, FreeBlockLadder, Geometry, NandDevice, PageAddr, SpareArea, VictimIndex};
use swl_core::counting::CountingLeveler;
use swl_core::persist::{DualBuffer, Snapshot};
use swl_core::rng::SplitMix64;
use swl_core::{SwLeveler, SwlCleaner, SwlConfig};

const BLOCKS: u32 = 4096; // the paper's 1 GiB MLC×2 chip

struct NoCopyCleaner;
impl SwlCleaner for NoCopyCleaner {
    type Error = std::convert::Infallible;
    fn erase_block_set(
        &mut self,
        first_block: u32,
        count: u32,
        erased: &mut Vec<u32>,
    ) -> Result<(), Self::Error> {
        erased.extend(first_block..first_block + count);
        Ok(())
    }
}

fn bench_bet_update(g: &mut BenchGroup) {
    let mut leveler = SwLeveler::new(BLOCKS, SwlConfig::new(u64::MAX / 2, 0)).unwrap();
    let mut block = 0u32;
    g.bench("swl/note_erase (SWL-BETUpdate)", || {
        block = (block + 1) % BLOCKS;
        black_box(leveler.note_erase(block));
    });
}

fn bench_cyclic_scan(g: &mut BenchGroup) {
    // Worst case for the scan: almost every flag set, one clear flag far
    // from findex.
    let mut leveler = SwLeveler::new(BLOCKS, SwlConfig::new(u64::MAX / 2, 0)).unwrap();
    for block in 0..BLOCKS - 1 {
        leveler.note_erase(block);
    }
    g.bench("swl/next_clear scan (4095/4096 set)", || {
        black_box(leveler.bet().next_clear(black_box(0)));
    });
}

fn bench_level_pass(g: &mut BenchGroup) {
    g.bench_batched(
        "swl/level pass (one hot block)",
        || {
            let mut leveler = SwLeveler::new(BLOCKS, SwlConfig::new(4, 0)).unwrap();
            for _ in 0..64 {
                leveler.note_erase(0);
            }
            leveler
        },
        |mut leveler| {
            leveler.level(&mut NoCopyCleaner).unwrap();
            leveler
        },
    );
}

fn bench_snapshot_codec(g: &mut BenchGroup) {
    let mut leveler = SwLeveler::new(BLOCKS, SwlConfig::new(100, 0)).unwrap();
    for block in (0..BLOCKS).step_by(3) {
        leveler.note_erase(block);
    }
    let encoded = Snapshot::capture(&leveler, 1).encode();
    g.bench("persist/snapshot encode", || {
        black_box(Snapshot::capture(&leveler, 1).encode());
    });
    g.bench("persist/snapshot decode", || {
        black_box(Snapshot::decode(&encoded).unwrap());
    });
    g.bench("persist/dual-buffer save+recover", || {
        let mut nvram = DualBuffer::new();
        nvram.save(&leveler);
        black_box(nvram.recover().unwrap());
    });
}

fn bench_trace_generation(g: &mut BenchGroup) {
    let spec = WorkloadSpec::paper(524_288).with_seed(1);
    g.bench("trace/synthetic 10k events", || {
        let trace = SyntheticTrace::new(spec.clone());
        black_box(trace.take(10_000).count());
    });
    let zipf = Zipf::new(24_000, 0.95);
    let mut u = 0.0f64;
    g.bench("trace/zipf sample", || {
        u = (u + 0.618_034) % 1.0;
        black_box(zipf.sample(u));
    });
}

fn bench_hot_data(g: &mut BenchGroup) {
    let mut id = MultiHashIdentifier::new(HotDataConfig::default()).unwrap();
    let mut lba = 0u64;
    g.bench("hotid/record_write", || {
        lba = lba.wrapping_add(0x9E37_79B9) % 500_000;
        black_box(id.record_write(lba));
    });
    let mut id = MultiHashIdentifier::new(HotDataConfig::default()).unwrap();
    for lba in 0..10_000u64 {
        id.record_write(lba % 64);
    }
    let mut lba = 0u64;
    g.bench("hotid/is_hot", || {
        lba = (lba + 1) % 128;
        black_box(id.is_hot(lba));
    });
    let mut id = MultiHashIdentifier::new(HotDataConfig::default()).unwrap();
    g.bench("hotid/decay (8192 counters)", || id.decay());
}

fn bench_counting_leveler(g: &mut BenchGroup) {
    // The cost the BET avoids: a full-table scan per leveling decision.
    let mut wl = CountingLeveler::new(BLOCKS, 2);
    for block in 0..BLOCKS {
        for _ in 0..(block % 7) {
            wl.note_erase(block);
        }
    }
    g.bench("counting-wl/pick_victim (4096 blocks)", || {
        black_box(wl.pick_victim());
    });
}

/// GC victim selection: the seed's O(blocks) cyclic scan against the
/// incremental `VictimIndex`, on the worst-case population for the scan
/// (no block qualifies, so the fallback walks the whole chip).
fn bench_victim_selection(g: &mut BenchGroup) {
    for blocks in [1024u32, 4096, 16384] {
        let mut rng = SplitMix64::new(0xB10C + u64::from(blocks));
        let states: Vec<(u32, u32)> = (0..blocks)
            .map(|_| {
                let invalid = rng.range_u64(1..64) as u32;
                let valid = 64 + rng.range_u64(0..64) as u32; // invalid ≤ valid
                (invalid, valid)
            })
            .collect();

        // The pre-index path: greedy-else-max-invalid linear scan.
        let mut cursor = 0u32;
        g.bench(&format!("gc/victim linear scan ({blocks} blocks)"), || {
            cursor = (cursor + 97) % blocks;
            let mut fallback: Option<(u32, u32)> = None;
            for step in 0..blocks {
                let b = (cursor + step) % blocks;
                let (invalid, valid) = states[b as usize];
                if invalid > valid {
                    fallback = Some((invalid, b));
                    break;
                }
                if fallback.is_none_or(|(best, _)| invalid > best) {
                    fallback = Some((invalid, b));
                }
            }
            black_box(fallback);
        });

        let mut index = VictimIndex::new(blocks);
        for (b, &(invalid, valid)) in states.iter().enumerate() {
            index.update(b as u32, true, invalid, valid);
        }
        let mut cursor = 0u32;
        g.bench(&format!("gc/victim index select ({blocks} blocks)"), || {
            cursor = (cursor + 97) % blocks;
            black_box(index.select(cursor));
        });
    }
}

/// Min-wear free-block allocation: the seed's linear scan over the free
/// pool against the wear bucket ladder, steady-state pop/recycle loop.
fn bench_free_pop(g: &mut BenchGroup) {
    for blocks in [1024u32, 4096, 16384] {
        let mut rng = SplitMix64::new(0xF4EE + u64::from(blocks));
        let wears: Vec<u64> = (0..blocks).map(|_| rng.range_u64(0..50)).collect();

        let mut free: Vec<u32> = (0..blocks).collect();
        g.bench(
            &format!("alloc/free-pop linear scan ({blocks} blocks)"),
            || {
                let mut best = 0usize;
                let mut best_wear = u64::MAX;
                for (i, &b) in free.iter().enumerate() {
                    let wear = wears[b as usize];
                    if wear < best_wear {
                        best_wear = wear;
                        best = i;
                    }
                }
                let block = free.swap_remove(best);
                free.push(black_box(block)); // recycle: pool size stays constant
            },
        );

        let mut ladder = FreeBlockLadder::new();
        for b in 0..blocks {
            ladder.push(b, wears[b as usize]);
        }
        g.bench(
            &format!("alloc/free-pop wear ladder ({blocks} blocks)"),
            || {
                let block = ladder.pop_min().expect("pool never drains");
                ladder.push(black_box(block), wears[block as usize]);
            },
        );
    }
}

fn bench_device_ops(g: &mut BenchGroup) {
    let mut device = NandDevice::new(
        Geometry::new(4, 64, 2048),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
    );
    g.bench("nand/program+invalidate+erase cycle", || {
        for page in 0..64 {
            device
                .program(PageAddr::new(0, page), u64::from(page), SpareArea::valid(0))
                .unwrap();
            device.invalidate(PageAddr::new(0, page)).unwrap();
        }
        device.erase(0).unwrap();
    });
    let device = NandDevice::new(Geometry::mlc2_1gib(), CellKind::Mlc2.spec());
    g.bench("nand/erase_stats (4096 blocks)", || {
        black_box(device.erase_stats());
    });
}

fn main() {
    let mut g = BenchGroup::new();
    bench_bet_update(&mut g);
    bench_cyclic_scan(&mut g);
    bench_level_pass(&mut g);
    bench_snapshot_codec(&mut g);
    bench_trace_generation(&mut g);
    bench_hot_data(&mut g);
    bench_counting_leveler(&mut g);
    bench_victim_selection(&mut g);
    bench_free_pop(&mut g);
    bench_device_ops(&mut g);
    g.report();
}
