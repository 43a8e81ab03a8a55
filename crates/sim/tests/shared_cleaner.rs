//! One suite for the shared Cleaner — `nand::BlockPool` and the
//! `nand::SwlHost` shell — written once and run for both mappings. Telemetry
//! transparency, span attribution, fault survival, leveling and erase
//! attribution are properties of the shared half, so the same workload goes
//! through both (the page-mapped FTL adds its trim verb where it matters).

use std::collections::HashMap;

use flash_sim::{Layer, LayerKind, SimConfig, SimError, TranslationLayer};
use flash_telemetry::{
    CountSink, Event, FlashCounters, MetricsAggregator, Sink, SpanCause, SpanKind, SpanReplayer,
    VecSink,
};
use ftl::FtlError;
use nand::{CellKind, FaultPlan, Geometry, NandDevice};
use nftl::NftlError;
use proptest::prelude::*;
use swl_core::{LevelOutcome, SwLeveler, SwlConfig};

const KINDS: [LayerKind; 2] = [LayerKind::Ftl, LayerKind::Nftl];

fn device(blocks: u32, pages: u32) -> NandDevice {
    NandDevice::new(
        Geometry::new(blocks, pages, 2048),
        CellKind::Mlc2.spec().with_endurance(1_000_000),
    )
}

fn layer<S: Sink>(kind: LayerKind, device: NandDevice<S>, swl: Option<SwlConfig>) -> Layer<S> {
    Layer::build(kind, device, swl, &SimConfig::default()).unwrap()
}

fn check_consistency<S: Sink>(layer: &Layer<S>) {
    match layer {
        Layer::Ftl(l) => l.check_consistency(),
        Layer::Nftl(l) => l.check_consistency(),
    }
}

/// The pool legitimately ran dry (as opposed to a bug).
fn out_of_space(e: &SimError) -> bool {
    matches!(
        e,
        SimError::Ftl(FtlError::NoReclaimableSpace | FtlError::FreeExhausted)
            | SimError::Nftl(NftlError::NoReclaimableSpace | NftlError::FreeExhausted)
    )
}

/// The one workload every shared property runs, through both mappings: cold
/// data written once, then one hot LBA hammered — enough to push the leveler
/// past its threshold on a 16×4 chip.
const COLD_LBAS: u64 = 16;
const COLD_BASE: u64 = 9000;
const HOT_LBA: u64 = 20;
const HOT_ROUNDS: u64 = 400;

fn leveled<S: Sink>(kind: LayerKind, device: NandDevice<S>) -> Layer<S> {
    layer(kind, device, Some(SwlConfig::new(4, 0)))
}

/// Runs the whole workload through `write`.
fn hammer<S: Sink>(layer: &mut Layer<S>, mut write: impl FnMut(&mut Layer<S>, u64, u64)) {
    for lba in 0..COLD_LBAS {
        write(layer, lba, COLD_BASE + lba);
    }
    for round in 0..HOT_ROUNDS {
        write(layer, HOT_LBA, round);
    }
}

/// What the workload did to the chip.
fn hammer_outcome<S: Sink>(mut layer: Layer<S>) -> (FlashCounters, Vec<u64>) {
    hammer(&mut layer, |l, lba, data| l.write(lba, data).unwrap());
    (layer.counters(), layer.device().erase_counts())
}

#[test]
fn event_stream_reconstructs_counters_exactly() {
    for kind in KINDS {
        let mut layer = leveled(kind, device(16, 4).with_sink(VecSink::default()));
        for lba in 0..COLD_LBAS {
            layer.write(lba, COLD_BASE + lba).unwrap();
        }
        for round in 0..HOT_ROUNDS {
            layer.write(HOT_LBA, round).unwrap();
            if round % 7 == 0 {
                layer.read(round % COLD_LBAS).unwrap();
            }
            if let (Layer::Ftl(ftl), 200) = (&mut layer, round) {
                ftl.trim(5).unwrap();
            }
        }
        let counters = layer.counters();
        assert!(counters.swl_erases > 0, "{kind}: SWL must have run");
        let mut agg = MetricsAggregator::new();
        for event in layer.into_device().into_sink().events {
            agg.event(event);
        }
        assert_eq!(agg.counters(), counters, "{kind}");
        assert!(agg.swl_invokes() > 0, "{kind}");
    }
}

#[test]
fn spans_balance_and_attribute_all_device_time() {
    for kind in KINDS {
        let mut layer = leveled(kind, device(16, 4).with_sink(VecSink::default()));
        // Record the live per-write busy-time bracket the simulator would.
        let mut live_totals = Vec::new();
        hammer(&mut layer, |layer, lba, data| {
            let before = layer.device().busy_ns();
            layer.write(lba, data).unwrap();
            live_totals.push(layer.device().busy_ns() - before);
        });
        if let Layer::Ftl(ftl) = &mut layer {
            ftl.read(3).unwrap();
            ftl.trim(7).unwrap();
        }
        assert!(layer.counters().swl_erases > 0, "{kind}: SWL must have run");

        let mut replay = SpanReplayer::new();
        let mut writes = Vec::new();
        let (mut swl_ns, mut merge_ns, mut swl_spans) = (0u64, 0u64, 0u64);
        for event in &layer.into_device().into_sink().events {
            if let Event::SpanBegin {
                kind: SpanKind::Swl,
                ..
            } = event
            {
                swl_spans += 1;
            }
            if let Some(op) = replay.observe(event) {
                if op.kind == SpanKind::HostWrite {
                    swl_ns += op.ns(SpanCause::Swl);
                    merge_ns += op.ns(SpanCause::Merge);
                    writes.push(op);
                }
            }
        }
        assert!(replay.check().is_clean(), "{kind}: {:?}", replay.check());
        // Every live write reappears with a bit-exact total, fully
        // attributed across the causes.
        assert_eq!(writes.len(), live_totals.len());
        for (op, &live) in writes.iter().zip(&live_totals) {
            assert_eq!(op.total_ns(), live);
            assert_eq!(op.cause_ns.iter().sum::<u64>(), op.total_ns());
        }
        assert!(swl_spans > 0, "{kind}: SWL passes must open spans");
        match kind {
            LayerKind::Ftl => assert!(swl_ns > 0, "SWL passes must show up in the attribution"),
            // Merge cascades dominate NFTL overwrites, and an SWL pass's
            // device time is all inside nested merges (innermost-span
            // attribution), so the `swl` *self* bucket may legitimately be 0.
            LayerKind::Nftl => assert!(merge_ns > 0, "merges must show up in the attribution"),
        }
    }
}

#[test]
fn instrumented_and_fault_free_runs_match_the_plain_run() {
    for kind in KINDS {
        let plain = hammer_outcome(leveled(kind, device(16, 4)));
        let probed = device(16, 4).with_sink(CountSink::default());
        let probed = hammer_outcome(leveled(kind, probed));
        assert_eq!(
            plain, probed,
            "{kind}: telemetry must not perturb behaviour"
        );
        let disarmed = device(16, 4).with_fault_plan(FaultPlan::new(99));
        let disarmed = hammer_outcome(leveled(kind, disarmed));
        assert_eq!(
            plain, disarmed,
            "{kind}: a disarmed plan must change nothing"
        );
    }
}

/// Replays `writes` against a faulty chip, then requires every acknowledged
/// write to read back and the RAM tables to audit clean. With `may_run_dry`
/// the replay stops when the pool legitimately runs out of blocks; without
/// it every write must succeed. Returns the layer for fault-specific checks.
fn acked_writes_survive_faults(
    mut layer: Layer,
    writes: impl Iterator<Item = (u64, u64)>,
    may_run_dry: bool,
) -> Layer {
    let mut shadow = HashMap::new();
    for (lba, data) in writes {
        match layer.write(lba, data) {
            Ok(()) => {
                shadow.insert(lba, data);
            }
            Err(e) if may_run_dry && out_of_space(&e) => break,
            Err(other) => panic!("{}: unexpected error {other}", layer.kind()),
        }
    }
    for (lba, data) in shadow {
        assert_eq!(layer.read(lba).unwrap(), Some(data), "lba {lba}");
    }
    check_consistency(&layer);
    layer
}

/// 24 LBAs rewritten round after round, tagged with the round.
fn sweeps(rounds: u64) -> impl Iterator<Item = (u64, u64)> {
    (0..rounds).flat_map(|round| (0..24u64).map(move |lba| (lba, round * 1000 + lba)))
}

#[test]
fn program_failure_remaps_and_preserves_data() {
    // The FTL remaps a failed program to the next page and must ack all 200
    // writes. In the NFTL every program failure costs a whole block (the
    // grown-bad block is retired at its next merge), so its pool can
    // legitimately run dry; it stops cleanly when it does.
    let ftl = device(16, 4).with_fault_plan(FaultPlan::new(7).with_program_fail_prob(0.05));
    let ftl_writes = (0..200u64).map(|round| ((round * 13) % 24, round));
    let nftl = device(24, 4).with_fault_plan(FaultPlan::new(11).with_program_fail_prob(0.02));
    for layer in [
        acked_writes_survive_faults(layer(LayerKind::Ftl, ftl, None), ftl_writes, false),
        acked_writes_survive_faults(layer(LayerKind::Nftl, nftl, None), sweeps(40), true),
    ] {
        let blocks = layer.device().geometry().blocks();
        let grown_bad = (0..blocks)
            .filter(|&b| layer.device().is_bad_block(b))
            .count();
        assert!(grown_bad > 0, "{}: the fail rate must bite", layer.kind());
    }
}

#[test]
fn erase_failure_retires_block_and_layer_survives() {
    // Tight endurance: blocks start dying after a handful of cycles, so the
    // free ladder shrinks as the workload runs. Acked writes must stay
    // readable — with the leveler running (FTL) and without (NFTL) — and
    // retirement must be reported.
    let ftl = device(24, 4).with_fault_plan(FaultPlan::new(3).with_endurance_range(6, 10));
    let ftl_writes = (0..2000u64).map(|round| ((round * 7) % 32, round));
    let nftl = device(24, 4).with_fault_plan(FaultPlan::new(5).with_endurance_range(4, 8));
    for layer in [
        acked_writes_survive_faults(
            layer(LayerKind::Ftl, ftl, Some(SwlConfig::new(4, 0))),
            ftl_writes,
            true,
        ),
        acked_writes_survive_faults(layer(LayerKind::Nftl, nftl, None), sweeps(200), true),
    ] {
        let counters = layer.counters();
        assert!(
            counters.retired_blocks > 0,
            "{}: endurance range must retire blocks: {counters:?}",
            layer.kind()
        );
    }
}

#[test]
fn over_committed_space_fails_cleanly() {
    // 4 blocks × 4 pages with every logical page live: GC (or a merge) has
    // no room to breathe.
    for kind in KINDS {
        let mut layer = layer(kind, device(4, 4), None);
        let failure = (0..4u64)
            .flat_map(|round| (0..16u64).map(move |lba| (lba, round)))
            .find_map(|(lba, round)| layer.write(lba, round).err())
            .unwrap_or_else(|| panic!("over-committed {kind} must fail"));
        match kind {
            LayerKind::Ftl => assert_eq!(failure, SimError::Ftl(FtlError::NoReclaimableSpace)),
            LayerKind::Nftl => assert!(out_of_space(&failure), "unexpected error {failure}"),
        }
    }
}

#[test]
fn leveling_keeps_cold_data_and_attributes_every_erase() {
    for kind in KINDS {
        let mut layer = leveled(kind, device(16, 4));
        hammer(&mut layer, |l, lba, data| l.write(lba, data).unwrap());
        let c = layer.counters();
        assert!(c.swl_erases > 0, "{kind}: SWL must have triggered: {c:?}");
        assert_eq!(c.total_erases(), layer.device().counters().erases, "{kind}");
        let stats = layer.swl().unwrap().stats();
        assert!(
            stats.interval_resets > 0 || stats.sets_cleaned > 0,
            "{kind}"
        );
        // Cold data survived the forced moves.
        for lba in 0..COLD_LBAS {
            assert_eq!(layer.read(lba).unwrap(), Some(COLD_BASE + lba), "{kind}");
        }
        assert_eq!(layer.read(HOT_LBA).unwrap(), Some(HOT_ROUNDS - 1));
        check_consistency(&layer);
    }
}

#[test]
fn swl_flattens_wear_distribution() {
    // Cold data occupying half the logical space, two hot LBAs hammered.
    for kind in KINDS {
        let run = |swl: Option<SwlConfig>| -> f64 {
            let mut layer = layer(kind, device(16, 8), swl);
            for lba in 0..64u64 {
                layer.write(lba, lba).unwrap();
            }
            for round in 0..4000u64 {
                layer.write(64 + round % 2, round).unwrap();
            }
            layer.device().erase_stats().std_dev
        };
        let plain = run(None);
        let leveled = run(Some(SwlConfig::new(8, 0)));
        assert!(
            leveled < plain,
            "{kind}: SWL must flatten the erase distribution: {leveled:.2} vs {plain:.2}"
        );
    }
}

/// The page-mapped FTL charges a pool refill that runs inside an SWL pass to
/// SWL: the GC episode is counted as a collection, but its erase and its
/// copy land in the `swl_*` counters.
#[test]
fn ftl_charges_swl_pool_refill_to_swl() {
    let mut layer = layer(LayerKind::Ftl, device(8, 4), None);
    // 29 distinct LBAs: blocks 0..=6 full, block 7 the frontier, nothing
    // reclaimable — the pool drains to zero.
    for lba in 0..29u64 {
        layer.write(lba, 100 + lba).unwrap();
    }
    // Give the refill a cheap victim: block 1 keeps one live page.
    let Layer::Ftl(ftl) = &mut layer else {
        unreachable!()
    };
    for lba in 4..7u64 {
        ftl.trim(lba).unwrap();
    }
    assert_eq!(layer.counters().total_erases(), 0);

    // A fresh leveler starts at block 0: in use, so the pass must first
    // refill the pool (victim: block 1, one copy) and then relocate block
    // 0's four pages.
    layer.attach_swl(SwLeveler::new(8, SwlConfig::new(1000, 0)).unwrap());
    assert_eq!(
        layer.run_swl_step().unwrap(),
        LevelOutcome::Leveled {
            sets_cleaned: 1,
            erases_triggered: 2
        }
    );
    let c = layer.counters();
    assert_eq!(c.gc_collections, 1, "the refill is a GC episode");
    assert_eq!((c.gc_erases, c.swl_erases), (0, 2));
    assert_eq!((c.gc_live_copies, c.swl_live_copies), (0, 5));
    for lba in (0..4u64).chain(7..29) {
        assert_eq!(layer.read(lba).unwrap(), Some(100 + lba));
    }
    check_consistency(&layer);
}

/// The NFTL books the same refill under GC (`gc_collections`, `gc_merges`),
/// never under `swl_merges` — and with a truly empty pool the GC merge cannot
/// get the fresh block it needs, so the pass fails cleanly before erasing or
/// copying anything under either cause.
#[test]
fn nftl_charges_swl_pool_refill_to_gc() {
    // Every erase fails, so merged-away blocks retire instead of returning
    // to the pool: the only way to drain an NFTL pool at rest.
    let d = device(6, 4).with_fault_plan(FaultPlan::new(1).with_erase_fail_prob(1.0));
    let mut layer = layer(LayerKind::Nftl, d, None);
    // Three virtual blocks, each overwritten once: primaries 0, 2, 4 and
    // replacements 1, 3 — the sixth write finds one free block, merges VBA 0
    // into it (retiring blocks 0 and 1) and then runs out.
    for (vba, round) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)] {
        layer.write(vba * 4, 10 * vba + round).unwrap();
    }
    let exhausted = SimError::Nftl(NftlError::FreeExhausted);
    assert_eq!(layer.write(8, 21), Err(exhausted));
    let before = layer.counters();

    // Blocks 0 and 1 are retired (skipped); block 2 is VBA 1's primary, and
    // VBA 1 still has an open replacement for the refill to pick.
    layer.attach_swl(SwLeveler::new(6, SwlConfig::new(1000, 0)).unwrap());
    let outcome = (0..3).map(|_| layer.run_swl_step()).last().unwrap();
    assert_eq!(outcome, Err(exhausted));
    let c = layer.counters();
    assert_eq!(c.gc_collections, before.gc_collections + 1);
    assert_eq!(c.gc_merges, before.gc_merges + 1);
    assert_eq!(c.swl_merges, 0);
    assert_eq!(c.total_erases(), before.total_erases());
    assert_eq!(c.total_live_copies(), before.total_live_copies());
    for (lba, data) in [(0, 1), (4, 11), (8, 20)] {
        assert_eq!(layer.read(lba).unwrap(), Some(data));
    }
    check_consistency(&layer);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Erase and program attribution is exact against the device counters,
    /// with and without the leveler.
    #[test]
    fn counters_are_exact(
        writes in prop::collection::vec((0u64..150, any::<u64>()), 1..800),
        with_swl in any::<bool>(),
    ) {
        let swl = with_swl.then(|| SwlConfig::new(4, 1));
        let unworn = |blocks| NandDevice::new(
            Geometry::new(blocks, 8, 2048),
            CellKind::Mlc2.spec().with_endurance(u32::MAX),
        );
        for (kind, blocks) in [(LayerKind::Ftl, 32), (LayerKind::Nftl, 48)] {
            let mut layer = layer(kind, unworn(blocks), swl);
            for (lba, data) in &writes {
                layer.write(*lba, *data).unwrap();
            }
            let c = layer.counters();
            prop_assert_eq!(c.host_writes, writes.len() as u64);
            prop_assert_eq!(c.total_erases(), layer.device().counters().erases);
            // Every live copy was a device program beyond the host writes.
            prop_assert_eq!(
                layer.device().counters().programs,
                c.host_writes + c.total_live_copies()
            );
        }
    }
}
