//! The `snapshots` artifact: the SW Leveler and the streaming merge under
//! 1, 4 and 16 pinning copy-on-write snapshots on one page-mapped chip.
//!
//! Every live snapshot pins cold pages that host overwrites would otherwise
//! have invalidated, so GC keeps relocating shared data and the leveler's
//! cold-block scan has to work around blocks it may not reclaim. Each arm
//! cold-fills the span, pins progressively diverging images, hammers the
//! hot eighth while they are pinned, then merges the oldest (most
//! divergent) snapshot back with the streaming dual-iterator merge and
//! deletes the rest. The merge's wall-clock throughput is layerbench's
//! `ftl.merge_lbas_per_s`; everything here is device counts.

use std::collections::HashMap;

use ftl::{FtlConfig, PageMappedFtl, SnapshotConfig};
use nand::{CellKind, Geometry, NandDevice};
use swl_core::rng::SplitMix64;
use swl_core::SwlConfig;

use crate::format_table;

const BLOCKS: u32 = 128;
const PAGES: u32 = 64;
/// Blocks per manifest buffer: 16 snapshots' epoch lists peak at ~191
/// record words, and each buffer holds `4 × 64 = 256`.
const MANIFEST_BLOCKS: u32 = 4;
const OVERPROVISION: u32 = 8;
/// Logical span the workload writes (the snapshot image size).
const SPAN: u64 = 1536;
/// Hot eighth of the span that takes 90 % of the writes.
const HOT: u64 = SPAN / 8;
/// Hot-biased writes between snapshot creates. Kept small on purpose: each
/// divergence phase pins one extra version of every LBA it overwrites, so
/// this bounds the physical space the 16-snapshot arm consumes.
const PER_PHASE: u64 = 768;
/// Final pinned hammer, in multiples of [`PER_PHASE`]. Long on purpose:
/// writes here diverge only from the *newest* snapshot (the older images
/// are already pinned), so wear accumulates without new capacity cost and
/// the leveler's trigger is reached in every arm.
const PINNED_HAMMER_PHASES: u64 = 48;
/// LBAs advanced per streaming-merge step.
const MERGE_STEP_LBAS: u64 = 256;
/// The snapshot counts the three arms pin.
const ARMS: [u64; 3] = [1, 4, 16];
#[rustfmt::skip]
const HEADERS: [&str; 10] = ["snapshots", "host writes", "swl erases", "gc erases", "wear",
    "spread", "WAF", "merge steps", "programs", "reads"];

/// One arm's scorecard.
struct Arm {
    snapshots: u64,
    host_writes: u64,
    /// Leveler / GC erases while at least one snapshot pinned.
    swl_erases_pinned: u64,
    gc_erases_pinned: u64,
    wear_mean: f64,
    wear_std: f64,
    wear_spread: u64,
    /// Device programs per host write over the whole run.
    waf: f64,
    merge_steps: u64,
    merge_programs: u64,
    merge_reads: u64,
    /// Post-merge read-back matched the overlay model over the whole span.
    verified: bool,
    /// Refcount audit balanced after deleting the surviving snapshots.
    audit_ok: bool,
}

/// Runs one arm: cold fill, `snapshots` create/diverge rounds, a long
/// pinned hammer, then the streaming merge of snapshot 1.
fn run_arm(snapshots: u64) -> Arm {
    let device = NandDevice::new(
        Geometry::new(BLOCKS, PAGES, 2048),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
    );
    let config = FtlConfig::new()
        .with_overprovision_blocks(OVERPROVISION)
        .with_snapshots(SnapshotConfig::new().with_manifest_blocks(MANIFEST_BLOCKS));
    let swl = SwlConfig::new(2, 0).with_seed(0x5EED);
    let mut ftl = PageMappedFtl::with_swl(device, config, swl).expect("arm build");
    let mut rng = SplitMix64::new(0x5A9B ^ snapshots);
    let mut flash: HashMap<u64, u64> = HashMap::new();
    let mut value = 0u64;

    // Cold image once, then the paper's skew until the first create.
    for lba in 0..SPAN {
        value += 1;
        ftl.write(lba, value).expect("cold fill");
        flash.insert(lba, value);
    }
    let mut hammer = |ftl: &mut PageMappedFtl, flash: &mut HashMap<u64, u64>, writes: u64| {
        for _ in 0..writes {
            let lba = if rng.chance(0.9) {
                rng.next_below(HOT)
            } else {
                rng.next_below(SPAN)
            };
            value += 1;
            ftl.write(lba, value).expect("host write");
            flash.insert(lba, value);
        }
    };
    hammer(&mut ftl, &mut flash, PER_PHASE);

    // Pin progressively diverging images: snapshot 1 is the oldest and
    // most divergent by merge time.
    let mut oldest_image = None;
    let pinned_from = ftl.counters();
    for id in 1..=snapshots {
        ftl.snapshot_create(id).expect("snapshot create");
        if id == 1 {
            oldest_image = Some(flash.clone());
        }
        hammer(&mut ftl, &mut flash, PER_PHASE);
    }
    hammer(&mut ftl, &mut flash, PER_PHASE * PINNED_HAMMER_PHASES);
    let pinned_to = ftl.counters();
    let oldest_image = oldest_image.expect("at least one snapshot");

    // Streaming merge of the oldest snapshot: mapping work only.
    let before = ftl.device().counters();
    ftl.merge_begin(1).expect("merge begin");
    let mut merge_steps = 1u64;
    while !ftl.merge_step(MERGE_STEP_LBAS).expect("merge step") {
        merge_steps += 1;
    }
    ftl.merge_commit().expect("merge commit");
    let after = ftl.device().counters();

    // The merged device is the origin overlaid with the snapshot image.
    let verified = (0..SPAN).all(|lba| {
        let expected = oldest_image.get(&lba).or(flash.get(&lba)).copied();
        ftl.read(lba).expect("merged read") == expected
    });

    // Drop the surviving snapshots; the book must balance afterwards.
    for id in 2..=snapshots {
        ftl.snapshot_delete(id).expect("snapshot delete");
    }
    let audit = ftl.snapshot_audit().expect("snapshots enabled");
    let audit_ok = audit.refcount_sum == audit.mapping_count
        && audit.snapshots == 0
        && audit.pending_merge == 0;

    let counters = ftl.counters();
    let wear = ftl.device().erase_stats();
    Arm {
        snapshots,
        host_writes: counters.host_writes,
        swl_erases_pinned: pinned_to.swl_erases - pinned_from.swl_erases,
        gc_erases_pinned: pinned_to.gc_erases - pinned_from.gc_erases,
        wear_mean: wear.mean,
        wear_std: wear.std_dev,
        wear_spread: wear.max - wear.min,
        waf: ftl.device().counters().programs as f64 / counters.host_writes.max(1) as f64,
        merge_steps,
        merge_programs: after.programs - before.programs,
        merge_reads: after.reads - before.reads,
        verified,
        audit_ok,
    }
}

/// `ok`, or the arms that fail `holds`.
fn verdict(arms: &[Arm], holds: impl Fn(&Arm) -> bool) -> String {
    let failing: Vec<String> = arms
        .iter()
        .filter(|arm| !holds(arm))
        .map(|arm| arm.snapshots.to_string())
        .collect();
    match failing.is_empty() {
        true => "ok".to_owned(),
        false => format!("FAILED at {} snapshot(s)", failing.join(", ")),
    }
}

/// The artifact's text.
pub(super) fn render() -> String {
    let arms: Vec<Arm> = ARMS.into_iter().map(run_arm).collect();
    let rows: Vec<Vec<String>> = arms
        .iter()
        .map(|arm| {
            vec![
                arm.snapshots.to_string(),
                arm.host_writes.to_string(),
                arm.swl_erases_pinned.to_string(),
                arm.gc_erases_pinned.to_string(),
                format!("{:.2}±{:.2}", arm.wear_mean, arm.wear_std),
                arm.wear_spread.to_string(),
                format!("{:.3}", arm.waf),
                arm.merge_steps.to_string(),
                arm.merge_programs.to_string(),
                arm.merge_reads.to_string(),
            ]
        })
        .collect();
    format!(
        "Copy-on-write snapshots under the SW Leveler\n\
         ({BLOCKS} blocks x {PAGES} pages, {OVERPROVISION} over-provisioned, SWL T=2 k=0;\n\
         span {SPAN}, hot {HOT}, {PER_PHASE} writes per phase, a {PINNED_HAMMER_PHASES}-phase \
         pinned hammer)\n\n{}\n\
         swl / gc erases: while at least one snapshot pinned; wear: per-block\n\
         erases at the end (mean±dev, spread = max - min); WAF: device programs\n\
         per host write; merge: snapshot 1 back into the origin, {MERGE_STEP_LBAS} LBAs per\n\
         step, with the device programs and reads it cost.\n\n\
         merge verified (origin overlaid with snapshot 1's image): {}\n\
         refcount audit balanced after deleting the rest: {}\n\
         leveler fired while pinned: {}\n\
         merge programs < span (a mapping merge, not a data copy): {}\n",
        format_table(&HEADERS, &rows),
        verdict(&arms, |a| a.verified),
        verdict(&arms, |a| a.audit_ok),
        verdict(&arms, |a| a.swl_erases_pinned > 0),
        verdict(&arms, |a| a.merge_programs < SPAN),
    )
}
