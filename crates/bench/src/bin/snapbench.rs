//! `snapbench` — merge throughput and SWL behavior under pinning snapshots.
//!
//! Copy-on-write snapshots change the leveler's world: every live snapshot
//! pins cold pages that host overwrites would otherwise have invalidated,
//! so GC keeps relocating shared data and the SW Leveler's cold-block scan
//! has to work around blocks it may not reclaim. This bench quantifies
//! both sides at **1, 4, and 16 pinning snapshots**:
//!
//! - **SWL behavior**: erases attributed to the leveler and to GC while
//!   the snapshots pin diverging images, plus the end-of-run wear spread
//!   (`max - min` erase counts) and write amplification. The leveler must
//!   actually fire in every arm (`swl_erases > 0` is asserted).
//! - **Merge throughput**: the oldest (most divergent) snapshot is merged
//!   back with the *streaming* dual-iterator merge (`merge_begin` /
//!   `merge_step` / `merge_commit`), timed wall-clock. The merge is
//!   mapping-only — the bench asserts the device programs fewer pages
//!   during the whole merge than the image it merges spans (the programs
//!   are the two manifest commits, not data copies).
//!
//! Every arm is also *verified*: the merged device must read back as the
//! origin overlaid with the snapshot image over the entire write span, and
//! after deleting the surviving snapshots the refcount audit must balance
//! (`Σ refs == live mappings`, zero snapshots, zero pending releases).
//!
//! The JSON summary lands in `BENCH_snap.json`; any assertion failure
//! exits non-zero. Usage: `snapbench [--per-phase N]`.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use flash_telemetry::json;
use ftl::{FtlConfig, PageMappedFtl, SnapshotConfig};
use nand::{CellKind, Geometry, NandDevice};
use swl_core::rng::SplitMix64;
use swl_core::SwlConfig;

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
const DEFAULT_PER_PHASE: u64 = 768;
/// Final pinned hammer, in multiples of the per-phase count. Long on
/// purpose: writes here diverge only from the *newest* snapshot (the older
/// images are already pinned), so wear accumulates without new capacity
/// cost and the leveler's trigger is reached in every arm.
const PINNED_HAMMER_PHASES: u64 = 48;
/// LBAs advanced per streaming-merge step.
const MERGE_STEP_LBAS: u64 = 256;

/// The snapshot counts the three arms pin.
const ARMS: [u64; 3] = [1, 4, 16];

fn device() -> NandDevice {
    NandDevice::new(
        Geometry::new(BLOCKS, PAGES, 2048),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
    )
}

fn ftl_config() -> FtlConfig {
    FtlConfig::new()
        .with_overprovision_blocks(OVERPROVISION)
        .with_snapshots(SnapshotConfig::new().with_manifest_blocks(MANIFEST_BLOCKS))
}

fn swl_config() -> SwlConfig {
    SwlConfig::new(2, 0).with_seed(0x5EED)
}

/// One arm's scorecard.
struct Arm {
    snapshots: u64,
    host_writes: u64,
    /// Leveler / GC erases while at least one snapshot pinned.
    swl_erases_pinned: u64,
    gc_erases_pinned: u64,
    /// End-of-run wear figures over the data blocks.
    wear_mean: f64,
    wear_std: f64,
    wear_min: u64,
    wear_max: u64,
    /// Device programs per host write over the whole run.
    waf: f64,
    /// Streaming-merge figures for the oldest snapshot.
    merge_lbas: u64,
    merge_steps: u64,
    merge_wall_s: f64,
    merge_programs: u64,
    merge_reads: u64,
    /// Post-merge read-back matched the overlay model bit for bit.
    verified: bool,
    /// Refcount audit balanced after deleting the surviving snapshots.
    audit_ok: bool,
}

/// Runs one arm: cold fill, `snapshots` create/diverge rounds, a long
/// pinned hammer, then the timed streaming merge of snapshot 1.
fn run_arm(snapshots: u64, per_phase: u64) -> Arm {
    let mut ftl =
        PageMappedFtl::with_swl(device(), ftl_config(), swl_config()).expect("arm build");
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
    hammer(&mut ftl, &mut flash, per_phase);

    // Pin progressively diverging images: snapshot 1 is the oldest and
    // most divergent by merge time.
    let mut oldest_image = None;
    let pinned_from = ftl.counters();
    for id in 1..=snapshots {
        ftl.snapshot_create(id).expect("snapshot create");
        if id == 1 {
            oldest_image = Some(flash.clone());
        }
        hammer(&mut ftl, &mut flash, per_phase);
    }
    // The long pinned phase: every snapshot holds its image while the
    // leveler fights the skew.
    hammer(&mut ftl, &mut flash, per_phase * PINNED_HAMMER_PHASES);
    let pinned_to = ftl.counters();
    let oldest_image = oldest_image.expect("at least one snapshot");

    // Timed streaming merge of the oldest snapshot: mapping work only.
    let before = ftl.device().counters();
    let start = Instant::now();
    ftl.merge_begin(1).expect("merge begin");
    let mut merge_steps = 0u64;
    loop {
        merge_steps += 1;
        if ftl.merge_step(MERGE_STEP_LBAS).expect("merge step") {
            break;
        }
    }
    ftl.merge_commit().expect("merge commit");
    let merge_wall_s = start.elapsed().as_secs_f64();
    let after = ftl.device().counters();

    // The merged device is the origin overlaid with the snapshot image.
    let mut verified = true;
    for lba in 0..SPAN {
        let got = ftl.read(lba).expect("merged read");
        let expected = oldest_image.get(&lba).or(flash.get(&lba)).copied();
        if got != expected {
            eprintln!(
                "snapbench: {snapshots}-snapshot arm diverged at lba {lba}: \
                 got {got:?}, expected {expected:?}"
            );
            verified = false;
        }
    }

    // Drop the surviving snapshots; the book must balance afterwards.
    for id in 2..=snapshots {
        ftl.snapshot_delete(id).expect("snapshot delete");
    }
    let audit = ftl.snapshot_audit().expect("snapshots enabled");
    let audit_ok =
        audit.refcount_sum == audit.mapping_count && audit.snapshots == 0 && audit.pending_merge == 0;

    let counters = ftl.counters();
    let wear = ftl.device().erase_stats();
    let device_counters = ftl.device().counters();
    Arm {
        snapshots,
        host_writes: counters.host_writes,
        swl_erases_pinned: pinned_to.swl_erases - pinned_from.swl_erases,
        gc_erases_pinned: pinned_to.gc_erases - pinned_from.gc_erases,
        wear_mean: wear.mean,
        wear_std: wear.std_dev,
        wear_min: wear.min,
        wear_max: wear.max,
        waf: device_counters.programs as f64 / counters.host_writes.max(1) as f64,
        merge_lbas: SPAN,
        merge_steps,
        merge_wall_s,
        merge_programs: after.programs - before.programs,
        merge_reads: after.reads - before.reads,
        verified,
        audit_ok,
    }
}

fn main() -> ExitCode {
    let per_phase = {
        let mut args = std::env::args().skip(1);
        let mut per_phase = DEFAULT_PER_PHASE;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--per-phase" => {
                    per_phase = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--per-phase needs a number");
                }
                other => panic!("unknown argument {other:?}"),
            }
        }
        per_phase.max(1)
    };
    println!(
        "snapbench: {BLOCKS} blocks x {PAGES} pages, span {SPAN}, hot {HOT}, \
         {per_phase} writes per phase, arms {ARMS:?}"
    );

    let arms: Vec<Arm> = ARMS.into_iter().map(|n| run_arm(n, per_phase)).collect();

    let mut pass = true;
    let mut failures: Vec<String> = Vec::new();
    for arm in &arms {
        let lbas_per_s = arm.merge_lbas as f64 / arm.merge_wall_s.max(1e-9);
        println!(
            "{:>2} snapshot(s): {} host writes, pinned-phase erases swl {} / gc {}, \
             wear {:.1}±{:.1} (spread {}), WAF {:.2}; merge {} lbas in {} steps, \
             {:.3} ms ({:.0} lbas/s), {} programs / {} reads",
            arm.snapshots,
            arm.host_writes,
            arm.swl_erases_pinned,
            arm.gc_erases_pinned,
            arm.wear_mean,
            arm.wear_std,
            arm.wear_max - arm.wear_min,
            arm.waf,
            arm.merge_lbas,
            arm.merge_steps,
            arm.merge_wall_s * 1e3,
            lbas_per_s,
            arm.merge_programs,
            arm.merge_reads,
        );
        if !arm.verified {
            pass = false;
            failures.push(format!(
                "snapbench: {}-snapshot merge diverged from the overlay model",
                arm.snapshots
            ));
        }
        if !arm.audit_ok {
            pass = false;
            failures.push(format!(
                "snapbench: {}-snapshot refcount audit did not balance",
                arm.snapshots
            ));
        }
        if arm.swl_erases_pinned == 0 {
            pass = false;
            failures.push(format!(
                "snapbench: the leveler never fired while {} snapshot(s) pinned",
                arm.snapshots
            ));
        }
        // Thin merge: manifest commits only, never a per-page data copy.
        if arm.merge_programs >= arm.merge_lbas {
            pass = false;
            failures.push(format!(
                "snapbench: {}-snapshot merge programmed {} pages for a {}-lba image — \
                 that is data copying, not a mapping merge",
                arm.snapshots, arm.merge_programs, arm.merge_lbas
            ));
        }
    }

    let json_text = json::object(|o| {
        o.str("bench", "snapshot_merge")
            .u64("blocks", u64::from(BLOCKS))
            .u64("pages_per_block", u64::from(PAGES))
            .u64("manifest_blocks", u64::from(MANIFEST_BLOCKS))
            .u64("span", SPAN)
            .u64("hot", HOT)
            .u64("per_phase", per_phase)
            .u64("merge_step_lbas", MERGE_STEP_LBAS)
            .bool("pass", pass)
            .arr("arms", |a| {
                for arm in &arms {
                    a.obj(|row| {
                        row.u64("snapshots", arm.snapshots)
                            .u64("host_writes", arm.host_writes)
                            .u64("swl_erases_pinned", arm.swl_erases_pinned)
                            .u64("gc_erases_pinned", arm.gc_erases_pinned)
                            .f64("wear_mean", arm.wear_mean, 2)
                            .f64("wear_std", arm.wear_std, 2)
                            .u64("wear_min", arm.wear_min)
                            .u64("wear_max", arm.wear_max)
                            .u64("wear_spread", arm.wear_max - arm.wear_min)
                            .f64("waf", arm.waf, 3)
                            .u64("merge_lbas", arm.merge_lbas)
                            .u64("merge_steps", arm.merge_steps)
                            .f64("merge_wall_s", arm.merge_wall_s, 6)
                            .f64(
                                "merge_lbas_per_s",
                                arm.merge_lbas as f64 / arm.merge_wall_s.max(1e-9),
                                0,
                            )
                            .u64("merge_programs", arm.merge_programs)
                            .u64("merge_reads", arm.merge_reads)
                            .bool("verified", arm.verified)
                            .bool("audit_ok", arm.audit_ok);
                    });
                }
            });
    });
    std::fs::write("BENCH_snap.json", json_text + "\n").expect("write BENCH_snap.json");
    println!("wrote BENCH_snap.json");
    for failure in &failures {
        eprintln!("{failure}");
    }
    if pass {
        println!("snapbench: OK");
        ExitCode::SUCCESS
    } else {
        println!("snapbench: FAILED");
        ExitCode::FAILURE
    }
}
