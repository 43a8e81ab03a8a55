//! Crash-consistency model checker: exhaustively cut power at **every**
//! operation boundary of a GC/SWL-heavy workload, remount, and verify the
//! recovery contract at each point. The checkers — host model, replay,
//! read-back, resume, and the list of everything they check — live in
//! [`flash_bench::crash`]; this binary enumerates the configurations, sweeps
//! every cut point `0..total_ops` of each, clean and torn, and tabulates
//! what the checkers found:
//!
//! 1. the plain layers (FTL/NFTL × SWL on/off) with the SW Leveler
//!    checkpointed to an NVRAM dual buffer;
//! 2. the 2-channel striped array driven by span-sized host requests, so
//!    power cuts land *mid-stripe*;
//! 3. the threaded engine with several requests in flight on real worker
//!    threads when the shared rail drops — SWL off, per channel, and under
//!    Global coordination (the FTL's writes run ahead between erases there
//!    too, so the cut finds the same window of unacknowledged requests; the
//!    NFTL's go page by page);
//! 4. the service write cache, whose flush is the only durability ack:
//!    every flush-acked write survives every cut point, and un-acked cached
//!    writes really do vanish at some (counted and required, so the lossy
//!    side of the contract is asserted, not assumed);
//! 5. the snapshot plane: creates, a delete, a rollback clone and an online
//!    merge, with the rail dropping inside the manifest commits that are
//!    each verb's atomic point.
//!
//! Violations are counted per category and listed on stderr; the exit code
//! is non-zero when any cut point breaks the contract.
//! `tests/crash_consistency.rs` runs a strided subset of the same checkers
//! in CI.
//!
//! Usage: `crashmc [rounds]` (default 16; higher = more cut points)

use std::process::ExitCode;

use flash_bench::crash::{swl_config, Stack, Sweep, SweepStats, BLOCKS, CHANNELS, PAGES};
use flash_bench::print_table;
use flash_sim::{LayerKind, SwlCoordination};
use swl_core::SwlConfig;

fn main() -> ExitCode {
    let rounds: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("rounds must be a number"))
        .unwrap_or(16);

    println!(
        "crashmc: exhaustive power-cut sweep ({BLOCKS} blocks x {PAGES} pages, \
         {rounds} workload rounds)\n"
    );

    let on = Some(swl_config());
    let (per_channel, global) = (SwlCoordination::PerChannel, SwlCoordination::Global);
    let groups: [&[(Stack, Option<SwlConfig>)]; 4] = [
        &[(Stack::Plain, None), (Stack::Plain, on)],
        &[
            (Stack::Striped(CHANNELS), None),
            (Stack::Striped(CHANNELS), on),
        ],
        &[
            (Stack::Engine(per_channel), None),
            (Stack::Engine(per_channel), on),
            (Stack::Engine(global), on),
        ],
        &[
            (Stack::Service(per_channel), None),
            (Stack::Service(per_channel), on),
        ],
    ];
    let mut sweeps = Vec::new();
    for arms in groups {
        for kind in [LayerKind::Ftl, LayerKind::Nftl] {
            sweeps.extend(arms.iter().map(|&(stack, swl)| Sweep { stack, kind, swl }));
        }
    }
    let (stack, kind) = (Stack::Snapshot, LayerKind::Ftl);
    sweeps.extend([None, on].map(|swl| Sweep { stack, kind, swl }));

    let mut rows = Vec::new();
    let mut grand_points = 0u64;
    let mut grand_violations = 0u64;
    let mut vanished_unacked = 0u64;
    for sweep in &sweeps {
        // The baseline run without a cut measures how many operation
        // boundaries the workload exposes.
        let total = sweep.total_ops(rounds);
        for torn in [false, true] {
            let mut stats = SweepStats::default();
            for cut_at in 0..total {
                sweep.check(rounds, cut_at, torn, &mut stats);
            }
            grand_points += stats.points;
            grand_violations += stats.violations();
            if matches!(sweep.stack, Stack::Service(_)) {
                vanished_unacked += stats.vanished;
            }
            for message in &stats.messages {
                eprintln!("{message}");
            }
            rows.push(vec![
                sweep.layer_label(),
                sweep.swl_label().to_owned(),
                if torn { "torn" } else { "clean" }.to_owned(),
                stats.points.to_string(),
                stats.lost_acked.to_string(),
                stats.stale_checkpoints.to_string(),
                stats.resume_failures.to_string(),
                stats.recovery_errors.to_string(),
            ]);
        }
    }

    print_table(
        &[
            "layer", "swl", "cut", "points", "lost", "stale", "resume", "recover",
        ],
        &rows,
    );
    println!("\n{grand_points} cut points checked, {grand_violations} violations");
    println!(
        "cache sweep: {vanished_unacked} un-acked cached write(s) vanished across cut points \
         (the contract's lossy side, exercised)"
    );
    if grand_points < 1000 {
        println!("warning: fewer than 1000 cut points — raise the rounds argument");
    }
    if vanished_unacked == 0 {
        println!(
            "crashmc: FAILED — cache sweep never lost an un-acked write; the lossy side of \
                  the durability contract went unexercised"
        );
        return ExitCode::FAILURE;
    }
    if grand_violations == 0 {
        println!("crashmc: OK");
        ExitCode::SUCCESS
    } else {
        println!("crashmc: FAILED");
        ExitCode::FAILURE
    }
}
