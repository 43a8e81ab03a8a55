//! The traced runs: a workload's own counts plus the ladder, with spans
//! kept in memory and written out when the run ends.
//!
//! `--workload W --trace 1` measures `W`'s counts and the whole ladder, so
//! that one run prints every per-layer metric. `layerbench trace` measures
//! the ladder once — it does not depend on the workload — and then every
//! workload's counts.

use std::path::Path;

use flash_bench::json::object;

use crate::cli::out_dir;
use crate::driver::{Measured, Outcome};
use crate::host::Host;
use crate::ladder::{workload_counts, Ladder, LayerValue};
use crate::metrics::PER_LAYER;
use crate::records::{metric_line, problem_line, write_set};
use crate::spans::Recorder;
use crate::stats::Summary;
use crate::workloads::{Scale, Workload};

/// Workload name the ladder's metrics are filed under in a traced set.
pub const LADDER: &str = "ladder";

/// The declared per-layer metrics among `values`, in table order.
fn measured(values: &[LayerValue]) -> Vec<Measured> {
    PER_LAYER
        .iter()
        .filter_map(|def| {
            let v = values.iter().find(|v| v.name == def.name)?;
            Some(Measured {
                name: def.name,
                unit: def.unit,
                summary: v.samples.unwrap_or(Summary::exact(v.value, 1)),
                base: v.base,
            })
        })
        .collect()
}

/// Declared metrics nobody measured, and measured values nobody declared.
fn coverage_problems(values: &[LayerValue]) -> Vec<String> {
    let missing = PER_LAYER
        .iter()
        .filter(|def| !values.iter().any(|v| v.name == def.name))
        .map(|def| format!("per-layer metric {} was not measured", def.name));
    let undeclared = values
        .iter()
        .filter(|v| !PER_LAYER.iter().any(|def| def.name == v.name))
        .map(|v| format!("measured {} is not a declared metric", v.name));
    missing.chain(undeclared).collect()
}

fn write_spans(recorder: &Recorder, seed: u64, path: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    if !recorder.parents_resolve() {
        problems.push("a span's parent does not enclose it".to_string());
    }
    if let Err(e) = std::fs::write(path, recorder.to_json(seed)) {
        problems.push(format!("write {}: {e}", path.display()));
    }
    problems
}

/// Runs `workload` once for its counts, then the ladder; writes the spans
/// to `out/<workload>.trace.json`.
pub fn run(workload: Workload, seed: u64, scale: Scale, host: &Host) -> Outcome {
    let mut recorder = Recorder::new();
    let own = recorder.open(workload.name(), None);
    let (rep, mut values) = workload_counts(workload, scale, seed);
    recorder.close(own);
    values.extend(Ladder::new(&mut recorder, host, seed, scale).run());

    let mut problems = rep.notes.clone();
    problems.extend(coverage_problems(&values));
    let path = out_dir().join(format!("{}.trace.json", workload.name()));
    problems.extend(write_spans(&recorder, seed, &path));
    Outcome {
        attempted: rep.attempted,
        failed: rep.failed,
        problems,
        metrics: measured(&values),
    }
}

/// `layerbench trace`: the ladder once, then every workload's counts.
/// Writes the spans to `out/trace.json` and the traced set to `set_path`;
/// returns whether everything verified.
pub fn run_all(seed: u64, scale: Scale, host: &Host, set_path: &Path) -> Result<bool, String> {
    let mut recorder = Recorder::new();
    let ladder = Ladder::new(&mut recorder, host, seed, scale).run();
    let ladder_metrics = measured(&ladder);
    let ladder_outcome = Outcome {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: ladder_metrics,
    };
    ladder_outcome.print(&format!("the ladder, seed {seed}"), host);

    let mut lines = vec![object(|o| {
        o.str("kind", "trace")
            .u64("seed", seed)
            .bool("smoke", scale == Scale::Smoke)
            .u64("cpus", host.cpus as u64);
        if let Some(cpu) = host.pinned_cpu {
            o.u64("pinned_cpu", cpu as u64);
        }
    })];
    lines.extend(
        ladder_outcome
            .metrics
            .iter()
            .map(|m| metric_line(LADDER, m.name, m.unit, &m.summary, m.base)),
    );

    let mut all_correct = true;
    for workload in Workload::ALL {
        let span = recorder.open(workload.name(), None);
        let (rep, counts) = workload_counts(workload, scale, seed);
        recorder.close(span);
        let mut problems = rep.notes.clone();
        let both: Vec<LayerValue> = counts.iter().chain(&ladder).cloned().collect();
        problems.extend(coverage_problems(&both));
        let outcome = Outcome {
            attempted: rep.attempted,
            failed: rep.failed,
            problems,
            metrics: measured(&counts),
        };
        outcome.print(&format!("counts of {workload}, seed {seed}"), host);
        all_correct &= outcome.correct();
        lines.extend(outcome.records(workload.name(), seed, scale, host));
    }

    for problem in write_spans(&recorder, seed, &out_dir().join("trace.json")) {
        println!("PROBLEM: {problem}");
        lines.push(problem_line(LADDER, &problem));
        all_correct = false;
    }
    write_set(set_path, &lines)?;
    println!("wrote {}", set_path.display());
    Ok(all_correct)
}
