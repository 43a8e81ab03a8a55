//! Command line of `layerbench`.
//!
//! ```text
//! layerbench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one workload in this process, pinned; the last line of standard
//!     output is the JSON result (the entry `BENCHMARK.json` names)
//! layerbench run     [--seed N] [--seconds S] [--smoke] [--out FILE]
//!     every workload five times, each run in its own pinned child,
//!     tracing off; one result set with medians and quartiles
//! layerbench trace   [--seed N] [--smoke] [--out FILE]
//!     the traced run: the ladder once, then every workload's counts
//! layerbench check
//!     emitted metric and workload names against BENCHMARK.json
//! layerbench compare A.json B.json
//!     one row per workload and metric, with a verdict
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use flash_bench::json::object;

use crate::driver::measure;
use crate::host;
use crate::records::{metric_line, problem_line, write_set, Record, RECORD_PREFIX};
use crate::stats::Summary;
use crate::workloads::{Scale, Workload};
use crate::{check, compare, traced};

/// Seed used when none is given; acceptance also runs the holdout seed 7.
pub const DEFAULT_SEED: u64 = 42;
/// `run_seconds` in `BENCHMARK.json`, and `--seconds` when none are given.
pub const RUN_SECONDS: u32 = 10;
/// Runs per workload in a `layerbench run` result set: enough that one
/// run caught in a slow stretch of the host moves the quartiles by less
/// than the bound, so `compare` can still call the row resolved.
const RUNS_PER_SET: usize = 5;

/// The package directory (`benchmark/`), as built.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where results are written: `benchmark/out/`, created on demand.
pub fn out_dir() -> PathBuf {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Parsed flags: `--name value` pairs, bare switches, and positionals.
#[derive(Debug, Default)]
struct Flags {
    pairs: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = Flags::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--smoke" {
                flags.smoke = true;
            } else if arg.starts_with("--") {
                let value = args.next().ok_or(format!("{arg} needs a value"))?;
                flags.pairs.push((arg.clone(), value.clone()));
            } else {
                flags.positional.push(arg.clone());
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}: {v:?} is not a number")),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let seconds: f64 = self.number("--seconds", f64::from(RUN_SECONDS))?;
        if seconds.is_finite() && seconds > 0.0 {
            Ok(seconds)
        } else {
            Err("--seconds must be positive".to_string())
        }
    }

    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option {k}")),
            None => Ok(()),
        }
    }
}

/// Entry point of both binaries. `traced_binary` says whether the counting
/// allocator is linked in.
pub fn main(traced_binary: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, traced_binary) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("layerbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String], traced_binary: bool) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_all(&Flags::parse(&args[1..])?),
        Some("trace") => trace_all(&Flags::parse(&args[1..])?, traced_binary),
        Some("check") => check::run(),
        Some("compare") => {
            let flags = Flags::parse(&args[1..])?;
            match flags.positional.as_slice() {
                [a, b] => compare::run(Path::new(a), Path::new(b)),
                _ => Err("compare needs two result files".to_string()),
            }
        }
        Some(first) if first.starts_with("--") => single(&Flags::parse(args)?, traced_binary),
        _ => Err(
            "usage: layerbench --workload W --seed N --seconds S --trace 0|1 \
                  | run | trace | check | compare A B"
                .to_string(),
        ),
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The sibling binary with the counting allocator.
fn traced_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = me.with_file_name("layerbench-traced");
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!("{} is not built", sibling.display()))
    }
}

/// Allocation counts need the counting allocator: hands this invocation
/// over to the binary that links it, and waits for it.
fn hand_over_to_traced() -> Result<ExitCode, String> {
    let status = Command::new(traced_exe()?)
        .args(std::env::args().skip(1))
        .status()
        .map_err(|e| format!("spawn traced binary: {e}"))?;
    Ok(exit_code(status.success()))
}

/// One workload in this process.
fn single(flags: &Flags, traced_binary: bool) -> Result<ExitCode, String> {
    flags.reject_unknown(&["--workload", "--seed", "--seconds", "--trace"])?;
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {known:?}")
    })?;
    let seed: u64 = flags.number("--seed", DEFAULT_SEED)?;
    let seconds = flags.seconds()?;
    let trace = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    if trace && !traced_binary {
        return hand_over_to_traced();
    }

    // Before any stack thread exists: threads inherit the mask.
    let host = host::pin();
    let scale = flags.scale();
    let name = workload.name();
    let smoke = if scale == Scale::Smoke {
        " (smoke)"
    } else {
        ""
    };
    let outcome = if trace {
        let outcome = traced::run(workload, seed, scale, &host);
        outcome.print(&format!("traced run of {name} seed {seed}{smoke}"), &host);
        outcome
    } else {
        let (outcome, reps) = measure(workload, seed, seconds, scale);
        let title =
            format!("workload {name} seed {seed}{smoke}: the fastest slices of {reps} repetitions");
        outcome.print(&title, &host);
        outcome
    };
    for record in outcome.records(name, seed, scale, &host) {
        println!("{RECORD_PREFIX}{record}");
    }
    println!("{}", outcome.result_line());
    Ok(exit_code(outcome.correct()))
}

/// Runs one workload in a child process and returns the records it
/// printed.
pub fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Result<Vec<Record>, String> {
    let exe = if traced {
        traced_exe()?
    } else {
        std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?
    };
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if scale == Scale::Smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let records: Vec<Record> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix(RECORD_PREFIX))
        .map(|l| Record::parse(l).map_err(|e| format!("{workload} record: {e}")))
        .collect::<Result<_, _>>()?;
    if records.is_empty() {
        return Err(format!(
            "{workload} printed no record (exit {:?}): {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(records)
}

/// Merges the records of several runs of `workload` into the lines of a
/// result set: the ops summed, each metric's median over the runs with its
/// quartiles, every problem kept. Returns the lines and whether every run
/// verified.
fn merge_runs(workload: &str, runs: &[Vec<Record>]) -> (Vec<String>, bool) {
    let all = || runs.iter().flatten();
    let total = |key: &str| all().filter_map(|r| r.num(key)).sum::<f64>() as u64;
    let correct = all().filter_map(|r| r.flag("correct")).all(|c| c);
    let mut lines = vec![object(|o| {
        o.str("workload", workload)
            .bool("correct", correct)
            .u64("ops_attempted", total("ops_attempted"))
            .u64("ops_failed", total("ops_failed"));
    })];
    for metric in runs[0].iter().filter(|r| r.text("metric").is_some()) {
        let name = metric.text("metric").expect("filtered on it");
        let values: Vec<f64> = all()
            .filter(|r| r.text("metric") == Some(name))
            .filter_map(|r| r.num("value"))
            .collect();
        lines.push(metric_line(
            workload,
            name,
            metric.text("unit").unwrap_or(""),
            &Summary::median_of(&values),
            metric.text("base").zip(metric.num("base_value")),
        ));
    }
    lines.extend(
        all()
            .filter_map(|r| r.text("problem"))
            .map(|p| problem_line(workload, p)),
    );
    (lines, correct)
}

/// `run`: every workload `RUNS_PER_SET` times (once for `--smoke`), each
/// run in its own child, merged into one result set.
///
/// The runs go round robin — every workload once, then every workload
/// again — so that a workload's runs are spread over the whole set. The
/// host's speed moves in phases that last minutes (README, finding 4):
/// back to back, all runs of a workload would fall into one phase and the
/// next set's into another.
fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    flags.reject_unknown(&["--seed", "--seconds", "--out"])?;
    let seed: u64 = flags.number("--seed", DEFAULT_SEED)?;
    let seconds = flags.seconds()?;
    let scale = flags.scale();
    let runs = match scale {
        Scale::Full => RUNS_PER_SET,
        Scale::Smoke => 1,
    };
    let mut records: Vec<Vec<Vec<Record>>> = vec![Vec::new(); Workload::ALL.len()];
    for run in 1..=runs {
        for (of_workload, workload) in records.iter_mut().zip(Workload::ALL) {
            eprintln!("layerbench: run {run}/{runs} of {workload} ...");
            of_workload.push(run_child(workload, seed, seconds, false, scale)?);
        }
    }

    // Every child pins itself the same way; the first one's host record
    // stands for the set.
    let host = &records[0][0][0];
    let mut lines = vec![object(|o| {
        o.str("kind", "run")
            .u64("seed", seed)
            .f64("seconds", seconds, 3)
            .u64("runs", runs as u64)
            .bool("smoke", scale == Scale::Smoke)
            .u64("cpus", host.num("cpus").unwrap_or(0.0) as u64);
        if let Some(cpu) = host.num("pinned_cpu") {
            o.u64("pinned_cpu", cpu as u64);
        }
    })];
    let mut all_correct = true;
    for (of_workload, workload) in records.iter().zip(Workload::ALL) {
        let (merged, correct) = merge_runs(workload.name(), of_workload);
        for line in &merged {
            print_record(&Record::parse(line).expect("a line this program wrote"));
        }
        all_correct &= correct;
        lines.extend(merged);
    }
    let path = flags
        .get("--out")
        .map_or_else(|| out_dir().join("run.json"), PathBuf::from);
    write_set(&path, &lines)?;
    println!("wrote {}", path.display());
    Ok(exit_code(all_correct))
}

/// `trace`: the ladder once and every workload's counts, in this process.
fn trace_all(flags: &Flags, traced_binary: bool) -> Result<ExitCode, String> {
    flags.reject_unknown(&["--seed", "--out"])?;
    if !traced_binary {
        return hand_over_to_traced();
    }
    let seed: u64 = flags.number("--seed", DEFAULT_SEED)?;
    let path = flags
        .get("--out")
        .map_or_else(|| out_dir().join("layers.json"), PathBuf::from);
    // Before any stack thread exists: threads inherit the mask.
    let host = host::pin();
    traced::run_all(seed, flags.scale(), &host, &path).map(exit_code)
}

/// Prints one record of a result set for a reader.
fn print_record(record: &Record) {
    let num = |key: &str| record.num(key).unwrap_or(f64::NAN);
    let workload = record.text("workload").unwrap_or("?");
    if let Some(name) = record.text("metric") {
        let base = record.text("base").map_or(String::new(), |base| {
            format!("  (÷ {base} = {})", num("base_value"))
        });
        println!(
            "  {name:<34} {:>16.6} {:<7} (quartiles {:.6} .. {:.6}, n={}){base}",
            num("value"),
            record.text("unit").unwrap_or(""),
            num("q1"),
            num("q3"),
            num("n"),
        );
    } else if let Some(problem) = record.text("problem") {
        println!("  PROBLEM: {problem}");
    } else {
        println!(
            "{workload}: correct {} ops_attempted {} ops_failed {}",
            record.flag("correct").unwrap_or(false),
            num("ops_attempted"),
            num("ops_failed"),
        );
    }
}
