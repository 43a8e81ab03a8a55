//! `layerbench check`: what the benchmark emits against what
//! `BENCHMARK.json` declares.
//!
//! `BENCHMARK.json` is rendered from the program's own tables
//! ([`render_benchmark_json`]), so the file must equal the rendering byte
//! for byte; then every workload's smoke run, traced and untraced, must
//! emit exactly the tables' names and verify.

use std::process::ExitCode;

use flash_bench::json::object;

use crate::cli::{out_dir, package_dir, run_child, DEFAULT_SEED, RUN_SECONDS};
use crate::metrics::{valid_name, MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::{Scale, Workload};

/// Limits `BENCHMARK.json` must stay within.
const WORKLOAD_RANGE: std::ops::RangeInclusive<usize> = 2..=8;
const MAX_END_TO_END: usize = 16;
const MAX_PER_LAYER: usize = 128;

/// `BENCHMARK.json` as the program's tables say it: the acceptance
/// contract's six keys, one entry per line.
pub fn render_benchmark_json() -> String {
    let workloads = Workload::ALL.iter().map(|w| {
        object(|o| {
            o.str("name", w.name()).str("why", w.why());
        })
    });
    let metric = |def: &MetricDef| {
        object(|o| {
            o.str("name", def.name)
                .str("unit", def.unit)
                .str("better", def.better.token());
            if let Some(bound) = def.bound {
                o.f64("bound", bound, 2);
            }
        })
    };
    let list = |entries: Vec<String>| format!("[\n    {}\n  ]", entries.join(",\n    "));
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads.collect()),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

/// Problems with the tables on their own: counts and name rules.
pub fn declared_problems(
    workloads: &[&str],
    end_to_end: &[&str],
    per_layer: &[&str],
) -> Vec<String> {
    let mut problems = Vec::new();
    if !WORKLOAD_RANGE.contains(&workloads.len()) {
        problems.push(format!("{} workloads; need 2 to 8", workloads.len()));
    }
    if end_to_end.len() > MAX_END_TO_END {
        problems.push(format!(
            "{} end-to-end metrics; at most 16",
            end_to_end.len()
        ));
    }
    if per_layer.len() > MAX_PER_LAYER {
        problems.push(format!(
            "{} per-layer metrics; at most 128",
            per_layer.len()
        ));
    }
    let mut seen: Vec<&str> = Vec::new();
    for name in workloads.iter().chain(end_to_end).chain(per_layer) {
        if !valid_name(name) {
            problems.push(format!("{name:?} is not a valid name"));
        }
        if seen.contains(name) {
            problems.push(format!("{name:?} is declared twice"));
        }
        seen.push(name);
    }
    problems
}

/// Differences between two name lists, as messages.
pub fn name_differences(what: &str, declared: &[&str], emitted: &[&str]) -> Vec<String> {
    let mut problems = Vec::new();
    for name in declared.iter().filter(|n| !emitted.contains(n)) {
        problems.push(format!("{what}: {name} is declared but not emitted"));
    }
    for name in emitted.iter().filter(|n| !declared.contains(n)) {
        problems.push(format!("{what}: {name} is emitted but not declared"));
    }
    problems
}

/// Where `file` first departs from `rendered`, as a message.
fn first_difference(file: &str, rendered: &str) -> Option<String> {
    if file == rendered {
        return None;
    }
    let line = file
        .lines()
        .zip(rendered.lines())
        .position(|(f, r)| f != r)
        .unwrap_or(file.lines().count().min(rendered.lines().count()));
    Some(format!(
        "BENCHMARK.json differs from the program's tables at line {}:\n  file:    {}\n  program: {}",
        line + 1,
        file.lines().nth(line).unwrap_or("<end of file>"),
        rendered.lines().nth(line).unwrap_or("<end of file>"),
    ))
}

/// Runs the check; non-zero exit on any problem.
pub fn run() -> Result<ExitCode, String> {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    let mut problems = declared_problems(&workloads, &end_to_end, &per_layer);
    if !end_to_end.contains(&"setup_s") {
        problems.push("end_to_end has no setup_s".to_string());
    }

    let path = package_dir()
        .parent()
        .ok_or("benchmark/ has no parent directory")?
        .join("BENCHMARK.json");
    let file =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let rendered = render_benchmark_json();
    if let Some(difference) = first_difference(&file, &rendered) {
        // For whoever changed a table: the file as it should now read.
        let expected = out_dir().join("BENCHMARK.json");
        std::fs::write(&expected, &rendered)
            .map_err(|e| format!("write {}: {e}", expected.display()))?;
        problems.push(format!(
            "{difference}\n  the rendering is in {}",
            expected.display()
        ));
    }

    // What the program really prints, on the smoke shapes.
    for workload in Workload::ALL {
        for (traced, declared) in [(false, &end_to_end), (true, &per_layer)] {
            eprintln!(
                "layerbench check: {workload} {} ...",
                if traced { "traced" } else { "untraced" }
            );
            let seconds = f64::from(RUN_SECONDS);
            let records = run_child(workload, DEFAULT_SEED, seconds, traced, Scale::Smoke)?;
            let what = format!("{workload} --trace {}", u8::from(traced));
            let emitted: Vec<&str> = records.iter().filter_map(|r| r.text("metric")).collect();
            problems.extend(name_differences(&what, declared, &emitted));
            if !records.iter().filter_map(|r| r.flag("correct")).all(|c| c) {
                let found: Vec<&str> = records.iter().filter_map(|r| r.text("problem")).collect();
                problems.push(format!("{what}: outputs did not verify: {found:?}"));
            }
        }
    }

    for problem in &problems {
        println!("check: {problem}");
    }
    if problems.is_empty() {
        println!(
            "check: ok — {} workloads, {} end-to-end and {} per-layer metrics match BENCHMARK.json",
            workloads.len(),
            end_to_end.len(),
            per_layer.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_names_are_checked() {
        assert!(declared_problems(&["a", "b"], &["m"], &["l.x"]).is_empty());
        assert_eq!(declared_problems(&["a"], &[], &[]).len(), 1);
        let too_many: Vec<String> = (0..17).map(|i| format!("m{i}")).collect();
        let too_many: Vec<&str> = too_many.iter().map(String::as_str).collect();
        assert_eq!(declared_problems(&["a", "b"], &too_many, &[]).len(), 1);
        assert_eq!(declared_problems(&["a", "b"], &["bad name"], &[]).len(), 1);
        assert_eq!(
            declared_problems(&["a", "b"], &["a"], &[]).len(),
            1,
            "a name may be used once"
        );
    }

    #[test]
    fn differences_are_reported_both_ways() {
        let diff = name_differences("w", &["a", "b"], &["b", "c"]);
        assert_eq!(diff.len(), 2);
        assert!(diff[0].contains("a is declared but not emitted"));
        assert!(diff[1].contains("c is emitted but not declared"));
        assert!(name_differences("w", &["a"], &["a"]).is_empty());
    }

    #[test]
    fn the_rendering_holds_the_contract_keys_and_every_table_entry() {
        let text = render_benchmark_json();
        for key in [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ] {
            assert_eq!(
                text.matches(&format!("\n  \"{key}\": ")).count(),
                1,
                "{key}"
            );
        }
        assert_eq!(
            text.matches("{\"name\":").count(),
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
        assert_eq!(text.matches("\"bound\":").count(), END_TO_END.len());
        assert!(text.contains(r#"{"name":"setup_s","unit":"s","better":"lower","bound":0.25}"#));
        assert!(text.len() < 64 * 1024);
        assert!(first_difference(&text, &text).is_none());
        let edited = text.replace("\"setup_s\"", "\"set_up_s\"");
        assert!(first_difference(&edited, &text)
            .unwrap()
            .contains("set_up_s"));
    }
}
