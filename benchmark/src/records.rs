//! Result records: what a run prints for `layerbench run` / `trace` to
//! gather, and what a result set holds.
//!
//! A record is one *flat* JSON object, written with the repository's own
//! `flash_bench::json` and read back with its `parse_flat`. A result set is
//! a JSON array with one record per line, so the file is an ordinary JSON
//! document and still reads line by line:
//!
//! ```text
//! [
//! {"kind":"run","seed":42,"seconds":10,"runs":5,"smoke":false,"cpus":2,"pinned_cpu":1},
//! {"workload":"paper_ftl","correct":true,"ops_attempted":93450112,"ops_failed":0},
//! {"workload":"paper_ftl","metric":"setup_s","unit":"s","value":0.0071,"q1":0.0070,"q3":0.0074,"n":5},
//! {"workload":"paper_ftl","problem":"..."}
//! ]
//! ```
//!
//! The first record describes the set; a record with `metric` is one
//! metric of one workload (with `base` and `base_value` on a ratio), one
//! with `problem` a failed check, and the remaining one per workload its
//! verdict and op counts. The traced set files the ladder's metrics under
//! the workload name `ladder`.

use std::path::Path;

use flash_bench::json::{object, parse_flat, JsonScalar};

use crate::stats::Summary;

/// Prefix of a record line on a run's standard output.
pub const RECORD_PREFIX: &str = "record: ";

/// Fractional digits of every number written: below the resolution of any
/// clock read here, and enough that two device-model results that differ
/// at all (by one program in a hundred million pages) are written
/// differently.
pub const DECIMALS: usize = 12;

/// One parsed record.
#[derive(Debug, Clone)]
pub struct Record(Vec<(String, JsonScalar)>);

impl Record {
    /// Parses one flat JSON object.
    pub fn parse(line: &str) -> Result<Self, String> {
        parse_flat(line).map(Record)
    }

    fn get(&self, key: &str) -> Option<&JsonScalar> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string under `key`.
    pub fn text(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// The number under `key`.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_num()
    }

    /// The boolean under `key`.
    pub fn flag(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            JsonScalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// The record of one metric of `workload`.
pub fn metric_line(
    workload: &str,
    name: &str,
    unit: &str,
    summary: &Summary,
    base: Option<(&str, f64)>,
) -> String {
    object(|o| {
        o.str("workload", workload)
            .str("metric", name)
            .str("unit", unit)
            .f64("value", summary.value, DECIMALS)
            .f64("q1", summary.q1, DECIMALS)
            .f64("q3", summary.q3, DECIMALS)
            .u64("n", summary.n as u64);
        if let Some((base, value)) = base {
            o.str("base", base).f64("base_value", value, DECIMALS);
        }
    })
}

/// The record of one failed check of `workload`.
pub fn problem_line(workload: &str, problem: &str) -> String {
    object(|o| {
        o.str("workload", workload).str("problem", problem);
    })
}

/// Writes `lines` as a result set.
pub fn write_set(path: &Path, lines: &[String]) -> Result<(), String> {
    let text = format!("[\n{}\n]\n", lines.join(",\n"));
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Reads a result set back.
pub fn read_set(path: &Path) -> Result<Vec<Record>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .map(|line| line.trim().trim_end_matches(','))
        .filter(|line| !matches!(*line, "" | "[" | "]"))
        .enumerate()
        .map(|(i, line)| {
            Record::parse(line).map_err(|e| format!("{} record {}: {e}", path.display(), i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_is_json_and_reads_back_line_by_line() {
        let summary = Summary {
            value: 0.1 + 0.2,
            q1: 0.25,
            q3: 0.5,
            n: 5,
        };
        let lines = [
            object(|o| {
                o.str("kind", "run").u64("seed", 42).bool("smoke", false);
            }),
            metric_line("w", "layer.tax", "ratio", &summary, Some(("ftl.ns", 2.0))),
            problem_line("w", "a \"quoted\" problem, with a comma"),
        ];
        let path = crate::cli::out_dir().join("test-set.json");
        write_set(&path, &lines).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n{") && text.ends_with("}\n]\n"));
        let records = read_set(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        assert_eq!(records.len(), 3);
        assert_eq!(records[0].text("kind"), Some("run"));
        assert_eq!(records[0].flag("smoke"), Some(false));
        let metric = &records[1];
        assert_eq!(metric.text("metric"), Some("layer.tax"));
        assert!((metric.num("value").unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(metric.num("n"), Some(5.0));
        assert_eq!(metric.text("base"), Some("ftl.ns"));
        assert_eq!(metric.num("base_value"), Some(2.0));
        assert_eq!(
            records[2].text("problem"),
            Some("a \"quoted\" problem, with a comma")
        );
    }

    #[test]
    fn a_broken_set_names_the_record() {
        let path = crate::cli::out_dir().join("test-broken-set.json");
        std::fs::write(&path, "[\n{\"a\":1},\n{\"a\":}\n]\n").unwrap();
        let error = read_set(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(error.contains("record 2"), "{error}");
    }
}
