//! # `flash-bench` — table/figure regeneration and micro-benchmarks
//!
//! One driver, `repro`, regenerates every table and figure of the paper,
//! the extension studies and every other deterministic result the
//! repository checks in ([`repro`] holds the artifact table):
//!
//! | artifact | `repro` name | kind |
//! |---|---|---|
//! | Table 1 (BET RAM size) | `table1` | closed-form |
//! | Table 2 (worst-case extra erases) | `table2` | closed-form |
//! | Table 3 (worst-case extra copies) | `table3` | closed-form |
//! | Table 4 (erase-count statistics) | `table4` | simulation |
//! | Figure 5 (first failure time) | `fig5` | simulation |
//! | Figure 6 (extra block erases) | `fig6` | simulation |
//! | Figure 7 (extra live-page copies) | `fig7` | simulation |
//! | extension studies | `ablation` `lifetime` `latency` `hotcold` `baseline_wl` | simulation |
//! | channel scaling, write cache | `channels` `cache` | simulation |
//! | snapshot pinning, crash-consistency sweep, health ladder | `snapshots` `crashmc` `health` | fixed-shape run |
//!
//! Simulations accept a scale argument: `quick` (CI smoke), `scaled`
//! (default; minutes) or `paper` (full size; very long). Run e.g.
//!
//! ```text
//! cargo run --release -p flash-bench --bin repro -- fig5 scaled
//! cargo run --release -p flash-bench --bin repro -- all quick --check results
//! ```
//!
//! A second driver, `swl`, produces, inspects and gates the JSONL streams
//! a run leaves behind ([`swl`] has the five subcommands):
//!
//! ```text
//! swl trace --scale quick --out - | swl check -
//! swl stat run.jsonl --json
//! ```
//!
//! Micro-benchmarks live in `benches/` on the in-repo [`timing`]
//! harness (`cargo bench -p flash-bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod crash;
pub mod export;
pub mod json;
pub mod repro;
pub mod swl;
pub mod timing;

use flash_sim::experiments::ExperimentScale;

/// The scale a command line names: `quick`, `scaled` or `paper`.
pub fn scale_named(name: &str) -> Option<ExperimentScale> {
    match name {
        "quick" => Some(ExperimentScale::quick()),
        "scaled" => Some(ExperimentScale::scaled()),
        "paper" => Some(ExperimentScale::paper()),
        _ => None,
    }
}

/// Default simulation horizon for a scale: the paper's 10 years, shrunk by
/// the same factor as the endurance so the device reaches a comparable
/// wear state.
pub fn default_horizon_ns(scale: &ExperimentScale) -> u64 {
    let years = 10.0 * f64::from(scale.endurance) / 10_000.0;
    (years * flash_sim::experiments::NANOS_PER_YEAR) as u64
}

/// Renders rows as a fixed-width text table with a header rule.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let fields: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        fields.join("  ") + "\n"
    };
    let mut table = line(headers.iter().map(|h| h.to_string()).collect());
    table += &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
    table.push('\n');
    for row in rows {
        table += &line(row.clone());
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_scales_with_endurance() {
        let paper = ExperimentScale::paper();
        let scaled = ExperimentScale::scaled();
        let ratio = default_horizon_ns(&paper) as f64 / default_horizon_ns(&scaled) as f64;
        assert!((ratio - 10_000.0 / 512.0).abs() < 0.01);
    }

    #[test]
    fn format_table_right_aligns_under_a_rule() {
        let rows = [vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]];
        assert_eq!(
            format_table(&["a", "bb"], &rows),
            "  a  bb\n-------\n  1   2\n333   4\n"
        );
    }
}
