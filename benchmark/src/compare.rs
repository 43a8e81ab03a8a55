//! `layerbench compare A.json B.json`: one row per workload and metric.
//!
//! A is the parent, B the change. A device-model metric repeats exactly
//! for a seed, so when both sets used the same seed any difference in what
//! they wrote is reported with its direction. A timed metric is *worse* or
//! *better* when its median moved by more than the metric's bound (the one
//! `BENCHMARK.json` declares), *unresolved* when it did not but the
//! run-to-run spread of either side is wider than the bound, and *same*
//! otherwise.

use std::path::Path;
use std::process::ExitCode;

use crate::metrics::{self, Better};
use crate::records::{read_set, Record};

/// Outcome of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Moved in the good direction by more than the bound (or at all, for
    /// an exact metric).
    Better,
    /// Within the bound, with a spread narrower than the bound.
    Same,
    /// Within the bound, but the spread is wider than the bound.
    Unresolved,
    /// Moved in the bad direction by more than the bound (or at all, for
    /// an exact metric).
    Worse,
}

impl Verdict {
    fn token(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "WORSE",
        }
    }
}

/// One side of a row: the reported value and its run-to-run quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median over the set's runs.
    pub value: f64,
    /// First quartile over the set's runs.
    pub q1: f64,
    /// Third quartile over the set's runs.
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// Share by which `b` is worse than `a` (negative when better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Verdict of an exact metric: any difference counts.
pub fn exact_verdict(a: f64, b: f64, better: Better) -> Verdict {
    if a.to_bits() == b.to_bits() {
        Verdict::Same
    } else if worse_by(a, b, better) > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

/// Verdict of a timed metric under `bound`.
pub fn bounded_verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    let moved = worse_by(a.value, b.value, better);
    if moved > bound {
        Verdict::Worse
    } else if moved < -bound {
        Verdict::Better
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn side(metric: &Record) -> Option<Side> {
    let value = metric.num("value")?;
    Some(Side {
        value,
        q1: metric.num("q1").unwrap_or(value),
        q3: metric.num("q3").unwrap_or(value),
    })
}

/// Share of failed ops of `workload` in `set`.
fn failure_rate(set: &[Record], workload: &str) -> f64 {
    set.iter()
        .find(|r| r.text("workload") == Some(workload) && r.num("ops_attempted").is_some())
        .map_or(0.0, |r| {
            r.num("ops_failed").unwrap_or(0.0) / r.num("ops_attempted").unwrap_or(0.0).max(1.0)
        })
}

/// Compares two result sets; non-zero exit on any *worse* row or any rise
/// in the share of failed ops.
pub fn run(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (read_set(a_path)?, read_set(b_path)?);
    let (a_head, b_head) = (
        a.first().ok_or("A is empty")?,
        b.first().ok_or("B is empty")?,
    );
    let same_seed =
        a_head.num("seed") == b_head.num("seed") && a_head.flag("smoke") == b_head.flag("smoke");

    println!(
        "{:<18} {:<34} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut bad = false;
    let mut seen = Vec::new();
    for a_row in &a {
        let Some(name) = a_row.text("workload") else {
            continue;
        };
        if !seen.contains(&name) {
            seen.push(name);
            let (before, after) = (failure_rate(&a, name), failure_rate(&b, name));
            if after > before {
                println!("{name:<18} ops_failed / ops_attempted rose: {before} -> {after}");
                bad = true;
            }
        }
        let Some(metric) = a_row.text("metric") else {
            continue;
        };
        let b_row = b
            .iter()
            .find(|r| r.text("workload") == Some(name) && r.text("metric") == Some(metric));
        let Some(b_row) = b_row else {
            println!("{name:<18} {metric:<34} missing from B");
            bad = true;
            continue;
        };
        let (Some(a_side), Some(b_side)) = (side(a_row), side(b_row)) else {
            continue;
        };
        let def = metrics::END_TO_END
            .iter()
            .chain(&metrics::PER_LAYER)
            .find(|d| d.name == metric);
        let better = def.map_or(Better::Lower, |d| d.better);
        let exact = def.is_some_and(|d| d.exact) && same_seed;
        let bound = def.and_then(|d| d.bound);
        let verdict = if exact {
            exact_verdict(a_side.value, b_side.value, better)
        } else {
            match bound {
                Some(bound) => bounded_verdict(a_side, b_side, better, bound),
                // Per-layer metrics have no bound: shown, never judged.
                None => Verdict::Same,
            }
        };
        bad |= verdict == Verdict::Worse;
        let bound_text = match (exact, bound) {
            (true, _) => "exact".to_string(),
            (false, Some(bound)) => format!("{:.0}%", bound * 100.0),
            (false, None) => "-".to_string(),
        };
        println!(
            "{name:<18} {metric:<34} {:>16.6} {:>16.6} {:>+8.2}% {bound_text:>7}  {}{}",
            a_side.value,
            b_side.value,
            // `+ 0.0` turns a negative zero into zero.
            worse_by(a_side.value, b_side.value, better) * -100.0 + 0.0,
            verdict.token(),
            if verdict == Verdict::Unresolved {
                format!(
                    " (spread {:.1}% / {:.1}%)",
                    a_side.spread() * 100.0,
                    b_side.spread() * 100.0
                )
            } else {
                String::new()
            },
        );
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(value: f64) -> Side {
        Side {
            value,
            q1: value,
            q3: value,
        }
    }

    #[test]
    fn exact_metrics_report_any_difference() {
        assert_eq!(exact_verdict(1.5, 1.5, Better::Lower), Verdict::Same);
        assert_eq!(exact_verdict(1.5, 1.5000001, Better::Lower), Verdict::Worse);
        assert_eq!(
            exact_verdict(1.5, 1.4999999, Better::Lower),
            Verdict::Better
        );
        assert_eq!(exact_verdict(10.0, 11.0, Better::Higher), Verdict::Better);
    }

    #[test]
    fn bounded_metrics_use_the_bound_and_the_spread() {
        let lower = Better::Lower;
        assert_eq!(
            bounded_verdict(steady(100.0), steady(104.0), lower, 0.1),
            Verdict::Same
        );
        assert_eq!(
            bounded_verdict(steady(100.0), steady(111.0), lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            bounded_verdict(steady(100.0), steady(85.0), lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            bounded_verdict(steady(100.0), steady(85.0), Better::Higher, 0.1),
            Verdict::Worse
        );
        let noisy = Side {
            value: 100.0,
            q1: 90.0,
            q3: 115.0,
        };
        assert_eq!(
            bounded_verdict(noisy, steady(104.0), lower, 0.1),
            Verdict::Unresolved
        );
        // Past the bound a noisy row is still worse, never "unresolved".
        assert_eq!(
            bounded_verdict(noisy, steady(130.0), lower, 0.1),
            Verdict::Worse
        );
    }
}
