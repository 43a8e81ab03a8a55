//! One untraced run of one workload — a fixed number of repetitions, the
//! cross-checks — and the [`Outcome`] both kinds of run print.

use flash_bench::json::object;

use crate::host::{self, Elapsed, Host};
use crate::metrics::END_TO_END;
use crate::records::{metric_line, problem_line, DECIMALS};
use crate::stats::Summary;
use crate::workloads::{cross_check, run_rep, Rep, Scale, Workload};

/// Fewest repetitions of a full-size run, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// One metric as a run reports it.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Name, as in the metric tables.
    pub name: &'static str,
    /// Unit, as in the metric tables.
    pub unit: &'static str,
    /// The value with the spread of the samples behind it.
    pub summary: Summary,
    /// For a ratio: the name and value of what it divides by.
    pub base: Option<(&'static str, f64)>,
}

/// What one run, traced or not, measured and verified.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed. Every op counts as failed when a repetition's
    /// report differs from its oracle.
    pub failed: u64,
    /// What the checks found wrong; empty means verified.
    pub problems: Vec<String>,
    /// The metrics, in the order of the metric tables.
    pub metrics: Vec<Measured>,
}

impl Outcome {
    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The line the acceptance driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        object(|o| {
            o.bool("correct", self.correct())
                .u64("attempted", self.attempted)
                .u64("failed", self.failed)
                .obj("metrics", |m| {
                    for metric in &self.metrics {
                        m.obj(metric.name, |v| {
                            v.f64("value", metric.summary.value, DECIMALS)
                                .str("unit", metric.unit);
                        });
                    }
                });
        })
    }

    /// The records `layerbench run` and `trace` gather: the run's verdict
    /// with the host it ran on, every metric with the spread of the samples
    /// behind it and, for a ratio, its base, and every problem.
    pub fn records(&self, workload: &str, seed: u64, scale: Scale, host: &Host) -> Vec<String> {
        let mut lines = vec![object(|o| {
            o.str("workload", workload)
                .u64("seed", seed)
                .bool("smoke", scale == Scale::Smoke)
                .u64("cpus", host.cpus as u64);
            if let Some(cpu) = host.pinned_cpu {
                o.u64("pinned_cpu", cpu as u64);
            }
            o.bool("correct", self.correct())
                .u64("ops_attempted", self.attempted)
                .u64("ops_failed", self.failed);
        })];
        lines.extend(
            self.metrics
                .iter()
                .map(|m| metric_line(workload, m.name, m.unit, &m.summary, m.base)),
        );
        lines.extend(self.problems.iter().map(|p| problem_line(workload, p)));
        lines
    }

    /// Prints the run for a reader under `title`: every metric by name and
    /// unit, the quartiles of the samples behind it where there are
    /// several, and the base of every ratio.
    pub fn print(&self, title: &str, host: &Host) {
        let pinned = host.pinned_cpu.map_or("NOT PINNED".to_string(), |cpu| {
            format!("pinned to cpu {cpu}")
        });
        println!("{title}, {pinned} of {} allowed", host.cpus);
        for Measured {
            name,
            unit,
            summary: s,
            base,
        } in &self.metrics
        {
            let spread = if s.n > 1 {
                format!(
                    "  (samples: quartiles {:.6} .. {:.6}, n={})",
                    s.q1, s.q3, s.n
                )
            } else {
                String::new()
            };
            let base = base
                .map(|(base, value)| format!("  (÷ {base} = {value:.6})"))
                .unwrap_or_default();
            println!("  {name:<34} {:>18.6} {unit:<7}{spread}{base}", s.value);
        }
        println!(
            "  ops_attempted {} ops_failed {}",
            self.attempted, self.failed
        );
        for problem in &self.problems {
            println!("  PROBLEM: {problem}");
        }
    }
}

/// Timed repetitions of a run of `workload`: a fixed share of `seconds`,
/// whatever the host's speed.
pub fn repetitions(workload: Workload, seconds: f64, scale: Scale) -> usize {
    match scale {
        Scale::Full => {
            MIN_REPS.max((workload.reps_per_10s() as f64 * seconds / 10.0).round() as usize)
        }
        Scale::Smoke => 1,
    }
}

/// Seconds the timed region of a repetition takes when nothing interferes:
/// the sum, over its slices, of the fastest observation of each slice
/// across `reps`.
///
/// Every slice ends at a drain barrier and the inputs are the same, so
/// slice `j` is the same work in every repetition. The host's interference
/// comes in bursts of tens of milliseconds that only ever add time
/// (README, finding 4): a slice of a few milliseconds escapes them in some
/// repetition even where no whole repetition does. Not a number: the
/// repetitions were cut differently, or nothing was timed.
fn fastest_slices(reps: &[Rep], of: fn(&Elapsed) -> f64) -> f64 {
    let n = reps[0].slices.len();
    if n == 0 || reps.iter().any(|r| r.slices.len() != n) {
        return f64::NAN;
    }
    (0..n)
        .map(|j| {
            reps.iter()
                .map(|r| of(&r.slices[j]))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The end-to-end metrics of `reps`, and a problem for each that came out
/// as no number: a broken stack (nothing timed, nothing written) still has
/// to print its result line.
fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> (Vec<Measured>, Vec<String>) {
    let first = &reps[0];
    let n = reps.len();
    let pages = first.host_pages as f64;
    // The value from the fastest slices, beside the quartiles of the
    // repetitions timed whole.
    let timed = |value: f64, whole: fn(&Rep) -> f64| Summary {
        value,
        ..Summary::median_of(&reps.iter().map(whole).collect::<Vec<_>>())
    };
    let value_of = |name: &str| -> Summary {
        match name {
            "setup_s" => Summary::lowest_of(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            "host_pages_per_s" => timed(pages / fastest_slices(reps, |s| s.wall_s), |r| {
                r.host_pages as f64 / r.wall_s()
            }),
            "cpu_us_per_page" => timed(fastest_slices(reps, |s| s.cpu_s) * 1e6 / pages, |r| {
                r.cpu_s() * 1e6 / r.host_pages as f64
            }),
            "peak_rss_mb" => Summary::exact(peak_rss_mb, 1),
            "write_amplification" => Summary::exact(first.sim.write_amplification, n),
            "wear_stddev" => Summary::exact(first.sim.wear_stddev, n),
            "dev_write_mean_us" => Summary::exact(first.sim.dev_write_mean_us, n),
            other => unreachable!("no value for end-to-end metric {other}"),
        }
    };
    let mut problems = Vec::new();
    let metrics = END_TO_END
        .iter()
        .map(|def| {
            let mut summary = value_of(def.name);
            if ![summary.value, summary.q1, summary.q3]
                .iter()
                .all(|v| v.is_finite())
            {
                problems.push(format!("{} is not a finite number", def.name));
                summary = Summary::exact(0.0, n);
            }
            Measured {
                name: def.name,
                unit: def.unit,
                summary,
                base: None,
            }
        })
        .collect();
    (metrics, problems)
}

/// Runs `workload` for `seconds` (see [`repetitions`]) and checks it.
/// Returns the outcome and the number of timed repetitions.
pub fn measure(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> (Outcome, usize) {
    let mut problems = Vec::new();
    if scale == Scale::Full {
        // Untimed warm-up on the smoke shape: pages the code in and fails
        // fast if the stack is broken.
        let warm = run_rep(workload, Scale::Smoke, seed, true);
        problems.extend(warm.notes.iter().map(|n| format!("warm-up: {n}")));
    }

    let n = repetitions(workload, seconds, scale);
    let mut reps: Vec<Rep> = Vec::with_capacity(n);
    let mut peak_rss_mb = 0.0;
    for i in 0..n {
        // The read-back of the paper workloads is untimed; once is enough,
        // since every repetition must then report the same. It builds a
        // model of the whole logical space, so it waits until the peak
        // memory of one plain repetition has been read.
        let check_data = i == 1 || n == 1;
        reps.push(run_rep(workload, scale, seed, check_data));
        if i == 0 {
            // The stack's memory, not the checks': the read-back's model
            // and the oracle's second array come later.
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    problems.extend(reps.iter().flat_map(|r| r.notes.iter().cloned()));
    problems.extend(cross_check(workload, scale, seed, &reps));

    let (metrics, unmeasured) = end_to_end(&reps, peak_rss_mb);
    problems.extend(unmeasured);

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    if !problems.is_empty() {
        failed = attempted;
    }
    let outcome = Outcome {
        attempted,
        failed,
        problems,
        metrics,
    };
    (outcome, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::Record;

    #[test]
    fn repetitions_follow_the_flag_not_the_clock() {
        let w = Workload::EnginePipelined;
        assert_eq!(repetitions(w, 10.0, Scale::Full), w.reps_per_10s());
        assert_eq!(repetitions(w, 20.0, Scale::Full), 2 * w.reps_per_10s());
        assert_eq!(repetitions(w, 0.5, Scale::Full), MIN_REPS);
        assert_eq!(repetitions(w, 10.0, Scale::Smoke), 1);
    }

    #[test]
    fn the_fastest_observation_of_each_slice_is_summed() {
        let rep = crate::workloads::run_rep(Workload::FtlSnapshots, Scale::Smoke, 7, false);
        let with_walls = |walls: [f64; 2]| {
            let slices = walls.map(|wall_s| Elapsed { wall_s, cpu_s: 0.5 });
            Rep {
                slices: slices.to_vec(),
                host_pages: 12,
                ..rep.clone()
            }
        };
        // Slice 0 was fastest in the second repetition, slice 1 in the
        // first; the repetitions took 4 s and 3 s whole.
        let reps = [with_walls([1.0, 3.0]), with_walls([2.0, 1.0])];
        assert_eq!(fastest_slices(&reps, |s| s.wall_s), 2.0);
        let (metrics, problems) = end_to_end(&reps, 1.0);
        assert!(problems.is_empty(), "{problems:?}");
        let speed = &metrics[1];
        assert_eq!(speed.name, "host_pages_per_s");
        assert_eq!(speed.summary.value, 6.0);
        assert_eq!((speed.summary.q1, speed.summary.q3), (3.25, 3.75));
    }

    #[test]
    fn repetitions_that_timed_nothing_or_differently_still_yield_numbers() {
        let rep = crate::workloads::run_rep(Workload::FtlSnapshots, Scale::Smoke, 7, false);
        let mut shorter = rep.clone();
        shorter.slices.pop();
        let mut nothing = rep.clone();
        nothing.slices.clear();
        for reps in [vec![rep, shorter], vec![nothing]] {
            let (metrics, problems) = end_to_end(&reps, 1.0);
            assert_eq!(metrics.len(), END_TO_END.len());
            assert!(metrics.iter().all(|m| m.summary.value.is_finite()));
            assert!(
                problems.contains(&"host_pages_per_s is not a finite number".to_string()),
                "{problems:?}"
            );
        }
    }

    fn outcome(problems: Vec<String>) -> Outcome {
        Outcome {
            attempted: 7,
            failed: 0,
            problems,
            metrics: vec![Measured {
                name: "layer.tax",
                unit: "ratio",
                summary: Summary::exact(0.25, 3),
                base: Some(("ftl.ns_per_page", 40.0)),
            }],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = outcome(Vec::new()).result_line();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":7,"failed":0,"metrics":{"layer.tax":{"value":0.250000000000,"unit":"ratio"}}}"#
        );
    }

    #[test]
    fn records_carry_host_verdict_metrics_and_problems() {
        let host = Host::unpinned(2);
        let lines =
            outcome(vec!["report differs".to_string()]).records("w", 7, Scale::Smoke, &host);
        assert_eq!(lines.len(), 3);
        let records: Vec<Record> = lines.iter().map(|l| Record::parse(l).unwrap()).collect();
        assert_eq!(
            records[0].flag("correct"),
            Some(false),
            "a problem fails the run"
        );
        assert_eq!(records[0].num("cpus"), Some(2.0));
        assert_eq!(records[0].num("pinned_cpu"), None);
        assert_eq!(records[1].text("base"), Some("ftl.ns_per_page"));
        assert_eq!(records[2].text("problem"), Some("report differs"));
    }
}
