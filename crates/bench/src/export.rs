//! The `kind`-tagged runtime JSONL that `swl top --out` writes and
//! `swl check` gates: one flat object per line, an [`META`] header first,
//! one `final` line last. This module owns the format — one writer per line
//! kind, and one validator ([`check`]) whose rules key on the fields a line
//! carries.
//!
//! Schema v4 ([`SCHEMA`]): wall-clock `sample` / `worker` / `lane` /
//! `queue` ticks, each with a `cache` and a `health` line beside it. A
//! `health` line carries one `forecast` field, left out while the forecast
//! is unbounded. [`check`] accepts only the version this build writes.

use flash_telemetry::json::{self, JsonScalar, ObjWriter};
use flash_telemetry::runtime::CacheSample;
use flash_telemetry::{EngineSnapshot, HealthReport, QueueSample};

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The engine-wide figures a `sample` line and the `final` line share.
fn aggregate(o: &mut ObjWriter, snap: &EngineSnapshot) {
    o.f64("t_ms", ms(snap.elapsed_ns), 3)
        .u64("ops_submitted", snap.ops_submitted)
        .u64("ops_completed", snap.ops_completed)
        .f64("busy_frac", snap.busy_frac(), 4)
        .f64("starved_frac", snap.starved_frac(), 4)
        .f64("backpressure_frac", snap.backpressure_frac(), 4)
        .f64("host_backpressure_ms", ms(snap.host_backpressure_ns), 3)
        .u64("cmd_high_water", snap.command_high_water() as u64)
        .u64(
            "completion_high_water",
            snap.completion_queue.high_water as u64,
        );
}

fn queue_line(seq: u64, t_ms: f64, label: &str, q: &QueueSample) -> String {
    json::object(|o| {
        o.str("kind", "queue")
            .u64("seq", seq)
            .f64("t_ms", t_ms, 3)
            .str("queue", label)
            .u64("len", q.len as u64)
            .u64("high_water", q.high_water as u64)
            .u64("capacity", q.capacity as u64);
    })
}

/// The [`META`] header of an export.
pub fn engtop_meta_line(
    channels: u32,
    threads: u32,
    queue_depth: u64,
    events: u64,
    interval_ms: u64,
) -> String {
    json::object(|o| {
        o.str("kind", META)
            .u64("schema", SCHEMA)
            .u64("channels", u64::from(channels))
            .u64("threads", u64::from(threads))
            .u64("queue_depth", queue_depth)
            .u64("events", events)
            .u64("interval_ms", interval_ms);
    })
}

/// Appends one sampled tick: the `sample` line, then a `worker` line per
/// worker, a `lane` line per lane, and a `queue` line per command queue
/// and for the completion queue.
pub fn tick_lines(out: &mut Vec<String>, seq: u64, snap: &EngineSnapshot) {
    let t_ms = ms(snap.elapsed_ns);
    out.push(json::object(|o| {
        o.str("kind", "sample").u64("seq", seq);
        aggregate(o, snap);
    }));
    for (w, worker) in snap.workers.iter().enumerate() {
        out.push(json::object(|o| {
            o.str("kind", "worker")
                .u64("seq", seq)
                .f64("t_ms", t_ms, 3)
                .u64("worker", w as u64)
                .f64("busy_frac", worker.busy_frac(), 4)
                .f64("starved_frac", worker.starved_frac(), 4)
                .f64("backpressure_frac", worker.backpressure_frac(), 4)
                .f64("idle_frac", worker.idle_frac(), 4)
                .u64("commands", worker.commands)
                .u64("pages", worker.pages);
        }));
    }
    for (l, lane) in snap.lanes.iter().enumerate() {
        out.push(json::object(|o| {
            o.str("kind", "lane")
                .u64("seq", seq)
                .f64("t_ms", t_ms, 3)
                .u64("lane", l as u64)
                .f64("busy_ms", ms(lane.busy_wall_ns), 3)
                .u64("commands", lane.commands)
                .u64("pages", lane.pages);
        }));
    }
    for (w, queue) in snap.command_queues.iter().enumerate() {
        out.push(queue_line(seq, t_ms, &format!("cmd{w}"), queue));
    }
    out.push(queue_line(seq, t_ms, "completion", &snap.completion_queue));
}

/// The trailing `final` line of an export: the last snapshot's
/// engine-wide figures, then whatever summary fields `extra` appends.
pub fn final_line(snap: &EngineSnapshot, extra: impl FnOnce(&mut ObjWriter)) -> String {
    json::object(|o| {
        o.str("kind", "final");
        aggregate(o, snap);
        extra(o);
    })
}

/// The `cache` line of a tick sampled `elapsed_ns` into the run: the
/// service write cache's counter block.
pub fn cache_line(seq: u64, elapsed_ns: u64, cache: &CacheSample) -> String {
    json::object(|o| {
        o.str("kind", "cache")
            .u64("seq", seq)
            .f64("t_ms", ms(elapsed_ns), 3)
            .u64("write_hits", cache.write_hits)
            .u64("read_hits", cache.read_hits)
            .u64("admitted", cache.admitted)
            .u64("write_through", cache.write_through)
            .u64("flushed_pages", cache.flushed_pages)
            .u64("flush_batches", cache.flush_batches)
            .u64("evicted", cache.evicted)
            .u64("trimmed", cache.trimmed)
            .u64("dirty", cache.dirty)
            .u64("capacity", cache.capacity);
    })
}

/// The `health` line of a tick sampled `elapsed_ns` into the run: the
/// SMART-style report of poll `seq`. The forecast is left out while it is
/// unbounded.
pub fn health_line(seq: u64, elapsed_ns: u64, report: &HealthReport) -> String {
    json::object(|o| {
        o.str("kind", "health")
            .u64("seq", seq)
            .f64("t_ms", ms(elapsed_ns), 3)
            .u64("host_pages", report.host_pages)
            .u64("state", report.state.code())
            .f64("life_used", report.life_used, 4)
            .u64("wear_max", report.wear.max)
            .u64("wear_p90", report.wear.p90)
            .u64("wear_p50", report.wear.p50)
            .f64("wear_mean", report.wear.mean, 3)
            .f64("wear_sigma", report.wear.std_dev, 3)
            .u64("retired", report.retired)
            .u64("gc_erases", report.gc_erases)
            .u64("swl_erases", report.swl_erases)
            .u64("bet_ecnt", report.bet_ecnt)
            .u64("bet_fcnt", report.bet_fcnt)
            .f64("tail_rate", report.tail_rate, 6)
            .f64("mean_rate", report.mean_rate, 6)
            .f64("unevenness", report.unevenness_trend, 3)
            .f64("cache_absorption", report.cache_absorption(), 4);
        if let Some(pages) = report.forecast {
            o.u64("forecast", pages);
        }
    })
}

/// The schema version this build writes and [`check`] accepts; bump on any
/// line-shape change.
pub const SCHEMA: u64 = 4;

/// Kind of the header line.
pub const META: &str = "engtop_meta";

/// The kind whose lines a clean [`check`] counts.
pub const COUNTED: &str = "sample";

/// Every line kind, with the fields each such line must carry as numbers.
const KINDS: &[(&str, &[&str])] = &[
    (
        META,
        &[
            "schema",
            "channels",
            "threads",
            "queue_depth",
            "events",
            "interval_ms",
        ],
    ),
    ("sample", AGGREGATE),
    ("final", AGGREGATE),
    (
        "worker",
        &[
            "t_ms",
            "worker",
            "busy_frac",
            "starved_frac",
            "backpressure_frac",
            "idle_frac",
            "commands",
            "pages",
        ],
    ),
    ("lane", &["t_ms", "lane", "busy_ms", "commands", "pages"]),
    ("queue", &["t_ms", "len", "high_water", "capacity"]),
    (
        "cache",
        &[
            "t_ms",
            "write_hits",
            "read_hits",
            "admitted",
            "write_through",
            "flushed_pages",
            "flush_batches",
            "evicted",
            "trimmed",
            "dirty",
            "capacity",
        ],
    ),
    (
        "health",
        &[
            "seq",
            "t_ms",
            "host_pages",
            "state",
            "life_used",
            "wear_max",
            "wear_p90",
            "wear_p50",
            "wear_mean",
            "wear_sigma",
            "retired",
            "gc_erases",
            "swl_erases",
            "bet_ecnt",
            "bet_fcnt",
            "tail_rate",
            "mean_rate",
            "unevenness",
            "cache_absorption",
        ],
    ),
];

const AGGREGATE: &[&str] = &[
    "t_ms",
    "ops_submitted",
    "ops_completed",
    "busy_frac",
    "starved_frac",
    "backpressure_frac",
    "host_backpressure_ms",
    "cmd_high_water",
    "completion_high_water",
];

type Fields = [(String, JsonScalar)];

fn num(fields: &Fields, key: &str) -> Option<f64> {
    json::field(fields, key)?.as_num()
}

fn text<'a>(fields: &'a Fields, key: &str) -> Option<&'a str> {
    json::field(fields, key)?.as_str()
}

/// Validates an export. Returns the number of its [`COUNTED`] lines.
///
/// # Errors
///
/// Every violation found, each naming its line.
pub fn check(export: &str) -> Result<u64, Vec<String>> {
    let mut errors = Vec::new();
    let mut rules = Rules::default();
    let (mut lines, mut finals, mut counted) = (0usize, 0usize, 0u64);
    for (n, line) in export.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        lines += 1;
        let at = n + 1;
        let fields = match json::parse_flat(line) {
            Ok(fields) => fields,
            Err(e) => {
                errors.push(format!("line {at}: {e}"));
                continue;
            }
        };
        let Some(kind) = text(&fields, "kind") else {
            errors.push(format!("line {at}: no \"kind\" field"));
            continue;
        };
        let Some(&(_, required)) = KINDS.iter().find(|(k, _)| *k == kind) else {
            errors.push(format!("line {at}: unknown kind {kind:?}"));
            continue;
        };
        let mut complete = true;
        for key in required.iter().filter(|key| num(&fields, key).is_none()) {
            errors.push(format!("line {at}: {kind} line missing numeric {key:?}"));
            complete = false;
        }
        if !complete {
            continue;
        }
        if n == 0 {
            let declared = num(&fields, "schema").unwrap_or(0.0);
            if kind != META {
                errors.push(format!("line 1: export must start with a {META} line"));
            } else if declared != SCHEMA as f64 {
                errors.push(format!(
                    "line 1: schema {declared}, this build speaks v{SCHEMA}"
                ));
            }
        } else if kind == META {
            errors.push(format!("line {at}: duplicate {META}"));
        }
        if finals > 0 && kind != "final" {
            errors.push(format!("line {at}: content after the final line"));
        }
        finals += usize::from(kind == "final");
        counted += u64::from(kind == COUNTED);
        rules.line(kind, &fields, &mut |msg| {
            errors.push(format!("line {at}: {msg}"));
        });
    }
    if lines == 0 {
        errors.push("empty export".to_owned());
    } else if finals == 0 {
        errors.push("no final line".to_owned());
    } else if finals > 1 {
        errors.push(format!("{finals} final lines, expected exactly one"));
    }
    if errors.is_empty() {
        Ok(counted)
    } else {
        Err(errors)
    }
}

/// The counters of a `health` line that may only grow.
const MONOTONE: [&str; 3] = ["host_pages", "wear_max", "retired"];

/// The cross-line state of the rule set.
#[derive(Default)]
struct Rules {
    /// Worker threads and lanes, from the meta line.
    threads: Option<f64>,
    channels: Option<f64>,
    last_t_ms: Option<f64>,
    /// High-water mark per queue label.
    queue_high: Vec<(String, f64)>,
    /// `health` lines so far.
    reports: u64,
    /// The last health line's [`MONOTONE`] counters.
    last_health: Option<[f64; 3]>,
}

impl Rules {
    fn line(&mut self, kind: &str, f: &Fields, fail: &mut dyn FnMut(String)) {
        if kind == META {
            self.threads = num(f, "threads");
            self.channels = num(f, "channels");
        }
        // Time is monotone in file order on every line that carries it.
        if let Some(t_ms) = num(f, "t_ms") {
            if let Some(last) = self.last_t_ms.filter(|&last| t_ms < last) {
                fail(format!("t_ms {t_ms} went backwards (was {last})"));
            }
            self.last_t_ms = Some(t_ms);
        }
        for key in [
            "busy_frac",
            "starved_frac",
            "backpressure_frac",
            "idle_frac",
            "cache_absorption",
        ] {
            if let Some(v) = num(f, key).filter(|v| !(0.0..=1.0).contains(v)) {
                fail(format!("{key} {v} outside [0, 1]"));
            }
        }
        for (key, bound, of) in [
            ("worker", self.threads, "threads"),
            ("lane", self.channels, "channels"),
        ] {
            if let (Some(index), Some(bound)) = (num(f, key), bound) {
                if index >= bound {
                    fail(format!("{key} {index} >= {bound} {of}"));
                }
            }
        }
        match kind {
            "queue" => self.queue(f, fail),
            "cache" => {
                let [dirty, capacity] = ["dirty", "capacity"].map(|k| num(f, k).unwrap_or(0.0));
                if dirty > capacity {
                    fail(format!("cache dirty {dirty} > capacity {capacity}"));
                }
            }
            "health" => self.health(f, fail),
            _ => {}
        }
    }

    fn queue(&mut self, f: &Fields, fail: &mut dyn FnMut(String)) {
        let Some(label) = text(f, "queue") else {
            return fail("queue line missing \"queue\" label".to_owned());
        };
        let [len, high, cap] = ["len", "high_water", "capacity"].map(|k| num(f, k).unwrap_or(0.0));
        if len > cap {
            fail(format!("queue {label} len {len} > capacity {cap}"));
        }
        if high > cap {
            fail(format!("queue {label} high_water {high} > capacity {cap}"));
        }
        match self.queue_high.iter_mut().find(|(name, _)| name == label) {
            Some((_, prev)) => {
                if high < *prev {
                    fail(format!(
                        "queue {label} high_water {high} regressed from {prev}"
                    ));
                }
                *prev = high;
            }
            None => self.queue_high.push((label.to_owned(), high)),
        }
    }

    /// The rules of a `health` line, whose required fields are all present.
    fn health(&mut self, f: &Fields, fail: &mut dyn FnMut(String)) {
        let [seq, state, life, max, p90] =
            ["seq", "state", "life_used", "wear_max", "wear_p90"].map(|k| num(f, k).unwrap_or(0.0));
        if seq != self.reports as f64 {
            fail(format!("health seq {seq}, expected {}", self.reports));
        }
        self.reports += 1;
        if !(0.0..=2.0).contains(&state) {
            fail(format!("state {state} not in 0..=2"));
        }
        let counters = MONOTONE.map(|key| num(f, key).unwrap_or(0.0));
        if let Some(last) = self.last_health {
            for ((key, now), prev) in MONOTONE.iter().zip(counters).zip(last) {
                if now < prev {
                    fail(format!("{key} {now} regressed from {prev}"));
                }
            }
        }
        self.last_health = Some(counters);
        if p90 > max {
            fail(format!("wear_p90 {p90} > wear_max {max}"));
        }
        if life < 0.0 {
            fail("negative life_used".to_owned());
        }
        // Left out while unbounded; when present, a whole number of pages.
        if json::field(f, "forecast").is_some_and(|v| v.as_u64().is_none()) {
            fail("forecast is not a page count".to_owned());
        }
    }
}

#[cfg(test)]
mod tests {
    /// The rules of an `engtop_meta` export.
    mod engtop_meta {
        use super::super::check;

        const META: &str = "{\"kind\":\"engtop_meta\",\"schema\":4,\"channels\":4,\
                            \"threads\":2,\"queue_depth\":8,\"events\":100,\"interval_ms\":50}";
        const FINAL: &str = "{\"kind\":\"final\",\"t_ms\":9.0,\"ops_submitted\":100,\
                             \"ops_completed\":100,\"busy_frac\":0.5,\"starved_frac\":0.25,\
                             \"backpressure_frac\":0.1,\"host_backpressure_ms\":1.0,\
                             \"cmd_high_water\":4,\"completion_high_water\":2,\
                             \"cmd_p50_ns\":100,\"cmd_p99_ns\":200,\
                             \"op_wall_p50_ns\":300,\"op_wall_p99_ns\":400}";

        fn sample(t_ms: f64) -> String {
            format!(
                "{{\"kind\":\"sample\",\"seq\":0,\"t_ms\":{t_ms},\"ops_submitted\":1,\
                 \"ops_completed\":0,\"busy_frac\":0.1,\"starved_frac\":0.2,\
                 \"backpressure_frac\":0.0,\"host_backpressure_ms\":0.0,\
                 \"cmd_high_water\":1,\"completion_high_water\":1}}"
            )
        }

        #[test]
        fn accepts_a_minimal_valid_export() {
            let text = format!("{META}\n{}\n{FINAL}\n", sample(1.0));
            assert_eq!(check(&text), Ok(1));
        }

        #[test]
        fn rejects_missing_meta_and_missing_final() {
            assert!(check(&format!("{}\n{FINAL}\n", sample(1.0))).is_err());
            assert!(check(&format!("{META}\n{}\n", sample(1.0))).is_err());
            assert!(check("").is_err());
        }

        #[test]
        fn rejects_time_regression_and_bad_fractions() {
            let back = format!("{META}\n{}\n{}\n{FINAL}\n", sample(5.0), sample(1.0));
            assert!(check(&back).is_err());
            let bad = sample(1.0).replace("\"busy_frac\":0.1", "\"busy_frac\":1.5");
            assert!(check(&format!("{META}\n{bad}\n{FINAL}\n")).is_err());
        }

        #[test]
        fn rejects_queue_high_water_regression() {
            let q = |t: f64, high: u64| {
                format!(
                    "{{\"kind\":\"queue\",\"seq\":0,\"t_ms\":{t},\"queue\":\"cmd0\",\
                     \"len\":0,\"high_water\":{high},\"capacity\":8}}"
                )
            };
            let ok = format!("{META}\n{}\n{}\n{FINAL}\n", q(1.0, 2), q(2.0, 3));
            assert_eq!(check(&ok), Ok(0));
            let regressed = format!("{META}\n{}\n{}\n{FINAL}\n", q(1.0, 3), q(2.0, 2));
            assert!(check(&regressed).is_err());
            let over = q(1.0, 9);
            assert!(check(&format!("{META}\n{over}\n{FINAL}\n")).is_err());
        }

        fn cache(t_ms: f64, dirty: u64, capacity: u64) -> String {
            format!(
                "{{\"kind\":\"cache\",\"seq\":0,\"t_ms\":{t_ms},\"write_hits\":5,\
                 \"read_hits\":2,\"admitted\":3,\"write_through\":1,\"flushed_pages\":4,\
                 \"flush_batches\":2,\"evicted\":0,\"trimmed\":0,\
                 \"dirty\":{dirty},\"capacity\":{capacity}}}"
            )
        }

        #[test]
        fn cache_lines_need_schema_v2() {
            let ok = format!("{META}\n{}\n{FINAL}\n", cache(1.0, 3, 8));
            assert_eq!(check(&ok), Ok(0));
            let meta_v1 = META.replace("\"schema\":4", "\"schema\":1");
            let v1 = format!("{meta_v1}\n{}\n{FINAL}\n", cache(1.0, 3, 8));
            assert!(check(&v1).is_err(), "cache lines are not part of schema v1");
        }

        #[test]
        fn rejects_cache_dirty_over_capacity_and_future_schema() {
            let ok = format!("{META}\n{}\n{FINAL}\n", cache(1.0, 3, 8));
            assert_eq!(check(&ok), Ok(0));
            let over = format!("{META}\n{}\n{FINAL}\n", cache(1.0, 9, 8));
            assert!(check(&over).is_err());
            let future = META.replace("\"schema\":4", "\"schema\":5");
            assert!(check(&format!("{future}\n{FINAL}\n")).is_err());
        }

        fn health(t_ms: f64, state: u64, p90: u64, max: u64, forecast: Option<u64>) -> String {
            let forecast = forecast.map_or(String::new(), |pages| format!(",\"forecast\":{pages}"));
            format!(
                "{{\"kind\":\"health\",\"seq\":0,\"t_ms\":{t_ms},\"host_pages\":100,\
                 \"state\":{state},\"life_used\":0.25,\"wear_max\":{max},\"wear_p90\":{p90},\
                 \"wear_p50\":3,\"wear_mean\":3.5,\"wear_sigma\":0.5,\"retired\":0,\
                 \"gc_erases\":10,\"swl_erases\":2,\"bet_ecnt\":5,\"bet_fcnt\":3,\
                 \"tail_rate\":0.01,\"mean_rate\":0.008,\"unevenness\":1.2,\
                 \"cache_absorption\":0.25{forecast}}}"
            )
        }

        #[test]
        fn refuses_a_v3_file() {
            let ok = format!("{META}\n{}\n{FINAL}\n", health(1.0, 1, 4, 6, None));
            assert_eq!(check(&ok), Ok(0));
            // A v3 file's lines may match v4 field for field; the header's
            // version alone refuses it.
            let v3 = META.replace("\"schema\":4", "\"schema\":3");
            let errors = check(&format!("{v3}\n{}\n{FINAL}\n", health(1.0, 1, 4, 6, None)));
            assert_eq!(
                errors,
                Err(vec!["line 1: schema 3, this build speaks v4".to_owned()])
            );
        }

        #[test]
        fn health_lines_need_schema_v3() {
            let ok = format!("{META}\n{}\n{FINAL}\n", health(1.0, 1, 4, 6, None));
            assert_eq!(check(&ok), Ok(0));
            let v2 = META.replace("\"schema\":4", "\"schema\":2");
            let rejected = format!("{v2}\n{}\n{FINAL}\n", health(1.0, 1, 4, 6, None));
            assert!(
                check(&rejected).is_err(),
                "health lines are not part of schema v2"
            );
        }

        #[test]
        fn rejects_bad_health_state_tail_and_forecast() {
            let bad_state = format!("{META}\n{}\n{FINAL}\n", health(1.0, 5, 4, 6, None));
            assert!(check(&bad_state).is_err());
            let bad_tail = format!("{META}\n{}\n{FINAL}\n", health(1.0, 0, 9, 6, None));
            assert!(check(&bad_tail).is_err());
            let bounded = format!("{META}\n{}\n{FINAL}\n", health(1.0, 0, 4, 6, Some(80)));
            assert_eq!(check(&bounded), Ok(0));
            for not_pages in ["null", "-3", "2.5", "\"soon\""] {
                let line = health(1.0, 0, 4, 6, Some(80))
                    .replace("\"forecast\":80", &format!("\"forecast\":{not_pages}"));
                let errors = check(&format!("{META}\n{line}\n{FINAL}\n")).unwrap_err();
                assert_eq!(
                    errors,
                    ["line 2: forecast is not a page count"],
                    "{not_pages}"
                );
            }
        }

        #[test]
        fn rejects_health_counters_that_regress() {
            let first = health(1.0, 0, 4, 6, None).replace("\"retired\":0", "\"retired\":1");
            let next = first.replace("\"seq\":0", "\"seq\":1");
            let ok = format!("{META}\n{first}\n{next}\n{FINAL}\n");
            assert_eq!(check(&ok), Ok(0));
            for (from, to, what) in [
                (
                    "\"wear_max\":6",
                    "\"wear_max\":5",
                    "wear_max 5 regressed from 6",
                ),
                (
                    "\"host_pages\":100",
                    "\"host_pages\":99",
                    "host_pages 99 regressed from 100",
                ),
                (
                    "\"retired\":1",
                    "\"retired\":0",
                    "retired 0 regressed from 1",
                ),
                ("\"seq\":1", "\"seq\":2", "health seq 2, expected 1"),
            ] {
                let bad = format!("{META}\n{first}\n{}\n{FINAL}\n", next.replace(from, to));
                let errors = check(&bad).unwrap_err();
                assert!(errors[0].contains(what), "{errors:?}");
            }
        }

        /// Marks a `health` line as the second report.
        fn second(line: String) -> String {
            line.replace("\"seq\":0", "\"seq\":1")
        }

        #[test]
        fn accepts_a_run_of_health_lines() {
            let text = format!(
                "{META}\n{}\n{}\n{FINAL}\n",
                health(1.0, 0, 2, 3, None),
                second(health(2.0, 0, 4, 6, Some(80)))
            );
            assert_eq!(check(&text), Ok(0));
        }

        #[test]
        fn rejects_wear_regression_and_seq_gaps() {
            let regressed = format!(
                "{META}\n{}\n{}\n{FINAL}\n",
                health(1.0, 0, 4, 6, None),
                second(health(2.0, 0, 2, 3, None))
            );
            assert!(check(&regressed).is_err());
            let gap = format!(
                "{META}\n{}\n{}\n{FINAL}\n",
                health(1.0, 0, 2, 3, None),
                health(2.0, 0, 4, 6, None).replace("\"seq\":0", "\"seq\":2")
            );
            assert!(check(&gap).is_err());
        }

        #[test]
        fn rejects_health_lines_without_a_final() {
            let text = format!("{META}\n{}\n", health(1.0, 0, 4, 6, None));
            assert_eq!(check(&text), Err(vec!["no final line".to_owned()]));
        }

        #[test]
        fn rejects_a_health_line_with_a_repeated_key() {
            let twice = health(1.0, 0, 3, 6, None)
                .replace("\"wear_max\":6", "\"wear_max\":6,\"wear_max\":2");
            let errors = check(&format!("{META}\n{twice}\n{FINAL}\n")).unwrap_err();
            assert_eq!(errors[0], "line 2: duplicate key \"wear_max\"");
        }

        #[test]
        fn rejects_unknown_kinds_and_out_of_range_indices() {
            // `alert` lines belonged to an export format this build no
            // longer reads.
            for unknown in [
                "{\"kind\":\"mystery\",\"t_ms\":1.0}",
                "{\"kind\":\"alert\",\"seq\":1,\"ops\":5,\"from\":0,\"to\":1}",
            ] {
                assert!(check(&format!("{META}\n{unknown}\n{FINAL}\n")).is_err());
            }
            let worker = "{\"kind\":\"worker\",\"t_ms\":1.0,\"worker\":7,\"busy_frac\":0.1,\
                          \"starved_frac\":0.1,\"backpressure_frac\":0.1,\"idle_frac\":0.7,\
                          \"commands\":1,\"pages\":1}";
            assert!(check(&format!("{META}\n{worker}\n{FINAL}\n")).is_err());
        }

        #[test]
        fn a_null_where_a_number_is_required_names_the_field() {
            let nan = sample(1.0).replace("\"busy_frac\":0.1", "\"busy_frac\":null");
            let errors = check(&format!("{META}\n{nan}\n{FINAL}\n")).unwrap_err();
            assert_eq!(
                errors,
                ["line 2: sample line missing numeric \"busy_frac\""]
            );
        }
    }
}
