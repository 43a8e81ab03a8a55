//! The `kind`-tagged runtime JSONL that `engtop --out`, `svcbench --out`
//! and `swlhealth --out` write and `engtop --check` / `swlhealth --check`
//! gate: one flat object per line, a meta header first, one `final` line
//! last. This module owns the format — one writer per line kind, and one
//! validator ([`check`]) whose framing is written once and whose rules key
//! on the fields a line carries, so a `health` line meets the same rule set
//! whichever tool wrote it.
//!
//! Two dialects share the format: [`ENGTOP`] (schema v3 — wall-clock
//! `sample` / `worker` / `lane` / `queue` ticks, `cache` lines since v2,
//! `health` lines since v3) and [`SWLHEALTH`] (schema v1 — barrier-quiesced
//! `health` reports stamped in host ops, `alert` lines on state changes; no
//! wall-clock field, so an export is bit-reproducible).

use crate::json::{self, JsonScalar, ObjWriter};
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

/// The `engtop_meta` header of an [`ENGTOP`] export.
pub fn engtop_meta_line(
    channels: u32,
    threads: u32,
    queue_depth: u64,
    events: u64,
    interval_ms: u64,
) -> String {
    json::object(|o| {
        o.str("kind", "engtop_meta")
            .u64("schema", ENGTOP.schema)
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

/// The trailing `final` line of an [`ENGTOP`] export: the last snapshot's
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

/// When a health report was taken, in its dialect's clock.
#[derive(Debug, Clone, Copy)]
pub enum Stamp {
    /// Wall nanoseconds into the run (an [`ENGTOP`] stream's `t_ms`).
    WallNs(u64),
    /// Host ops accepted so far (a [`SWLHEALTH`] stream's `ops`).
    Ops(u64),
}

/// One `health` line: the SMART-style report of poll `seq`. The forecast
/// band is written whole or — while the forecast is unbounded — not at all.
pub fn health_line(seq: u64, stamp: Stamp, report: &HealthReport) -> String {
    json::object(|o| {
        o.str("kind", "health").u64("seq", seq);
        match stamp {
            Stamp::WallNs(ns) => o.f64("t_ms", ms(ns), 3),
            Stamp::Ops(ops) => o.u64("ops", ops),
        };
        o.u64("host_pages", report.host_pages)
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
        let forecast = &report.forecast;
        if let (Some(lo), Some(mid), Some(hi)) =
            (forecast.earliest, forecast.central, forecast.latest)
        {
            o.u64("forecast_earliest", lo)
                .u64("forecast_central", mid)
                .u64("forecast_latest", hi);
        }
    })
}

/// One `alert` line: the composite state moved `from` → `to` (state codes)
/// at poll `seq`; written just before the `health` line carrying `to`.
pub fn alert_line(seq: u64, ops: u64, from: u64, to: u64) -> String {
    json::object(|o| {
        o.str("kind", "alert")
            .u64("seq", seq)
            .u64("ops", ops)
            .u64("from", from)
            .u64("to", to);
    })
}

/// A line kind of a dialect: its name, the schema version that introduced
/// it, and the fields every such line must carry as numbers.
type Kind = (&'static str, u64, &'static [&'static str]);

/// One dialect of the format: what [`check`] needs to know beyond the rules.
#[derive(Debug)]
pub struct Dialect {
    /// The schema version this build writes; bump on any line-shape change.
    pub schema: u64,
    /// Oldest schema version `check` still accepts.
    min_schema: u64,
    /// Kind of the header line.
    meta: &'static str,
    kinds: &'static [Kind],
    /// The kind whose lines a clean `check` counts.
    counts: &'static str,
    /// Whether an export without a single `health` line is an error.
    needs_health: bool,
}

/// What `engtop --out` and `svcbench --out` write and `engtop --check`
/// reads. A line kind is rejected in a file whose meta declares a schema
/// predating it.
pub const ENGTOP: Dialect = Dialect {
    schema: 3,
    min_schema: 1,
    meta: "engtop_meta",
    kinds: &[
        (
            "engtop_meta",
            1,
            &[
                "schema",
                "channels",
                "threads",
                "queue_depth",
                "events",
                "interval_ms",
            ],
        ),
        ("sample", 1, AGGREGATE),
        ("final", 1, AGGREGATE),
        (
            "worker",
            1,
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
        ("lane", 1, &["t_ms", "lane", "busy_ms", "commands", "pages"]),
        ("queue", 1, &["t_ms", "len", "high_water", "capacity"]),
        (
            "cache",
            2,
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
        // What a v3 file written before `health_line` carried the whole
        // report is guaranteed to hold; the forecast fields are optional.
        (
            "health",
            3,
            &[
                "t_ms",
                "state",
                "life_used",
                "host_pages",
                "wear_max",
                "wear_p90",
                "wear_mean",
                "retired",
                "tail_rate",
                "mean_rate",
                "unevenness",
            ],
        ),
    ],
    counts: "sample",
    needs_health: false,
};

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

/// What `swlhealth --out` writes and `swlhealth --check` reads.
pub const SWLHEALTH: Dialect = Dialect {
    schema: 1,
    min_schema: 1,
    meta: "swlhealth_meta",
    kinds: &[
        (
            "swlhealth_meta",
            1,
            &["schema", "blocks", "endurance", "report_every", "ops"],
        ),
        (
            "health",
            1,
            &[
                "seq",
                "ops",
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
        ("alert", 1, &["seq", "ops", "from", "to"]),
        (
            "final",
            1,
            &[
                "ops",
                "host_pages",
                "state",
                "life_used",
                "wear_max",
                "retired",
            ],
        ),
    ],
    counts: "health",
    needs_health: true,
};

type Fields = [(String, JsonScalar)];

fn num(fields: &Fields, key: &str) -> Option<f64> {
    fields.iter().find(|(k, _)| k == key)?.1.as_num()
}

fn text<'a>(fields: &'a Fields, key: &str) -> Option<&'a str> {
    fields.iter().find(|(k, _)| k == key)?.1.as_str()
}

/// Validates an export against `dialect`. Returns the number of lines of
/// the dialect's counted kind (`sample` ticks for [`ENGTOP`], `health`
/// reports for [`SWLHEALTH`]).
///
/// # Errors
///
/// Every violation found, each naming its line.
pub fn check(export: &str, dialect: &Dialect) -> Result<u64, Vec<String>> {
    let mut errors = Vec::new();
    let mut rules = Rules::default();
    let mut schema = dialect.schema;
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
        let Some(&(_, since, required)) = dialect.kinds.iter().find(|(k, ..)| *k == kind) else {
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
        let meta = dialect.meta;
        if n == 0 {
            let declared = num(&fields, "schema").unwrap_or(0.0);
            if kind != meta {
                errors.push(format!("line 1: export must start with a {meta} line"));
            } else if declared < dialect.min_schema as f64 || declared > dialect.schema as f64 {
                errors.push(format!(
                    "line 1: schema {declared}, this build speaks v{}..=v{}",
                    dialect.min_schema, dialect.schema
                ));
            } else {
                schema = declared as u64;
            }
        } else if kind == meta {
            errors.push(format!("line {at}: duplicate {meta}"));
        }
        if schema < since {
            errors.push(format!(
                "line {at}: {kind} lines need schema v{since}, file declares v{schema}"
            ));
        }
        if finals > 0 && kind != "final" {
            errors.push(format!("line {at}: content after the final line"));
        }
        finals += usize::from(kind == "final");
        counted += u64::from(kind == dialect.counts);
        rules.line(at, kind, kind == meta, &fields, &mut |msg| {
            errors.push(format!("line {at}: {msg}"));
        });
    }
    if let Some((alert_line, _)) = rules.pending_alert {
        errors.push(format!(
            "line {alert_line}: alert with no following health line"
        ));
    }
    if lines == 0 {
        errors.push("empty export".to_owned());
    } else if dialect.needs_health && rules.reports == 0 {
        errors.push("no health lines".to_owned());
    }
    if finals == 0 && lines > 0 {
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
const MONOTONE: [&str; 4] = ["ops", "host_pages", "wear_max", "retired"];

/// The cross-line state of the rule set. Every rule keys on the fields a
/// line carries, not on the dialect it was found in.
#[derive(Default)]
struct Rules {
    /// Worker threads, lanes and rated endurance, from a meta line that
    /// declares them.
    threads: Option<f64>,
    channels: Option<f64>,
    endurance: Option<f64>,
    last_t_ms: Option<f64>,
    /// High-water mark per queue label.
    queue_high: Vec<(String, f64)>,
    /// `health` lines so far.
    reports: u64,
    /// The last health line's state and [`MONOTONE`] counters.
    last_health: Option<(f64, [Option<f64>; 4])>,
    /// An alert (its line number and `to` state) waiting for the next
    /// health line to confirm it.
    pending_alert: Option<(usize, f64)>,
}

impl Rules {
    fn line(
        &mut self,
        at: usize,
        kind: &str,
        is_meta: bool,
        f: &Fields,
        fail: &mut dyn FnMut(String),
    ) {
        if is_meta {
            self.threads = num(f, "threads");
            self.channels = num(f, "channels");
            self.endurance = num(f, "endurance");
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
        for key in ["state", "from", "to"] {
            if let Some(v) = num(f, key).filter(|v| !(0.0..=2.0).contains(v)) {
                fail(format!("{key} {v} not in 0..=2"));
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
            "alert" => self.alert(at, f, fail),
            "final" => {
                if let (Some(state), Some((last, _))) = (num(f, "state"), self.last_health) {
                    if state != last {
                        fail(format!("final state {state} != last health state {last}"));
                    }
                }
            }
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

    /// The one rule set for `health` lines, whichever tool wrote them.
    fn health(&mut self, f: &Fields, fail: &mut dyn FnMut(String)) {
        if let Some(seq) = num(f, "seq").filter(|&seq| seq != self.reports as f64) {
            fail(format!("health seq {seq}, expected {}", self.reports));
        }
        self.reports += 1;
        let state = num(f, "state").unwrap_or(0.0);
        let counters = MONOTONE.map(|key| num(f, key));
        if let Some((_, last)) = self.last_health {
            for ((key, now), prev) in MONOTONE.iter().zip(counters).zip(last) {
                if let (Some(now), Some(prev)) = (now, prev) {
                    if now < prev {
                        fail(format!("{key} {now} regressed from {prev}"));
                    }
                }
            }
        }
        if let Some((alert_line, to)) = self.pending_alert.take() {
            if to != state {
                fail(format!(
                    "the alert on line {alert_line} went \"to\" {to} but this health line \
                     carries state {state}"
                ));
            }
        }
        let [life, max, p90] =
            ["life_used", "wear_max", "wear_p90"].map(|k| num(f, k).unwrap_or(0.0));
        if p90 > max {
            fail(format!("wear_p90 {p90} > wear_max {max}"));
        }
        if life < 0.0 {
            fail("negative life_used".to_owned());
        }
        // The 4-decimal rounding in the export bounds the error.
        if let Some(e) = self.endurance.filter(|&e| e > 0.0) {
            if (life - max / e).abs() > 5e-4 + 1e-9 {
                fail(format!(
                    "life_used {life} != wear_max/endurance {:.4}",
                    max / e
                ));
            }
        }
        // The forecast band appears whole or not at all, and brackets the
        // central estimate.
        let band = ["forecast_earliest", "forecast_central", "forecast_latest"].map(|k| num(f, k));
        match band {
            [Some(lo), Some(mid), Some(hi)] if lo <= mid && mid <= hi => {}
            [Some(lo), Some(mid), Some(hi)] => {
                fail(format!("forecast band {lo}..{mid}..{hi} out of order"));
            }
            [None, None, None] => {}
            _ => fail("forecast fields must appear all together or not at all".to_owned()),
        }
        self.last_health = Some((state, counters));
    }

    fn alert(&mut self, at: usize, f: &Fields, fail: &mut dyn FnMut(String)) {
        let (from, to) = (num(f, "from").unwrap_or(0.0), num(f, "to").unwrap_or(0.0));
        if from == to {
            fail(format!("alert with from == to == {from}"));
        }
        if let Some((state, _)) = self.last_health.filter(|&(state, _)| from != state) {
            fail(format!(
                "alert \"from\" {from} but the previous health line carried state {state}"
            ));
        }
        if self.pending_alert.is_some() {
            fail("two alerts without a health line between".to_owned());
        }
        self.pending_alert = Some((at, to));
    }
}

#[cfg(test)]
mod tests {
    use super::{check, ENGTOP, SWLHEALTH};

    // The per-dialect rule tests ride the bins' `--check` entry points
    // (`engtop::tests`, `swlhealth::tests`); this is what only the pair shows.
    #[test]
    fn each_dialect_rejects_the_other_header_and_kinds() {
        let meta = "{\"kind\":\"engtop_meta\",\"schema\":3,\"channels\":4,\"threads\":2,\
                    \"queue_depth\":8,\"events\":100,\"interval_ms\":50}";
        let end = "{\"kind\":\"final\",\"t_ms\":9.0,\"ops_submitted\":100,\"ops_completed\":100,\
                   \"busy_frac\":0.5,\"starved_frac\":0.25,\"backpressure_frac\":0.1,\
                   \"host_backpressure_ms\":1.0,\"cmd_high_water\":4,\"completion_high_water\":2}";
        assert_eq!(check(&format!("{meta}\n{end}\n"), &ENGTOP), Ok(0));
        let errors = check(&format!("{meta}\n{end}\n"), &SWLHEALTH).unwrap_err();
        assert!(
            errors[0].contains("unknown kind \"engtop_meta\""),
            "{errors:?}"
        );
        let alert = "{\"kind\":\"alert\",\"seq\":1,\"ops\":5,\"from\":0,\"to\":1}";
        let errors = check(&format!("{meta}\n{alert}\n{end}\n"), &ENGTOP).unwrap_err();
        assert!(errors[0].contains("unknown kind \"alert\""), "{errors:?}");
    }
}
