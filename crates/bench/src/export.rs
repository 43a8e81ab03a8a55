//! The `kind`-tagged runtime JSONL that `swl top --out` and
//! `swl health --out` write and `swl check` gates: one flat object per
//! line, a meta header first, one `final` line last. This module owns the
//! format — one writer per line kind, and one validator ([`check`]) whose
//! framing is written once and whose rules key on the fields a line
//! carries, so a `health` line meets the same rule set whichever tool
//! wrote it.
//!
//! Two dialects share the format: [`ENGTOP`] (schema v3 — wall-clock
//! `sample` / `worker` / `lane` / `queue` ticks, `cache` lines since v2,
//! `health` lines since v3) and [`SWLHEALTH`] (schema v1 — barrier-quiesced
//! `health` reports stamped in host ops, `alert` lines on state changes; no
//! wall-clock field, so an export is bit-reproducible).

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

/// The `swlhealth_meta` header of a [`SWLHEALTH`] export.
pub fn swlhealth_meta_line(blocks: u64, endurance: u32, report_every: u64, ops: u64) -> String {
    json::object(|o| {
        o.str("kind", "swlhealth_meta")
            .u64("schema", SWLHEALTH.schema)
            .u64("blocks", blocks)
            .u64("endurance", u64::from(endurance))
            .u64("report_every", report_every)
            .u64("ops", ops);
    })
}

/// The trailing `final` line of a [`SWLHEALTH`] export: where the last
/// report, taken after `ops` host ops, left the device.
pub fn swlhealth_final_line(ops: u64, report: &HealthReport) -> String {
    json::object(|o| {
        o.str("kind", "final")
            .u64("ops", ops)
            .u64("host_pages", report.host_pages)
            .u64("state", report.state.code())
            .f64("life_used", report.life_used, 4)
            .u64("wear_max", report.wear.max)
            .u64("retired", report.retired);
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
    /// Kind of the header line, which names the dialect.
    pub meta: &'static str,
    kinds: &'static [Kind],
    /// The kind whose lines a clean `check` counts.
    pub counts: &'static str,
    /// Whether an export without a single `health` line is an error.
    needs_health: bool,
}

/// What `swl top --out` writes. A line kind is
/// rejected in a file whose meta declares a schema predating it.
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

/// What `swl health --out` writes.
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

/// The dialect whose header line is of kind `meta`.
pub fn dialect_of(meta: &str) -> Option<&'static Dialect> {
    [&ENGTOP, &SWLHEALTH].into_iter().find(|d| d.meta == meta)
}

type Fields = [(String, JsonScalar)];

fn num(fields: &Fields, key: &str) -> Option<f64> {
    json::field(fields, key)?.as_num()
}

fn text<'a>(fields: &'a Fields, key: &str) -> Option<&'a str> {
    json::field(fields, key)?.as_str()
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

    /// The rules of an `engtop_meta` export.
    mod engtop_meta {
        fn check(text: &str) -> Result<u64, Vec<String>> {
            super::check(text, &super::ENGTOP)
        }

        const META: &str = "{\"kind\":\"engtop_meta\",\"schema\":1,\"channels\":4,\
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
            let meta_v2 = META.replace("\"schema\":1", "\"schema\":2");
            let ok = format!("{meta_v2}\n{}\n{FINAL}\n", cache(1.0, 3, 8));
            assert_eq!(check(&ok), Ok(0));
            let v1 = format!("{META}\n{}\n{FINAL}\n", cache(1.0, 3, 8));
            assert!(check(&v1).is_err(), "cache lines are not part of schema v1");
        }

        #[test]
        fn rejects_cache_dirty_over_capacity_and_future_schema() {
            let meta_v2 = META.replace("\"schema\":1", "\"schema\":2");
            let over = format!("{meta_v2}\n{}\n{FINAL}\n", cache(1.0, 9, 8));
            assert!(check(&over).is_err());
            let future = META.replace("\"schema\":1", "\"schema\":4");
            assert!(check(&format!("{future}\n{FINAL}\n")).is_err());
        }

        fn health(
            t_ms: f64,
            state: u64,
            p90: u64,
            max: u64,
            band: Option<(u64, u64, u64)>,
        ) -> String {
            let forecast = band.map_or(String::new(), |(lo, mid, hi)| {
                format!(
                    ",\"forecast_earliest\":{lo},\"forecast_central\":{mid},\
                     \"forecast_latest\":{hi}"
                )
            });
            format!(
                "{{\"kind\":\"health\",\"seq\":0,\"t_ms\":{t_ms},\"state\":{state},\
                 \"life_used\":0.25,\"host_pages\":100,\"wear_max\":{max},\
                 \"wear_p90\":{p90},\"wear_mean\":3.5,\"retired\":0,\
                 \"tail_rate\":0.01,\"mean_rate\":0.008,\"unevenness\":1.2{forecast}}}"
            )
        }

        #[test]
        fn health_lines_need_schema_v3() {
            let meta_v3 = META.replace("\"schema\":1", "\"schema\":3");
            let ok = format!("{meta_v3}\n{}\n{FINAL}\n", health(1.0, 1, 4, 6, None));
            assert_eq!(check(&ok), Ok(0));
            let v2 = META.replace("\"schema\":1", "\"schema\":2");
            let rejected = format!("{v2}\n{}\n{FINAL}\n", health(1.0, 1, 4, 6, None));
            assert!(
                check(&rejected).is_err(),
                "health lines are not part of schema v2"
            );
        }

        #[test]
        fn rejects_bad_health_state_tail_and_band() {
            let meta_v3 = META.replace("\"schema\":1", "\"schema\":3");
            let bad_state = format!("{meta_v3}\n{}\n{FINAL}\n", health(1.0, 5, 4, 6, None));
            assert!(check(&bad_state).is_err());
            let bad_tail = format!("{meta_v3}\n{}\n{FINAL}\n", health(1.0, 0, 9, 6, None));
            assert!(check(&bad_tail).is_err());
            let good_band = format!(
                "{meta_v3}\n{}\n{FINAL}\n",
                health(1.0, 0, 4, 6, Some((50, 80, 120)))
            );
            assert_eq!(check(&good_band), Ok(0));
            let bad_band = format!(
                "{meta_v3}\n{}\n{FINAL}\n",
                health(1.0, 0, 4, 6, Some((80, 50, 120)))
            );
            assert!(check(&bad_band).is_err());
        }

        #[test]
        fn rejects_partial_forecast_band() {
            let meta_v3 = META.replace("\"schema\":1", "\"schema\":3");
            let whole = health(1.0, 0, 4, 6, Some((50, 80, 120)));
            for dropped in [",\"forecast_latest\":120", ",\"forecast_central\":80"] {
                let partial = whole.replace(dropped, "");
                let errors = check(&format!("{meta_v3}\n{partial}\n{FINAL}\n")).unwrap_err();
                assert!(errors[0].contains("all together"), "{errors:?}");
            }
        }

        #[test]
        fn rejects_health_counters_that_regress() {
            let meta_v3 = META.replace("\"schema\":1", "\"schema\":3");
            let first = health(1.0, 0, 4, 6, None).replace("\"retired\":0", "\"retired\":1");
            let next = first.replace("\"seq\":0", "\"seq\":1");
            let ok = format!("{meta_v3}\n{first}\n{next}\n{FINAL}\n");
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
                let bad = format!("{meta_v3}\n{first}\n{}\n{FINAL}\n", next.replace(from, to));
                let errors = check(&bad).unwrap_err();
                assert!(errors[0].contains(what), "{errors:?}");
            }
        }

        #[test]
        fn rejects_unknown_kinds_and_out_of_range_indices() {
            let unknown = "{\"kind\":\"mystery\",\"t_ms\":1.0}";
            assert!(check(&format!("{META}\n{unknown}\n{FINAL}\n")).is_err());
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

    /// The rules of a `swlhealth_meta` export.
    mod swlhealth_meta {
        fn check(text: &str) -> Result<u64, Vec<String>> {
            super::check(text, &super::SWLHEALTH)
        }

        const META: &str = "{\"kind\":\"swlhealth_meta\",\"schema\":1,\"blocks\":64,\
                            \"endurance\":24,\"report_every\":1000,\"ops\":4000}";

        fn health(seq: u64, ops: u64, state: u64, wear_max: u64) -> String {
            let life = wear_max as f64 / 24.0;
            format!(
                "{{\"kind\":\"health\",\"seq\":{seq},\"ops\":{ops},\"host_pages\":{ops},\
                 \"state\":{state},\"life_used\":{life:.4},\"wear_max\":{wear_max},\
                 \"wear_p90\":{p90},\"wear_p50\":1,\"wear_mean\":1.5,\"wear_sigma\":0.5,\
                 \"retired\":0,\"gc_erases\":10,\"swl_erases\":2,\"bet_ecnt\":5,\
                 \"bet_fcnt\":3,\"tail_rate\":0.01,\"mean_rate\":0.005,\
                 \"unevenness\":1.5,\"cache_absorption\":0.25}}",
                p90 = wear_max.saturating_sub(1),
            )
        }

        fn final_line(ops: u64, state: u64, wear_max: u64) -> String {
            let life = wear_max as f64 / 24.0;
            format!(
                "{{\"kind\":\"final\",\"ops\":{ops},\"host_pages\":{ops},\"state\":{state},\
                 \"life_used\":{life:.4},\"wear_max\":{wear_max},\"retired\":0}}"
            )
        }

        #[test]
        fn accepts_a_minimal_valid_export() {
            let text = format!(
                "{META}\n{}\n{}\n{}\n",
                health(0, 1000, 0, 3),
                health(1, 2000, 0, 6),
                final_line(2000, 0, 6)
            );
            assert_eq!(check(&text), Ok(2));
        }

        #[test]
        fn accepts_alerts_that_match_their_neighbours() {
            let alert = "{\"kind\":\"alert\",\"seq\":1,\"ops\":2000,\"from\":0,\"to\":1}";
            let text = format!(
                "{META}\n{}\n{alert}\n{}\n{}\n",
                health(0, 1000, 0, 3),
                health(1, 2000, 1, 18),
                final_line(2000, 1, 18)
            );
            assert_eq!(check(&text), Ok(2));
        }

        #[test]
        fn rejects_alert_state_mismatches() {
            // `to` disagrees with the next health line.
            let alert = "{\"kind\":\"alert\",\"seq\":1,\"ops\":2000,\"from\":0,\"to\":2}";
            let text = format!(
                "{META}\n{}\n{alert}\n{}\n{}\n",
                health(0, 1000, 0, 3),
                health(1, 2000, 1, 18),
                final_line(2000, 1, 18)
            );
            assert!(check(&text).is_err());
            // `from` disagrees with the previous health line.
            let alert = "{\"kind\":\"alert\",\"seq\":1,\"ops\":2000,\"from\":1,\"to\":1}";
            let text = format!(
                "{META}\n{}\n{alert}\n{}\n{}\n",
                health(0, 1000, 0, 3),
                health(1, 2000, 1, 18),
                final_line(2000, 1, 18)
            );
            assert!(check(&text).is_err());
        }

        #[test]
        fn rejects_wear_regression_and_seq_gaps() {
            let regressed = format!(
                "{META}\n{}\n{}\n{}\n",
                health(0, 1000, 0, 6),
                health(1, 2000, 0, 3),
                final_line(2000, 0, 3)
            );
            assert!(check(&regressed).is_err());
            let gap = format!(
                "{META}\n{}\n{}\n{}\n",
                health(0, 1000, 0, 3),
                health(2, 2000, 0, 6),
                final_line(2000, 0, 6)
            );
            assert!(check(&gap).is_err());
        }

        #[test]
        fn rejects_life_used_inconsistent_with_endurance() {
            let bad =
                health(0, 1000, 0, 12).replace("\"life_used\":0.5000", "\"life_used\":0.9000");
            let text = format!("{META}\n{bad}\n{}\n", final_line(1000, 0, 12));
            assert!(check(&text).is_err());
        }

        #[test]
        fn rejects_partial_forecast_bands_and_missing_final() {
            let partial = health(0, 1000, 0, 3).replace(
                ",\"cache_absorption\":0.25}",
                ",\"cache_absorption\":0.25,\"forecast_central\":500}",
            );
            let text = format!("{META}\n{partial}\n{}\n", final_line(1000, 0, 3));
            assert!(check(&text).is_err());
            assert!(check(&format!("{META}\n{}\n", health(0, 1000, 0, 3))).is_err());
            assert!(check("").is_err());
        }

        #[test]
        fn rejects_a_health_line_with_a_repeated_key() {
            let twice =
                health(0, 1000, 0, 3).replace("\"wear_max\":3", "\"wear_max\":3,\"wear_max\":2");
            let text = format!("{META}\n{twice}\n{}\n", final_line(1000, 0, 3));
            let errors = check(&text).unwrap_err();
            assert_eq!(errors[0], "line 2: duplicate key \"wear_max\"");
        }
    }

    // What only the pair shows.
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
