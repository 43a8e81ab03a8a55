//! The `swl` tool: one driver for producing, inspecting and gating the
//! stack's two JSONL streams — the `"e"`-tagged telemetry event stream
//! ([`flash_telemetry::Event`]) and the `"kind"`-tagged runtime exports
//! ([`crate::export`]).
//!
//! ```text
//! swl trace  [--scale quick|scaled|paper] [--layer ftl|nftl] [--swl T:K | --no-swl]
//!            [--channels N] [--events N] [--out FILE|-]
//! swl stat   [FILE|-] [--json]
//! swl span   [FILE|-] [--top N] [--tree N]
//! swl top    [quick|scaled|paper] [--events N] [--threads N] [--depth N]
//!            [--interval-ms N] [--out FILE]
//! swl check  [FILE|-]
//! ```
//!
//! - `trace` runs an instrumented simulation and streams its events; the
//!   run summary goes to stderr so `--out -` pipes a clean stream.
//! - `stat` replays an event stream into counter totals, wear percentiles,
//!   sparkline time series and per-resetting-interval attribution; `--json`
//!   prints a one-object machine summary instead.
//! - `span` renders the stream's causal spans as latency attribution: the
//!   host ops that paid the most device time with their exact
//!   host/gc/swl/merge split, the span tree of the worst, and — for a
//!   multi-channel log — a per-channel table with the achieved overlap.
//! - `top` drives one client of a cached [`flash_sim::service::Service`]
//!   (the 4-channel FTL, engine metrics on) through `--events` ops of
//!   [`crate::array::client_ops`] and, between ops every `--interval-ms`,
//!   samples the engine metrics, the cache counters and a `stats` report and
//!   refreshes a per-worker / per-lane utilization view; `--out` exports
//!   every sample with its `cache` and `health` lines.
//! - `check` gates either kind of stream. Which validator applies is a fact
//!   of the file, so it is read off the first line: `"e":"meta"` is an event
//!   stream (schema version, every line decodes, block and channel ids in
//!   range, retirement audit, span structure), `"kind":"engtop_meta"` a
//!   runtime export ([`crate::export::check`]).
//!
//! `FILE` absent or `-` reads stdin. One reader ([`read_events`]) serves
//! `stat`, `span` and `check`.

use std::io::{IsTerminal, Read, Write};
use std::str::FromStr;
use std::time::{Duration, Instant};

use crate::array::{self, cache_config, client_ops, client_slices, pct, spec, CHANNELS};
use crate::export;
use crate::{format_table, scale_named};
use flash_sim::experiments::{instrumented_run, instrumented_striped_run, ExperimentScale};
use flash_sim::{EngineConfig, LayerKind, SimError, StopCondition};
use flash_telemetry::json;
use flash_telemetry::{
    parse_line, ClosedSpan, EngineSnapshot, Event, IntervalStats, JsonlSink, LatencyHistogram,
    MetricsAggregator, OpBreakdown, Sink, SpanCause, SpanKind, SpanReplayer, SCHEMA_VERSION,
};

/// Usage line for a command line [`run`] refuses; the module doc has each
/// subcommand's flags.
pub const USAGE: &str = "usage: swl <trace|stat|span|top|check> [options]";

/// Why [`run`] did not succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The command line was refused: why, then [`USAGE`] (exit 2).
    Usage(String),
    /// The subcommand ran and failed, or `check` found violations — one per
    /// line, each naming its line of the input (exit 1).
    Failed(String),
}

/// A subcommand's own failure message is an [`Error::Failed`]; [`run`]
/// alone makes the [`Error::Usage`]s.
impl From<String> for Error {
    fn from(message: String) -> Self {
        Error::Failed(message)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Failed(format!("write: {e}"))
    }
}

/// Runs `swl <args>`, reading `-` inputs from `stdin` and printing reports
/// (and `trace --out -`'s stream) to `stdout`.
///
/// # Errors
///
/// [`Error::Usage`] for an unknown subcommand, flag or value;
/// [`Error::Failed`] when the subcommand fails.
pub fn run(args: &[String], stdin: &mut dyn Read, stdout: &mut dyn Write) -> Result<(), Error> {
    let usage = |what: String| Error::Usage(format!("{what}\n{USAGE}"));
    let (sub, rest) = args
        .split_first()
        .ok_or_else(|| usage("no subcommand".to_owned()))?;
    let mut args = Args(rest.iter());
    match sub.as_str() {
        "trace" => trace(&TraceOptions::parse(&mut args).map_err(usage)?, stdout),
        "stat" => {
            let options = FileOptions::parse(&mut args, &["--json"]).map_err(usage)?;
            stat(&options, stdin, stdout)
        }
        "span" => {
            let options = FileOptions::parse(&mut args, &["--top", "--tree"]).map_err(usage)?;
            span(&options, stdin, stdout)
        }
        "top" => top(&TopOptions::parse(&mut args).map_err(usage)?, stdout),
        "check" => {
            let options = FileOptions::parse(&mut args, &[]).map_err(usage)?;
            check(&options, stdin, stdout)
        }
        other => Err(usage(format!("unknown subcommand {other:?}"))),
    }
}

/// One subcommand's arguments, consumed left to right.
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} expects a value"))
    }

    fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|_| format!("{flag} expects a number, got {value:?}"))
    }

    fn scale(&mut self, flag: &str) -> Result<ExperimentScale, String> {
        let name = self.value(flag)?;
        scale_named(name).ok_or_else(|| format!("unknown scale {name:?}"))
    }
}

fn unknown(arg: &str) -> String {
    format!("unknown argument {arg:?}")
}

/// What `stat`, `span` and `check` take: an input and how much to print.
struct FileOptions {
    file: Option<String>,
    json: bool,
    top: usize,
    tree: usize,
}

impl FileOptions {
    /// `accepts` lists the flags of the subcommand being parsed.
    fn parse(args: &mut Args, accepts: &[&str]) -> Result<Self, String> {
        let mut options = Self {
            file: None,
            json: false,
            top: 10,
            tree: 1,
        };
        while let Some(arg) = args.next() {
            match arg {
                flag if flag.starts_with("--") && !accepts.contains(&flag) => {
                    return Err(unknown(flag))
                }
                "--json" => options.json = true,
                "--top" => options.top = args.number(arg)?,
                "--tree" => options.tree = args.number(arg)?,
                path if options.file.is_none() => options.file = Some(path.to_owned()),
                _ => return Err("only one input file is accepted".to_owned()),
            }
        }
        Ok(options)
    }

    /// The input's text: the file's, or all of `stdin` for `-` / no file.
    fn read(&self, stdin: &mut dyn Read) -> Result<String, Error> {
        match self.file.as_deref() {
            None | Some("-") => {
                let mut text = String::new();
                stdin
                    .read_to_string(&mut text)
                    .map_err(|e| format!("stdin: {e}"))?;
                Ok(text)
            }
            Some(path) => Ok(std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?),
        }
    }
}

/// Decodes an event stream, handing every event to `each` in file order.
/// The one place the stream's framing rules live: the first line is a
/// `meta` event at [`SCHEMA_VERSION`], every line decodes, and no event
/// names a block — or a channel, of which an array has at most one per
/// block — the header's `blocks` does not cover. The last is checked here,
/// before `each` sizes anything by an id read from the file.
///
/// # Errors
///
/// The first offending line, by number.
pub fn read_events(text: &str, mut each: impl FnMut(&Event)) -> Result<(), String> {
    let mut declared = None;
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = n + 1;
        let event = parse_line(line).map_err(|e| format!("line {at}: {e}"))?;
        let Some(blocks) = declared else {
            match event {
                Event::Meta {
                    version: SCHEMA_VERSION,
                    blocks,
                    ..
                } => declared = Some(blocks),
                Event::Meta { version, .. } => {
                    return Err(format!(
                        "line {at}: schema version {version}, this swl speaks {SCHEMA_VERSION}"
                    ))
                }
                _ => return Err(format!("line {at}: log must start with a meta event")),
            }
            each(&event);
            continue;
        };
        let (what, ids) = match event {
            Event::Program { block, .. }
            | Event::Erase { block, .. }
            | Event::Retire { block }
            | Event::FaultInjected { block, .. } => ("block", [block, block]),
            Event::LiveCopy {
                from_block,
                to_block,
                ..
            } => ("block", [from_block, to_block]),
            Event::Channel { id } => ("channel", [id, id]),
            _ => ("", [0, 0]),
        };
        if let Some(id) = ids.into_iter().find(|&id| id >= blocks) {
            return Err(format!(
                "line {at}: {what} {id} out of range: the meta line declares {blocks} blocks"
            ));
        }
        each(&event);
    }
    declared.map(|_| ()).ok_or_else(|| "empty log".to_owned())
}

// ---------------------------------------------------------------- trace

struct TraceOptions {
    scale: ExperimentScale,
    layer: LayerKind,
    swl: Option<(u64, u32)>,
    channels: u32,
    events: u64,
    out: String,
}

impl TraceOptions {
    fn parse(args: &mut Args) -> Result<Self, String> {
        let mut options = Self {
            scale: ExperimentScale::quick(),
            layer: LayerKind::Ftl,
            swl: Some((100, 0)),
            channels: 1,
            events: 200_000,
            out: "swl_trace.jsonl".to_owned(),
        };
        while let Some(flag) = args.next() {
            match flag {
                "--scale" => options.scale = args.scale(flag)?,
                "--layer" => {
                    options.layer = match args.value(flag)? {
                        "ftl" => LayerKind::Ftl,
                        "nftl" => LayerKind::Nftl,
                        other => return Err(format!("unknown layer {other:?}")),
                    }
                }
                "--swl" => {
                    let spec = args.value(flag)?;
                    let parsed = spec
                        .split_once(':')
                        .and_then(|(t, k)| Some((t.parse().ok()?, k.parse().ok()?)));
                    options.swl =
                        Some(parsed.ok_or_else(|| format!("--swl expects T:K, got {spec:?}"))?);
                }
                "--no-swl" => options.swl = None,
                "--channels" => {
                    options.channels = args.number(flag)?;
                    if options.channels == 0 {
                        return Err("--channels must be at least 1".to_owned());
                    }
                }
                "--events" => options.events = args.number(flag)?,
                "--out" => options.out = args.value(flag)?.to_owned(),
                other => return Err(unknown(other)),
            }
        }
        Ok(options)
    }
}

fn trace(options: &TraceOptions, stdout: &mut dyn Write) -> Result<(), Error> {
    let to_stdout = options.out == "-";
    let writer: Box<dyn Write + '_> = if to_stdout {
        Box::new(stdout)
    } else {
        Box::new(std::fs::File::create(&options.out).map_err(|e| format!("{}: {e}", options.out))?)
    };
    let sink = JsonlSink::new(writer);
    let swl = options.swl.map(|(t, k)| options.scale.swl_config(t, k));
    let stop = StopCondition::events(options.events).or_first_failure();
    // Multi-channel runs stripe over a widened workload so the shared
    // stream carries lane markers; one channel keeps the plain run (and
    // its byte-identical stream).
    let (summary, sink) = if options.channels > 1 {
        let (report, sink) = instrumented_striped_run(
            options.layer,
            options.channels,
            swl,
            &options.scale,
            sink,
            stop,
        )
        .map_err(|e| e.to_string())?;
        (report.to_string(), sink)
    } else {
        let (report, sink) = instrumented_run(options.layer, swl, &options.scale, sink, stop)
            .map_err(|e| e.to_string())?;
        (report.to_string(), sink)
    };
    let lines = sink.lines();
    sink.finish().map_err(|e| e.to_string())?;
    eprintln!("{summary}");
    let target = if to_stdout { "stdout" } else { &options.out };
    eprintln!("  telemetry: {lines} events -> {target}");
    Ok(())
}

// ----------------------------------------------------------------- stat

const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
/// Sparklines are resampled down to at most this many cells.
const SPARK_WIDTH: usize = 64;

#[rustfmt::skip]
const LATENCY_HEADERS: [&str; 7] =
    ["latency", "n", "mean µs", "p50 µs", "p99 µs", "p99.9 µs", "max µs"];
#[rustfmt::skip]
const INTERVAL_HEADERS: [&str; 11] = [
    "interval", "erases", "blocks", "ecnt/fcnt", "gc-er", "swl-er", "gc-cp", "swl-cp",
    "invokes", "faults", "retired",
];
#[rustfmt::skip]
const OFFENDER_HEADERS: [&str; 9] =
    ["#", "op", "at ms", "total µs", "host µs", "gc µs", "swl µs", "merge µs", "programs"];

/// Folds an event stream into an aggregator whose snapshot cadence is sized
/// to the log, so the time-series sparklines get about one sample per cell
/// regardless of run length.
fn replay(text: &str) -> Result<MetricsAggregator, String> {
    let erases = text
        .lines()
        .filter(|l| l.contains("\"e\":\"erase\""))
        .count() as u64;
    let mut agg = MetricsAggregator::with_snapshot_every((erases / SPARK_WIDTH as u64).max(1));
    read_events(text, |event| agg.event(*event))?;
    agg.snapshot_now();
    Ok(agg)
}

fn stat(options: &FileOptions, stdin: &mut dyn Read, out: &mut dyn Write) -> Result<(), Error> {
    let agg = replay(&options.read(stdin)?)?;
    if options.json {
        writeln!(out, "{}", summary_json(&agg))?;
    } else {
        out.write_all(report(&agg).as_bytes())?;
    }
    Ok(())
}

/// Renders `values` as a sparkline, resampled to at most [`SPARK_WIDTH`]
/// cells and scaled to the observed min..max band.
fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let cells = values.len().min(SPARK_WIDTH);
    let mut sampled = Vec::with_capacity(cells);
    for c in 0..cells {
        // Mean of the chunk this cell covers.
        let lo = c * values.len() / cells;
        let hi = ((c + 1) * values.len() / cells).max(lo + 1);
        sampled.push(values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64);
    }
    let min = sampled.iter().copied().fold(f64::INFINITY, f64::min);
    let max = sampled.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(f64::MIN_POSITIVE);
    sampled
        .iter()
        .map(|&v| {
            let idx = ((v - min) / span * (SPARK_LEVELS.len() - 1) as f64).round() as usize;
            SPARK_LEVELS[idx.min(SPARK_LEVELS.len() - 1)]
        })
        .collect()
}

fn interval_row(stats: &IntervalStats) -> Vec<String> {
    let unevenness = if stats.distinct_blocks == 0 {
        0.0
    } else {
        stats.erases as f64 / stats.distinct_blocks as f64
    };
    vec![
        stats.index.to_string(),
        stats.erases.to_string(),
        stats.distinct_blocks.to_string(),
        format!("{unevenness:.2}"),
        stats.gc_erases.to_string(),
        stats.swl_erases.to_string(),
        stats.gc_copies.to_string(),
        stats.swl_copies.to_string(),
        stats.swl_invokes.to_string(),
        stats.faults.to_string(),
        stats.retires.to_string(),
    ]
}

fn latency_row(label: &str, hist: &LatencyHistogram) -> Vec<String> {
    vec![
        label.to_owned(),
        hist.count().to_string(),
        format!("{:.0}", hist.mean_ns() / 1e3),
        format!("{:.0}", hist.quantile(0.5) as f64 / 1e3),
        format!("{:.0}", hist.quantile(0.99) as f64 / 1e3),
        format!("{:.0}", hist.quantile(0.999) as f64 / 1e3),
        format!("{:.0}", hist.max_ns() as f64 / 1e3),
    ]
}

/// The counter totals as `(report label, JSON key, total)`, in the order
/// the report and the JSON summary both list them.
fn totals(agg: &MetricsAggregator) -> [(&'static str, &'static str, u64); 17] {
    let c = agg.counters();
    [
        ("host writes", "host_writes", c.host_writes),
        ("host reads", "host_reads", c.host_reads),
        ("trims", "trims", c.trims),
        ("page programs", "programs", agg.programs()),
        ("GC collections", "gc_collections", c.gc_collections),
        ("full merges", "full_merges", c.full_merges),
        ("GC merges", "gc_merges", c.gc_merges),
        ("SWL merges", "swl_merges", c.swl_merges),
        ("GC erases", "gc_erases", c.gc_erases),
        ("SWL erases", "swl_erases", c.swl_erases),
        ("external erases", "external_erases", agg.external_erases()),
        ("GC live copies", "gc_live_copies", c.gc_live_copies),
        ("SWL live copies", "swl_live_copies", c.swl_live_copies),
        ("SWL invocations", "swl_invokes", agg.swl_invokes()),
        ("retired blocks", "retired_blocks", c.retired_blocks),
        ("faults injected", "faults", agg.faults()),
        ("power cuts", "power_cuts", agg.power_cuts()),
    ]
}

fn report(agg: &MetricsAggregator) -> String {
    let (version, blocks, ppb) = agg.meta().expect("read_events enforces a meta header");
    let mut text = format!(
        "swl stat: {} events (schema v{version}, {blocks} blocks x {ppb} pages)\n\n",
        agg.events()
    );
    let rows: Vec<Vec<String>> = totals(agg)
        .iter()
        .map(|(label, _, total)| vec![(*label).to_owned(), total.to_string()])
        .collect();
    text += &format_table(&["counter", "total"], &rows);

    let w = agg.wear_summary();
    text += &format!(
        "\nwear per block: mean {:.1}, sigma {:.2}, min {}, p50 {}, p90 {}, p99 {}, max {}\n",
        w.mean, w.std_dev, w.min, w.p50, w.p90, w.p99, w.max
    );
    let (free_depth, candidates) = agg.gauges();
    text += &format!(
        "gauges at last GC pick: free pool {free_depth}, victim candidates {candidates}\n"
    );

    if agg.spans_completed() > 0 {
        text += &format!(
            "\nspans: {} host ops, write amplification {:.2} (max {} programs under one write)\n",
            agg.spans_completed(),
            agg.write_amplification(),
            agg.max_write_programs()
        );
        let mut rows = Vec::new();
        for kind in [SpanKind::HostWrite, SpanKind::HostRead, SpanKind::HostTrim] {
            let hist = agg.op_latency(kind).expect("host kinds have histograms");
            if hist.count() > 0 {
                rows.push(latency_row(kind.token(), hist));
            }
        }
        for cause in SpanCause::ALL {
            let hist = agg.cause_latency(cause);
            if hist.count() > 0 {
                rows.push(latency_row(&format!("cause:{}", cause.token()), hist));
            }
        }
        text += &format_table(&LATENCY_HEADERS, &rows);
    }

    let snaps = agg.snapshots();
    if snaps.len() >= 2 {
        text += &format!(
            "\ntime series over {} snapshots (first -> last):\n",
            snaps.len()
        );
        let sigma: Vec<f64> = snaps.iter().map(|s| s.wear.std_dev).collect();
        let max_wear = snaps.iter().map(|s| s.wear.max as f64).collect();
        let unevenness = snaps.iter().map(|s| s.unevenness).collect();
        let series = [
            ("wear sigma", 2, sigma),
            ("max wear", 0, max_wear),
            ("unevenness", 2, unevenness),
        ];
        for (label, decimals, values) in series {
            text += &format!(
                "  {label:<12} {}  [{:.decimals$} .. {:.decimals$}]\n",
                sparkline(&values),
                values[0],
                values[values.len() - 1]
            );
        }
    }

    let mut intervals: Vec<IntervalStats> = agg.intervals().to_vec();
    let current = agg.current_interval();
    if current.erases > 0 {
        intervals.push(current);
    }
    if !intervals.is_empty() {
        text += "\nresetting intervals (block-granularity fcnt):\n";
        // Keep the table bounded for long runs: first and last few intervals.
        const HEAD: usize = 8;
        const TAIL: usize = 4;
        let mut rows: Vec<Vec<String>> = intervals.iter().map(interval_row).collect();
        if rows.len() > HEAD + TAIL {
            let more = vec![format!("... {} more", rows.len() - HEAD - TAIL)];
            rows.splice(HEAD..rows.len() - TAIL, [more]);
        }
        text += &format_table(&INTERVAL_HEADERS, &rows);
    }
    text
}

/// The machine summary `stat --json` prints.
fn summary_json(agg: &MetricsAggregator) -> String {
    let (version, blocks, ppb) = agg.meta().expect("read_events enforces a meta header");
    let w = agg.wear_summary();
    json::object(|o| {
        o.u64("schema", u64::from(version))
            .u64("blocks", u64::from(blocks))
            .u64("pages_per_block", u64::from(ppb))
            .u64("events", agg.events());
        for (_, key, total) in totals(agg) {
            o.u64(key, total);
        }
        o.u64("intervals", agg.intervals().len() as u64)
            .f64("wear_mean", w.mean, 4)
            .f64("wear_sigma", w.std_dev, 4)
            .u64("wear_max", w.max)
            .u64("spans", agg.spans_completed())
            .f64("write_amp", agg.write_amplification(), 4);
        for cause in SpanCause::ALL {
            let key = format!("{}_ns", cause.token());
            o.u64(&key, agg.cause_latency(cause).total_ns());
        }
    })
}

// ----------------------------------------------------------------- span

/// One completed host op: its breakdown, every span under it (children
/// before parents, the root last) and the channel active when it closed
/// (0 until the first [`Event::Channel`] marker).
type Op = (OpBreakdown, Vec<ClosedSpan>, u32);

fn micros(ns: u64) -> String {
    format!("{:.0}", ns as f64 / 1e3)
}

fn offender_row(rank: usize, op: &OpBreakdown) -> Vec<String> {
    vec![
        format!("{}", rank + 1),
        op.kind.token().to_owned(),
        format!("{:.1}", op.begin_ns as f64 / 1e6),
        micros(op.total_ns()),
        micros(op.ns(SpanCause::Host)),
        micros(op.ns(SpanCause::Gc)),
        micros(op.ns(SpanCause::Swl)),
        micros(op.ns(SpanCause::Merge)),
        op.programs.to_string(),
    ]
}

/// Draws the tree whose spans `spans` lists children-first: the last entry
/// is the root, and each run ending at an entry one level below it is one
/// child's subtree.
fn render_tree(spans: &[ClosedSpan], prefix: &str, is_last: bool, out: &mut String) {
    let Some((node, below)) = spans.split_last() else {
        return;
    };
    let is_root = node.depth == 0;
    let (branch, indent) = match (is_root, is_last) {
        (true, _) => ("", ""),
        (false, true) => ("└── ", "    "),
        (false, false) => ("├── ", "│   "),
    };
    let label = if is_root { "" } else { prefix };
    out.push_str(&format!(
        "{label}{branch}{}  total {} µs, self {} µs\n",
        node.kind.token(),
        micros(node.total_ns),
        micros(node.self_ns),
    ));
    let child_prefix = format!("{label}{indent}");
    let mut children = below
        .split_inclusive(|span| span.depth == node.depth + 1)
        .peekable();
    while let Some(child) = children.next() {
        render_tree(child, &child_prefix, children.peek().is_none(), out);
    }
}

fn span(options: &FileOptions, stdin: &mut dyn Read, out: &mut dyn Write) -> Result<(), Error> {
    let text = options.read(stdin)?;
    let mut replayer = SpanReplayer::new();
    let mut ops: Vec<Op> = Vec::new();
    let mut open = Vec::new();
    let (mut events, mut channel, mut channels) = (0u64, 0u32, 1u32);
    read_events(&text, |event| {
        events += 1;
        if let Event::Channel { id } = *event {
            channel = id;
            channels = channels.max(id + 1);
        }
        if let Some(op) = replayer.observe_with(event, |closed| open.push(closed)) {
            ops.push((op, std::mem::take(&mut open), channel));
        }
    })?;
    for error in replayer.check().errors() {
        eprintln!("swl span: warning: {error}");
    }
    if ops.is_empty() {
        writeln!(out, "swl span: {events} events, no completed host-op spans")?;
        return Ok(());
    }

    let total_ns: u64 = ops.iter().map(|(op, ..)| op.total_ns()).sum();
    let mut cause_ns = [0u64; 4];
    let mut programs = 0u64;
    for (op, ..) in &ops {
        for cause in SpanCause::ALL {
            cause_ns[cause.index()] += op.ns(cause);
        }
        programs += op.programs;
    }
    writeln!(
        out,
        "swl span: {events} events, {} host ops, {:.3} ms device time, {programs} programs",
        ops.len(),
        total_ns as f64 / 1e6,
    )?;
    let share = |cause: SpanCause| {
        if total_ns == 0 {
            0.0
        } else {
            100.0 * cause_ns[cause.index()] as f64 / total_ns as f64
        }
    };
    writeln!(
        out,
        "attribution: host {:.1}%, gc {:.1}%, swl {:.1}%, merge {:.1}%\n",
        share(SpanCause::Host),
        share(SpanCause::Gc),
        share(SpanCause::Swl),
        share(SpanCause::Merge),
    )?;

    // Worst offenders: the ops that paid the most device time, with the
    // exact per-cause split of each.
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(ops[i].0.total_ns()));
    let top = options.top.min(order.len());
    writeln!(out, "worst {top} of {} ops:", ops.len())?;
    let rows: Vec<Vec<String>> = order[..top]
        .iter()
        .enumerate()
        .map(|(rank, &i)| offender_row(rank, &ops[i].0))
        .collect();
    out.write_all(format_table(&OFFENDER_HEADERS, &rows).as_bytes())?;

    if channels > 1 {
        let mut per_channel = vec![(0u64, 0u64); channels as usize];
        for (op, _, channel) in &ops {
            let slot = &mut per_channel[*channel as usize];
            slot.0 += 1;
            slot.1 += op.total_ns();
        }
        writeln!(out, "\nper-channel attribution ({channels} channels):")?;
        let rows: Vec<Vec<String>> = per_channel
            .iter()
            .enumerate()
            .map(|(id, (ops, ns))| {
                vec![
                    id.to_string(),
                    ops.to_string(),
                    format!("{:.3}", *ns as f64 / 1e6),
                ]
            })
            .collect();
        out.write_all(format_table(&["channel", "ops", "device ms"], &rows).as_bytes())?;
        // The busiest channel bounds the array's wall time; the achieved
        // overlap is how much total device time it amortises.
        let busiest = per_channel.iter().map(|(_, ns)| *ns).max().unwrap_or(0);
        if busiest > 0 {
            writeln!(
                out,
                "achieved overlap: \u{d7}{:.2} (total {:.3} ms over busiest channel {:.3} ms)",
                total_ns as f64 / busiest as f64,
                total_ns as f64 / 1e6,
                busiest as f64 / 1e6,
            )?;
        }
    }

    for &i in &order[..options.tree.min(order.len())] {
        let (op, spans, _) = &ops[i];
        writeln!(
            out,
            "\nspan tree of op at device time {:.1} ms ({}):",
            op.begin_ns as f64 / 1e6,
            op.kind.token()
        )?;
        let mut tree = String::new();
        render_tree(spans, "", true, &mut tree);
        out.write_all(tree.as_bytes())?;
    }
    Ok(())
}

// ---------------------------------------------------------------- check

/// The findings that make a decodable event stream internally
/// inconsistent: a retire event for an already-retired block, wear-map
/// movement on a block the log claims is out of rotation, or structural
/// damage to the span stream (orphan ends, out-of-LIFO closes, bounds
/// violations, unexcused unclosed spans).
fn audit_errors(agg: &MetricsAggregator) -> Vec<String> {
    let audit = agg.retirement_audit();
    let mut errors = agg.span_check().errors();
    if audit.duplicate_retires > 0 {
        errors.push(format!(
            "{} retire event(s) name an already-retired block",
            audit.duplicate_retires
        ));
    }
    if audit.erases_after_retire > 0 {
        errors.push(format!(
            "{} erase event(s) touch a retired block — the final wear map \
             disagrees with the retired set",
            audit.erases_after_retire
        ));
    }
    errors
}

fn check(options: &FileOptions, stdin: &mut dyn Read, out: &mut dyn Write) -> Result<(), Error> {
    let text = options.read(stdin)?;
    let (at, header) = text
        .lines()
        .enumerate()
        .find(|(_, line)| !line.trim().is_empty())
        .ok_or_else(|| "empty input".to_owned())?;
    let fields = json::parse_flat(header).map_err(|e| format!("line {}: {e}", at + 1))?;
    let tag = |key| json::field(&fields, key).and_then(|v| v.as_str());
    if tag("e") == Some("meta") {
        let agg = replay(&text)?;
        let errors = audit_errors(&agg);
        if !errors.is_empty() {
            return Err(Error::Failed(errors.join("\n")));
        }
        writeln!(
            out,
            "swl check: OK — \"e\":\"meta\" event stream, {} events, schema v{SCHEMA_VERSION}",
            agg.events()
        )?;
    } else if tag("kind") == Some(export::META) {
        let counted = export::check(&text).map_err(|errors| Error::Failed(errors.join("\n")))?;
        writeln!(
            out,
            "swl check: OK — \"kind\":\"{}\" export, {counted} {} line(s), schema v{}",
            export::META,
            export::COUNTED,
            export::SCHEMA
        )?;
    } else {
        return Err(Error::Failed(format!(
            "line {}: not a stream header: expected \"e\":\"meta\" or \"kind\":\"{}\"",
            at + 1,
            export::META
        )));
    }
    Ok(())
}

// ------------------------------------------------------------------ top

struct TopOptions {
    scale: ExperimentScale,
    events: usize,
    threads: u32,
    depth: usize,
    interval_ms: u64,
    out: Option<String>,
}

impl TopOptions {
    fn parse(args: &mut Args) -> Result<Self, String> {
        let mut options = Self {
            scale: ExperimentScale::scaled(),
            events: 20_000,
            threads: CHANNELS,
            depth: 64,
            interval_ms: 250,
            out: None,
        };
        while let Some(arg) = args.next() {
            match arg {
                "--events" => options.events = args.number(arg)?,
                "--threads" => options.threads = args.number(arg)?,
                "--depth" => options.depth = args.number(arg)?,
                "--interval-ms" => options.interval_ms = args.number(arg)?,
                "--out" => options.out = Some(args.value(arg)?.to_owned()),
                name => options.scale = scale_named(name).ok_or_else(|| unknown(name))?,
            }
        }
        Ok(options)
    }
}

/// One refresh frame: aggregate header, per-worker rows, per-lane row, and
/// queue gauges, as terminal lines.
fn frame(snap: &EngineSnapshot) -> Vec<String> {
    let mut lines = Vec::new();
    lines.push(format!(
        "t {:8.1} ms | ops {} submitted / {} completed | busy {:>6} starv {:>6} bp {:>6} | \
         host bp {:.1} ms",
        snap.elapsed_ns as f64 / 1e6,
        snap.ops_submitted,
        snap.ops_completed,
        pct(snap.busy_frac()),
        pct(snap.starved_frac()),
        pct(snap.backpressure_frac()),
        snap.host_backpressure_ns as f64 / 1e6,
    ));
    lines.push(format!(
        "{:>7}  {:>6}  {:>6}  {:>6}  {:>6}  {:>9}  {:>11}",
        "worker", "busy", "starv", "bp", "idle", "cmds", "queue l/h/c"
    ));
    for (w, worker) in snap.workers.iter().enumerate() {
        let queue = &snap.command_queues[w];
        lines.push(format!(
            "{:>7}  {:>6}  {:>6}  {:>6}  {:>6}  {:>9}  {:>5}/{}/{}",
            w,
            pct(worker.busy_frac()),
            pct(worker.starved_frac()),
            pct(worker.backpressure_frac()),
            pct(worker.idle_frac()),
            worker.commands,
            queue.len,
            queue.high_water,
            queue.capacity,
        ));
    }
    let lanes = snap
        .lanes
        .iter()
        .enumerate()
        .map(|(l, lane)| {
            format!(
                "{l}:{:.0}ms/{}p",
                lane.busy_wall_ns as f64 / 1e6,
                lane.pages
            )
        })
        .collect::<Vec<_>>()
        .join("  ");
    lines.push(format!("  lanes  {lanes}"));
    lines.push(format!(
        "  completion queue {}/{}/{}",
        snap.completion_queue.len, snap.completion_queue.high_water, snap.completion_queue.capacity
    ));
    lines
}

/// Writes an export's lines to `path`, if one was asked for.
fn write_export(path: Option<&str>, jsonl: &[String], out: &mut dyn Write) -> Result<(), Error> {
    if let Some(path) = path {
        std::fs::write(path, jsonl.join("\n") + "\n").map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "wrote {} JSONL lines to {path}", jsonl.len())?;
    }
    Ok(())
}

fn top(options: &TopOptions, out: &mut dyn Write) -> Result<(), Error> {
    let scale = &options.scale;
    let engine = EngineConfig::default()
        .with_threads(options.threads)
        .with_queue_depth(options.depth)
        .with_metrics(true);
    let mut service = array::service(scale, spec(scale), engine, Some(cache_config()));
    let (base, span) = client_slices(service.logical_pages(), 1)[0];
    let ops = client_ops(0, base, span, options.events, scale.seed);
    let metrics = service.metrics_handle();
    let threads = metrics.snapshot().workers.len() as u32;

    writeln!(
        out,
        "swl top: FTL x{CHANNELS}ch, one client, {} ops after a {span}-page prefill, \
         {threads} worker(s), depth {}, cache {} pages, SWL (T=100, k=0, per-channel)",
        options.events,
        options.depth,
        array::CACHE_PAGES,
    )?;

    let mut jsonl = vec![export::engtop_meta_line(
        CHANNELS,
        threads,
        options.depth as u64,
        options.events as u64,
        options.interval_ms,
    )];
    let failed = |e: SimError| format!("client op failed: {e}");
    let live = std::io::stdout().is_terminal();
    let interval = Duration::from_millis(options.interval_ms);
    let mut seq = 0u64;
    let mut last_height = 0usize;
    let mut next_tick = Instant::now();
    // The client loop samples before an op once `interval` of wall time has
    // passed; a `stats` poll is a barrier, so each health line covers every
    // op so far.
    for op in &ops {
        if Instant::now() >= next_tick {
            next_tick = Instant::now() + interval;
            let snap = metrics.snapshot();
            let sample = service.cache_sample().expect("cache was enabled");
            export::tick_lines(&mut jsonl, seq, &snap);
            jsonl.push(export::cache_line(seq, snap.elapsed_ns, &sample));
            let report = service.stats().map_err(failed)?;
            jsonl.push(export::health_line(seq, snap.elapsed_ns, &report));
            if live {
                // Refresh in place: move the cursor back over the previous frame.
                if last_height > 0 {
                    write!(out, "\x1b[{last_height}A")?;
                }
                let lines = frame(&snap);
                for line in &lines {
                    writeln!(out, "\x1b[2K{line}")?;
                }
                last_height = lines.len();
                out.flush()?;
            }
            seq += 1;
        }
        op.apply(&mut service).map_err(failed)?;
    }
    let sample = service.cache_sample().expect("cache was enabled");
    let report = service.stats().map_err(failed)?;
    let run = service
        .finish()
        .map_err(|e| format!("service finish failed: {e}"))?
        .run;
    let metrics = run.metrics.expect("metrics were enabled");
    let snap = &metrics.snapshot;
    jsonl.push(export::health_line(seq, snap.elapsed_ns, &report));

    // Final frame (printed plainly so non-TTY runs still show the summary).
    if live && last_height > 0 {
        write!(out, "\x1b[{last_height}A")?;
    }
    let clear = if live { "\x1b[2K" } else { "" };
    for line in frame(snap) {
        writeln!(out, "{clear}{line}")?;
    }
    let q = |h: &LatencyHistogram, p: f64| h.quantile(p);
    writeln!(
        out,
        "done: {seq} samples; cmd exec p50 {} µs p99 {} µs; op wall p50 {} µs p99 {} µs",
        q(&metrics.cmd_latency, 0.5) / 1_000,
        q(&metrics.cmd_latency, 0.99) / 1_000,
        q(&metrics.op_write_wall, 0.5) / 1_000,
        q(&metrics.op_write_wall, 0.99) / 1_000,
    )?;

    jsonl.push(export::final_line(snap, |o| {
        o.u64("cmd_p50_ns", q(&metrics.cmd_latency, 0.5))
            .u64("cmd_p99_ns", q(&metrics.cmd_latency, 0.99))
            .u64("op_wall_p50_ns", q(&metrics.op_write_wall, 0.5))
            .u64("op_wall_p99_ns", q(&metrics.op_write_wall, 0.99))
            .u64("cache_write_hits", sample.write_hits)
            .u64("cache_flushed_pages", sample.flushed_pages);
    }));
    write_export(options.out.as_deref(), &jsonl, out)
}
