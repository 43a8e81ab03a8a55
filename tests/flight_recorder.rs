//! Flight-recorder integration: the always-on ring buffer must deliver a
//! usable postmortem when a `crashmc`-style power cut tears a run.
//!
//! The contract:
//!
//! 1. **Dump on cut** — the instant the device emits `PowerCut`, the
//!    recorder snapshots the ring (trigger included), without being asked.
//! 2. **Suffix of the truth** — the dumped events are exactly the last
//!    `capacity` events of the full log (the ring wrapped many times to get
//!    there), each line parseable at the current schema.
//! 3. **Spans survive** — the dump carries the span events leading into the
//!    cut, so `swl span`-style tooling can see the op that was in flight.

use flash_bench::crash::is_power_cut;
use flash_sim::{Layer, LayerKind, SimConfig, TranslationLayer};
use flash_telemetry::{json, Event, FlightRecorder, VecSink, SCHEMA_VERSION};
use nand::{CellKind, FaultPlan, Geometry, NandDevice};
use swl_core::SwlConfig;

const BLOCKS: u32 = 24;
const PAGES: u32 = 8;
const RING: usize = 64;

/// Runs a GC/SWL-heavy overwrite workload on an instrumented layer until a
/// planned power cut fires (if one is armed) or the workload completes.
/// Returns the sink and whether the cut fired.
fn run<S: flash_telemetry::Sink>(kind: LayerKind, sink: S, cut_at: Option<u64>) -> (S, bool) {
    let device = NandDevice::new(
        Geometry::new(BLOCKS, PAGES, 2048),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
    )
    .with_sink(sink);
    let cfg = SimConfig {
        fault: cut_at.map(|at| FaultPlan::new(1).with_power_cut(at, true)),
        ..SimConfig::default()
    };
    let mut layer = Layer::build(kind, device, Some(SwlConfig::new(8, 1).with_seed(7)), &cfg)
        .expect("build");
    let lbas = layer.logical_pages().min(28);
    let mut cut = false;
    'outer: for round in 0..10u64 {
        for step in 0..lbas {
            let lba = if step % 3 == 0 {
                step
            } else {
                (round + step) % 4
            };
            match layer.write(lba, (round << 32) | step) {
                Ok(()) => {}
                Err(e) if is_power_cut(&e) => {
                    cut = true;
                    break 'outer;
                }
                Err(e) => panic!("workload failed: {e}"),
            }
        }
    }
    (layer.into_device().into_sink(), cut)
}

/// Picks a cut point deep enough into the run that the ring has wrapped.
fn deep_cut_point(kind: LayerKind) -> u64 {
    let device = NandDevice::new(
        Geometry::new(BLOCKS, PAGES, 2048),
        CellKind::Mlc2.spec().with_endurance(u32::MAX),
    )
    .with_fault_plan(FaultPlan::new(1));
    let cfg = SimConfig::default();
    let mut layer = Layer::build(
        kind,
        device,
        Some(SwlConfig::new(8, 1).with_seed(7)),
        &cfg,
    )
    .expect("build");
    let lbas = layer.logical_pages().min(28);
    for round in 0..10u64 {
        for step in 0..lbas {
            let lba = if step % 3 == 0 {
                step
            } else {
                (round + step) % 4
            };
            layer.write(lba, (round << 32) | step).expect("baseline");
        }
    }
    let total = layer.device().fault_ops();
    assert!(total > 100, "workload too small: {total} fault ops");
    (total * 3) / 4
}

#[test]
fn power_cut_dump_is_a_suffix_of_the_full_log() {
    for kind in [LayerKind::Ftl, LayerKind::Nftl] {
        let cut_at = deep_cut_point(kind);
        // Ground truth: identical deterministic run, unbounded sink.
        let (full, cut) = run(kind, VecSink::default(), Some(cut_at));
        assert!(cut, "{kind}: cut must land inside the workload");
        // Device under test: fixed-size flight recorder.
        let (recorder, cut) = run(kind, FlightRecorder::with_capacity(RING), Some(cut_at));
        assert!(cut, "{kind}: recorder run must see the same cut");

        // The ring wrapped (the workload is much bigger than RING) and the
        // cut produced exactly one automatic dump.
        assert!(
            recorder.seen() > RING as u64 * 2,
            "{kind}: workload too small to wrap the ring"
        );
        assert_eq!(recorder.dumps().len(), 1, "{kind}: one dump per cut");
        let dump = &recorder.dumps()[0];
        let dump_lines: Vec<&str> = dump.lines().collect();
        assert_eq!(dump_lines.len(), RING + 1, "{kind}: meta + full ring");

        // Header line is a valid meta at the current schema.
        match json::parse_line(dump_lines[0]).expect("meta parses") {
            Event::Meta { version, .. } => assert_eq!(version, SCHEMA_VERSION),
            other => panic!("{kind}: dump must start with meta, got {other:?}"),
        }

        // The ring contents are exactly the RING non-meta events of the
        // deterministic full log up to and including the trigger, in order.
        // (The log itself continues past the cut by one event: the layer's
        // error path closes the in-flight root span to keep the stream
        // balanced, which lands after the dump was taken.)
        let full_lines: Vec<String> = full
            .events
            .iter()
            .filter(|e| !matches!(e, Event::Meta { .. }))
            .map(|e| {
                let mut line = String::new();
                json::write_line(&mut line, e);
                line
            })
            .collect();
        assert_eq!(full.events.len() as u64, recorder.seen(), "{kind}");
        let cut_pos = full_lines
            .iter()
            .rposition(|l| l.contains("\"e\":\"power_cut\""))
            .expect("full log records the cut");
        let suffix = &full_lines[cut_pos + 1 - RING..=cut_pos];
        assert_eq!(&dump_lines[1..], suffix, "{kind}: dump must be the log's suffix");
        assert!(
            dump_lines.last().unwrap().contains("\"e\":\"power_cut\""),
            "{kind}: trigger event must close the dump"
        );

        // The postmortem context is usable: span events made it into the
        // window, and every line round-trips through the codec.
        assert!(
            dump_lines.iter().any(|l| l.contains("\"e\":\"span_begin\"")),
            "{kind}: dump must carry the spans leading into the cut"
        );
        for line in &dump_lines[1..] {
            json::parse_line(line).expect("ring line parses");
        }
    }
}

#[test]
fn clean_run_dumps_only_on_request() {
    let (recorder, cut) = run(LayerKind::Ftl, FlightRecorder::with_capacity(RING), None);
    assert!(!cut);
    assert!(recorder.dumps().is_empty(), "no fault, no automatic dump");
    // An explicit dump still snapshots the newest window.
    let dump = recorder.dump();
    assert_eq!(dump.lines().count(), RING + 1);
    assert!(dump.lines().next().unwrap().contains("\"e\":\"meta\""));
}
