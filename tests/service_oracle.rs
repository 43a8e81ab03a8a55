//! Differential oracle for the block-device service front-end.
//!
//! Three layers of guarantees, stacked:
//!
//! 1. **Cache-off bit-identity** — a [`Service`] with the cache disabled is
//!    a pass-through front-end: the same op sequence driven through
//!    [`Engine`] directly must produce the identical [`StripedReport`],
//!    and logical contents, whether the engine has worker threads or none
//!    (`threads = 0`: every op runs where it is submitted). Only wall-clock
//!    timing may differ. (The direct driver mirrors the service's logical clock and supplies write values
//!    from the same counter the service's client uses, so contents line up
//!    bit for bit.)
//! 2. **Cache-on semantics** — read-your-writes against a model map, a
//!    measured hit rate > 0 on a hot-rewrite workload, strictly fewer
//!    flash programs than the cache-off run of the same workload, trim
//!    masking, and flush durability through a real device teardown +
//!    remount.
//! 3. **Served concurrency** — N real client threads over
//!    [`Service::serve`] keep per-client read-your-writes on disjoint
//!    partitions, and client latency histograms cover every op. The verbs
//!    run under one lock on the callers' threads: a single served client is
//!    bit-identical to the inline service, concurrent clients are
//!    linearised with a `stats` poller, and misuse (a verb after `join`, a
//!    panic inside a verb) fails loudly instead of hanging.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use flash_sim::service::cache::CacheConfig;
use flash_sim::service::{Service, ServiceClient, ServiceConfig, ServiceServer};
use flash_sim::{
    Engine, EngineConfig, Layer, LayerKind, SimConfig, SimError, SnapshotVerb, StripedReport,
    SwlCoordination, TranslationLayer,
};
use flash_telemetry::HealthReport;
use flash_trace::TraceEvent;
use ftl::{FtlConfig, SnapshotConfig};
use hotid::HotDataConfig;
use nand::{CellKind, CellSpec, ChannelGeometry, Geometry};
use swl_core::rng::SplitMix64;
use swl_core::SwlConfig;

const INTERVAL_NS: u64 = 1_000;

fn chip() -> Geometry {
    Geometry::new(32, 8, 2048)
}

fn spec() -> CellSpec {
    CellKind::Mlc2.spec().with_endurance(1_000_000)
}

fn geometry(channels: u32) -> ChannelGeometry {
    ChannelGeometry::new(channels, 1, chip())
}

fn swl() -> SwlConfig {
    SwlConfig::new(8, 0).with_seed(9)
}

/// An admission filter hot enough to cache from the second write on.
fn eager_hot() -> HotDataConfig {
    HotDataConfig {
        hot_threshold: 2,
        ..HotDataConfig::default()
    }
}

/// One host op of the deterministic mixed workload.
#[derive(Debug, Clone)]
enum HostOp {
    Write { lba: u64, len: usize },
    Read { lba: u64, len: usize },
}

/// A reproducible mixed read/write sequence biased toward a small hot set
/// so rewrites actually recur. The footprint stays under ~40 % of the
/// logical space — the default FTL exports the full chip with zero
/// overprovisioning (the paper's workload writes only 36.62 % of its LBA
/// space), so a near-full footprint would legitimately exhaust free blocks.
fn workload(logical_pages: u64, ops: usize, seed: u64) -> Vec<HostOp> {
    let mut rng = SplitMix64::new(seed);
    let footprint = (logical_pages * 2 / 5).max(8);
    let hot_set = (footprint / 8).max(4);
    (0..ops)
        .map(|_| {
            let len = rng.range_usize(1..5);
            let lba = if rng.chance(0.7) {
                rng.next_below(hot_set)
            } else {
                rng.next_below(footprint - 4)
            };
            let lba = lba.min(footprint - len as u64);
            if rng.chance(0.75) {
                HostOp::Write { lba, len }
            } else {
                HostOp::Read { lba, len }
            }
        })
        .collect()
}

/// Reads the full logical contents out of a finished run's lanes.
fn contents(run: &mut flash_sim::EngineRun, geo: &ChannelGeometry, pages: u64) -> Vec<Option<u64>> {
    (0..pages)
        .map(|lba| {
            run.lanes_mut()[geo.channel_of(lba) as usize]
                .read(geo.lane_lba(lba))
                .unwrap()
        })
        .collect()
}

/// Drives `ops` through an [`Engine`] directly, mirroring exactly what the
/// cache-less service front-end does: op k stamped at `k * INTERVAL_NS`,
/// write values drawn from a global page counter, reads followed by a
/// pipeline flush (the service's read path is synchronizing).
fn engine_reference(
    kind: LayerKind,
    channels: u32,
    ops: &[HostOp],
    config: EngineConfig,
) -> (StripedReport, Vec<Option<u64>>) {
    let mut engine = Engine::new(
        kind,
        geometry(channels),
        spec(),
        Some(swl()),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        config,
    )
    .unwrap();
    let pages = engine.logical_pages();
    let mut clock = 0u64;
    let mut next_value = 0u64;
    for op in ops {
        clock += INTERVAL_NS;
        match *op {
            HostOp::Write { lba, len } => {
                let values: Vec<u64> = (0..len)
                    .map(|_| {
                        next_value += 1;
                        next_value
                    })
                    .collect();
                engine.submit_write_data(clock, lba, &values).unwrap();
            }
            HostOp::Read { lba, len } => {
                engine
                    .submit(TraceEvent::read_span(clock, lba, len as u32))
                    .unwrap();
                engine.flush().unwrap();
            }
        }
    }
    engine.flush().unwrap();
    let mut run = engine.finish().unwrap();
    let report = run.report.clone();
    let geo = geometry(channels);
    let data = contents(&mut run, &geo, pages);
    (report, data)
}

/// Drives the same ops through a cache-less [`Service`] and returns the
/// report and contents the same way.
fn service_reference(
    kind: LayerKind,
    channels: u32,
    ops: &[HostOp],
    config: ServiceConfig,
) -> (StripedReport, Vec<Option<u64>>) {
    let mut service = Service::build(
        kind,
        geometry(channels),
        spec(),
        Some(swl()),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        config,
    )
    .unwrap();
    let pages = service.logical_pages();
    let mut next_value = 0u64;
    for op in ops {
        match *op {
            HostOp::Write { lba, len } => {
                let values: Vec<u64> = (0..len)
                    .map(|_| {
                        next_value += 1;
                        next_value
                    })
                    .collect();
                service.write(lba, &values).unwrap();
            }
            HostOp::Read { lba, len } => {
                service.read(lba, len).unwrap();
            }
        }
    }
    let mut run = service.finish().unwrap().run;
    let report = run.report.clone();
    let geo = geometry(channels);
    let data = contents(&mut run, &geo, pages);
    (report, data)
}

fn cache_off_matches_engine(kind: LayerKind, channels: u32) {
    // Learn the logical capacity once, then build fresh pairs per config.
    let probe = Engine::new(
        kind,
        geometry(channels),
        spec(),
        Some(swl()),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        EngineConfig::default(),
    )
    .unwrap();
    let logical = probe.logical_pages();
    probe.finish().unwrap();

    let ops = workload(logical, 2_500, 0xC0FFEE ^ u64::from(channels));
    for threads in [0u32, 1, 2] {
        let engine_config = EngineConfig::default()
            .with_threads(threads)
            .with_queue_depth(16);
        let (engine_report, engine_contents) =
            engine_reference(kind, channels, &ops, engine_config);
        let (service_report, service_contents) = service_reference(
            kind,
            channels,
            &ops,
            ServiceConfig::default()
                .with_engine(engine_config)
                .with_op_interval_ns(INTERVAL_NS),
        );
        assert_eq!(
            service_report, engine_report,
            "{kind:?} ×{channels}ch threads={threads}: cache-off service report diverged"
        );
        assert_eq!(
            service_contents, engine_contents,
            "{kind:?} ×{channels}ch threads={threads}: cache-off service contents diverged"
        );
    }
}

#[test]
fn cache_off_service_is_bit_identical_ftl() {
    cache_off_matches_engine(LayerKind::Ftl, 1);
    cache_off_matches_engine(LayerKind::Ftl, 2);
}

#[test]
fn cache_off_service_is_bit_identical_nftl() {
    cache_off_matches_engine(LayerKind::Nftl, 2);
}

/// The `Stats` management verb is a pure read: a cache-off service with
/// the health plane enabled, polled every 97 ops, must stay bit-identical
/// to a bare engine (health off) driving the same sequence — the observer
/// never perturbs the device.
#[test]
fn stats_polling_service_stays_bit_identical() {
    let kind = LayerKind::Ftl;
    let channels = 2u32;
    let probe = Engine::new(
        kind,
        geometry(channels),
        spec(),
        Some(swl()),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        EngineConfig::default(),
    )
    .unwrap();
    let logical = probe.logical_pages();
    probe.finish().unwrap();

    let ops = workload(logical, 2_500, 0xD1CE);
    let engine_config = EngineConfig::default().with_threads(2).with_queue_depth(16);
    let (engine_report, engine_contents) = engine_reference(kind, channels, &ops, engine_config);

    let mut service = Service::build(
        kind,
        geometry(channels),
        spec(),
        Some(swl()),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        ServiceConfig::default()
            .with_engine(engine_config)
            .with_op_interval_ns(INTERVAL_NS),
    )
    .unwrap();
    let pages = service.logical_pages();
    let mut next_value = 0u64;
    let mut last_host_pages = 0u64;
    let mut polls = 0u64;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            HostOp::Write { lba, len } => {
                let values: Vec<u64> = (0..len)
                    .map(|_| {
                        next_value += 1;
                        next_value
                    })
                    .collect();
                service.write(lba, &values).unwrap();
            }
            HostOp::Read { lba, len } => {
                service.read(lba, len).unwrap();
            }
        }
        if i % 97 == 96 {
            let report = service.stats().unwrap();
            assert!(
                report.host_pages >= last_host_pages,
                "host_pages must be monotone across stats polls"
            );
            last_host_pages = report.host_pages;
            polls += 1;
        }
    }
    assert!(polls > 0, "the interleaving must actually poll");
    let health = service.stats().unwrap();
    assert!(health.host_pages > 0, "the run wrote pages");
    let mut run = service.finish().unwrap().run;
    let report = run.report.clone();
    let geo = geometry(channels);
    let data = contents(&mut run, &geo, pages);
    assert_eq!(
        report, engine_report,
        "stats-polling service report diverged"
    );
    assert_eq!(
        data, engine_contents,
        "stats-polling service contents diverged"
    );
}

/// Drives `ops` through a cache-less service over four channels, taking a
/// `stats()` report every 61 ops and one at the end; returns the reports and
/// the run's own report.
fn polled_health(ops: &[HostOp], threads: u32) -> (Vec<HealthReport>, StripedReport) {
    let mut service = Service::build(
        LayerKind::Ftl,
        geometry(4),
        spec(),
        Some(swl()),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        ServiceConfig::default()
            .with_engine(
                EngineConfig::default()
                    .with_threads(threads)
                    .with_queue_depth(16),
            )
            .with_op_interval_ns(INTERVAL_NS),
    )
    .unwrap();
    let mut next_value = 0u64;
    let mut reports = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            HostOp::Write { lba, len } => {
                let values: Vec<u64> = (0..len)
                    .map(|_| {
                        next_value += 1;
                        next_value
                    })
                    .collect();
                service.write(lba, &values).unwrap();
            }
            HostOp::Read { lba, len } => {
                service.read(lba, len).unwrap();
            }
        }
        if i % 61 == 60 {
            reports.push(service.stats().unwrap());
        }
    }
    reports.push(service.stats().unwrap());
    (reports, service.finish().unwrap().run.report)
}

/// `stats()` reads health off the lanes: its final report agrees with the
/// run's own erase statistics and counters, and the same op sequence gives
/// equal reports at every poll whether the engine runs each op where it is
/// submitted or queues it to two workers over four lanes — a poll that read
/// before the drain, or skipped a lane group, would differ.
#[test]
fn stats_reads_health_off_the_lanes() {
    let probe = Engine::new(
        LayerKind::Ftl,
        geometry(4),
        spec(),
        Some(swl()),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        EngineConfig::default(),
    )
    .unwrap();
    let ops = workload(probe.logical_pages(), 3_000, 0x4EA1);
    probe.finish().unwrap();

    let (direct, report) = polled_health(&ops, 0);
    let (queued, queued_report) = polled_health(&ops, 2);
    assert_eq!(queued_report, report, "the two engines diverged");
    assert_eq!(queued, direct, "a poll differs between the two engines");

    let last = direct.last().expect("a final report");
    let counters = &report.counters;
    assert!(counters.gc_erases > 0, "the run must collect garbage");
    assert_eq!(last.blocks, geometry(4).total_blocks());
    assert_eq!(last.wear.max, report.erase_stats.max);
    assert_eq!(last.gc_erases, counters.gc_erases);
    assert_eq!(last.swl_erases, counters.swl_erases);
    assert_eq!(last.retired, counters.retired_blocks);
    assert_eq!(last.host_pages, counters.host_writes);
}

#[test]
fn cache_on_read_your_writes_matches_model() {
    let mut service = Service::build(
        LayerKind::Ftl,
        geometry(2),
        spec(),
        None,
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        ServiceConfig::default()
            .with_cache(CacheConfig::sized(32).with_hot(eager_hot()))
            .with_engine(EngineConfig::default().with_threads(2).with_queue_depth(8)),
    )
    .unwrap();
    let hot_span = service.logical_pages() / 4; // concentrated → hot
    let mut model: HashMap<u64, Option<u64>> = HashMap::new();
    let mut rng = SplitMix64::new(42);
    for i in 0..4_000u64 {
        let lba = rng.next_below(hot_span);
        match rng.next_below(10) {
            0 => {
                service.trim(lba, 1).unwrap();
                model.insert(lba, None);
            }
            1..=3 => {
                let got = service.read(lba, 1).unwrap()[0];
                let expected = model.get(&lba).copied().unwrap_or(None);
                assert_eq!(got, expected, "read {lba} diverged from model at op {i}");
            }
            _ => {
                service.write(lba, &[i + 1]).unwrap();
                model.insert(lba, Some(i + 1));
            }
        }
        if rng.chance(0.01) {
            service.flush().unwrap();
        }
    }
    let sample = service.cache_sample().expect("cache was enabled");
    assert!(sample.write_hits > 0, "hot workload must hit the cache");
    assert!(sample.flushed_pages > 0, "watermark flush-back must run");
    // Full sweep against the model after a final flush.
    service.flush().unwrap();
    for lba in 0..hot_span {
        let got = service.read(lba, 1).unwrap()[0];
        let expected = model.get(&lba).copied().unwrap_or(None);
        assert_eq!(got, expected, "final sweep diverged at lba {lba}");
    }
    service.finish().unwrap();
}

#[test]
fn cache_absorbs_hot_rewrites_and_cuts_programs() {
    let run_with = |cache: Option<CacheConfig>| {
        let mut service = Service::build(
            LayerKind::Ftl,
            geometry(2),
            spec(),
            Some(swl()),
            SwlCoordination::PerChannel,
            &SimConfig::default(),
            ServiceConfig {
                engine: EngineConfig::default().with_threads(2).with_queue_depth(8),
                cache,
                op_interval_ns: INTERVAL_NS,
            },
        )
        .unwrap();
        // Hammer a tiny hot set: 16 pages rewritten 500 times each.
        let mut value = 0u64;
        for round in 0..500u64 {
            for lba in 0..16u64 {
                value += 1;
                service.write(lba, &[value]).unwrap();
            }
            if round % 50 == 49 {
                service.flush().unwrap();
            }
        }
        service.finish().unwrap()
    };
    let off = run_with(None);
    let on = run_with(Some(CacheConfig::sized(64).with_hot(eager_hot())));
    let sample = on.cache.expect("cache was enabled");
    assert!(
        sample.write_hit_rate() > 0.5,
        "hot rewrites must mostly be absorbed (hit rate {})",
        sample.write_hit_rate()
    );
    assert!(
        on.run.report.device.programs < off.run.report.device.programs / 2,
        "cache-on must cut flash programs (on {} vs off {})",
        on.run.report.device.programs,
        off.run.report.device.programs
    );
    assert!(
        on.run.report.counters.swl_erases <= off.run.report.counters.swl_erases,
        "less flash traffic must not increase SWL work (on {} vs off {})",
        on.run.report.counters.swl_erases,
        off.run.report.counters.swl_erases
    );
}

#[test]
fn flushed_writes_survive_teardown_and_remount() {
    let channels = 2u32;
    let mut service = Service::build(
        LayerKind::Ftl,
        geometry(channels),
        spec(),
        None,
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        ServiceConfig::default().with_cache(CacheConfig::sized(32).with_hot(eager_hot())),
    )
    .unwrap();
    // Acked-durable set: written (rewritten so the filter sees them hot,
    // landing them in the cache), then flushed.
    for lba in 0..24u64 {
        service.write(lba, &[1_000 + lba]).unwrap();
        service.write(lba, &[2_000 + lba]).unwrap();
    }
    service.flush().unwrap();
    // Un-acked tail: written after the flush, may legally vanish.
    for lba in 0..8u64 {
        service.write(lba, &[9_000 + lba]).unwrap();
    }
    let geo = geometry(channels);
    let mut lanes: Vec<Layer<_>> = service
        .into_devices()
        .into_iter()
        .map(|device| Layer::mount(LayerKind::Ftl, device, &SimConfig::default()).unwrap())
        .collect();
    for lba in 0..24u64 {
        let got = lanes[geo.channel_of(lba) as usize]
            .read(geo.lane_lba(lba))
            .unwrap();
        let flushed = 2_000 + lba;
        let unacked = 9_000 + lba;
        assert!(
            got == Some(flushed) || (lba < 8 && got == Some(unacked)),
            "lba {lba}: flushed value lost (read {got:?})"
        );
    }
}

#[test]
fn served_clients_keep_read_your_writes() {
    let service = Service::build(
        LayerKind::Ftl,
        geometry(2),
        spec(),
        None,
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        ServiceConfig::default()
            .with_cache(CacheConfig::sized(64).with_hot(eager_hot()))
            .with_engine(EngineConfig::default().with_threads(2).with_queue_depth(8)),
    )
    .unwrap();
    let clients = 4usize;
    let slice = service.logical_pages() / clients as u64;
    let (server, handles) = service.serve(clients);
    let joined: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(c, mut client)| {
            std::thread::spawn(move || {
                let base = c as u64 * slice;
                let mut rng = SplitMix64::new(0xBEEF + c as u64);
                let mut model: HashMap<u64, u64> = HashMap::new();
                let (mut writes, mut reads) = (0u64, 0u64);
                for i in 0..400u64 {
                    let lba = base + rng.next_below(slice.min(32));
                    if rng.chance(0.7) {
                        let value = ((c as u64) << 32) | (i + 1);
                        client.write(lba, vec![value]).unwrap();
                        writes += 1;
                        model.insert(lba, value);
                    } else if let Some(&expected) = model.get(&lba) {
                        let got = client.read(lba, 1).unwrap()[0];
                        reads += 1;
                        assert_eq!(got, Some(expected), "client {c} lost its write at {lba}");
                    }
                    if i % 100 == 99 {
                        client.flush().unwrap();
                    }
                }
                (writes, reads)
            })
        })
        .collect();
    let mut total_ops = 0u64;
    for handle in joined {
        let (writes, reads) = handle.join().unwrap();
        assert!(writes > 0, "every client must have written");
        total_ops += writes + reads;
    }
    let service = server.join();
    assert!(
        service.ops() >= total_ops,
        "service must have seen every client op"
    );
    service.finish().unwrap();
}

/// Trim of never-written LBAs is a pure no-op that must stay readable as
/// `None`, never error, and never dirty the cache or reach the flash —
/// with and without a cache attached.
#[test]
fn trim_of_never_written_lbas_is_harmless() {
    for cache in [None, Some(CacheConfig::sized(32).with_hot(eager_hot()))] {
        let cached = cache.is_some();
        let mut service = Service::build(
            LayerKind::Ftl,
            geometry(2),
            spec(),
            None,
            SwlCoordination::PerChannel,
            &SimConfig::default(),
            ServiceConfig {
                engine: EngineConfig::default().with_threads(2).with_queue_depth(8),
                cache,
                op_interval_ns: INTERVAL_NS,
            },
        )
        .unwrap();
        let logical = service.logical_pages();

        // Virgin device: trim spans nothing ever touched.
        service.trim(0, 16).unwrap();
        service.trim(logical - 4, 4).unwrap();
        service.trim(7, 0).unwrap(); // zero-length
        for lba in [0u64, 5, 15, logical - 1] {
            assert_eq!(
                service.read(lba, 1).unwrap()[0],
                None,
                "cached={cached}: trimmed virgin lba {lba} must read None"
            );
        }
        // Out-of-range trims are rejected, not silently clipped.
        assert!(matches!(
            service.trim(logical, 1),
            Err(flash_sim::SimError::TraceOutOfRange { .. })
        ));
        assert!(matches!(
            service.trim(logical - 1, 2),
            Err(flash_sim::SimError::TraceOutOfRange { .. })
        ));

        // The no-op trims must not have programmed anything.
        service.flush().unwrap();
        let programs_before: u64 = service.ops();
        assert!(programs_before > 0, "ops counter tracks the verbs");

        // Writes after the trim behave as on a virgin device.
        service.write(3, &[111, 222]).unwrap();
        assert_eq!(service.read(3, 2).unwrap(), vec![Some(111), Some(222)]);
        // And re-trimming the now-written span masks it again.
        service.trim(3, 2).unwrap();
        assert_eq!(service.read(3, 2).unwrap(), vec![None, None]);

        let run = service.finish().unwrap().run;
        assert_eq!(
            run.report.counters.trims, 0,
            "cached={cached}: advisory service trims must never reach the FTL"
        );
    }
}

/// Flush on an empty (or absent) cache is an idempotent barrier: it
/// succeeds, moves no pages, and leaves the device byte-identical — even
/// repeated back to back.
#[test]
fn flush_on_empty_cache_is_an_idempotent_noop() {
    let mut service = Service::build(
        LayerKind::Ftl,
        geometry(2),
        spec(),
        None,
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        ServiceConfig::default()
            .with_cache(CacheConfig::sized(32).with_hot(eager_hot()))
            .with_engine(EngineConfig::default().with_threads(2).with_queue_depth(8)),
    )
    .unwrap();
    // Nothing written yet: flush must succeed and flush zero pages.
    service.flush().unwrap();
    service.flush().unwrap();
    let sample = service.cache_sample().expect("cache was enabled");
    assert_eq!(sample.flushed_pages, 0, "empty flush moved pages");
    assert_eq!(sample.dirty, 0);

    // Dirty the cache, drain it, then flush again: the second flush finds
    // an empty cache and must not move anything further.
    for lba in 0..8u64 {
        service.write(lba, &[lba + 1]).unwrap();
        service.write(lba, &[lba + 100]).unwrap(); // rewrite → cached
    }
    service.flush().unwrap();
    let after_drain = service.cache_sample().expect("cache was enabled");
    assert_eq!(after_drain.dirty, 0, "flush must drain every dirty entry");
    service.flush().unwrap();
    let after_noop = service.cache_sample().expect("cache was enabled");
    assert_eq!(
        after_noop.flushed_pages, after_drain.flushed_pages,
        "flushing a drained cache must move nothing"
    );
    // Contents intact.
    for lba in 0..8u64 {
        assert_eq!(service.read(lba, 1).unwrap()[0], Some(lba + 100));
    }
    service.finish().unwrap();
}

/// Stats is a pure management verb: every served client polling it
/// concurrently with the others' traffic gets a coherent report, and the
/// polling never perturbs contents or read-your-writes.
#[test]
fn stats_polled_concurrently_from_all_clients() {
    let service = Service::build(
        LayerKind::Ftl,
        geometry(2),
        spec(),
        Some(swl()),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        ServiceConfig::default()
            .with_engine(EngineConfig::default().with_threads(2).with_queue_depth(8))
            .with_op_interval_ns(INTERVAL_NS),
    )
    .unwrap();
    let clients = 4usize;
    let slice = service.logical_pages() / clients as u64;
    let (server, handles) = service.serve(clients);
    let joined: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(c, mut client)| {
            std::thread::spawn(move || {
                let base = c as u64 * slice;
                let mut model: HashMap<u64, u64> = HashMap::new();
                let mut rng = SplitMix64::new(0x57A7 + c as u64);
                let mut last_host_pages = 0u64;
                let mut polls = 0u64;
                for i in 0..300u64 {
                    let lba = base + rng.next_below(slice.min(24));
                    if rng.chance(0.6) {
                        let value = ((c as u64) << 32) | (i + 1);
                        client.write(lba, vec![value]).unwrap();
                        model.insert(lba, value);
                    } else if let Some(&expected) = model.get(&lba) {
                        let got = client.read(lba, 1).unwrap()[0];
                        assert_eq!(got, Some(expected), "client {c} lost a write at {lba}");
                    }
                    // Every client polls stats throughout, racing the others.
                    if i % 19 == 0 {
                        let report = client.stats().unwrap();
                        assert!(
                            report.host_pages >= last_host_pages,
                            "client {c}: host_pages went backwards across polls"
                        );
                        last_host_pages = report.host_pages;
                        polls += 1;
                    }
                }
                assert!(polls > 0, "client {c} must actually have polled");
                // Final read-your-writes sweep under continued polling.
                for (&lba, &expected) in &model {
                    assert_eq!(client.read(lba, 1).unwrap()[0], Some(expected));
                }
                polls
            })
        })
        .collect();
    let mut total_polls = 0u64;
    for handle in joined {
        total_polls += handle.join().unwrap();
    }
    assert!(total_polls >= 4 * 10, "all clients polled repeatedly");
    let service = server.join();
    service.finish().unwrap();
}

/// One verb of the served-versus-inline comparison, write values included.
enum Verb {
    Write { lba: u64, data: Vec<u64> },
    Read { lba: u64, len: usize },
    Trim { lba: u64, len: usize },
    Flush,
}

/// The mixed workload as verbs: write values from one global page counter,
/// plus a trim every 40th op and a flush every 100th.
fn verbs(ops: &[HostOp]) -> Vec<Verb> {
    let mut next_value = 0u64;
    let mut verbs = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        verbs.push(match *op {
            HostOp::Write { lba, len } => {
                let data = (0..len as u64).map(|k| next_value + 1 + k).collect();
                next_value += len as u64;
                Verb::Write { lba, data }
            }
            HostOp::Read { lba, len } => Verb::Read { lba, len },
        });
        if i % 40 == 39 {
            verbs.push(Verb::Trim {
                lba: i as u64 % 16,
                len: 2,
            });
        }
        if i % 100 == 99 {
            verbs.push(Verb::Flush);
        }
    }
    verbs
}

/// Everything a service run is compared on: report, cache counters,
/// per-lane device and leveler state, logical contents, and every value a
/// read returned.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: StripedReport,
    cache: Option<flash_telemetry::runtime::CacheSample>,
    lanes: Vec<String>,
    contents: Vec<Option<u64>>,
    reads: Vec<Vec<Option<u64>>>,
}

/// Runs `verbs` through a two-lane service over an engine of `threads`
/// workers, inline or through one served client.
fn run_verbs(verbs: &[Verb], cache: Option<CacheConfig>, served: bool, threads: u32) -> Outcome {
    let mut service = Service::build(
        LayerKind::Ftl,
        geometry(2),
        spec(),
        Some(swl()),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        ServiceConfig {
            engine: EngineConfig::default()
                .with_threads(threads)
                .with_queue_depth(16),
            cache,
            op_interval_ns: INTERVAL_NS,
        },
    )
    .unwrap();
    let pages = service.logical_pages();
    let mut reads = Vec::new();
    let service = if served {
        let (server, mut clients) = service.serve(1);
        let client = &mut clients[0];
        for verb in verbs {
            match verb {
                Verb::Write { lba, data } => client.write(*lba, data.clone()).unwrap(),
                Verb::Read { lba, len } => reads.push(client.read(*lba, *len).unwrap()),
                Verb::Trim { lba, len } => client.trim(*lba, *len).unwrap(),
                Verb::Flush => client.flush().unwrap(),
            }
        }
        server.join()
    } else {
        for verb in verbs {
            match verb {
                Verb::Write { lba, data } => service.write(*lba, data).unwrap(),
                Verb::Read { lba, len } => reads.push(service.read(*lba, *len).unwrap()),
                Verb::Trim { lba, len } => service.trim(*lba, *len).unwrap(),
                Verb::Flush => service.flush().unwrap(),
            }
        }
        service
    };
    let finished = service.finish().unwrap();
    let mut run = finished.run;
    // Lane state before the content reads, which are real device reads.
    let lanes = run
        .lanes()
        .iter()
        .map(|lane| {
            format!(
                "{:?}",
                (
                    lane.counters(),
                    lane.device().erase_stats(),
                    lane.device().counters(),
                    lane.swl().map(|s| (s.ecnt(), s.bet().fcnt())),
                )
            )
        })
        .collect();
    Outcome {
        report: run.report.clone(),
        cache: finished.cache,
        lanes,
        contents: contents(&mut run, &geometry(2), pages),
        reads,
    }
}

/// One served client is the inline service: the lock adds exclusion, not
/// behaviour. Report, cache counters, per-lane state, contents and every
/// read result are bit-identical, cache off and cache on — and the same
/// again over the engine without workers.
#[test]
fn served_single_client_is_bit_identical_to_inline() {
    let probe = run_verbs(&[], None, false, 2);
    let ops = workload(probe.contents.len() as u64, 2_500, 0x5E21ED);
    let verbs = verbs(&ops);
    for cache in [None, Some(CacheConfig::sized(32).with_hot(eager_hot()))] {
        let inline = run_verbs(&verbs, cache, false, 2);
        assert!(
            inline.report.device.programs > 0,
            "the run must reach flash"
        );
        for (served, threads) in [(true, 2u32), (false, 0), (true, 0)] {
            assert_eq!(
                run_verbs(&verbs, cache, served, threads),
                inline,
                "cached={} served={served} threads={threads}: diverged from the inline \
                 service over two workers",
                cache.is_some()
            );
        }
    }
}

/// What the snapshot-verb sequence below left behind: every verb's result,
/// every read-back, the report and the final contents.
#[derive(Debug, PartialEq)]
struct SnapshotOutcome {
    verbs: Vec<Result<(), SimError>>,
    images: Vec<Vec<Option<u64>>>,
    report: StripedReport,
    contents: Vec<Option<u64>>,
}

/// Writes, snapshots, diverges, rolls back, merges and deletes through a
/// cache-less four-lane service over an engine of `threads` workers. Two of
/// the verbs are refused by every lane alike (a duplicate id, an unknown
/// one), which must not wedge the engine.
fn run_snapshot_verbs(threads: u32) -> SnapshotOutcome {
    let layers = SimConfig {
        ftl: FtlConfig::new()
            .with_overprovision_blocks(2)
            .with_snapshots(SnapshotConfig::new().with_manifest_blocks(2)),
        ..SimConfig::default()
    };
    let mut service = Service::build(
        LayerKind::Ftl,
        geometry(4),
        spec(),
        Some(swl()),
        SwlCoordination::PerChannel,
        &layers,
        ServiceConfig::default().with_engine(
            EngineConfig::default()
                .with_threads(threads)
                .with_queue_depth(8),
        ),
    )
    .unwrap();
    let pages = service.logical_pages();
    let footprint = pages / 4;
    let mut rng = SplitMix64::new(0x5A95);
    let mut value = 0u64;
    let mut write_some = |service: &mut Service, writes: u64| {
        for _ in 0..writes {
            let len = rng.range_usize(1..6);
            let lba = rng.next_below(footprint - len as u64);
            let data: Vec<u64> = (0..len as u64).map(|k| value + 1 + k).collect();
            value += len as u64;
            service.write(lba, &data).unwrap();
        }
    };
    let image = |service: &mut Service| service.read(0, footprint as usize).unwrap();

    let mut verbs = Vec::new();
    let mut images = Vec::new();
    write_some(&mut service, 400);
    verbs.push(service.snapshot(SnapshotVerb::Create(1)));
    images.push(image(&mut service));
    write_some(&mut service, 300);
    verbs.push(service.snapshot(SnapshotVerb::Create(1)));
    images.push(image(&mut service));
    verbs.push(service.snapshot(SnapshotVerb::Clone(1)));
    images.push(image(&mut service));
    write_some(&mut service, 200);
    verbs.push(service.snapshot(SnapshotVerb::Create(2)));
    write_some(&mut service, 200);
    verbs.push(service.snapshot(SnapshotVerb::Merge(2)));
    images.push(image(&mut service));
    verbs.push(service.snapshot(SnapshotVerb::Delete(9)));
    verbs.push(service.snapshot(SnapshotVerb::Delete(1)));
    write_some(&mut service, 100);
    let mut run = service.finish().unwrap().run;
    SnapshotOutcome {
        verbs,
        images,
        report: run.report.clone(),
        contents: contents(&mut run, &geometry(4), pages),
    }
}

/// A snapshot verb is a barrier executed lane by lane; on the engine without
/// workers it runs, like everything else, on the caller's thread. Same verb
/// results (refusals included), same images, same report, same contents.
#[test]
fn snapshot_verbs_are_bit_identical_without_workers() {
    let threaded = run_snapshot_verbs(2);
    let refused: Vec<bool> = threaded.verbs.iter().map(Result::is_err).collect();
    assert_eq!(
        refused,
        [false, true, false, false, false, true, false],
        "{:?}",
        threaded.verbs
    );
    assert_eq!(threaded.images[2], threaded.images[0], "rollback");
    assert_ne!(threaded.images[1], threaded.images[0], "divergence");
    for threads in [0u32, 1] {
        assert_eq!(run_snapshot_verbs(threads), threaded, "threads={threads}");
    }
}

/// Four clients hammer disjoint slices over two engine threads while a
/// fifth handle polls `stats()` the whole time: each client reads its own
/// writes, the service counts exactly the ops it acked, and everything a
/// flush acked is on flash — read back after dropping the cache and
/// remounting the raw devices.
#[test]
fn served_clients_hammer_slices_under_a_stats_poller() {
    let channels = 2u32;
    let service = Service::build(
        LayerKind::Ftl,
        geometry(channels),
        spec(),
        Some(swl()),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        ServiceConfig::default()
            .with_cache(CacheConfig::sized(64).with_hot(eager_hot()))
            .with_engine(EngineConfig::default().with_threads(2).with_queue_depth(8)),
    )
    .unwrap();
    let workers = 4usize;
    let slice = service.logical_pages() / workers as u64;
    let window = slice.min(32);
    let (server, mut handles) = service.serve(workers + 1);
    let mut poller = handles.pop().expect("the fifth handle");
    // All five threads start together; the poller runs until the workers
    // are done, so polls and I/O verbs contend for the lock throughout.
    let start = Barrier::new(workers + 1);
    let done = AtomicBool::new(false);
    let results = std::thread::scope(|scope| {
        let polling = scope.spawn(|| {
            start.wait();
            let mut last_host_pages = 0u64;
            let mut polls = 0u64;
            while !done.load(Ordering::Acquire) {
                let report = poller.stats().unwrap();
                assert!(
                    report.host_pages >= last_host_pages,
                    "host_pages went backwards across polls"
                );
                last_host_pages = report.host_pages;
                polls += 1;
                std::thread::yield_now();
            }
            polls
        });
        let hammering: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    let base = c as u64 * slice;
                    let mut rng = SplitMix64::new(0x4A11 + c as u64);
                    let mut model: HashMap<u64, Option<u64>> = HashMap::new();
                    let mut accepted = 0u64;
                    for i in 0..600u64 {
                        let len = rng.range_usize(1..4);
                        let lba = base + rng.next_below(window - 3);
                        let span = lba..lba + len as u64;
                        match rng.next_below(10) {
                            0 => {
                                client.trim(lba, len).unwrap();
                                model.extend(span.map(|page| (page, None)));
                            }
                            1..=3 => {
                                let got = client.read(lba, len).unwrap();
                                let expected: Vec<_> = span
                                    .map(|page| model.get(&page).copied().flatten())
                                    .collect();
                                assert_eq!(got, expected, "client {c} read {lba}+{len} at op {i}");
                            }
                            _ => {
                                let data: Vec<u64> = (0..len as u64)
                                    .map(|k| ((c as u64) << 32) | (i * 4 + k + 1))
                                    .collect();
                                model.extend(span.zip(data.iter().map(|&v| Some(v))));
                                client.write(lba, data).unwrap();
                            }
                        }
                        accepted += 1;
                        if i % 150 == 149 {
                            client.flush().unwrap();
                        }
                    }
                    // The last op is a flush: the whole model is flush-acked.
                    (accepted, model)
                })
            })
            .collect();
        // Stop the poller before looking at any result, so a failed client
        // fails the test instead of leaving the scope waiting on the poller.
        let results: Vec<_> = hammering.into_iter().map(|h| h.join()).collect();
        done.store(true, Ordering::Release);
        let polls = polling.join().expect("poller thread");
        assert!(polls > 0, "the poller must have polled");
        results
    });
    let results: Vec<_> = results
        .into_iter()
        .map(|result| result.expect("client thread"))
        .collect();

    let service = server.join();
    let accepted: u64 = results.iter().map(|(accepted, _)| accepted).sum();
    assert_eq!(
        service.ops(),
        accepted,
        "ops() counts exactly the acked verbs"
    );

    // Power-cut style teardown: the cache is dropped, not flushed.
    let geo = geometry(channels);
    let mut lanes: Vec<Layer<_>> = service
        .into_devices()
        .into_iter()
        .map(|device| Layer::mount(LayerKind::Ftl, device, &SimConfig::default()).unwrap())
        .collect();
    for (c, (_, model)) in results.iter().enumerate() {
        // A trim is a RAM mask the remount forgets; written values are not.
        for (&lba, &value) in model.iter().filter(|(_, value)| value.is_some()) {
            let got = lanes[geo.channel_of(lba) as usize]
                .read(geo.lane_lba(lba))
                .unwrap();
            assert_eq!(got, value, "client {c}: flush-acked lba {lba} lost");
        }
    }
}

/// A small served service whose logical clock overflows on its second op
/// (`op_interval_ns` of `u64::MAX`): the way to panic *inside* a verb, with
/// the service lock held, through the public API alone.
fn serve_with_overflowing_clock(clients: usize) -> (ServiceServer, Vec<ServiceClient>) {
    Service::build(
        LayerKind::Ftl,
        geometry(1),
        spec(),
        None,
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        ServiceConfig::default().with_op_interval_ns(u64::MAX),
    )
    .unwrap()
    .serve(clients)
}

#[test]
#[should_panic(expected = "service joined while client 0 was active")]
fn served_verb_after_join_panics() {
    let (server, mut clients) = serve_with_overflowing_clock(1);
    server.join().finish().unwrap();
    let _ = clients[0].write(0, vec![1]);
}

/// Serves two clients and has the first panic inside its second write;
/// returns the server and the surviving client.
fn served_after_a_verb_panicked() -> (ServiceServer, ServiceClient) {
    let (server, mut clients) = serve_with_overflowing_clock(2);
    let survivor = clients.pop().expect("two clients");
    let mut doomed = clients.pop().expect("two clients");
    let panicked = std::thread::spawn(move || {
        doomed.write(0, vec![1]).unwrap();
        let _ = doomed.write(0, vec![2]);
    })
    .join();
    assert!(panicked.is_err(), "the second tick must overflow the clock");
    (server, survivor)
}

#[test]
#[should_panic(expected = "service lock poisoned: a client panicked inside a served verb")]
fn served_verb_panic_fails_the_next_client_call() {
    let (_server, mut survivor) = served_after_a_verb_panicked();
    let _ = survivor.read(0, 1);
}

#[test]
#[should_panic(expected = "service lock poisoned: a client panicked inside a served verb")]
fn served_verb_panic_fails_join() {
    let (server, _survivor) = served_after_a_verb_panicked();
    let _ = server.join();
}

#[test]
fn served_handles_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Service>();
    assert_send::<ServiceClient>();
    assert_send::<ServiceServer>();
}
