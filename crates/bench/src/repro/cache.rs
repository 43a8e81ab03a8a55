//! The `cache` artifact: the served front-end's write cache in front of the
//! SW Leveler, measured in device counts a single client makes
//! deterministic — the same op sequence with the cache off and on, the two
//! runs to first block failure, and a capacity-eviction arm.
//!
//! Wall-clock figures and multi-client arms, whose device counts depend on
//! how client threads interleave, are layerbench's (`service.*`,
//! `cache.*`); `tests/service_oracle.rs` pins the cache-off service
//! bit-identical to the direct engine.

use flash_sim::experiments::ExperimentScale;
use flash_sim::service::cache::CacheConfig;
use flash_sim::service::ServiceConfig;
use flash_sim::EngineConfig;
use flash_telemetry::runtime::CacheSample;
use hotid::HotDataConfig;
use nand::CellKind;

use crate::array::{
    cache_config, client_ops, client_slices, pct, service, spec, ClientOp, CACHE_PAGES, CHANNELS,
    FLUSH_EVERY,
};
use crate::format_table;

/// Client ops after the prefill, per arm.
const OPS: usize = 20_000;
/// Engine queue depths of the cache off/on rows.
const DEPTHS: [usize; 3] = [1, 8, 64];
/// Endurance of the first-failure arms: low enough that the quick-scale
/// chip wears a block out in a second of wall time.
const FAILURE_ENDURANCE: u32 = 16;
/// Engine queue depth of the first-failure and eviction arms.
const FAILURE_DEPTH: usize = 8;
/// Write-cache capacity of the eviction arm (tiny on purpose).
const EVICTION_CAPACITY: usize = 8;

fn engine(depth: usize) -> EngineConfig {
    EngineConfig::default()
        .with_threads(CHANNELS)
        .with_queue_depth(depth)
}

/// One cache off/on row: the finished run's device counts.
struct Row {
    host_pages: u64,
    programs: u64,
    swl_erases: u64,
    cache: Option<CacheSample>,
}

impl Row {
    /// Flash programs per host page written: the cache absorbs hot
    /// rewrites before they reach the FTL, so this is what it moves.
    fn wa(&self) -> f64 {
        self.programs as f64 / self.host_pages.max(1) as f64
    }
}

fn served_run(scale: &ExperimentScale, depth: usize, cache: bool) -> Row {
    let mut service = service(scale, spec(scale), engine(depth), cache.then(cache_config));
    let (base, span) = client_slices(service.logical_pages(), 1)[0];
    let ops = client_ops(0, base, span, OPS, scale.seed);
    for op in &ops {
        op.apply(&mut service).expect("client op failed");
    }
    let run = service.finish().expect("service finish failed");
    Row {
        host_pages: ops.iter().map(ClientOp::pages).sum(),
        programs: run.run.report.device.programs,
        swl_erases: run.run.report.counters.swl_erases,
        cache: run.cache,
    }
}

/// When the first block wore out: accepted host ops, the host pages they
/// wrote, and the chip-wide erases by then.
struct Failure {
    ops: u64,
    host_pages: u64,
    erases: u64,
}

/// Drives the single-client workload at the quick geometry with
/// [`FAILURE_ENDURANCE`]-cycle blocks until the first block wears out.
/// The service's logical clock ticks once per accepted op, so the failure's
/// stamp is an op index, deterministic and comparable cache off and on.
fn failure_run(cache: bool) -> Failure {
    let scale = ExperimentScale::quick();
    let cell = CellKind::Mlc2.spec().with_endurance(FAILURE_ENDURANCE);
    let mut service = service(
        &scale,
        cell,
        engine(FAILURE_DEPTH),
        cache.then(cache_config),
    );
    let (base, span) = client_slices(service.logical_pages(), 1)[0];
    // Host pages written per accepted (clock-ticking) op.
    let mut pages_per_op: Vec<u64> = Vec::new();
    let prefill_ops = span.div_ceil(4) as usize + 1;
    let mut chunk_seed = scale.seed;
    'drive: loop {
        // Later chunks skip the sequential prefill: it is the workload's
        // one-time cold-data setup, not its steady state.
        let skip = if chunk_seed == scale.seed {
            0
        } else {
            prefill_ops
        };
        for op in client_ops(0, base, span, 100_000, chunk_seed)
            .iter()
            .skip(skip)
        {
            if !matches!(op, ClientOp::Flush) {
                pages_per_op.push(op.pages());
            }
            op.apply(&mut service).expect("failure-arm op failed");
            if service.first_failure().is_some() {
                break 'drive;
            }
        }
        chunk_seed = chunk_seed.wrapping_add(1);
    }
    let failure = service.first_failure().expect("loop exits on failure");
    let ops = failure.host_ns / ServiceConfig::default().op_interval_ns;
    Failure {
        ops,
        host_pages: pages_per_op.iter().take(ops as usize).sum(),
        erases: failure.total_erases,
    }
}

/// Drives the cache into *capacity* eviction in isolation: an
/// [`EVICTION_CAPACITY`]-page cache with its watermark at capacity, so the
/// between-call drain cannot help mid-write, admitting every LBA from its
/// first touch, written in 4-page spans of fresh LBAs — once it is full,
/// admitting the next page of a span pushes the oldest entries out.
fn eviction_run() -> CacheSample {
    let scale = ExperimentScale::quick();
    let cache = CacheConfig {
        capacity: EVICTION_CAPACITY,
        sync_watermark: EVICTION_CAPACITY,
        batch: 2,
        hot: HotDataConfig {
            hot_threshold: 1,
            ..HotDataConfig::default()
        },
    };
    let mut service = service(&scale, spec(&scale), engine(FAILURE_DEPTH), Some(cache));
    let (base, span) = client_slices(service.logical_pages(), 1)[0];
    for (n, start) in (base..base + span - 4).step_by(4).take(64).enumerate() {
        let data = [1, 2, 3, 4].map(|i| n as u64 * 4 + i);
        service.write(start, &data).expect("eviction write");
    }
    let sample = service.cache_sample().expect("cache was enabled");
    service.finish().expect("eviction-arm finish failed");
    sample
}

/// The artifact's text.
pub(super) fn render(scale: &ExperimentScale, chip: &str) -> String {
    let mut rows = Vec::new();
    let mut cuts = String::new();
    for depth in DEPTHS {
        let [off, on] = [false, true].map(|cache| served_run(scale, depth, cache));
        for (row, label) in [(&off, "off"), (&on, "on")] {
            let cache = row.cache.as_ref();
            rows.push(vec![
                depth.to_string(),
                label.to_owned(),
                row.host_pages.to_string(),
                row.programs.to_string(),
                format!("{:.3}", row.wa()),
                row.swl_erases.to_string(),
                cache.map_or("-".to_owned(), |c| pct(c.write_hit_rate())),
                cache.map_or("-".to_owned(), |c| c.evicted.to_string()),
            ]);
        }
        cuts += &format!(
            "depth {depth}: cache cut WA {:.3} -> {:.3} ({:.0}% fewer programs), \
             SWL erases {} -> {}\n",
            off.wa(),
            on.wa(),
            (1.0 - on.programs as f64 / off.programs.max(1) as f64) * 100.0,
            off.swl_erases,
            on.swl_erases,
        );
    }
    #[rustfmt::skip]
    let headers = ["depth", "cache", "host pages", "programs", "WA", "swl erases", "hit rate",
        "evicted"];
    let [off, on] = [false, true].map(failure_run);
    let eviction = eviction_run();
    format!(
        "Write cache in front of the SW Leveler (scale: {chip})\n\
         FTL x{CHANNELS}ch, SWL (T=100, k=0, per-channel), one client: a sequential\n\
         prefill of its slice, then {OPS} ops (70% writes of 1-4 pages, 90% in the\n\
         hot eighth), a flush every {FLUSH_EVERY}; cache {CACHE_PAGES} pages, hot from the\n\
         second write, watermark at capacity\n\n{}\n{cuts}\n\
         first failure (quick geometry, endurance {FAILURE_ENDURANCE}, depth {FAILURE_DEPTH}):\n\
         \x20 cache off: op {}, {} host pages, {} erases\n\
         \x20 cache on:  op {}, {} host pages, {} erases (x{:.2} host writes)\n\
         capacity eviction ({EVICTION_CAPACITY}-page cache, watermark at capacity):\n\
         \x20 {} admitted, {} evicted, {} flushed\n",
        format_table(&headers, &rows),
        off.ops,
        off.host_pages,
        off.erases,
        on.ops,
        on.host_pages,
        on.erases,
        on.host_pages as f64 / off.host_pages.max(1) as f64,
        eviction.admitted,
        eviction.evicted,
        eviction.flushed_pages,
    )
}
