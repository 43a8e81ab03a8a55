//! The `health` artifact: the health plane's state ladder on a served,
//! cached 4-channel FTL rated at a deliberately low endurance, so the quick
//! chip walks Good → Warn → Critical, and past its rating, within 20 000 host
//! writes. Every report is taken at a flush barrier, so each row reflects
//! exactly the writes accepted so far, whatever the worker threads did.

use std::fmt::Write;

use flash_sim::experiments::ExperimentScale;
use flash_sim::service::cache::CacheConfig;
use flash_sim::service::{Service, ServiceConfig};
use flash_sim::{EngineConfig, LayerKind, SimConfig, SwlCoordination};
use flash_telemetry::HealthReport;
use hotid::HotDataConfig;
use nand::CellKind;
use swl_core::SwlConfig;

use crate::array::{geometry, HotWrites, CHANNELS};

/// Rated endurance: low enough that the quick chip walks the whole ladder
/// within [`WRITES`].
const ENDURANCE: u32 = 24;
/// SWL threshold, scaled to the low endurance: the usual T=100 would never
/// fire before a 24-cycle block dies, and the ladder would report an
/// unevenness of 0 throughout.
const SWL_THRESHOLD: u64 = 8;
/// Write-cache pages.
const CACHE_PAGES: usize = 64;
/// Host writes, and the writes between two reports.
const WRITES: u64 = 20_000;
const REPORT_EVERY: u64 = 1_000;

fn service(scale: &ExperimentScale) -> Service {
    let cache = CacheConfig::sized(CACHE_PAGES).with_hot(HotDataConfig {
        hot_threshold: 2,
        ..HotDataConfig::default()
    });
    Service::build(
        LayerKind::Ftl,
        geometry(scale, CHANNELS),
        CellKind::Mlc2.spec().with_endurance(ENDURANCE),
        Some(SwlConfig::new(SWL_THRESHOLD, 0).with_seed(scale.seed)),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        ServiceConfig::default()
            .with_engine(
                EngineConfig::default()
                    .with_threads(CHANNELS)
                    .with_queue_depth(8),
            )
            .with_cache(cache),
    )
    .expect("service builds")
}

/// One poll's row.
fn row(seq: u64, writes: u64, report: &HealthReport) -> String {
    let forecast = report.forecast.map_or("unbounded".to_owned(), |pages| {
        format!("~{pages} pages left")
    });
    format!(
        "#{seq:<4} ops {writes:>8}  {:<8} life {:5.1}%  wear max {} p90 {} mean {:.1}  \
         retired {}  forecast {forecast}\n",
        report.state.token(),
        report.life_used * 100.0,
        report.wear.max,
        report.wear.p90,
        report.wear.mean,
        report.retired,
    )
}

pub(super) fn render() -> String {
    let scale = ExperimentScale::quick();
    let mut service = service(&scale);
    let mut workload = HotWrites::new(service.logical_pages(), scale.seed);
    let mut text = format!(
        "Health ladder: FTL x{CHANNELS}ch, {} blocks x {} pages, endurance {ENDURANCE},\n\
         SWL (T={SWL_THRESHOLD}, k=0, per-channel), cache {CACHE_PAGES} pages, {WRITES} host \
         writes,\none report at a flush barrier every {REPORT_EVERY}\n\n",
        scale.blocks, scale.pages_per_block,
    );
    let mut last: Option<HealthReport> = None;
    for seq in 0..WRITES / REPORT_EVERY {
        for _ in 0..REPORT_EVERY {
            let (lba, data) = workload.next_write();
            service.write(lba, &data).expect("write succeeds");
        }
        service.flush().expect("flush succeeds");
        let report = service.stats().expect("stats succeeds");
        let writes = (seq + 1) * REPORT_EVERY;
        if let Some(from) = last.map(|r| r.state).filter(|&from| from != report.state) {
            let to = report.state.token();
            let _ = writeln!(
                text,
                "ALERT at op {writes}: health {} -> {to}",
                from.token()
            );
        }
        text += &row(seq, writes, &report);
        last = Some(report);
    }
    let report = last.expect("at least one report");
    let _ = writeln!(
        text,
        "final: {} after {WRITES} ops — life {:.1}%, wear max {}/{ENDURANCE}, {} retired, \
         {} gc / {} swl erases",
        report.state.token(),
        report.life_used * 100.0,
        report.wear.max,
        report.retired,
        report.gc_erases,
        report.swl_erases,
    );
    service.finish().expect("service finishes");
    text
}
