//! `swlhealth` — the device health plane's CLI: drives a served
//! [`flash_sim::Service`] (write cache on, health plane on) through a
//! deterministic hot-biased single-client workload at a deliberately low
//! endurance, and polls the management plane ([`Service::stats`]) every
//! `--report-every` accepted ops, printing one SMART-style report line per
//! poll plus alert lines whenever the composite state changes
//! (Good → Warn → Critical).
//!
//! Every report is taken at a durability barrier ([`Service::flush`]), so
//! the engine pipeline is quiesced and the shared wear table is exact —
//! the export carries **no wall-clock fields** and is bit-reproducible,
//! which is what lets CI pin a golden fixture of it.
//!
//! With `--out FILE` the run is exported as JSONL (schema v1, one flat
//! object per line): a `swlhealth_meta` header, `health` lines per poll,
//! `alert` lines on state transitions (emitted just before the `health`
//! line that carries the new state), and one trailing `final` line.
//! `swlhealth --check FILE` validates such an export and exits non-zero on
//! any drift, including cross-line invariants: monotone wear / host pages /
//! retirements, seq continuity, the forecast band's order,
//! `life_used == wear_max / endurance`, and every alert's `from`/`to`
//! matching the neighbouring health lines. The `health` and `alert` line
//! writers and the validator are [`flash_bench::export`]; `svcbench --out`
//! writes the same `health` line into its engtop-dialect stream and
//! `engtop --check` holds it to the same rules.
//!
//! ```text
//! swlhealth [quick|scaled|paper] [--ops N] [--endurance N]
//!           [--report-every N] [--out FILE]
//! swlhealth --check FILE
//! ```
//!
//! [`Service::stats`]: flash_sim::service::Service::stats
//! [`Service::flush`]: flash_sim::service::Service::flush

use std::process::ExitCode;

use flash_bench::array::{geometry, HotWrites, CHANNELS};
use flash_bench::export::{self, Stamp, SWLHEALTH};
use flash_bench::json;
use flash_sim::experiments::ExperimentScale;
use flash_sim::service::cache::CacheConfig;
use flash_sim::service::{Service, ServiceConfig};
use flash_sim::{EngineConfig, LayerKind, SimConfig, SwlCoordination};
use flash_telemetry::health::HealthReport;
use hotid::HotDataConfig;
use nand::CellKind;
use swl_core::SwlConfig;

const SCHEMA: u64 = SWLHEALTH.schema;
/// SWL threshold, scaled to the low endurance the tool runs at (the usual
/// T=100 would never fire before a 24-cycle block dies, and a health demo
/// with a dormant leveler would report `unevenness 0` forever).
const SWL_THRESHOLD: u64 = 8;
/// Write-cache pages for the driven run.
const CACHE_PAGES: usize = 64;
/// Default per-block endurance: low enough that the quick geometry walks
/// the whole Good → Warn → Critical ladder within the default op budget.
const DEFAULT_ENDURANCE: u32 = 24;
const DEFAULT_OPS: u64 = 20_000;
const DEFAULT_REPORT_EVERY: u64 = 1_000;

struct Options {
    scale: ExperimentScale,
    ops: u64,
    endurance: u32,
    report_every: u64,
    out: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        scale: ExperimentScale::quick(),
        ops: DEFAULT_OPS,
        endurance: DEFAULT_ENDURANCE,
        report_every: DEFAULT_REPORT_EVERY,
        out: None,
        check: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "quick" => options.scale = ExperimentScale::quick(),
            "scaled" => options.scale = ExperimentScale::scaled(),
            "paper" => options.scale = ExperimentScale::paper(),
            "--ops" => {
                options.ops = value(&mut args, "--ops")?
                    .parse()
                    .map_err(|_| "--ops needs a number")?;
            }
            "--endurance" => {
                options.endurance = value(&mut args, "--endurance")?
                    .parse()
                    .map_err(|_| "--endurance needs a number")?;
            }
            "--report-every" => {
                options.report_every = value(&mut args, "--report-every")?
                    .parse::<u64>()
                    .map_err(|_| "--report-every needs a number")?
                    .max(1);
            }
            "--out" => options.out = Some(value(&mut args, "--out")?),
            "--check" => options.check = Some(value(&mut args, "--check")?),
            "--help" | "-h" => {
                return Err(
                    "usage: swlhealth [quick|scaled|paper] [--ops N] [--endurance N] \
                     [--report-every N] [--out FILE] | swlhealth --check FILE"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(options)
}

fn build_service(options: &Options) -> Service {
    let scale = &options.scale;
    let cache = CacheConfig::sized(CACHE_PAGES).with_hot(HotDataConfig {
        hot_threshold: 2,
        ..HotDataConfig::default()
    });
    Service::build(
        LayerKind::Ftl,
        geometry(scale, CHANNELS),
        CellKind::Mlc2.spec().with_endurance(options.endurance),
        Some(SwlConfig::new(SWL_THRESHOLD, 0).with_seed(scale.seed)),
        SwlCoordination::PerChannel,
        &SimConfig::default(),
        ServiceConfig::default()
            .with_engine(
                EngineConfig::default()
                    .with_threads(CHANNELS)
                    .with_queue_depth(8)
                    .with_health(true),
            )
            .with_cache(cache),
    )
    .expect("service build failed")
}

/// The printed per-poll report row.
fn print_report(seq: u64, ops: u64, report: &HealthReport) {
    let forecast = match report.forecast.central {
        Some(mid) => format!(
            "~{mid} pages left ({}..{})",
            report
                .forecast
                .earliest
                .map_or("?".to_owned(), |v| v.to_string()),
            report
                .forecast
                .latest
                .map_or("?".to_owned(), |v| v.to_string()),
        ),
        None => "unbounded".to_owned(),
    };
    println!(
        "#{seq:<4} ops {ops:>8}  {:<8} life {:5.1}%  wear max {} p90 {} mean {:.1}  \
         retired {}  forecast {forecast}",
        report.state.token(),
        report.life_used * 100.0,
        report.wear.max,
        report.wear.p90,
        report.wear.mean,
        report.retired,
    );
}

fn run(options: &Options) -> Result<(), String> {
    let mut service = build_service(options);
    let mut workload = HotWrites::new(service.logical_pages(), options.scale.seed);
    println!(
        "swlhealth: FTL x{CHANNELS}ch, {} blocks x {} pages, endurance {}, \
         SWL (T={SWL_THRESHOLD}, k=0, per-channel), cache {CACHE_PAGES} pages, \
         {} ops, report every {}",
        options.scale.blocks,
        options.scale.pages_per_block,
        options.endurance,
        options.ops,
        options.report_every,
    );

    let blocks = service
        .health_runtime()
        .expect("health was enabled")
        .blocks() as u64;
    let mut jsonl = vec![json::object(|o| {
        o.str("kind", "swlhealth_meta")
            .u64("schema", SCHEMA)
            .u64("blocks", blocks)
            .u64("endurance", u64::from(options.endurance))
            .u64("report_every", options.report_every)
            .u64("ops", options.ops);
    })];

    let mut seq = 0u64;
    let mut done = 0u64;
    let mut last_state: Option<u64> = None;
    let mut last_report = None;
    while done < options.ops {
        let burst = options.report_every.min(options.ops - done);
        for _ in 0..burst {
            let (lba, data) = workload.next_write();
            service
                .write(lba, &data)
                .map_err(|e| format!("write failed: {e}"))?;
        }
        done += burst;
        // Quiesce before sampling: the report then reflects exactly the
        // ops accepted so far, independent of worker-thread progress.
        service.flush().map_err(|e| format!("flush failed: {e}"))?;
        let report = service.stats().expect("health was enabled");
        let state = report.state.code();
        if let Some(from) = last_state {
            if from != state {
                println!(
                    "ALERT at op {done}: health {} -> {}",
                    code_token(from),
                    report.state.token()
                );
                jsonl.push(export::alert_line(seq, done, from, state));
            }
        }
        last_state = Some(state);
        print_report(seq, done, &report);
        jsonl.push(export::health_line(seq, Stamp::Ops(done), &report));
        seq += 1;
        last_report = Some(report);
    }
    let report = last_report.expect("at least one poll ran");
    jsonl.push(json::object(|o| {
        o.str("kind", "final")
            .u64("ops", done)
            .u64("host_pages", report.host_pages)
            .u64("state", report.state.code())
            .f64("life_used", report.life_used, 4)
            .u64("wear_max", report.wear.max)
            .u64("retired", report.retired);
    }));
    println!(
        "final: {} after {} ops — life {:.1}%, wear max {}/{}, {} retired, \
         {} gc / {} swl erases",
        report.state.token(),
        done,
        report.life_used * 100.0,
        report.wear.max,
        options.endurance,
        report.retired,
        report.gc_erases,
        report.swl_erases,
    );
    service.finish().map_err(|e| format!("finish failed: {e}"))?;

    if let Some(path) = &options.out {
        std::fs::write(path, jsonl.join("\n") + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {} JSONL lines to {path} (swlhealth schema v{SCHEMA})", jsonl.len());
    }
    Ok(())
}

fn code_token(code: u64) -> &'static str {
    match code {
        0 => "good",
        1 => "warn",
        _ => "critical",
    }
}

/// `swlhealth --check`: validates an export in this tool's dialect,
/// returning its health-report count or every violation found.
fn check(text: &str) -> Result<u64, Vec<String>> {
    export::check(text, &SWLHEALTH)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &options.check {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("swlhealth: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match check(&text) {
            Ok(reports) => {
                println!("swlhealth: OK — {reports} health report(s), schema v{SCHEMA}");
                ExitCode::SUCCESS
            }
            Err(errors) => {
                for error in &errors {
                    eprintln!("swlhealth: {error}");
                }
                ExitCode::FAILURE
            }
        };
    }
    if let Err(message) = run(&options) {
        eprintln!("swlhealth: {message}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::check;

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
        let bad = health(0, 1000, 0, 12).replace("\"life_used\":0.5000", "\"life_used\":0.9000");
        let text = format!("{META}\n{bad}\n{}\n", final_line(1000, 0, 12));
        assert!(check(&text).is_err());
    }

    #[test]
    fn rejects_partial_forecast_bands_and_missing_final() {
        let partial = health(0, 1000, 0, 3)
            .replace(",\"cache_absorption\":0.25}", ",\"cache_absorption\":0.25,\"forecast_central\":500}");
        let text = format!("{META}\n{partial}\n{}\n", final_line(1000, 0, 3));
        assert!(check(&text).is_err());
        assert!(check(&format!("{META}\n{}\n", health(0, 1000, 0, 3))).is_err());
        assert!(check("").is_err());
    }
}
