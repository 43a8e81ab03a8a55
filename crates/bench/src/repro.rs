//! The `repro` driver: every table, figure and extension study of the
//! reproduction, and every other deterministic number the repository checks
//! in, as one table of [`Artifact`]s, each a function from a shared
//! [`Context`] to the artifact's text.
//!
//! `repro <artifact…|all> [quick|scaled|paper] [--out DIR | --check DIR]`
//! prints the texts, writes them as `DIR/<name>_<scale>.txt` (`table1`–`3`,
//! `snapshots`, `crashmc` and `health` have a fixed shape and carry no scale
//! suffix), or compares them with those files. The context runs each shared
//! sweep once per invocation: `fig6`,
//! `fig7` and `table4` read one [`overhead_sweep`] per layer (17 horizon
//! runs), whichever of them are asked for.

use std::io;
use std::path::{Path, PathBuf};

use flash_sim::experiments::{
    attributed_horizon_run, channel_scaling, counting_wl_run, first_failure_run,
    first_failure_run_with, first_failure_sweep, lifetime_run, overhead_sweep, paper_workload,
    ExperimentScale, OverheadPoint, CHANNEL_SPAN, NANOS_PER_YEAR, PAPER_KS, PAPER_THRESHOLDS,
    TABLE4_CONFIGS,
};
use flash_sim::{
    LayerKind, SimReport, Simulator, StopCondition, SwlCoordination, TranslationLayer,
};
use flash_telemetry::SpanCause;
use flash_trace::{SegmentResampler, WorkloadSpec};
use ftl::{FtlConfig, PageMappedFtl};
use hotid::HotDataConfig;
use nand::{Geometry, Timing};
use swl_core::analysis::{table2_rows, table3_rows};
use swl_core::counting::CountingLeveler;
use swl_core::{Bet, SwlConfig};

use crate::crash::{swl_config, Stack, Sweep, SweepStats, BLOCKS, CHANNELS, PAGES};
use crate::{default_horizon_ns, format_table, scale_named};

mod cache;
mod health;
mod snapshots;

const LAYERS: [LayerKind; 2] = [LayerKind::Ftl, LayerKind::Nftl];

/// One regenerable text: a table or figure of the paper, or an extension
/// study.
pub struct Artifact {
    /// Name on the command line and stem of the results file.
    pub name: &'static str,
    /// Whether the text depends on the scale (closed-form tables and the
    /// fixed-shape runs do not).
    pub scaled: bool,
    /// The artifact's text, exactly as the driver prints it.
    pub render: Render,
}

/// A function from the shared run context to an artifact's text.
pub type Render = fn(&mut Context) -> String;

/// Every artifact, in the order `all` runs them.
pub static ARTIFACTS: [Artifact; 17] = [
    Artifact::new("table1", false, table1),
    Artifact::new("table2", false, table2),
    Artifact::new("table3", false, table3),
    Artifact::new("table4", true, table4),
    Artifact::new("fig5", true, fig5),
    Artifact::new("fig6", true, fig6),
    Artifact::new("fig7", true, fig7),
    Artifact::new("ablation", true, ablation),
    Artifact::new("lifetime", true, lifetime),
    Artifact::new("latency", true, latency),
    Artifact::new("hotcold", true, hotcold),
    Artifact::new("baseline_wl", true, baseline_wl),
    Artifact::new("channels", true, channels),
    Artifact::new("cache", true, |ctx| cache::render(&ctx.scale, &ctx.chip())),
    Artifact::new("snapshots", false, |_| snapshots::render()),
    Artifact::new("crashmc", false, crashmc),
    Artifact::new("health", false, |_| health::render()),
];

impl Artifact {
    const fn new(name: &'static str, scaled: bool, render: Render) -> Self {
        Self {
            name,
            scaled,
            render,
        }
    }

    /// `<name>_<scale>.txt`, or `<name>.txt` for a fixed-shape artifact.
    pub fn file_name(&self, scale_name: &str) -> String {
        match self.scaled {
            true => format!("{}_{scale_name}.txt", self.name),
            false => format!("{}.txt", self.name),
        }
    }
}

/// What one invocation's artifacts share: the scale, and the Figure 6/7
/// overhead sweep of each layer, run on first use.
pub struct Context {
    scale: ExperimentScale,
    sweeps: [Option<(SimReport, Vec<OverheadPoint>)>; 2],
    horizon_runs: usize,
}

impl Context {
    /// A context with no sweep run yet.
    pub fn new(scale: ExperimentScale) -> Self {
        Self {
            scale,
            sweeps: [None, None],
            horizon_runs: 0,
        }
    }

    /// Horizon runs the shared sweeps have performed so far.
    pub fn horizon_runs(&self) -> usize {
        self.horizon_runs
    }

    /// The layer's baseline and its 16 `(T, k)` points over the default
    /// horizon.
    fn overhead(&mut self, kind: LayerKind) -> &(SimReport, Vec<OverheadPoint>) {
        self.sweeps[kind as usize].get_or_insert_with(|| {
            let horizon = default_horizon_ns(&self.scale);
            let sweep = overhead_sweep(kind, &self.scale, &PAPER_THRESHOLDS, &PAPER_KS, horizon)
                .expect("simulation failed");
            self.horizon_runs += 1 + sweep.1.len();
            sweep
        })
    }

    fn horizon_years(&self) -> f64 {
        default_horizon_ns(&self.scale) as f64 / NANOS_PER_YEAR
    }

    /// The `N blocks x M pages, endurance E` phrase of the headers.
    fn chip(&self) -> String {
        let s = &self.scale;
        format!(
            "{} blocks x {} pages, endurance {}",
            s.blocks, s.pages_per_block, s.endurance
        )
    }
}

/// Usage line for a command line [`run`] refuses.
pub const USAGE: &str =
    "usage: repro <artifact...|all> [quick|scaled|paper] [--out DIR | --check DIR]";

enum Mode {
    Print,
    Out(PathBuf),
    Check(PathBuf),
}

/// Runs the driver over `args` (without the program name), writing texts and
/// progress to `stdout`. Returns how many artifacts `--check` found to differ
/// from their files (each is named on `stdout` with the first differing line
/// and both versions; a file that cannot be read differs).
///
/// # Errors
///
/// An unknown artifact, scale or option, before anything runs; an `--out`
/// file that cannot be written.
///
/// # Panics
///
/// Panics when a simulation fails or `stdout` cannot be written.
pub fn run(args: &[String], stdout: &mut dyn io::Write) -> Result<usize, String> {
    let mut selected: Vec<&Artifact> = Vec::new();
    let mut scale_name = "scaled";
    let mut mode = Mode::Print;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => mode = Mode::Out(args.next().ok_or("--out needs DIR")?.into()),
            "--check" => mode = Mode::Check(args.next().ok_or("--check needs DIR")?.into()),
            "all" => selected.extend(&ARTIFACTS),
            name if scale_named(name).is_some() => scale_name = name,
            name => match ARTIFACTS.iter().find(|a| a.name == name) {
                Some(artifact) => selected.push(artifact),
                None => return Err(format!("unknown artifact or scale {name:?}")),
            },
        }
    }
    if selected.is_empty() {
        return Err("no artifact named".to_owned());
    }
    let mut ctx = Context::new(scale_named(scale_name).expect("checked above"));
    let mut differing = 0;
    for artifact in &selected {
        let text = (artifact.render)(&mut ctx);
        let file = artifact.file_name(scale_name);
        let report = match &mode {
            Mode::Print if selected.len() == 1 => text,
            Mode::Print => format!("==> {} <==\n{text}", artifact.name),
            Mode::Out(dir) => {
                let path = dir.join(&file);
                std::fs::write(&path, text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                format!("wrote {}\n", path.display())
            }
            Mode::Check(dir) => match difference(&dir.join(&file), &text) {
                None => format!("ok {}\n", dir.join(&file).display()),
                Some(lines) => {
                    differing += 1;
                    format!("DIFFERS {}: {lines}", artifact.name)
                }
            },
        };
        stdout
            .write_all(report.as_bytes())
            .expect("stdout is writable");
    }
    Ok(differing)
}

/// The first line at which the file at `path` and `text` differ, with both
/// versions; `None` when they are byte-identical.
fn difference(path: &Path, text: &str) -> Option<String> {
    let file = match std::fs::read_to_string(path) {
        Ok(file) if file == text => return None,
        Ok(file) => file,
        Err(e) => return Some(format!("cannot read {}: {e}\n", path.display())),
    };
    // A trailing newline splits off a last empty line on one side only.
    let (theirs, ours) = (file.split('\n'), text.split('\n'));
    let same = theirs
        .clone()
        .zip(ours.clone())
        .take_while(|(a, b)| a == b)
        .count();
    let show = |mut lines: std::str::Split<char>| format!("{:?}", lines.nth(same));
    Some(format!(
        "{} line {}\n   file: {}\n  repro: {}\n",
        path.display(),
        same + 1,
        show(theirs),
        show(ours)
    ))
}

fn years(report: &SimReport) -> f64 {
    report.first_failure.map(|f| f.years()).unwrap_or(f64::NAN)
}

/// The `T` × `k` grid of Figures 5–7, one row per threshold.
fn grid_table(cell: impl Fn(u64, u32) -> String) -> String {
    let rows: Vec<Vec<String>> = PAPER_THRESHOLDS
        .iter()
        .map(|&t| {
            let cells = PAPER_KS.iter().map(|&k| cell(t, k));
            std::iter::once(format!("T={t}")).chain(cells).collect()
        })
        .collect();
    format_table(&["", "k=0", "k=1", "k=2", "k=3"], &rows)
}

/// **Table 1**: BET RAM size for SLC flash of 128 MB – 4 GB at `k = 0..3`.
fn table1(_: &mut Context) -> String {
    let capacities: [(u64, &str); 6] = [
        (128 << 20, "128MB"),
        (256 << 20, "256MB"),
        (512 << 20, "512MB"),
        (1 << 30, "1GB"),
        (2 << 30, "2GB"),
        (4u64 << 30, "4GB"),
    ];
    let mut rows = Vec::new();
    for k in 0..=3u32 {
        let mut row = vec![format!("k = {k}")];
        for (bytes, _) in capacities {
            let bet = Bet::new(Geometry::large_block_slc(bytes).blocks(), k);
            row.push(format!("{}B", bet.ram_bytes()));
        }
        rows.push(row);
    }
    let labels = capacities.iter().map(|(_, label)| *label);
    let headers: Vec<&str> = std::iter::once("").chain(labels).collect();
    format!(
        "Table 1: BET size for (large-block) SLC flash memory\n\n{}\n\
         paper: 128B..4096B at k=0, halving per k step (matches)\n",
        format_table(&headers, &rows)
    )
}

/// **Table 2**: worst-case increased ratio of block erases of a 1 GB MLC×2
/// chip under static wear leveling (closed form, §4.2).
fn table2(_: &mut Context) -> String {
    let rows: Vec<Vec<String>> = table2_rows()
        .into_iter()
        .map(|r| {
            vec![
                r.hot_blocks.to_string(),
                r.cold_blocks.to_string(),
                format!("1:{}", r.cold_blocks / r.hot_blocks.max(1)),
                r.threshold.to_string(),
                format!("{:.3}%", r.increased_ratio * 100.0),
            ]
        })
        .collect();
    format!(
        "Table 2: increased ratio of block erases (worst case)\n\n{}\n\
         paper: 0.946% / 0.503% / 0.094% / 0.050%\n",
        format_table(&["H", "C", "H:C", "T", "Increased Ratio"], &rows)
    )
}

/// **Table 3**: worst-case increased ratio of live-page copyings of the same
/// chip (closed form, §4.3, N = 128).
fn table3(_: &mut Context) -> String {
    let rows: Vec<Vec<String>> = table3_rows()
        .into_iter()
        .map(|r| {
            let n_over_tl = r.pages_per_block as f64 / (r.threshold as f64 * r.avg_live_copies);
            vec![
                r.hot_blocks.to_string(),
                r.cold_blocks.to_string(),
                format!("1:{}", r.cold_blocks / r.hot_blocks.max(1)),
                r.threshold.to_string(),
                format!("{}", r.avg_live_copies),
                format!("{n_over_tl:.4}"),
                format!("{:.3}%", r.increased_ratio * 100.0),
            ]
        })
        .collect();
    let headers = ["H", "C", "H:C", "T", "L", "N/(TxL)", "Increased Ratio"];
    format!(
        "Table 3: increased ratio of live-page copyings (worst case)\n\n{}\n\
         paper: 7.572/4.002/3.786/2.001/0.757/0.400/0.379/0.200 %\n\
         (rows 2 and 4 are digit transpositions of the exact 4.020/2.010;\n\
         the T=1000 rows in the paper use the /10 approximation)\n",
        format_table(&headers, &rows)
    )
}

/// **Table 4**: average / standard deviation / maximum per-block erase
/// counts, baseline and the four SWL corner configurations of each layer's
/// overhead sweep, after a 10-(scaled-)year simulation.
fn table4(ctx: &mut Context) -> String {
    let mut rows = Vec::new();
    for kind in LAYERS {
        let (baseline, points) = ctx.overhead(kind);
        let mut row = |label: String, report: &SimReport| {
            let stats = &report.erase_stats;
            let avg = format!("{:.0}", stats.mean);
            rows.push(vec![
                label,
                avg,
                format!("{:.0}", stats.std_dev),
                stats.max.to_string(),
            ]);
        };
        row(kind.to_string(), baseline);
        for (k, t) in TABLE4_CONFIGS {
            let point = points.iter().find(|p| p.threshold == t && p.k == k);
            let label = format!("{kind} + SWL + k={k} + T={t}");
            row(label, &point.expect("corner is in the grid").report);
        }
    }
    format!(
        "Table 4: erase-count statistics after {:.2} simulated years\n\
         (scale: {}; paper thresholds are\n\
         mapped through scaled_threshold)\n\n{}\n\
         paper shape: SWL slashes Dev. and Max. unless both T and k are\n\
         large; Avg. barely moves (overhead is small).\n",
        ctx.horizon_years(),
        ctx.chip(),
        format_table(&["configuration", "Avg.", "Dev.", "Max."], &rows)
    )
}

/// **Figure 5**: first failure time (years) versus BET group factor `k` for
/// T ∈ {100, 400, 700, 1000}, for FTL (a) and NFTL (b).
fn fig5(ctx: &mut Context) -> String {
    let layers = LAYERS.map(|kind| {
        let points = first_failure_sweep(kind, &ctx.scale, &PAPER_THRESHOLDS, &PAPER_KS)
            .expect("simulation failed");
        let baseline_years = points[0].years.expect("baseline wears out");
        let grid = grid_table(|t, k| {
            let point = points.iter().find(|p| p.threshold == Some(t) && p.k == k);
            match point.expect("grid point present").years {
                Some(y) => format!("{y:.4}y ({:+.0}%)", (y / baseline_years - 1.0) * 100.0),
                None => "no failure".to_owned(),
            }
        });
        format!("{kind} (baseline: {baseline_years:.4} years)\n\n{grid}\n")
    });
    format!(
        "Figure 5: first failure time (scale: {})\n\n{}\
         paper shape: +SWL beats the baseline everywhere; best improvement\n\
         at small T (FTL additionally tolerates/profits from larger k);\n\
         paper improvements at T=100, k=0: FTL +51.2%, NFTL +87.5%.\n",
        ctx.chip(),
        layers.concat()
    )
}

/// The per-layer sections Figures 6 and 7 share: a line about the baseline
/// and the grid of one overhead ratio.
fn overhead_sections(
    ctx: &mut Context,
    baseline_line: impl Fn(&SimReport) -> String,
    ratio: impl Fn(&OverheadPoint) -> f64,
) -> String {
    let sections = LAYERS.map(|kind| {
        let (baseline, points) = ctx.overhead(kind);
        let grid = grid_table(|t, k| {
            let point = points.iter().find(|p| p.threshold == t && p.k == k);
            format!("{:+.2}%", ratio(point.expect("grid point present")) * 100.0)
        });
        format!("{kind} (baseline: {})\n\n{grid}\n", baseline_line(baseline))
    });
    sections.concat()
}

/// **Figure 6**: increased ratio of block erases due to static wear
/// leveling, versus `k`, for T ∈ {100, 400, 700, 1000}.
fn fig6(ctx: &mut Context) -> String {
    let baseline = |b: &SimReport| {
        let (erases, writes) = (b.counters.total_erases(), b.counters.host_writes);
        format!("{erases} erases over {writes} host writes")
    };
    format!(
        "Figure 6: increased ratio of block erases over {:.2} simulated years\n\n{}\
         paper shape: small overhead, shrinking with larger T and larger k;\n\
         under 3.5% for FTL and under 1% for NFTL in all cases.\n",
        ctx.horizon_years(),
        overhead_sections(ctx, baseline, |p| p.erase_overhead)
    )
}

/// **Figure 7**: increased ratio of live-page copyings due to static wear
/// leveling, over the same grid and the same runs as Figure 6.
fn fig7(ctx: &mut Context) -> String {
    let baseline = |b: &SimReport| {
        let copies = b.counters.total_live_copies();
        let l = b.counters.avg_live_copies_per_gc_erase();
        format!("{copies} live copies, L = {l:.2}")
    };
    format!(
        "Figure 7: increased ratio of live-page copyings over {:.2} simulated years\n\n{}\
         paper shape: NFTL under 1.5% everywhere; FTL much larger (its\n\
         baseline L is tiny because hot data is written in bursts, so the\n\
         full-block copies forced by SWL weigh heavily in relative terms).\n",
        ctx.horizon_years(),
        overhead_sections(ctx, baseline, |p| p.copy_overhead)
    )
}

/// One ablation section: per case, first failure of the baseline and of
/// +SWL (T=100, k=0) under a tweaked workload, and the gain. A corner that
/// over-commits the chip (very fine placement makes every NFTL virtual
/// block resident) is reported, not a crash.
fn gain_table<C: Copy>(
    (kind, scale): (LayerKind, &ExperimentScale),
    header: &str,
    cases: &[C],
    label: impl Fn(C) -> String,
    tweak: impl Fn(C, WorkloadSpec) -> WorkloadSpec,
) -> String {
    let mut rows = Vec::new();
    for &case in cases {
        let run = |swl| first_failure_run_with(kind, swl, scale, |spec| tweak(case, spec));
        let (base, swl) = (run(None), run(Some(scale.swl_config(100, 0))));
        let note = |result: &Result<SimReport, _>| match result {
            Ok(report) => format!("{:.4}", years(report)),
            Err(_) => "over-committed".to_owned(),
        };
        let gain = match (&base, &swl) {
            (Ok(b), Ok(s)) => format!("{:+.0}%", (years(s) / years(b) - 1.0) * 100.0),
            _ => "-".to_owned(),
        };
        rows.push(vec![label(case), note(&base), note(&swl), gain]);
    }
    format_table(&[header, "baseline (y)", "+SWL (y)", "gain"], &rows)
}

/// Ablation and robustness study beyond the paper's sweeps: does the
/// randomised `findex` reset matter, how cold does data have to be, how
/// sensitive is the NFTL to placement granularity, how sharp a hot set.
fn ablation(ctx: &mut Context) -> String {
    let scale = &ctx.scale;
    let mut rows = Vec::new();
    for (label, randomize) in [("randomised (paper)", true), ("sequential", false)] {
        let config = scale.swl_config(100, 0).with_randomized_reset(randomize);
        let report =
            first_failure_run(LayerKind::Ftl, Some(config), scale).expect("simulation failed");
        let dev = format!("{:.1}", report.erase_stats.std_dev);
        rows.push(vec![
            label.to_owned(),
            format!("{:.4}", years(&report)),
            dev,
        ]);
    }
    let findex = format_table(&["mode", "first failure (y)", "erase dev"], &rows);
    let frozen = gain_table(
        (LayerKind::Ftl, scale),
        "frozen",
        &[0.0, 0.25, 0.5, 0.75, 0.9],
        |frozen| format!("{:.0}%", frozen * 100.0),
        |frozen, spec| spec.with_frozen_fraction(frozen),
    );
    let chunk = gain_table(
        (LayerKind::Nftl, scale),
        "chunk",
        &[4u64, 16, 64, 256],
        |chunk| chunk.to_string(),
        |chunk, spec| spec.with_chunk_pages(chunk),
    );
    let hot_set = gain_table(
        (LayerKind::Ftl, scale),
        "hot set",
        &[(0.5, 0.6), (0.25, 0.8), (0.125, 0.9), (0.05, 0.95)],
        |(fraction, prob)| format!("{:.0}% take {:.0}%", fraction * 100.0, prob * 100.0),
        |(fraction, prob), spec| spec.with_hot_set(fraction, prob),
    );
    format!(
        "Ablation study (scale: {})\n\n\
         1. randomised vs sequential findex reset (FTL, T=100, k=0)\n\n{findex}\n\
         paper's surmise: both behave alike (cold data sits anywhere).\n\n\
         2. SWL benefit vs frozen (write-once) share of the footprint\n\n{frozen}\n\
         expected: no frozen data → nothing for SWL to unlock; gains\n\
         grow with the pinned share.\n\n\
         3. NFTL sensitivity to placement granularity (chunk pages)\n\n{chunk}\n\
         finer placement spreads hot data over more virtual blocks (more\n\
         merges, earlier failure); at the finest granularity every virtual\n\
         block is resident and the block-mapped layout runs out of space —\n\
         a real NFTL deployment limit, reported rather than hidden.\n\n\
         4. SWL benefit vs write concentration (FTL, k=0)\n\n{hot_set}",
        ctx.chip()
    )
}

/// Device-lifetime study (extension): with bad-block management a worn
/// block is retired and the device keeps serving until writes can no longer
/// be absorbed — usable lifetime beside Figure 5's first-failure metric.
fn lifetime(ctx: &mut Context) -> String {
    let scale = &ctx.scale;
    let mut rows = Vec::new();
    for kind in LAYERS {
        let t100 = Some(scale.swl_config(100, 0));
        for (label, swl) in [("baseline", None), ("+SWL (T=100, k=0)", t100)] {
            let report = lifetime_run(kind, swl, scale).expect("simulation failed");
            let first_failure = report.first_failure_years;
            rows.push(vec![
                format!("{kind} {label}"),
                format!("{:.4}", report.years),
                first_failure.map_or("-".to_owned(), |y| format!("{y:.4}")),
                report.retired_blocks.to_string(),
                report.host_writes.to_string(),
            ]);
        }
    }
    let headers = [
        "configuration",
        "lifetime (y)",
        "first failure (y)",
        "retired",
        "host writes",
    ];
    format!(
        "Device lifetime with bad-block management\n(scale: {})\n\n{}\n\
         expected: first failure is pessimistic — the device survives many\n\
         retirements; SWL extends both metrics, and evens wear so that when\n\
         blocks finally start dying, they die together (more retirements in\n\
         a shorter tail).\n",
        ctx.chip(),
        format_table(&headers, &rows)
    )
}

/// Host write-latency distribution under static wear leveling (extension):
/// the paper bounds SWL's overhead in totals; firmware also pays in tail
/// latency, when one host write absorbs a whole SWL-Procedure pass. The
/// causal span layer attributes the device time to host, GC, SWL and merge.
fn latency(ctx: &mut Context) -> String {
    let scale = &ctx.scale;
    // A shorter horizon than the endurance studies: latency distributions
    // stabilise quickly.
    let horizon = default_horizon_ns(scale) / 8;
    let mut rows = Vec::new();
    for kind in LAYERS {
        for (label, swl) in [
            ("baseline", None),
            ("+SWL T=100 k=0", Some(scale.swl_config(100, 0))),
            ("+SWL T=100 k=3", Some(scale.swl_config(100, 3))),
            ("+SWL T=1000 k=0", Some(scale.swl_config(1000, 0))),
        ] {
            let (report, metrics) =
                attributed_horizon_run(kind, swl, scale, horizon).expect("simulation runs");
            let lat = &report.write_latency;
            let us = |ns: u64| format!("{:.0}", ns as f64 / 1e3);
            let share = |cause: SpanCause| {
                let total = lat.total_ns() + report.read_latency.total_ns();
                let cause_ns = metrics.cause_latency(cause).total_ns() as f64;
                let percent = if total == 0 {
                    0.0
                } else {
                    100.0 * cause_ns / total as f64
                };
                format!("{percent:.1}")
            };
            rows.push(vec![
                format!("{kind} {label}"),
                format!("{:.0}", lat.mean_ns() / 1e3),
                us(lat.quantile(0.5)),
                us(lat.quantile(0.99)),
                us(lat.quantile(0.999)),
                us(lat.max_ns()),
                format!("{:.2}", metrics.write_amplification()),
                share(SpanCause::Gc),
                share(SpanCause::Swl),
                share(SpanCause::Merge),
            ]);
        }
    }
    let headers = [
        "configuration",
        "mean µs",
        "p50 µs",
        "p99 µs",
        "p99.9 µs",
        "max µs",
        "WA",
        "gc %",
        "swl %",
        "merge %",
    ];
    // The same exported constants the chip's busy-time model uses.
    let t = Timing::MLC2;
    format!(
        "Host write latency under static wear leveling\n\
         (scale: {}; horizon {:.3} y)\n\
         (MLC×2 device timing: read {} µs, program {} µs, erase {} µs)\n\n{}\n\
         expected: medians barely move (SWL is off the common path); the\n\
         extreme tail grows — one write absorbs a whole leveling pass. The\n\
         cause columns attribute total host-op device time: GC dominates\n\
         overhead, SWL adds a small slice (charged to merges on the NFTL).\n\
         Larger T and k trigger leveling less often but each pass moves\n\
         more data, trading tail frequency for tail depth. Real firmware\n\
         amortises this by running SWL from an idle-time timer, which the\n\
         library supports via run_swl().\n",
        ctx.chip(),
        horizon as f64 / NANOS_PER_YEAR,
        t.read_ns as f64 / 1e3,
        t.program_ns as f64 / 1e3,
        t.erase_ns as f64 / 1e3,
        format_table(&headers, &rows)
    )
}

/// Hot/cold data separation in the FTL (extension): a hot-data identifier
/// (`hotid`) sends hot and cold writes to different active blocks, so blocks
/// die together and the Cleaner copies less; measured with and without SWL.
fn hotcold(ctx: &mut Context) -> String {
    let scale = &ctx.scale;
    let mut rows = Vec::new();
    for (label, hot, swl) in [
        ("plain", false, None),
        ("+hot/cold", true, None),
        ("+SWL", false, Some(scale.swl_config(100, 0))),
        ("+hot/cold +SWL", true, Some(scale.swl_config(100, 0))),
    ] {
        let mut config = FtlConfig::default();
        if hot {
            config = config.with_hot_data(HotDataConfig::default());
        }
        let mut ftl = match swl {
            Some(s) => PageMappedFtl::with_swl(scale.device(), config, s),
            None => PageMappedFtl::new(scale.device(), config),
        }
        .expect("ftl builds");
        let spec = paper_workload(TranslationLayer::logical_pages(&ftl), scale.seed);
        let steady = SegmentResampler::from_spec(spec.clone(), 1234);
        let report = Simulator::new()
            .run(
                &mut ftl,
                spec.fill_events().chain(steady),
                StopCondition::first_failure(),
            )
            .expect("simulation runs");
        let ff = report.first_failure.expect("device wears out");
        let programs = report.counters.host_writes + report.counters.total_live_copies();
        rows.push(vec![
            label.to_owned(),
            format!("{:.4}", ff.years()),
            format!("{:.2}", report.counters.avg_live_copies_per_gc_erase()),
            format!(
                "{:.3}",
                programs as f64 / report.counters.host_writes as f64
            ),
            format!("{:.1}", report.erase_stats.std_dev),
        ]);
    }
    let headers = [
        "configuration",
        "first failure (y)",
        "L",
        "write amp",
        "erase dev",
    ];
    format!(
        "Hot/cold separation study on FTL (scale: {} blocks x {} pages,\n\
         endurance {})\n\n{}\n\
         expected: separation groups data of similar lifetime, which lowers\n\
         L under mixed streams (clearest at quick scale) and composes with\n\
         SWL on first-failure time; under heavy SWL churn the cold stream's\n\
         packed blocks can raise L even as lifetime still improves.\n",
        scale.blocks,
        scale.pages_per_block,
        scale.endurance,
        format_table(&headers, &rows)
    )
}

/// BET-based static wear leveling against the full erase-count-table
/// ("counting") leveler: the paper's argument for the BET is memory, so what
/// would a counter per block buy? The same workload levelled three ways —
/// none, the SW Leveler, and force-recycling the least-worn block whenever
/// `max − min` exceeds a margin — with controller RAM side by side.
fn baseline_wl(ctx: &mut Context) -> String {
    let scale = &ctx.scale;
    let bet_ram = Bet::new(scale.blocks, 0).ram_bytes();
    let counting_ram = CountingLeveler::new(scale.blocks, 2).ram_bytes();
    // Margins roughly matching the SWL trigger aggressiveness at this scale.
    let margin_tight = (scale.endurance / 64).max(2);
    let margin_loose = (scale.endurance / 8).max(4);

    let mut rows = Vec::new();
    let mut row = |label: String, report: &SimReport, ram: usize| {
        let first_failure = report.first_failure.map(|f| format!("{:.4}", f.years()));
        let copies = report.counters.total_live_copies() as f64;
        rows.push(vec![
            label,
            first_failure.unwrap_or_else(|| "-".into()),
            format!("{:.1}", report.erase_stats.std_dev),
            format!("{:.2}", copies / report.counters.host_writes.max(1) as f64),
            format!("{ram} B"),
        ]);
    };
    for kind in LAYERS {
        let base = first_failure_run(kind, None, scale).expect("baseline runs");
        row(format!("{kind} baseline"), &base, 0);
        let swl = first_failure_run(kind, Some(scale.swl_config(100, 0)), scale);
        let label = format!("{kind} +SWL (BET, T=100, k=0)");
        row(label, &swl.expect("+SWL runs"), bet_ram);
        for (name, margin) in [("tight", margin_tight), ("loose", margin_loose)] {
            let counting = counting_wl_run(kind, margin, 1000, scale).expect("counting-WL runs");
            let label = format!("{kind} +counting ({name}, d={margin})");
            row(label, &counting, counting_ram);
        }
    }
    let headers = [
        "configuration",
        "first failure (y)",
        "erase dev",
        "copies/write",
        "WL RAM",
    ];
    format!(
        "Static wear leveling: BET (paper) vs full counting table\n(scale: {})\n\n{}\n\
         the paper's point in numbers: the BET reaches comparable leveling\n\
         with {}x less controller RAM ({bet_ram} B vs {counting_ram} B at k=0; k=3 shrinks it\n\
         another 8x).\n",
        ctx.chip(),
        format_table(&headers, &rows),
        counting_ram / bet_ram.max(1)
    )
}

/// Channel scaling: the same total capacity, workload and SWL configuration
/// served by 1, 2 and 4 lanes, in virtual time. The page-granular paper
/// workload is widened to [`CHANNEL_SPAN`]-page host requests so each op
/// stripes across the lanes; the scheduler reports how much busy time the
/// lanes overlap and what that buys in pages per device millisecond. Where
/// the threaded engine's wall time goes is layerbench's (`sched.*`,
/// `engine.*`); `tests/engine_oracle.rs` pins it to this virtual-time run.
fn channels(ctx: &mut Context) -> String {
    const EVENTS: u64 = 6_000;
    let scale = &ctx.scale;
    let points = channel_scaling(LayerKind::Ftl, scale, &[1, 2, 4], Some((100, 0)), EVENTS)
        .expect("simulation failed");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.channels.to_string(),
                format!("{:.3}", p.makespan_ns as f64 / 1e6),
                p.overlap.map_or("n/a".to_owned(), |o| format!("x{o:.2}")),
                format!("{:.1}", p.pages_per_ms),
                format!("{:.1}", p.report.op_write_latency.mean_ns() / 1e3),
                format!("{:.1}", p.report.op_read_latency.mean_ns() / 1e3),
                p.report.counters.swl_erases.to_string(),
            ]
        })
        .collect();
    #[rustfmt::skip]
    let headers = ["channels", "makespan ms", "overlap", "pages/ms", "write µs", "read µs",
        "swl erases"];
    let (one, last) = (&points[0], &points[points.len() - 1]);
    let serial = match one.overlap {
        Some(overlap) if (overlap - 1.0).abs() < 1e-9 => format!("ok (x{overlap:.2})"),
        Some(overlap) => format!("FAILED (x{overlap:.3})"),
        None => "FAILED (no device time recorded)".to_owned(),
    };
    let monotone = match points
        .windows(2)
        .find(|pair| pair[1].pages_per_ms < pair[0].pages_per_ms)
    {
        None => format!(
            "ok ({} channels serve x{:.2} the single-channel throughput)",
            last.channels,
            last.pages_per_ms / one.pages_per_ms
        ),
        Some(pair) => format!(
            "FAILED ({} -> {} channels)",
            pair[0].channels, pair[1].channels
        ),
    };
    format!(
        "Channel scaling (scale: {}, split over the lanes)\n\
         FTL, {CHANNEL_SPAN}-page host requests, {EVENTS} events, SWL (T=100, k=0, global)\n\n{}\n\
         1 channel serial: {serial}\n\
         throughput monotone: {monotone}\n",
        ctx.chip(),
        format_table(&headers, &rows)
    )
}

/// Crash consistency: cut power at **every** operation boundary of a
/// GC/SWL-heavy workload, clean and torn, remount, and check the recovery
/// contract at each point ([`crate::crash`] has the checkers and the list of
/// what they check). The sweeps: the plain layers with the leveler
/// checkpointed to an NVRAM dual buffer; the 2-channel striped array, cut
/// mid-stripe; the engine with requests in flight, SWL off, per channel and
/// under Global coordination; the service write cache, whose flush is the
/// only durability ack; and the snapshot verbs, cut inside the manifest
/// commits that are each verb's atomic point. Every table cell and the
/// verdict are independent of worker threads; a violation is listed on
/// stderr with its configuration, cut point and page.
fn crashmc(_: &mut Context) -> String {
    const ROUNDS: u64 = 16;
    let on = Some(swl_config());
    let (per_channel, global) = (SwlCoordination::PerChannel, SwlCoordination::Global);
    let groups: [&[(Stack, Option<SwlConfig>)]; 4] = [
        &[(Stack::Plain, None), (Stack::Plain, on)],
        &[
            (Stack::Striped(CHANNELS), None),
            (Stack::Striped(CHANNELS), on),
        ],
        &[
            (Stack::Engine(per_channel), None),
            (Stack::Engine(per_channel), on),
            (Stack::Engine(global), on),
        ],
        &[
            (Stack::Service(per_channel), None),
            (Stack::Service(per_channel), on),
        ],
    ];
    let mut sweeps = Vec::new();
    for arms in groups {
        for kind in LAYERS {
            sweeps.extend(arms.iter().map(|&(stack, swl)| Sweep { stack, kind, swl }));
        }
    }
    let (stack, kind) = (Stack::Snapshot, LayerKind::Ftl);
    sweeps.extend([None, on].map(|swl| Sweep { stack, kind, swl }));

    let mut rows = Vec::new();
    let (mut points, mut violations, mut vanished) = (0u64, 0u64, 0u64);
    for sweep in &sweeps {
        // The run without a cut counts the operation boundaries.
        let total = sweep.total_ops(ROUNDS);
        for torn in [false, true] {
            let mut stats = SweepStats::default();
            for cut_at in 0..total {
                sweep.check(ROUNDS, cut_at, torn, &mut stats);
            }
            points += stats.points;
            violations += stats.violations();
            if matches!(sweep.stack, Stack::Service(_)) {
                vanished += stats.vanished;
            }
            for message in &stats.messages {
                eprintln!("{message}");
            }
            rows.push(vec![
                sweep.layer_label(),
                sweep.swl_label().to_owned(),
                if torn { "torn" } else { "clean" }.to_owned(),
                stats.points.to_string(),
                stats.lost_acked.to_string(),
                stats.stale_checkpoints.to_string(),
                stats.resume_failures.to_string(),
                stats.recovery_errors.to_string(),
            ]);
        }
    }
    #[rustfmt::skip]
    let headers = ["layer", "swl", "cut", "points", "lost", "stale", "resume", "recover"];
    // How many un-acked cached writes a cut lost depends on whether worker
    // threads ran; that some did, does not.
    let verdict = match (vanished, violations) {
        (0, _) => {
            "crashmc: FAILED — cache sweep never lost an un-acked write; the lossy side \
                   of the durability contract went unexercised"
        }
        (_, 0) => "crashmc: OK",
        _ => "crashmc: FAILED",
    };
    format!(
        "crashmc: exhaustive power-cut sweep ({BLOCKS} blocks x {PAGES} pages, \
         {ROUNDS} workload rounds)\n\n{}\n{points} cut points checked, {violations} violations\n\
         {verdict}\n",
        format_table(&headers, &rows)
    )
}
