//! The `repro` driver: `--check` against the checked-in closed-form tables,
//! the results file names, the sweep sharing of Figures 6/7 and
//! Table 4, and the usage errors.

use std::path::{Path, PathBuf};

use flash_bench::repro::{run, Context, ARTIFACTS};
use flash_sim::experiments::ExperimentScale;

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Runs the driver; its exit status and everything it wrote to stdout.
fn repro(args: &[&str]) -> (Result<usize, String>, String) {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let mut stdout = Vec::new();
    let status = run(&args, &mut stdout);
    (
        status,
        String::from_utf8(stdout).expect("repro writes UTF-8"),
    )
}

#[test]
fn check_passes_on_the_checked_in_tables_and_names_a_perturbed_line() {
    let dir = results();
    let (status, stdout) = repro(&[
        "table1",
        "table2",
        "table3",
        "--check",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(status, Ok(0), "{stdout}");
    assert_eq!(stdout.lines().count(), 3);
    assert!(
        stdout.lines().all(|line| line.starts_with("ok ")),
        "{stdout}"
    );

    // A copy with one byte of table2's line 5 changed: the check names the
    // artifact, the line and both versions, and still passes the other two.
    let copy = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_check");
    std::fs::create_dir_all(&copy).unwrap();
    for name in ["table1.txt", "table2.txt", "table3.txt"] {
        std::fs::copy(dir.join(name), copy.join(name)).unwrap();
    }
    let table2 = std::fs::read_to_string(copy.join("table2.txt")).unwrap();
    let line5 = table2.lines().nth(4).unwrap();
    assert!(line5.contains("0.946%"), "{line5}");
    std::fs::write(
        copy.join("table2.txt"),
        table2.replacen("0.946%", "0.947%", 1),
    )
    .unwrap();
    let (status, stdout) = repro(&[
        "table1",
        "table2",
        "table3",
        "--check",
        copy.to_str().unwrap(),
    ]);
    assert_eq!(status, Ok(1), "{stdout}");
    assert!(stdout.contains("DIFFERS table2: "), "{stdout}");
    assert!(stdout.contains("table2.txt line 5\n"), "{stdout}");
    assert!(stdout.contains(&format!(
        "file: Some({:?})",
        line5.replace("0.946%", "0.947%")
    )));
    assert!(
        stdout.contains(&format!("repro: Some({line5:?})")),
        "{stdout}"
    );
    assert_eq!(
        stdout
            .lines()
            .filter(|line| line.starts_with("ok "))
            .count(),
        2
    );

    // A file that merely stops early differs too: at the line it lacks.
    std::fs::write(copy.join("table2.txt"), table2.trim_end_matches('\n')).unwrap();
    let (status, stdout) = repro(&["table2", "--check", copy.to_str().unwrap()]);
    assert_eq!(status, Ok(1), "{stdout}");
    let last = table2.lines().count() + 1;
    assert!(
        stdout.contains(&format!("line {last}\n   file: None\n  repro: Some(\"\")")),
        "{stdout}"
    );
}

#[test]
fn out_writes_what_print_prints_under_the_results_file_names() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_out");
    std::fs::create_dir_all(&dir).unwrap();
    let (status, _) = repro(&[
        "table1",
        "lifetime",
        "quick",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(status, Ok(0));
    let (_, table1) = repro(&["table1"]);
    let (_, lifetime) = repro(&["lifetime", "quick"]);
    assert!(
        table1.starts_with("Table 1: BET size"),
        "one artifact prints bare: {table1}"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("table1.txt")).unwrap(),
        table1
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("lifetime_quick.txt")).unwrap(),
        lifetime
    );
    // A missing file differs; a directory that is not there cannot be
    // written to. Neither is a panic.
    let missing = dir.join("no_such_dir");
    let (status, stdout) = repro(&["table3", "--check", missing.to_str().unwrap()]);
    assert_eq!(status, Ok(1));
    assert!(
        stdout.starts_with("DIFFERS table3: cannot read "),
        "{stdout}"
    );
    let (status, _) = repro(&["table3", "--out", missing.to_str().unwrap()]);
    assert!(status.unwrap_err().starts_with("cannot write "));
    // A fixed-shape run has one file, a scaled one a file per scale, and
    // every artifact's quick file is checked in.
    for (name, file) in [
        ("channels", "channels_quick.txt"),
        ("cache", "cache_quick.txt"),
        ("snapshots", "snapshots.txt"),
        ("crashmc", "crashmc.txt"),
        ("health", "health.txt"),
    ] {
        let artifact = ARTIFACTS.iter().find(|a| a.name == name).unwrap();
        assert_eq!(artifact.file_name("quick"), file);
    }
    for artifact in &ARTIFACTS {
        let file = artifact.file_name("quick");
        assert!(results().join(&file).is_file(), "{file}");
    }
    // Several artifacts on stdout are told apart by a header line each.
    let (_, both) = repro(&["table1", "lifetime", "quick"]);
    assert_eq!(
        both,
        format!("==> table1 <==\n{table1}==> lifetime <==\n{lifetime}")
    );
}

#[test]
fn figures_6_7_and_table_4_share_one_overhead_sweep_per_layer() {
    // The horizon is 10 years x endurance / 10 000: ~0.5 M events a run.
    let tiny = ExperimentScale {
        blocks: 32,
        pages_per_block: 8,
        endurance: 4,
        seed: 7,
    };
    let render = |ctx: &mut Context, name: &str| {
        let artifact = ARTIFACTS.iter().find(|a| a.name == name).unwrap();
        (artifact.render)(ctx)
    };
    // Baseline + 16 (T, k) points per layer, whichever artifact asks first —
    // not 17 + 17 + 5 as when each binary ran its own.
    let mut ctx = Context::new(tiny);
    let table4 = render(&mut ctx, "table4");
    assert_eq!(ctx.horizon_runs(), 2 * 17);
    let fig6 = render(&mut ctx, "fig6");
    let fig7 = render(&mut ctx, "fig7");
    assert_eq!(ctx.horizon_runs(), 2 * 17);
    assert!(fig6.starts_with("Figure 6: ") && fig7.starts_with("Figure 7: "));
    assert_eq!(
        table4
            .lines()
            .filter(|line| line.contains("+ SWL +"))
            .count(),
        8
    );
}

#[test]
fn unknown_artifacts_scales_and_options_are_usage_errors() {
    for args in [
        &["fig8"][..],
        &["fig5", "huge"],
        &["quick"],
        &[],
        &["fig5", "--check"],
        &["table1", "--frobnicate"],
        &["crashmc", "huge"],
        &["snapshots", "--check"],
        &["channels", "--frobnicate"],
        &["cache", "--out"],
    ] {
        let (status, stdout) = repro(args);
        assert!(status.is_err(), "{args:?} must be refused, got {status:?}");
        assert_eq!(stdout, "", "{args:?} must not run anything");
    }
    for names in [["table1", "fig8"], ["crashmc", "fig8"], ["cache", "fig8"]] {
        let (status, _) = repro(&names);
        assert_eq!(status, Err("unknown artifact or scale \"fig8\"".to_owned()));
    }
    let (status, _) = repro(&["snapshots", "channels", "scaled", "fig8"]);
    assert_eq!(status, Err("unknown artifact or scale \"fig8\"".to_owned()));
}
