//! The `swl` driver: `check` telling the two kinds of file apart and
//! naming the line a mutation broke, `span` against its golden, fresh
//! `trace` streams through `check` and `stat --json`, and the usage errors.

use std::path::{Path, PathBuf};

use flash_bench::swl::{run, Error};
use flash_telemetry::json::{field, parse_flat};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn fixture_text(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).unwrap()
}

/// Runs the driver on `stdin`; how it ended and everything it wrote to
/// stdout.
fn swl(args: &[&str], stdin: &str) -> (Result<(), Error>, String) {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let mut stdout = Vec::new();
    let status = run(&args, &mut stdin.as_bytes(), &mut stdout);
    (status, String::from_utf8(stdout).expect("swl writes UTF-8"))
}

/// `swl check -` on `text`: the violations it reports.
fn violations(text: &str) -> String {
    match swl(&["check", "-"], text) {
        (Err(Error::Failed(message)), stdout) => {
            assert_eq!(stdout, "", "a failed check prints no OK line");
            message
        }
        (status, stdout) => panic!("check must fail, got {status:?}: {stdout}"),
    }
}

/// `text` with `from` replaced by `to` on its 1-based line `at` (which must
/// contain `from`).
fn mutate(text: &str, at: usize, from: &str, to: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert!(lines[at - 1].contains(from), "line {at}: {}", lines[at - 1]);
    lines[at - 1] = lines[at - 1].replacen(from, to, 1);
    lines.join("\n") + "\n"
}

/// `text` with `line` inserted as its line 4.
fn splice(text: &str, line: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(3, line);
    lines.join("\n") + "\n"
}

#[test]
fn check_reads_the_kind_of_each_fixture_off_its_first_line() {
    for (name, told) in [
        (
            "span_smoke.jsonl",
            "\"e\":\"meta\" event stream, 802 events",
        ),
        (
            "channel_smoke.jsonl",
            "\"e\":\"meta\" event stream, 21249 events",
        ),
        (
            "engine_smoke.jsonl",
            "\"kind\":\"engtop_meta\" export, 5 sample line(s), schema v4",
        ),
    ] {
        let path = fixture(name);
        let (status, stdout) = swl(&["check", path.to_str().unwrap()], "");
        assert_eq!(status, Ok(()), "{name}: {stdout}");
        assert!(stdout.starts_with("swl check: OK — "), "{name}: {stdout}");
        assert!(stdout.contains(told), "{name}: {stdout}");
        // The same bytes on stdin, with blank lines before the header.
        let (status, piped) = swl(&["check"], &format!("\n\n{}", fixture_text(name)));
        assert_eq!((status, piped), (Ok(()), stdout), "{name}");
    }
}

#[test]
fn check_names_the_line_a_one_field_mutation_broke() {
    for (name, at, from, to, told) in [
        // The two header kinds…
        (
            "span_smoke.jsonl",
            1,
            "\"v\":4",
            "\"v\":3",
            "line 1: schema version 3",
        ),
        (
            "engine_smoke.jsonl",
            1,
            "\"schema\":4",
            "\"schema\":3",
            "line 1: schema 3, this build speaks v4",
        ),
        // …and one body line of each.
        (
            "span_smoke.jsonl",
            4,
            "\"program\"",
            "\"programme\"",
            "line 4: unknown event kind",
        ),
        (
            "engine_smoke.jsonl",
            2,
            "\"busy_frac\":0.0000",
            "\"busy_frac\":1.5000",
            "line 2: busy_frac 1.5 outside [0, 1]",
        ),
        // The served lines `swl top` writes beside each sample.
        (
            "engine_smoke.jsonl",
            32,
            "\"dirty\":26",
            "\"dirty\":33",
            "line 32: cache dirty 33 > capacity 32",
        ),
        (
            "engine_smoke.jsonl",
            33,
            "\"seq\":1",
            "\"seq\":7",
            "line 33: health seq 7, expected 1",
        ),
        (
            "engine_smoke.jsonl",
            33,
            "\"state\":0",
            "\"state\":3",
            "line 33: state 3 not in 0..=2",
        ),
    ] {
        let broken = mutate(&fixture_text(name), at, from, to);
        let message = violations(&broken);
        assert!(message.contains(told), "{name} line {at}: {message}");
    }
    // A header of no known kind is refused by naming the two that are.
    let message = violations(&mutate(
        &fixture_text("engine_smoke.jsonl"),
        1,
        "engtop_meta",
        "top_meta",
    ));
    for header in ["\"e\":\"meta\"", "\"kind\":\"engtop_meta\""] {
        assert!(
            message.starts_with("line 1: ") && message.contains(header),
            "{message}"
        );
    }
    assert_eq!(violations(""), "empty input");
}

#[test]
fn check_fails_a_null_a_repeated_key_and_an_id_the_header_does_not_cover() {
    // The writer's `null` for a non-finite float parses; the rule that
    // needs the number there still names it.
    let nan = mutate(
        &fixture_text("engine_smoke.jsonl"),
        33,
        "\"wear_mean\":37.750",
        "\"wear_mean\":null",
    );
    assert_eq!(
        violations(&nan).lines().next(),
        Some("line 33: health line missing numeric \"wear_mean\"")
    );

    let smoke = fixture_text("span_smoke.jsonl");
    let twice = violations(&splice(&smoke, "{\"e\":\"retire\",\"b\":1,\"b\":2}"));
    assert_eq!(twice, "line 4: malformed JSONL line: duplicate key \"b\"");

    // A 64-block log: neither id may size anything.
    for (line, told) in [
        (
            "{\"e\":\"erase\",\"b\":4000000000,\"w\":1,\"c\":\"gc\"}",
            "line 4: block 4000000000 out of range: the meta line declares 64 blocks",
        ),
        (
            "{\"e\":\"retire\",\"b\":64}",
            "line 4: block 64 out of range: the meta line declares 64 blocks",
        ),
        (
            "{\"e\":\"chan\",\"ch\":4000000000}",
            "line 4: channel 4000000000 out of range: the meta line declares 64 blocks",
        ),
    ] {
        let hostile = splice(&smoke, line);
        assert_eq!(violations(&hostile), told);
        for sub in ["stat", "span"] {
            let (status, stdout) = swl(&[sub, "-"], &hostile);
            assert_eq!(
                status,
                Err(Error::Failed(told.to_owned())),
                "{sub}: {stdout}"
            );
        }
    }
}

#[test]
fn span_draws_the_channel_fixture_as_its_golden() {
    let path = fixture("channel_smoke.jsonl");
    let (status, stdout) = swl(&["span", path.to_str().unwrap(), "--top", "5"], "");
    assert_eq!(status, Ok(()));
    assert_eq!(stdout, fixture_text("channel_smoke.span.txt"));
}

#[test]
fn a_fresh_trace_passes_check_and_stat_counts_its_lines() {
    for config in [
        &["--layer", "ftl", "--swl", "100:0"][..],
        &["--layer", "nftl", "--no-swl"],
        &["--channels", "4"],
    ] {
        let mut args = vec![
            "trace", "--scale", "quick", "--events", "3000", "--out", "-",
        ];
        args.extend_from_slice(config);
        let (status, stream) = swl(&args, "");
        assert_eq!(status, Ok(()), "{config:?}");
        assert!(stream.starts_with("{\"e\":\"meta\",\"v\":4,"), "{config:?}");

        let (status, stdout) = swl(&["check", "-"], &stream);
        assert_eq!(status, Ok(()), "{config:?}: {stdout}");
        let (status, summary) = swl(&["stat", "-", "--json"], &stream);
        assert_eq!(status, Ok(()), "{config:?}");
        let summary = parse_flat(&summary).unwrap_or_else(|e| panic!("{config:?}: {e}"));
        let events = field(&summary, "events").and_then(|v| v.as_u64());
        assert_eq!(events, Some(stream.lines().count() as u64), "{config:?}");
        assert!(field(&summary, "host_writes").and_then(|v| v.as_u64()) > Some(0));
    }
}

#[test]
fn unknown_subcommands_and_flags_are_usage_errors() {
    for args in [
        &[][..],
        &["frobnicate"],
        &["stat", "--check"],
        &["stat", "--top", "3"],
        &["span", "--json"],
        &["check", "--json"],
        &["check", "a.jsonl", "b.jsonl"],
        &["span", "--top"],
        &["span", "--top", "many"],
        &["trace", "--scale", "huge"],
        &["trace", "--swl", "100"],
        &["trace", "--channels", "0"],
        &["top", "huge"],
        &["health", "quick"],
    ] {
        let (status, stdout) = swl(args, "");
        let Err(Error::Usage(usage)) = status else {
            panic!("{args:?} must be refused, got {status:?}");
        };
        assert_eq!(stdout, "", "{args:?} must not run anything");
        for sub in ["trace", "stat", "span", "top", "check"] {
            assert!(usage.lines().nth(1).unwrap().contains(sub), "{usage}");
        }
    }
    let (status, _) = swl(&["status"], "");
    assert_eq!(
        status,
        Err(Error::Usage(format!(
            "unknown subcommand \"status\"\n{}",
            flash_bench::swl::USAGE
        )))
    );
}

#[test]
fn parse_flat_keeps_integers_exact_to_u64_max() {
    let fields = parse_flat("{\"a\":9007199254740993,\"b\":18446744073709551615}").unwrap();
    assert_eq!(field(&fields, "a").unwrap().as_u64(), Some((1 << 53) + 1));
    assert_eq!(field(&fields, "b").unwrap().as_u64(), Some(u64::MAX));
    // One past `u64::MAX` is still a number, no longer an exact one.
    let fields = parse_flat("{\"c\":18446744073709551616}").unwrap();
    assert_eq!(field(&fields, "c").unwrap().as_u64(), None);
    assert_eq!(field(&fields, "c").unwrap().as_num(), Some(u64::MAX as f64));
}
