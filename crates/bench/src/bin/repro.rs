//! `repro <artifact…|all> [quick|scaled|paper] [--out DIR | --check DIR]` —
//! regenerates the paper's tables and figures, the extension studies and
//! every other checked-in result (see [`flash_bench::repro`]). Exit 1:
//! `--check` found a difference; exit 2: usage.

use std::process::ExitCode;

use flash_bench::repro::{run, ARTIFACTS, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut std::io::stdout()) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(n) => {
            eprintln!("repro: {n} artifact(s) differ from their files");
            ExitCode::from(1)
        }
        Err(what) => {
            let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
            eprintln!("repro: {what}\n{USAGE}\nartifacts: {}", names.join(" "));
            ExitCode::from(2)
        }
    }
}
