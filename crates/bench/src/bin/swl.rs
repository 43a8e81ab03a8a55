//! `swl <trace|stat|span|top|check> …` — produces, inspects and
//! gates the stack's JSONL streams (see [`flash_bench::swl`]). Exit 1: the
//! subcommand failed or `check` found violations; exit 2: usage.

use std::process::ExitCode;

use flash_bench::swl::{run, Error};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
    match run(&args, &mut stdin.lock(), &mut stdout.lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Failed(message)) => {
            for line in message.lines() {
                eprintln!("swl {}: {line}", args[0]);
            }
            ExitCode::from(1)
        }
        Err(Error::Usage(what)) => {
            eprintln!("swl: {what}");
            ExitCode::from(2)
        }
    }
}
