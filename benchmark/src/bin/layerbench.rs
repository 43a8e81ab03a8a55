//! The untraced binary: the system allocator, no counters.

fn main() -> std::process::ExitCode {
    layerbench::cli::main(false)
}
