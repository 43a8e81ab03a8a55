//! The traced binary: the same program with a counting global allocator,
//! so allocation counts never cost the untraced numbers anything.

use layerbench::alloc::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    layerbench::cli::main(true)
}
