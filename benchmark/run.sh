#!/usr/bin/env bash
# The entry BENCHMARK.json names. Builds layerbench from source (a no-op
# once built) and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload paper_ftl --seed 42 --seconds 10 --trace 0
#
# Run from the repository root; CARGO_TARGET_DIR, when set, is honoured.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# No --locked: a later change to a crate's dependencies must still build.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/layerbench" "$@"
