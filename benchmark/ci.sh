#!/usr/bin/env bash
# build -> unit tests -> check -> run --smoke. For a later change to wire
# into .github/workflows/ci.yml; run from anywhere.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml"
"$target/release/layerbench" check
"$target/release/layerbench" run --smoke
