#!/usr/bin/env bash
# Format, lint, test and smoke-run the benchmark package. The smoke run
# does two jobs per loop on every workload, traced and untraced, and
# fails unless each prints exactly the metric names of BENCHMARK.json,
# every output is correct and the server's op counters match.
# Everything builds in the release profile, so the four steps share one
# set of artifacts. CI can call this script as it is.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- run --smoke --out out/smoke.json
