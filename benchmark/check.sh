#!/usr/bin/env bash
# Build the benchmark, then run its unit tests, the toy-size smoke test of
# every workload, the BENCHMARK.json schema test and the binary's output
# contract test. For a CI job to call; takes about a minute.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline
