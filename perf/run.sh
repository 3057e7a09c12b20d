#!/usr/bin/env bash
# Build perf_bench from source and run it from the repo root.
#
#   perf/run.sh                      every workload untraced, then traced; all tables
#   perf/run.sh --repeat 2           two untraced sets and their spread against the bounds
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#                                    one run; its last line of output is the result JSON
#
# See perf/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# Quiet, so that standard output carries only the benchmark's report.
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perf_bench" "$@"
