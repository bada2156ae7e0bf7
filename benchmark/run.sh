#!/usr/bin/env bash
# Build orsp-replicad, orsp-proxy and the benchmark in release mode, then
# run it. Run from the repository root:
#
#   benchmark/run.sh                          all four workloads, end-to-end metrics
#   benchmark/run.sh --workload W --seed N    one workload (last line: one JSON result)
#   benchmark/run.sh --workload W --trace 1   per-layer metrics and the budget table
#   benchmark/run.sh --quick                  2 s windows, smoke test
#   benchmark/run.sh --selfcheck              the suite twice; non-zero if they disagree
#
# The build's output goes to $CARGO_TARGET_DIR if set, else benchmark/target.
set -euo pipefail

here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"

# One cargo invocation for all three binaries: the daemons are built from
# the same sources, with the same (default release) profile, as the
# workspace builds them. Its chatter goes to stderr; stdout is the report.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" \
    -p orsp-benchmark -p orsp-replica -p orsp-proxy 1>&2

exec "$target/release/orsp-benchmark" "$@"
