#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it. Every flag goes to
# the binary; see README.md or `run.sh --help`.
#
#   benchmark/run.sh                       all workloads, end to end
#   benchmark/run.sh --trace               ... plus the per-layer metrics
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one run; last stdout line is the result
#   benchmark/run.sh --quick               small sizes (used by `cargo test`)
#   benchmark/run.sh --selfcheck           run the suite twice, then `agree`
#   benchmark/run.sh --seed 2 > set.json   save a result set (logs go to stderr)
#   benchmark/run.sh agree A.json B.json   compare two saved result sets
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
exec "$target/release/atc-benchmark" \
    --out "$here/out" --spec "$root/BENCHMARK.json" "$@"
