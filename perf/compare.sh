#!/usr/bin/env bash
# perf/compare.sh A.json B.json — judges set B against set A (both written by
# perf/run.sh): per workload and end-to-end metric, each set's best run, the
# ratio with its base, the gap to each set's second-best run, and
# ok / regressed / unresolved against the bound in BENCHMARK.json; numbers
# that are exact at equal inputs must match exactly. Exits non-zero if
# anything regressed.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: perf/compare.sh A.json B.json" >&2; exit 2; }
a="$(realpath "$1")" b="$(realpath "$2")"
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/dbvirt-perf" compare "$a" "$b"
