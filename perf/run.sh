#!/usr/bin/env bash
# The benchmark's one command: builds dbvirt-perf from source and runs one
# process per workload.
#
#   perf/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1]
#   perf/run.sh [--seed S] [--seconds T] [--set FILE]...
#
# With --workload (how the benchmark driver calls it) one workload runs once,
# untraced or traced, and the last line it prints is the JSON object the
# driver parses. Without, a whole *set* is measured for perf/compare.sh:
# every workload $RUNS times untraced — interleaved, so each workload's runs
# are spread over the whole session and see the host at different speeds —
# and once traced, collected into one file (default perf/out/set.json).
# Several --set files are measured side by side, pass by pass in alternating
# order, so the host's drift over minutes falls on all of them alike
# (perf/aa.sh). Exits non-zero if the build fails or a run fails a
# correctness check.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Untraced runs per workload in a set: compare takes the best of them and
# asks that another confirms it.
RUNS=5

workload="" trace=0 sets=() pass=()
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
    case "$1" in
        --workload) workload="$2" ;;
        --trace) trace="$2" ;;
        --set) sets+=("$2") ;;
        *) pass+=("$1" "$2") ;;
    esac
    shift 2
done

# The driver points CARGO_TARGET_DIR inside its checkout; by hand the
# repository's own target directory is shared.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/dbvirt-perf"

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" --trace "$trace" ${pass[@]+"${pass[@]}"}
fi

[ ${#sets[@]} -gt 0 ] || sets=(perf/out/set.json)
workloads=(cold_advise whatif_sweep fleet_place control_loop joint_design)
status=0 files=()
for run in $(seq "$RUNS"); do
    order=("${!sets[@]}")
    [ $((run % 2)) = 1 ] || order=($(printf '%s\n' "${order[@]}" | tac))
    for s in "${order[@]}"; do
        for w in "${workloads[@]}"; do
            "$bin" --workload "$w" --trace 0 ${pass[@]+"${pass[@]}"} || status=1
            mv "perf/out/$w.json" "perf/out/$w.$s.$run.json"
            files[s]+=" perf/out/$w.$s.$run.json"
        done
    done
done
for s in "${!sets[@]}"; do
    for w in "${workloads[@]}"; do
        "$bin" --workload "$w" --trace 1 ${pass[@]+"${pass[@]}"} || status=1
        mv "perf/out/traced_$w.json" "perf/out/traced_$w.$s.json"
        files[s]+=" perf/out/traced_$w.$s.json"
    done
    "$bin" collect "${sets[$s]}" \
        --meta "commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
        --meta "nproc=$(nproc)" \
        --meta "rustc=$(rustc --version)" \
        --meta "date=$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
        ${files[s]}
    echo "wrote ${sets[$s]}" >&2
done
exit $status
