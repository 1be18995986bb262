#!/usr/bin/env bash
# Replay gate: scripts/replay_gate.sh <bin> <LINE_PREFIX> <golden> <artifact>...
#
# Builds the dbvirt-bench binary <bin>, runs it twice in one directory and
# holds it to its contract: the binary's own assertions pass (a panic exits
# non-zero), the lines starting with <LINE_PREFIX> are identical across
# the two processes *and* equal to the committed <golden> — a change that
# shifts every answer the same way in both runs must not pass — and every
# <artifact> was written non-empty.
#
# Artifacts land in GATE_DIR (default: a throwaway temp directory; set
# GATE_DIR=. to keep them in the repo root).
set -euo pipefail
cd "$(dirname "$0")/.."
repo_root="$PWD"
bin="$1" prefix="$2" golden="$3"
shift 3

out_dir="${GATE_DIR:-$(mktemp -d)}"
cleanup() {
  if [[ -z "${GATE_DIR:-}" ]]; then rm -rf "$out_dir"; fi
}
trap cleanup EXIT

cargo build --release -p dbvirt-bench --bin "$bin"
cd "$out_dir"
"$repo_root/target/release/$bin" | tee run_a.log
"$repo_root/target/release/$bin" > run_b.log

grep "^$prefix" run_a.log > fp_a.txt || true
grep "^$prefix" run_b.log > fp_b.txt || true
if ! diff -u fp_a.txt fp_b.txt; then
  echo "FAIL: $bin diverged between two identical runs" >&2
  exit 1
fi
if ! diff -u "$repo_root/$golden" fp_a.txt; then
  echo "FAIL: $bin differs from the committed $golden" >&2
  exit 1
fi
for artifact in "$@"; do
  if [[ ! -s "$artifact" ]]; then
    echo "FAIL: $bin did not write $artifact" >&2
    exit 1
  fi
done
echo "$bin gate OK: every pin held, $(wc -l < fp_a.txt) $prefix lines replayed and match $golden"
