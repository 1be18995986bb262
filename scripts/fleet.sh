#!/usr/bin/env bash
# Fleet placement gate: run the pinned placement ladder (`ext_fleet`)
# twice and hold it to its contract — the binary's own assertions must
# pass (local search strictly improves greedy on the pinned 64-VM /
# 8-machine fleet, LP optimality gap <= 25% on every configuration, the
# M=1 placement bit-identical to the single-machine DP recommendation,
# placements identical at pre-warm parallelism 1 and 0), the per-shape
# FLEET_FINGERPRINT lines must be identical across the two processes *and*
# equal to the committed tests/golden/fleet_fingerprints.txt (a change
# that alters every placement the same way in both runs must not pass),
# and the BENCH_fleet.json artifact must be written.
#
# Runs as part of `scripts/tier1.sh`, or directly. Artifacts land in
# FLEET_DIR (default: a throwaway temp directory; set FLEET_DIR=. to keep
# BENCH_fleet.json in the repo root).
set -euo pipefail
cd "$(dirname "$0")/.."
repo_root="$PWD"

out_dir="${FLEET_DIR:-$(mktemp -d)}"
cleanup() {
  if [[ -z "${FLEET_DIR:-}" ]]; then rm -rf "$out_dir"; fi
}
trap cleanup EXIT

cargo build --release -p dbvirt-bench --bin ext_fleet

(cd "$out_dir" && "$repo_root/target/release/ext_fleet" | tee run_a.log)
(cd "$out_dir" && "$repo_root/target/release/ext_fleet" > run_b.log)

# Cross-process determinism: the placement fingerprints of two
# independent runs must match line for line.
grep '^FLEET_FINGERPRINT' "$out_dir/run_a.log" > "$out_dir/fp_a.txt"
grep '^FLEET_FINGERPRINT' "$out_dir/run_b.log" > "$out_dir/fp_b.txt"
if [[ ! -s "$out_dir/fp_a.txt" ]]; then
  echo "FAIL: ext_fleet printed no fingerprint lines" >&2
  exit 1
fi
if ! diff -u "$out_dir/fp_a.txt" "$out_dir/fp_b.txt"; then
  echo "FAIL: fleet placements diverged between two identical runs" >&2
  exit 1
fi
# Cross-version identity: the placements are the committed ones.
if ! diff -u tests/golden/fleet_fingerprints.txt "$out_dir/fp_a.txt"; then
  echo "FAIL: fleet placements differ from tests/golden/fleet_fingerprints.txt" >&2
  exit 1
fi

if [[ ! -s "$out_dir/BENCH_fleet.json" ]]; then
  echo "FAIL: ext_fleet did not write BENCH_fleet.json" >&2
  exit 1
fi
echo "fleet gate OK: every pin held, placements replayed and match the committed fingerprints"
