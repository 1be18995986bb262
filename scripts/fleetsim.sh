#!/usr/bin/env bash
# Fleet simulation gate: run the thousand-VM end-to-end benchmark
# (`ext_fleetsim`) twice and hold it to its contract — the binary's own
# assertions must pass (>= 1024 VMs across >= 32 machines placed and
# executed, simulation reports bit-identical between serial and per-core
# parallel machine execution in both modes, work conservation never
# slower than capped, simulated per-run total within an order of
# magnitude of the predicted objective), the FLEETSIM_FINGERPRINT lines
# (placement + both simulation modes) must be identical across the two
# processes *and* equal to the committed
# tests/golden/fleetsim_fingerprints.txt, and the BENCH_fleetsim.json
# artifact must be written.
#
# Runs as part of `scripts/tier1.sh`, or directly. Artifacts land in
# FLEETSIM_DIR (default: a throwaway temp directory; set FLEETSIM_DIR=.
# to keep BENCH_fleetsim.json in the repo root).
set -euo pipefail
cd "$(dirname "$0")/.."
repo_root="$PWD"

out_dir="${FLEETSIM_DIR:-$(mktemp -d)}"
cleanup() {
  if [[ -z "${FLEETSIM_DIR:-}" ]]; then rm -rf "$out_dir"; fi
}
trap cleanup EXIT

cargo build --release -p dbvirt-bench --bin ext_fleetsim

(cd "$out_dir" && "$repo_root/target/release/ext_fleetsim" | tee run_a.log)
(cd "$out_dir" && "$repo_root/target/release/ext_fleetsim" > run_b.log)

# Cross-process determinism: placement and simulation fingerprints of two
# independent runs must match line for line.
grep '^FLEETSIM_FINGERPRINT' "$out_dir/run_a.log" > "$out_dir/fp_a.txt"
grep '^FLEETSIM_FINGERPRINT' "$out_dir/run_b.log" > "$out_dir/fp_b.txt"
if [[ "$(wc -l < "$out_dir/fp_a.txt")" -lt 3 ]]; then
  echo "FAIL: ext_fleetsim printed fewer than 3 fingerprint lines (placement + 2 modes)" >&2
  exit 1
fi
if ! diff -u "$out_dir/fp_a.txt" "$out_dir/fp_b.txt"; then
  echo "FAIL: fleet simulation diverged between two identical runs" >&2
  exit 1
fi
# Cross-version identity: placement and simulations are the committed ones.
if ! diff -u tests/golden/fleetsim_fingerprints.txt "$out_dir/fp_a.txt"; then
  echo "FAIL: fleet simulation differs from tests/golden/fleetsim_fingerprints.txt" >&2
  exit 1
fi

if [[ ! -s "$out_dir/BENCH_fleetsim.json" ]]; then
  echo "FAIL: ext_fleetsim did not write BENCH_fleetsim.json" >&2
  exit 1
fi
# The telemetry sink must have flushed the version-1 trace document.
if [[ ! -s "$out_dir/fleetsim_trace.json" ]]; then
  echo "FAIL: the telemetry sink wrote no fleetsim_trace.json" >&2
  exit 1
fi
echo "fleetsim gate OK: 1024 VMs placed and executed, replayed and match the committed fingerprints"
