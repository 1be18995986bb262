#!/usr/bin/env bash
# Tier-1 gate: the workspace must build in release mode and every test
# must pass. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

# `cargo test` never builds the `harness = false` Criterion benches, so an
# engine or storage signature change could rot all six unnoticed: compile
# them (without running any).
cargo bench --no-run --offline -p dbvirt-bench

# perf/ is a workspace of its own, so the two commands above never compile
# it: build the benchmark against this checkout's crates and run its unit
# tests, so a signature change under crates/ cannot silently break it.
CARGO_TARGET_DIR=target cargo build --release --offline --manifest-path perf/Cargo.toml
CARGO_TARGET_DIR=target cargo test -q --release --offline --manifest-path perf/Cargo.toml

# ...and run each of its workloads once, briefly, the way the benchmark
# driver does: a failed correctness check, a panic, or a round that does not
# reproduce round 0's fingerprints makes the run exit non-zero (~30 s in
# all; the JSON results land in the ignored perf/out/).
for workload in cold_advise whatif_sweep fleet_place control_loop joint_design; do
  perf/run.sh --workload "$workload" --seconds 1 --trace 0 > /dev/null
done

# Telemetry smoke gate: the instrumented consolidation scenario must
# produce a structurally valid snapshot (zero leaked spans, >= 95% root
# coverage) and both exporter artifacts (see scripts/trace.sh).
scripts/trace.sh

# Controller smoke gate: the online control loop must hold still on a
# stationary stream, keep drifting/bursty regret within ±1pp of its
# pins, keep the adversarial alternation under the switch governor's
# 15% ceiling, complete the five-scenario fault-injected zoo under its
# pinned regret ceilings, and replay its decision trace bit-identically
# across processes and parallelism (see scripts/controller.sh).
scripts/controller.sh

# Scheduler smoke gate: the incremental event-driven co-scheduler must be
# bit-identical to the reference rescan loop on the pinned 48-config sweep,
# clear its 3x capped-mode speedup floor at 16 VMs, and replay its
# completion fingerprints bit-identically across processes (see
# scripts/sched.sh).
scripts/sched.sh

# Fleet placement gate: the placement ladder (greedy -> local search ->
# LP bound) must hold its pins — strict local-search improvement on the
# 64-VM / 8-machine fleet, LP-certified gaps <= 25% everywhere, M=1
# bit-identical to the single-machine DP, and placements replayed
# bit-identically across processes and pre-warm parallelism (see
# scripts/fleet.sh).
scripts/fleet.sh

# Fleet simulation gate: the thousand-VM end-to-end benchmark must place
# and *execute* >= 1024 VMs across >= 32 machines, keep simulation
# reports bit-identical between serial and per-core parallel machine
# execution in both modes, and replay placement + simulation
# fingerprints bit-identically across processes (see scripts/fleetsim.sh).
scripts/fleetsim.sh

# Physical-design gate: the joint index-selection + allocation advisor
# must hold its pins — joint strictly beats both marginals on the pinned
# `duo` scenario, LP-certified gaps <= 25% on every answer, zero budget
# degenerates to allocation-only bit-for-bit, and recommendations replay
# bit-identically across processes and pre-warm parallelism (see
# scripts/design.sh).
scripts/design.sh

# Opt-in chaos gate: CHAOS=1 additionally replays the calibration pipeline
# under a sweep of fault-injection seeds/intensities (see scripts/chaos.sh).
if [[ "${CHAOS:-0}" == "1" ]]; then
  scripts/chaos.sh
fi
