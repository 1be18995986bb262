#!/usr/bin/env bash
# Chaos gate: replay the calibration pipeline under a sweep of
# fault-injection seeds and intensities (jitter, heavy-tailed spikes,
# transient failures, timeouts). Fails on any panic, unexpected error, or
# out-of-tolerance fit. The injector is seeded and stateless, so every
# failure this finds is replayable by seed.
#
# Opt-in alongside the tier-1 gate: `CHAOS=1 scripts/tier1.sh`, or run this
# script directly. Knobs: CHAOS_SEEDS (seeds per intensity, default 6),
# CHAOS_BASE_SEED (first seed, default 1).
set -euo pipefail
cd "$(dirname "$0")/.."

# The seeded-fault sweep itself (panics exit non-zero and fail the gate).
cargo run --release -p dbvirt-bench --bin ext_chaos

# The calibration-layer suites double as chaos regressions: seeded noise,
# retry, ridge, and degradation tests live there.
cargo test -q -p dbvirt-calibrate
cargo test -q --test calibration_recovery

# The online control loop under the same injector: noisy observations may
# cost accuracy (dropped observations, extra switches) but must never
# panic or wedge the loop. EXT-CONTROLLER runs a seeded sweep of three
# sensor-fault shapes — jittery probes, 30% dropouts, and 40% stale reads
# up to 4 epochs old — each across 8 seeds, beside its fault-injected
# scenario zoo.
cargo test -q --test ext_controller
cargo test -q --test controller_loop
