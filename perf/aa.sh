#!/usr/bin/env bash
# perf/aa.sh [--seed S] [--seconds T] — the A/A check: two full sets of the
# same build at the same seed, measured side by side (run.sh alternates
# between them pass by pass) and compared with perf/compare.sh. The best runs
# of the timing metrics and of peak_rss_mb must agree within their bounds;
# advised_cost_s, advised_vs_default and every exact per-layer metric must be
# identical in every run.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
status=0
perf/run.sh "$@" --set perf/out/aa_a.json --set perf/out/aa_b.json >/dev/null || status=1
perf/compare.sh perf/out/aa_a.json perf/out/aa_b.json || status=1
exit $status
