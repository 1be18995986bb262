#!/usr/bin/env bash
# Tier-1 gate: the workspace must build in release mode and every test
# must pass. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# One layout: the workspace is rustfmt-clean (perf/ is a workspace of its
# own and formats separately).
cargo fmt --check
# One lint bar: clippy over every target, tests included, prints nothing.
# The library code of controller, sql, fleet, design and telemetry denies
# `clippy::unwrap_used` / `expect_used` in its lib.rs (tests may unwrap, by
# the root clippy.toml): every failure there is typed. The controller is
# the first crate held to that; the SQL front end the second (hostile
# statement text ends in a `SqlError`, never a panic); the fleet tier the
# third (a placement request fails with a `FleetError`); the design advisor
# the fourth (`DesignError`); telemetry the fifth (it has no failure to
# report, and a poisoned store lock is taken back, not unwrapped); the
# optimizer the sixth (an `OptError`, and pricing a checked `P` cannot fail).
cargo clippy --workspace --all-targets --offline -- -D warnings

# One of each: the worker pool, the core-count resolver, the fingerprint
# hash and the seeded stream live in crates/vmm/src/kernel.rs and nowhere
# else. Library code is what precedes a file's first top-level
# `#[cfg(test)]`, minus `//` lines; `src/**/tests.rs` files are test modules
# whose `#[cfg(test)]` sits in their parent (as in scripts/loc.sh).
kernel=crates/vmm/src/kernel.rs
lib_code() {
  awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t && !/^[[:space:]]*\/\// { print FILENAME ": " $0 }' \
    $(find crates/*/src -name '*.rs' ! -name tests.rs ! -path "$kernel")
}
# ...so the guards below see all library code only if none follows that
# line: every top-level item after a file's first `#[cfg(test)]` must be
# gated by one of its own.
late=$(awk '
  FNR == 1 { t = 0; gated = 0 }
  /^#\[cfg\(test\)\]/ { t = 1; gated = 1; next }
  /^#\[/ { next }
  /^[a-z]/ { if (t && !gated) print FILENAME ":" FNR ": " $0; gated = 0 }
' $(find crates/*/src -name '*.rs' ! -name tests.rs))
if [[ -n "$late" ]]; then
  echo "FAIL: library items after a file's first #[cfg(test)]:" >&2
  echo "$late" >&2
  exit 1
fi
for word in 'thread::scope' available_parallelism; do
  if lib_code | grep -F "$word"; then
    echo "FAIL: $word outside $kernel" >&2
    exit 1
  fi
done
for const in 'cbf2_?9ce4_?8422_?2325' 'bf58_?476d_?1ce4_?e5b9'; do
  files=$(grep -rliE "$const" --include='*.rs' crates src tests examples | grep -v '^crates/shim-' || true)
  if [[ "$files" != "$kernel" ]]; then
    echo "FAIL: constant $const must occur in $kernel only, found in: $files" >&2
    exit 1
  fi
done

# One execution per process: calibration builds a buffer pool at exactly one
# site — the carrier a probe is profiled on. A second would be a probe
# executed under some memory configuration again, instead of replayed.
sites=$(lib_code | grep -F 'crates/calibrate/src/' | grep -cF 'BufferPool::new(' || true)
if [[ "$sites" != 1 ]]; then
  echo "FAIL: BufferPool::new( at $sites sites under crates/calibrate/src, want 1" >&2
  exit 1
fi
# ...and one execution per distinct plan: outside the engine, library code
# executes through `Profile::run`, whose runs any configuration can replay.
# A `run_plan(` is an execution that has to be repeated to be priced again.
if lib_code | grep -v '^crates/engine/src/' | grep -F 'run_plan('; then
  echo "FAIL: run_plan( in library code outside crates/engine/src" >&2
  exit 1
fi

# One walk per image: outside the record format's own file, library code
# walks records at exactly one site — `Page::check`, which runs once per
# page image and keeps what it found beside the bytes. Any other site is a
# reader re-walking records per scan; none at all is an unchecked read path.
sites=$(lib_code | grep -F 'TupleView::parse(' | grep -v '^crates/storage/src/tuple\.rs: ' | cut -d: -f1 || true)
if [[ "$sites" != crates/storage/src/page.rs ]]; then
  echo "FAIL: TupleView::parse( outside tuple.rs must occur once, in crates/storage/src/page.rs; found in: ${sites:-nowhere}" >&2
  exit 1
fi

# One cell store: what-if costs live in the dense write-once table of
# crates/core/src/search/cache.rs. A locked hash map, or one keyed by
# `CellKey`, in the search, fleet or design tiers would be a second store
# beside it.
if lib_code | grep -E '^crates/(core|fleet|design)/src/' | grep -e 'Mutex<HashMap' -e 'HashMap<CellKey'; then
  echo "FAIL: a hash-map cell store outside crates/core/src/search/cache.rs's table" >&2
  exit 1
fi

# One lattice: what a `(cpu, mem)` cell of the share lattice, and the equal
# split, mean as resource shares is decided in crates/core/src/search/mod.rs
# (`cell_shares`, `SearchConfig::equal_split`), and the search, the
# controller, the fleet and the design advisor all convert through it.
# Beyond that file, library code builds shares from raw fractions only where
# they are defined (crates/vmm/src/share.rs) and where calibration turns
# grid points, not cells, into shares (crates/calibrate/src/grid.rs).
if lib_code | grep -vE '^crates/(vmm/src/share|core/src/search/mod|calibrate/src/grid)\.rs: ' |
  grep -F 'from_fractions('; then
  echo "FAIL: from_fractions( in library code outside crates/core/src/search/mod.rs, crates/vmm/src/share.rs and crates/calibrate/src/grid.rs" >&2
  exit 1
fi

# One co-scheduler per mode, one oracle: the capped walk, and the rescan
# loop that is both the work-conserving path and what the walk is diffed
# against. An event structure or a core-selection type under sched* would
# be a third implementation of the same fluid semantics.
for word in BinaryHeap EventCore SchedCore; do
  if lib_code | grep -E '^crates/vmm/src/sched' | grep -F "$word"; then
    echo "FAIL: $word in library code under crates/vmm/src/sched*" >&2
    exit 1
  fi
done
files=$(ls crates/vmm/src/sched | tr '\n' ' ')
if [[ "$files" != "fluid.rs multi.rs reference.rs walk.rs " ]]; then
  echo "FAIL: crates/vmm/src/sched/ must hold fluid.rs multi.rs reference.rs walk.rs, found: $files" >&2
  exit 1
fi

# One thread for a search: the allocation search and the design pre-pricing
# price their cells on the caller's thread, and calibration profiles its
# probes there too (once per process). A worker pool, a batch path or a
# parallelism knob in their library code would be a second path beside the
# plain loop, slower or no faster on every workload measured.
if lib_code | grep -E '^crates/(core|design|calibrate)/src/' |
  grep -E 'ParallelEvaluator|batch_evaluate|workers_for|claim_and_reduce|parallelism'; then
  echo "FAIL: a parallel path in crates/core/src, crates/design/src or crates/calibrate/src" >&2
  exit 1
fi

# One allocation kernel, one pricing: the controller solves on `solve_dp`
# straight over `price`, every cell priced under the profiles of the solve
# at hand. A design problem, a cost model, a `run_search*` call or
# `core::dynamic` in its library code would be a fabricated problem around
# the same DP; a `CostCache` / `CostRow` would be a what-if table that
# outlives a solve, whose cells a later solve reads as priced for profiles
# it does not hold.
if lib_code | grep -E '^crates/controller/src/' | grep -E 'DesignProblem|CostModel|run_search|dynamic::|CostCache|CostRow'; then
  echo "FAIL: the controller reaches the DP through a design problem or a what-if table instead of solve_dp over price" >&2
  exit 1
fi
# ...and one decision path per trigger: drift re-solves, the governor's
# pre-switch and the first placement. A quiet-epoch hill climb was a fourth
# that never landed a move.
if lib_code | grep -E '^crates/controller/src/' | grep -F 'hill_climb'; then
  echo "FAIL: a hill climb in the controller's library code" >&2
  exit 1
fi

# One subset enumeration: which splits of which relation subsets the join
# DP may take is fixed by the join graph, so analysis enumerates them once
# (crates/optimizer/src/planner/analyse.rs) and pricing walks its list. A
# `(x - 1) & x` submask walk anywhere else in library code — above all in
# price.rs — would be the per-`P` enumeration back.
if lib_code | grep -v '^crates/optimizer/src/planner/analyse\.rs: ' | grep -E '\((\w+) - 1\) & '; then
  echo "FAIL: a relation-subset enumeration outside crates/optimizer/src/planner/analyse.rs" >&2
  exit 1
fi

# One analysis per workload: a query is analysed where planning starts
# (crates/optimizer/src/planner/mod.rs) and where a workload keeps its
# queries' analyses for every `P(R)` and index configuration it is priced
# under (crates/core/src/problem.rs), once each. A third call would analyse
# again what a problem already holds.
sites=$(lib_code | grep -F 'PreparedQuery::analyse(' | cut -d: -f1 | sort | tr '\n' ' ')
if [[ "$sites" != "crates/core/src/problem.rs crates/optimizer/src/planner/mod.rs " ]]; then
  echo "FAIL: PreparedQuery::analyse( must be called once in crates/core/src/problem.rs and once in crates/optimizer/src/planner/mod.rs, found in: $sites" >&2
  exit 1
fi

# One check of `P`: `OptimizerParams`' check is private to
# crates/optimizer/src/params.rs and runs once there, in `CheckedParams::new`;
# everything that prices takes a `CheckedParams`, so nothing checks again.
checks=$(lib_code | grep '^crates/optimizer/src/params\.rs: ' | grep -cF '.validate()' || true)
if grep -nE 'pub(\([a-z]+\))? fn validate' crates/optimizer/src/params.rs ||
  lib_code | grep '^crates/optimizer/src/' | grep -v '^crates/optimizer/src/params\.rs: ' |
  grep -F '.validate()' || [[ "$checks" != 1 ]]; then
  echo "FAIL: the check of OptimizerParams must be private and run once, in crates/optimizer/src/params.rs ($checks calls there)" >&2
  exit 1
fi

# One lowering: the binder lowers every scalar expression through
# `Binder::lower_in`, whose scope (join output or aggregate output) decides
# what a column and an aggregate call mean, and moves a predicate between
# column spaces with `Expr::map_columns`. A second lowering over aggregate
# output, or a second column-shifting walk, would be a copy of the first.
if lib_code | grep -E 'lower_over_agg|fn rebase|shift_columns'; then
  echo "FAIL: a second expression lowering or column remap in library code" >&2
  exit 1
fi

# One gate: every committed golden is read by a `cargo test` test, and no
# second mechanism — a script replaying an experiment binary, or a
# binary's JSON artifact standing in for a check — comes back beside it.
for golden in tests/golden/*.txt; do
  if ! grep -qF "$golden" tests/*.rs; then
    echo "FAIL: $golden is named by no tests/*.rs" >&2
    exit 1
  fi
done
if grep -rnE 'replay[_]gate|BENCH[_]|write_bench[_]artifact' crates scripts tests; then
  echo "FAIL: a replay gate or a BENCH artifact writer under crates/, scripts/ or tests/" >&2
  exit 1
fi
# ...and every exhibit is a test: no experiment binary, and no script that
# runs one, stands beside `cargo test`. perf/ is the one benchmark (no
# micro-benchmark harness beside it) and the registry's span list the one
# span store (no persistent sink beside it).
for path in crates/bench/src/bin scripts/trace.sh scripts/chaos.sh \
  crates/bench/benches crates/shim-criterion crates/telemetry/src/sink.rs; do
  if [[ -e "$path" ]]; then
    echo "FAIL: $path exists; exhibits and gates are tests under tests/, the benchmark is perf/" >&2
    exit 1
  fi
done

cargo test -q

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

# Opt-in chaos gate: CHAOS=1 additionally runs the calibration pipeline
# under a sweep of fault-injection seeds and intensities (the ignored test
# in tests/calibration_recovery.rs).
if [[ "${CHAOS:-0}" == "1" ]]; then
  cargo test --release --test calibration_recovery -- --ignored
fi
