#!/usr/bin/env bash
# Library size per crate: lines of crates/<crate>/src/**/*.rs before each
# file's first top-level `#[cfg(test)]`, minus blank and `//` lines. `src/**/tests.rs`
# files are test modules whose `#[cfg(test)]` sits in their parent.
#   scripts/loc.sh [crate...]   (default: the six crates on the kernel)
set -euo pipefail
cd "$(dirname "$0")/.."

crates=("$@")
[[ ${#crates[@]} -gt 0 ]] || crates=(vmm calibrate core controller fleet design)
total=0
for crate in "${crates[@]}"; do
  n=$(find "crates/$crate/src" -name '*.rs' ! -name tests.rs -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*(\/\/|$)/ { n++ }
    END { print n + 0 }')
  printf '%-12s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
