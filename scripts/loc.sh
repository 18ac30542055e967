#!/usr/bin/env bash
# Non-test source lines per crate: for every .rs file under crates/*/src,
# the lines above its first `#[cfg(test)]` (conn_tests.rs is all test).
# The one measure size claims in CHANGES.md are made with.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
  n=$(find "$crate/src" -name '*.rs' ! -name conn_tests.rs -print0 | sort -z |
    xargs -0 awk '/#\[cfg\(test\)\]/{nextfile} {n++} END{print n+0}')
  printf '%-12s %6d\n' "$(basename "$crate")" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
