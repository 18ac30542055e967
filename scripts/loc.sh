#!/usr/bin/env bash
# Non-test source lines per crate: for every .rs file under crates/*/src,
# the lines above its first `#[cfg(test)]` (conn_tests.rs is all test).
# The one measure size claims in CHANGES.md are made with.
#
# `--check` compares each crate with scripts/loc.baseline (the same table,
# committed) and fails when one is above it. A change that must grow a
# crate edits the baseline in the same diff, where a reviewer sees it;
# one that shrinks a crate lowers it (`scripts/loc.sh > scripts/loc.baseline`).
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
over=0
for crate in crates/*/; do
  name=$(basename "$crate")
  n=$(find "$crate/src" -name '*.rs' ! -name conn_tests.rs -print0 | sort -z |
    xargs -0 awk '/#\[cfg\(test\)\]/{nextfile} {n++} END{print n+0}')
  printf '%-12s %6d\n' "$name" "$n"
  total=$((total + n))
  if [ "${1:-}" = --check ]; then
    allowed=$(awk -v c="$name" '$1 == c {print $2}' scripts/loc.baseline)
    if [ "$n" -gt "${allowed:-0}" ]; then
      echo "  ^ above scripts/loc.baseline (${allowed:-no entry})" >&2
      over=1
    fi
  fi
done
printf '%-12s %6d\n' total "$total"
exit "$over"
