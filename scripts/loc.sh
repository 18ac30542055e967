#!/usr/bin/env bash
# Non-test source lines per crate: for every .rs file under crates/*/src,
# the lines above its first `#[cfg(test)]` (conn_tests.rs is all test).
# The one measure size claims in CHANGES.md are made with.
#
# After the total, `benchmark/src` gets a row, counted the same way but
# not in the total: the benchmark is its own package. Then two files get
# rows of their own, `conn.rs` and `socket.rs`, the two ROADMAP names as
# where size matters most. They are already inside their crates' rows, so
# not in the total.
# Their two structs close the table with their field counts, the other
# measure of how much one machine holds.
#
# `--check` compares each row with scripts/loc.baseline (the same table,
# committed) and fails when one is above it. A change that must grow a
# crate edits the baseline in the same diff, where a reviewer sees it;
# one that shrinks a crate lowers it (`scripts/loc.sh > scripts/loc.baseline`).
set -euo pipefail
cd "$(dirname "$0")/.."

over=0
# Print one row (a third column names its unit, if not lines); under
# `--check`, flag it when above its baseline entry.
row() {
  printf '%-16s %6d%s\n' "$1" "$2" "${3:+ $3}"
  if [ "${check:-}" = --check ]; then
    allowed=$(awk -v c="$1" '$1 == c {print $2}' scripts/loc.baseline)
    if [ "$2" -gt "${allowed:-0}" ]; then
      echo "  ^ above scripts/loc.baseline (${allowed:-no entry})" >&2
      over=1
    fi
  fi
}
count() {
  awk '/#\[cfg\(test\)\]/{nextfile} {n++} END{print n+0}' "$@"
}
# Fields of `pub struct $2` in file $1: its lines that open with a name
# and a colon, comments and blank lines aside.
fields() {
  awk -v s="$2" '$0 ~ "^pub struct " s " \\{" {inside=1; next}
    inside && /^}/ {exit}
    inside && /^    (pub(\([a-z]+\))? )?[a-z_][a-z0-9_]*:/ {n++}
    END {print n+0}' "$1"
}

check=${1:-}
total=0
for crate in crates/*/; do
  mapfile -d '' files < <(find "$crate/src" -name '*.rs' ! -name conn_tests.rs -print0 | sort -z)
  n=$(count "${files[@]}")
  row "$(basename "$crate")" "$n"
  total=$((total + n))
done
row total "$total"
# The benchmark is its own package, outside the workspace and the total.
mapfile -d '' files < <(find benchmark/src -name '*.rs' -print0 | sort -z)
row benchmark "$(count "${files[@]}")"
for file in crates/core/src/conn.rs crates/tcpstack/src/socket.rs; do
  row "$(basename "$file")" "$(count "$file")"
done
row MptcpConnection "$(fields crates/core/src/conn.rs MptcpConnection)" fields
row TcpSocket "$(fields crates/tcpstack/src/socket.rs TcpSocket)" fields
exit "$over"
