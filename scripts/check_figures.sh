#!/usr/bin/env bash
# Fails unless every table `repro` prints for the deterministic figures
# below appears verbatim in EXPERIMENTS.md: the same header, the same rows
# in the same order, and a blank line after the last one (so a table with
# more rows in the document fails too). Figs 3 and 10 measure wall clock
# and fig6c, fig7 and the full-scale fig5 and fig11 are not quoted as
# tables, so they are not checked.
#
#   cargo build --release --offline --bin repro && scripts/check_figures.sh
set -euo pipefail
cd "$(dirname "$0")/.."
doc=$(cat EXPERIMENTS.md)
status=0
for fig in fig4 "fig5 --quick" fig6a fig6b fig8 fig9 "fig11 --quick"; do
  # shellcheck disable=SC2086 # "fig5 --quick" and "fig11 --quick" are two arguments each
  table=$(timeout 120 target/release/repro $fig | grep '^|')
  if [[ "$doc" != *$'\n'"$table"$'\n\n'* ]]; then
    printf 'repro %s: this table is not in EXPERIMENTS.md:\n%s\n' "$fig" "$table" >&2
    status=1
  fi
done
exit "$status"
