#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the result is the last line of stdout
#   benchmark/run.sh [--seed N] [--seconds S] [--runs K] [--trace 0|1]
#       every workload, each run in a process of its own, every metric
#       printed by name; --trace 1 adds one traced run per workload;
#       results in benchmark/out/results.json
#   benchmark/run.sh --aa [--seed N] [--seconds S] [--runs K]
#       the suite twice on this commit (K runs per workload, default 10,
#       plus one traced run each), then `compare` on the two
#   benchmark/run.sh compare A.json B.json | ladder RESULTS.json | manifest
#
# Exits non-zero, naming the workload, on a failed correctness check, a
# per-operation timeout or a port-bind failure.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}

# The build's own output goes to stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin=$target/release/benchmark

mode=suite
args=()
for a in "$@"; do
    case $a in
        --workload) mode=run; args+=("$a") ;;
        --aa) mode=aa ;;
        compare | ladder | manifest) mode=$a ;;
        *) args+=("$a") ;;
    esac
done

out=$here/out
case $mode in
    run) exec "$bin" run --out-dir "$out" "${args[@]}" ;;
    suite) exec "$bin" suite --out-dir "$out" "${args[@]}" ;;
    compare | ladder | manifest) exec "$bin" "$mode" "${args[@]}" ;;
    aa)
        # The untraced runs carry the end-to-end comparison, the one traced
        # run per workload the counts that must repeat exactly. A later
        # --runs on the command line overrides the default.
        for set in a b; do
            "$bin" suite --out-dir "$out" --out "$out/aa_$set.json" --runs 10 --trace 1 "${args[@]}"
        done
        exec "$bin" compare "$out/aa_a.json" "$out/aa_b.json"
        ;;
esac
