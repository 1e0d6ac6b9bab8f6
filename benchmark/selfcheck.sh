#!/usr/bin/env bash
# Run the whole benchmark twice on this tree and check that the two sets of
# runs agree: every end-to-end median of set 2 within its bound of set 1,
# every spread (except setup_s's) within its bound, every exact count and
# bench.sim_fingerprint identical. Prints median, quartiles and spread
# beside each bound.
#
#   selfcheck.sh [RUNS]    end-to-end runs per workload and set (default 10,
#                          as the driver makes; each takes ~17 s, so the
#                          default is ~30 minutes)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"

cargo build --offline --release --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/mpi-benchmark"

rm -rf "$here/out/selfcheck"
for set in 1 2; do
    dir="$here/out/selfcheck/set$set"
    mkdir -p "$dir"
    for workload in $("$bin" workloads); do
        for ((i = 0; i < runs; i++)); do
            seed=$((1000 + i))
            echo "set $set: $workload seed $seed" >&2
            "$here/run.sh" --workload "$workload" --seed "$seed" --trace 0 | tail -n 1 >"$dir/$workload.$seed.0.json" || true
        done
        "$here/run.sh" --workload "$workload" --seed 1000 --trace 1 | tail -n 1 >"$dir/$workload.1000.1.json" || true
    done
done
"$bin" compare "$here/out/selfcheck/set1" "$here/out/selfcheck/set2"
