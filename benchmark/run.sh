#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       one run of one workload in one process, as the driver calls it: every
#       metric as `name value unit`, then the result as one JSON line.
#       --trace 0 (default) measures the end-to-end metrics with tracing off,
#       --trace 1 makes the traced pass and reports the per-layer metrics.
#   run.sh [--seed N] [--seconds S] [--trace 0|1]
#       every workload, each in a process of its own (so peak RSS and the
#       allocation counts belong to it), both kinds of run unless --trace
#       picks one; also writes out/results.json.
#
# Traces go to out/trace-<workload>.json. Exits non-zero if the build or any
# output check fails. Never writes results/ (the figure binaries own it).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Knobs that change what the engines do or how much they print: a benchmark
# number measured under one of them is a number about something else.
for knob in TRACE SIM_CHECK SCTP_CHECK SHARDS BENCH_THREADS SCTP_SCHED ALLOC_METER \
    SCTP_TRACE TCP_TRACE SCTP_TS_TRACE $(compgen -e | grep '^SCTP_MPI_' || true); do
    if [ -n "${!knob+set}" ]; then
        echo "run.sh: $knob is set; unset it before benchmarking" >&2
        exit 2
    fi
done

# Not --locked: every dependency is a path in this repo, so the lock file
# pins nothing, and a later change to the crates' own dependency graph must
# not need an edit here to keep building.
cargo build --offline --release --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/mpi-benchmark"

one_workload=no
traces="0 1"
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
    --workload) one_workload=yes ;;
    --trace) traces="${args[i + 1]:?--trace needs 0 or 1}" ;;
    esac
done

if [ "$one_workload" = yes ]; then
    exec "$bin" "$@" --out-dir "$here/out"
fi

mkdir -p "$here/out"
status=0
runs=()
for workload in $("$bin" workloads); do
    for trace in $traces; do
        echo "== $workload --trace $trace"
        output="$("$bin" "$@" --workload "$workload" --trace "$trace" --out-dir "$here/out")" || status=1
        # Metric lines for people; the JSON line goes to results.json.
        sed '$d' <<<"$output"
        runs+=("{\"workload\": \"$workload\", \"trace\": $trace, \"result\": $(tail -n 1 <<<"$output")}")
    done
done
{
    echo '{"runs": ['
    for ((i = 0; i < ${#runs[@]}; i++)); do
        echo "${runs[i]}$([ $((i + 1)) -lt ${#runs[@]} ] && echo ,)"
    done
    echo ']}'
} >"$here/out/results.json"
echo "wrote $here/out/results.json"
[ "$status" = 0 ] || echo "run.sh: a check failed (see 'check failed' lines above)" >&2
exit "$status"
