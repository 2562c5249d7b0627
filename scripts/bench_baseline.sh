#!/bin/sh
# Capture the current perf baseline as JSON lines so the trajectory of
# the functional-layer fast paths is recorded in-repo. Runs the two
# micro harnesses (micro_trace: generator ns/instr + container op
# rates; micro_pipeline: per-cycle vs run-grain engine events/s with
# the hard functional equality check for run-grain, the per-cycle
# driver's fused/skipped split and the run-grain cycle decomposition)
# plus trace_tool --bench (live vs capture vs replay events/s with the
# hard replay bit-identity check, once per engine) and the daemon
# load harness (faded serving concurrent faded_client sessions over a
# unix socket, sessions/s) and collects every JSON line they emit into
# one file. Usage:
#
#   sh scripts/bench_baseline.sh [builddir] [outfile]
#
# Defaults: builddir=build, outfile=BENCH_pr10.json. Numbers are only
# comparable on the same host under the same load — see
# docs/BENCHMARKS.md for the measurement protocol. Both micro harnesses
# report the median of their in-harness repetitions (after a discarded
# host-warmup rep), so one invocation per harness suffices.
set -eu
cd "$(dirname "$0")/.."

builddir=${1:-build}
out=${2:-BENCH_pr10.json}

for bin in micro_trace micro_pipeline trace_tool faded faded_client; do
    if [ ! -x "$builddir/$bin" ]; then
        echo "missing $builddir/$bin — build first:" >&2
        echo "  cmake -B $builddir -S . && cmake --build $builddir -j" >&2
        exit 1
    fi
done

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "== micro_trace (median of in-harness reps) =="
"$builddir/micro_trace" | tee -a "$tmp"

echo "== micro_pipeline (2 engines, median of in-harness reps) =="
"$builddir/micro_pipeline" | tee -a "$tmp"

echo "== trace_tool --bench (replay vs live, bit-identity checked) =="
for engine in percycle rungrain; do
    "$builddir/trace_tool" --bench --engine "$engine" | tee -a "$tmp"
done

echo "== faded session throughput (8 sessions, 4 concurrent clients) =="
sockdir=$(mktemp -d /tmp/faded_bench_XXXXXX)
"$builddir/faded" --socket "$sockdir/d.sock" --max-sessions 8 \
    --workers 2 > /dev/null 2>&1 &
daemon_pid=$!
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$sockdir"; \
      rm -f "$tmp"' EXIT
"$builddir/faded_client" --socket "$sockdir/d.sock" \
    --monitor MemLeak --profile bzip --warm 1000 --instr 10000 \
    --sessions 8 --concurrency 4 | tee -a "$tmp"
kill -TERM "$daemon_pid"
wait "$daemon_pid"

grep '^{' "$tmp" > "$out"
echo "wrote $(grep -c . "$out") JSON lines to $out"
