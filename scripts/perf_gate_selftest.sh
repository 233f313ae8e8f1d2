#!/bin/sh
# Self-test of the paired speed gate (scripts/perf_gate.py): it must fail a
# change that is clearly slower than its parent.
#
#   scripts/perf_gate_selftest.sh PARENT_TREE
#
# Copies PARENT_TREE to a throwaway directory and appends to its
# src/engine/sim_engine.cpp (linked into every benchmark binary; a new file
# under src/ would land in the benchmark's static library and be dropped by
# the linker) a static initializer that starts an equal-priority busy
# thread.  On the gate's single vCPU that thread takes about half of the
# change's turns, far beyond the 20% throughput bound.  The gate, run on the
# batch workload, must then exit 1 with a failing throughput_per_s row.
set -eu
[ $# -eq 1 ] || { sed -n '5p' "$0" >&2; exit 2; }
parent=$(cd "$1" && pwd)
here=$(cd "$(dirname "$0")" && pwd)
copy=$(mktemp -d)
trap 'rm -rf "$copy"' EXIT

tar -C "$parent" --exclude=./.bench_build --exclude=./build --exclude=./.git \
    -cf - . | tar -C "$copy" -xf -
cat >> "$copy/src/engine/sim_engine.cpp" <<'CPP'

// perf_gate_selftest.sh: an equal-priority busy thread in every process.
#include <thread>
static const bool perf_gate_selftest_busy = [] {
  std::thread([] {
    for (volatile unsigned long spin = 0;; spin = spin + 1) {
    }
  }).detach();
  return true;
}();
CPP

rc=0
out=$(python3 "$here/perf_gate.py" "$parent" "$copy" batch) || rc=$?
printf '%s\n' "$out"
if [ "$rc" -ne 1 ]; then
  echo "perf_gate_selftest: the gate exited $rc on the slowed copy, not 1" >&2
  exit 1
fi
if ! printf '%s\n' "$out" | grep -q "^| batch | throughput_per_s | .* | FAIL |$"; then
  echo "perf_gate_selftest: no failing throughput_per_s row for batch" >&2
  exit 1
fi
echo "perf_gate_selftest: the gate failed the slowed copy, as it must"
