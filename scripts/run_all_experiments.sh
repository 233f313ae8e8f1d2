#!/usr/bin/env bash
# Regenerate every table, figure, ablation and extension experiment.
# The reports of one invocation land in a single timestamped directory:
#
#   results/<UTC timestamp>/reports/   csfma-report-v1 JSON per experiment
#
# so successive runs accumulate side by side.  Speed comparisons between
# versions belong to scripts/perf_gate.py, not to these reports.
set -euo pipefail
cd "$(dirname "$0")/.."

# Reuse an already-configured tree as-is (passing -G against a cache
# configured with another generator is a hard CMake error); otherwise
# prefer Ninja when available, falling back to CMake's default generator
# (the seed hard-coded -G Ninja and failed on make-only hosts).
if [[ -f build/CMakeCache.txt ]]; then
  cmake -B build
elif command -v ninja >/dev/null 2>&1; then
  cmake -B build -G Ninja
else
  cmake -B build
fi
cmake --build build -j

echo "=================== tests ==================="
ctest --test-dir build --output-on-failure

benches=(table1_synthesis fig13_latency table2_energy fig14_accuracy fig15_hls
         ablation_carry_spacing ablation_rounding_width ablation_hls_elision
         ablation_zd_vs_lza ablation_block_size ablation_reassoc
         ext_dot_product ext_ldlfactor ext_dot_hls ext_dsp_kernels)

# Fail up front, with the full list, if the build produced no binary for
# any requested bench (e.g. a stale build directory from an older tree).
missing=()
for b in "${benches[@]}" engine_throughput; do
  [[ -x "./build/bench/$b" ]] || missing+=("$b")
done
if ((${#missing[@]})); then
  echo "error: missing bench binaries (re-run cmake on a clean build dir):" >&2
  printf '  ./build/bench/%s\n' "${missing[@]}" >&2
  exit 1
fi

outdir="results/$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$outdir/reports"
echo "collecting reports under $outdir/"

for b in "${benches[@]}"; do
  echo; echo "=================== $b ==================="
  "./build/bench/$b" --json "$outdir/reports/$b.json"
done

echo; echo "=================== engine throughput ==================="
./build/bench/engine_throughput 200000 4 \
    --json "$outdir/reports/engine_throughput.json"

echo; echo "=================== validation ==================="
python3 scripts/check_report.py "$outdir"/reports/*.json

echo
echo "reports in $outdir/"
