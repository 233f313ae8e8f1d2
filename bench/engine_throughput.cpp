// SimEngine throughput benchmark (engine layer): streams
// a large random operand batch through the PCS-FMA simulator single- and
// multi-threaded, reports per-shard and aggregate ops/sec, and verifies the
// engine's determinism contract — bit-identical results and equal merged
// activity totals whatever the thread count.
//
//   engine_throughput [ops] [threads] [--json <path>] [--trace <path>]
//                     [--reps N] [--warmup N] [--progress]
//                     [--backend scalar|sliced] [--workers N]
//                                        (default: 1000000 ops,
//                                         max(4, hardware_concurrency))
//
// --backend selects the engine execution backend for both phases (sliced
// is the default; scalar is the reference oracle — the report's metrics
// section is byte-identical either way, which CI's backend-equivalence
// gate checks).  --workers N sets the parallel phase's worker request
// (same as the positional threads argument); requests beyond the host's
// hardware threads run clamped and are reported as such.
//
// --json writes a csfma-report-v1 document (see docs/observability.md);
// its "metrics" section is byte-identical for any thread count.  --trace
// writes a chrome://tracing / Perfetto trace of the parallel run.  Both
// runs repeat warmup+reps times through the shared bench harness
// (bench/harness.hpp), whose medians land in the report's
// bench_host_perf section.
//
// Exit status: 1 on any determinism violation; 1 if the default (no-args)
// run on a machine with >= 4 hardware threads fails the >= 3x speedup
// target (ISSUE 1 acceptance); 0 otherwise.  With explicit ops/threads
// arguments, or on boxes with fewer cores, the speedup is reported but not
// gated — short streams and instrumented (TSan) builds are not meaningful
// scaling measurements.
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "engine/sim_engine.hpp"
#include "harness.hpp"
#include "telemetry/report.hpp"

using namespace csfma;

namespace {

BatchResult run(UnitKind kind, const OperandSource& src, int threads,
                BenchHarness* harness = nullptr,
                MetricsRegistry* metrics = nullptr,
                TraceSession* trace = nullptr) {
  EngineConfig cfg;
  cfg.unit = kind;
  cfg.threads = threads;
  cfg.rm = Round::NearestEven;
  cfg.metrics = metrics;
  cfg.trace = trace;
  if (harness != nullptr) harness->configure_engine(cfg);
  SimEngine engine(cfg);
  return engine.run_batch(src);
}

void print_stats(const char* label, const BatchStats& s) {
  double shard_min = 0, shard_max = 0;
  for (const auto& sh : s.shards) {
    if (shard_min == 0 || sh.ops_per_sec < shard_min) shard_min = sh.ops_per_sec;
    if (sh.ops_per_sec > shard_max) shard_max = sh.ops_per_sec;
  }
  std::printf("  %-10s %9.3fs  %12.0f ops/sec  (%zu shards, per-shard %.0f..%.0f)\n",
              label, s.seconds, s.ops_per_sec, s.shards.size(), shard_min,
              shard_max);
}

/// FNV-1a over the binary64 bit patterns of the results: a deterministic,
/// thread-count-invariant fingerprint for the report.
std::uint64_t results_fingerprint(const std::vector<PFloat>& results) {
  std::uint64_t h = 1469598103934665603ull;
  for (const PFloat& r : results) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(r.to_double());
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions hopts = extract_harness_args(argc, argv);
  const ReportCliArgs out_paths = extract_report_args(argc, argv);
  const std::uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                   : 1000000ull;
  const unsigned hw = std::thread::hardware_concurrency();
  const int par = argc > 2     ? std::atoi(argv[2])
                  : hopts.workers > 0 ? hopts.workers
                                      : (int)(hw > 4 ? hw : 4);
  // The engine clamps workers to the host's hardware threads; surface the
  // clamp here so a "parallel" row on a small box reads as what it is.
  const int hw_threads = hw == 0 ? 1 : (int)hw;
  const int par_eff = par > hw_threads ? hw_threads : par;
  const std::uint64_t seed = 20260806;
  const bool gate_speedup = argc == 1;
  BenchHarness harness("engine_throughput", hopts);

  std::printf("SimEngine throughput — %llu PCS-FMA ops, %u hardware threads\n\n",
              (unsigned long long)n, hw);
  RandomTripleSource src(seed, n);

  BatchResult r1;
  const RobustStats st1 = harness.measure(
      "batch_1t", [&] { r1 = run(UnitKind::Pcs, src, 1, &harness); }, n);
  print_stats("1 thread", r1.stats);
  MetricsRegistry metrics;
  TraceSession trace;
  BatchResult rn;
  const RobustStats stp = harness.measure(
      "batch_parallel",
      [&] {
        rn = run(UnitKind::Pcs, src, par, &harness, &metrics,
                 out_paths.trace_path.empty() ? nullptr : &trace);
      },
      n);
  if (par_eff != par)
    std::printf("  (%d worker threads requested, clamped to %d)\n", par,
                par_eff);
  else
    std::printf("  (%d worker threads)\n", par);
  print_stats("parallel", rn.stats);

  bool identical = r1.results.size() == rn.results.size();
  for (std::size_t i = 0; identical && i < r1.results.size(); ++i)
    identical = PFloat::same_value(r1.results[i], rn.results[i]);
  bool same_activity =
      r1.activity.total_toggles() == rn.activity.total_toggles();
  for (const auto& [name, probe] : r1.activity.probes()) {
    auto it = rn.activity.probes().find(name);
    same_activity = same_activity && it != rn.activity.probes().end() &&
                    it->second.toggles() == probe.toggles();
  }

  // Median-of-reps speedup: robust against a single slow repetition.
  const double speedup =
      stp.median > 0.0 && st1.median > 0.0 ? st1.median / stp.median : 0.0;
  std::printf("\n  results bit-identical:      %s\n", identical ? "yes" : "NO");
  std::printf("  merged activity identical:  %s (%llu toggles)\n",
              same_activity ? "yes" : "NO",
              (unsigned long long)r1.activity.total_toggles());
  std::printf("  speedup %d threads vs 1:    %.2fx (median of %d reps)\n", par,
              speedup, hopts.reps);

  if (!out_paths.trace_path.empty()) {
    trace.write_json(out_paths.trace_path);
    std::printf("  trace written to %s (%zu events)\n",
                out_paths.trace_path.c_str(), trace.size());
  }
  if (!out_paths.json_path.empty()) {
    Report report("engine_throughput");
    report.meta("unit", "PCS-FMA");
    report.meta("seed", seed);
    report.meta("ops", n);
    report.meta("threads", par);
    report.meta("threads_effective", par_eff);
    report.meta("threads_clamped", par_eff != par ? "true" : "false");
    report.meta("backend", to_string(hopts.backend));
    report.meta("shard_ops", EngineConfig{}.shard_ops);
    report.meta("hardware_threads", (std::uint64_t)hw);
    report.attach_metrics(metrics);  // engine.* counters/histograms
    report.metric("results_fnv64", results_fingerprint(rn.results));
    report.metric("activity.total_toggles", rn.activity.total_toggles());
    for (const auto& [name, probe] : rn.activity.probes())
      report.metric("activity." + name + ".toggles", probe.toggles());
    report.metric("determinism.results_identical",
                  (std::uint64_t)(identical ? 1 : 0));
    report.metric("determinism.activity_identical",
                  (std::uint64_t)(same_activity ? 1 : 0));
    report.timing("seconds_1t", r1.stats.seconds);
    report.timing("seconds_parallel", rn.stats.seconds);
    report.timing("ops_per_sec_1t", r1.stats.ops_per_sec);
    report.timing("ops_per_sec_parallel", rn.stats.ops_per_sec);
    report.timing("speedup", speedup);
    report.section("activity", rn.activity.to_json());
    harness.attach(report);
    report.write_json(out_paths.json_path);
    std::printf("  report written to %s\n", out_paths.json_path.c_str());
  }

  if (!identical || !same_activity) {
    std::printf("\nFAIL: determinism contract violated\n");
    return 1;
  }
  if (gate_speedup && hw >= 4 && speedup < 3.0) {
    std::printf("\nFAIL: >=3x speedup target missed on a >=4-thread machine\n");
    return 1;
  }
  std::printf("\nOK\n");
  return 0;
}
