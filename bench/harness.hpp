// Shared bench-runner harness: every table, figure and ablation bench
// under bench/ measures its hot phases through this one library, so
// host-performance numbers are produced, summarized and exported the same
// way everywhere.
//
// What it does:
//   * warmup/repeat/outlier logic — each measured phase runs `warmup`
//     unrecorded repetitions followed by `reps` timed ones, and the sample
//     set is summarized as median + MAD with MAD-based outlier rejection
//     (robust_stats), so one scheduler hiccup cannot shift a median;
//   * host profiling — owns a HostProfiler; configure_engine() attaches it
//     (and the --progress heartbeat) to a SimEngine's hot paths, and every
//     measured phase is itself a "bench.<phase>" profiler scope;
//   * export — attach() adds a "bench_host_perf" section plus host.*
//     timing entries to the bench's csfma-report-v1 report.
//
// These medians describe one run on one host.  Speed claims between two
// versions are judged by perfbench under the paired gate
// (scripts/perf_gate.py, docs/observability.md).
//
// Host timings are Timing-stability data (docs/observability.md): the
// VALUES vary run to run and are exempt from the determinism contract; the
// STRUCTURE (phase names, scope names, calls/items counts) is not.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "engine/sim_engine.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/report.hpp"

namespace csfma {

/// Median of a sample set (by value: sorts a copy); 0 when empty.
double median_of(std::vector<double> samples);

/// Robust summary of repeated host-time samples: median and raw MAD over
/// the samples that survive outlier rejection.  A sample is rejected when
/// |x - median| > k * 1.4826 * MAD (the normal-consistent scaled MAD);
/// with MAD == 0 (all samples equal, or n < 3) nothing is rejected.
struct RobustStats {
  double median = 0.0;
  double mad = 0.0;  // raw median absolute deviation of the kept samples
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint64_t kept = 0;      // samples surviving rejection
  std::uint64_t rejected = 0;  // MAD-rejected outliers
};
RobustStats robust_stats(const std::vector<double>& samples, double k = 3.5);

struct HarnessOptions {
  int reps = 5;    // timed repetitions per phase
  int warmup = 1;  // unrecorded warmup repetitions per phase
  bool progress = false;     // engine progress heartbeat on stderr
  bool hw_counters = true;   // request perf_event counters (auto-degrades)
  /// Engine execution backend (--backend scalar|sliced); applied by
  /// configure_engine().  Benches that never build an engine accept and
  /// ignore the flag, so CI can pass it uniformly.
  EngineBackend backend = EngineBackend::Sliced;
  /// Engine worker-thread request (--workers <n>); 0 = the bench's own
  /// default.  Benches apply it to the phases where a worker count is
  /// meaningful (configure_engine() leaves cfg.threads alone, so a bench
  /// can still measure a deliberate 1-thread phase under --workers 4).
  /// The engine clamps the effective count to the host's hardware threads
  /// (EngineConfig::threads).
  int workers = 0;
};

/// Common bench CLI plumbing, same contract as extract_report_args():
/// removes `--reps <n>`, `--warmup <n>`, `--progress`, `--no-hw-counters`,
/// `--backend <scalar|sliced>` and `--workers <n>` from argv so
/// positional argument parsing stays untouched.
HarnessOptions extract_harness_args(int& argc, char** argv);

class BenchHarness {
 public:
  explicit BenchHarness(std::string name, HarnessOptions opts = {});

  const std::string& name() const { return name_; }
  const HarnessOptions& options() const { return opts_; }
  HostProfiler& profiler() { return profiler_; }
  const HostProfiler& profiler() const { return profiler_; }

  /// Wire the harness into an engine: sets cfg.profiler, and (with
  /// --progress) a serialized heartbeat printer on stderr.  The harness
  /// must outlive every run of the engine.
  void configure_engine(EngineConfig& cfg);

  /// Run `fn` options().warmup times unrecorded, then options().reps times
  /// timed (each timed repetition is also a "bench.<phase>" profiler
  /// scope attributed `ops_per_rep` items).  Returns the robust summary of
  /// the per-repetition wall-clock seconds.  Calling measure() again with
  /// the same phase name appends samples to that phase.
  RobustStats measure(const std::string& phase, const std::function<void()>& fn,
                      std::uint64_t ops_per_rep = 0);

  /// Per-phase robust stats in insertion order (empty until measure()).
  std::vector<std::pair<std::string, RobustStats>> results() const;

  /// Add host.<phase>.* timing entries and the "bench_host_perf" section
  /// to a report.  The section is Timing-class data: check_report.py
  /// validates its shape but exempts it from determinism comparison.
  void attach(Report& report) const;

 private:
  struct Phase {
    std::string name;
    std::vector<double> samples_s;  // timed repetitions, in order
    std::uint64_t ops_per_rep = 0;
  };

  /// The "bench_host_perf" section body (pre-rendered JSON).
  std::string host_perf_json() const;

  std::string name_;
  HarnessOptions opts_;
  HostProfiler profiler_;
  std::vector<Phase> phases_;
};

/// "nodename/machine" from uname(2), or "unknown": the coarse host
/// identity recorded in the bench_host_perf section.
std::string host_fingerprint();

}  // namespace csfma
