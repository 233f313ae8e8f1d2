// Shared pieces of the benchmark driver: options, the closed-loop round
// runner, sample statistics, hashing and the per-run outcome every
// workload fills in.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fma/fma_unit.hpp"
#include "fp/pfloat.hpp"
#include "telemetry/perf.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string root = ".";  // source checkout (examples/kernels lives here)
};

/// Timing samples with the quantile rule of Python's
/// statistics.quantiles(method="exclusive") at arbitrary q.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }
  /// q in (0, 1); 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// What one workload run measured.  `metrics` holds end-to-end and
/// per-layer values by name (main.cpp picks the set the mode prints).
struct Outcome {
  std::uint64_t attempted = 0;  // operations attempted in the run
  std::uint64_t failed = 0;     // ... of which failed an oracle or a reply
  std::vector<std::string> failures;  // the first few reasons, for stderr
  std::map<std::string, double> metrics;

  /// Count `n` failed operations with a reason.
  void fail(std::uint64_t n, const std::string& why);
  /// Record a whole-run check (determinism, reconciliation): a violation
  /// counts one failed operation.
  void require(bool ok, const std::string& why) {
    if (!ok) fail(1, why);
  }
};

double ratio(double num, double den);  // 0 when den == 0

/// Per-round wall times of a closed loop.  In traced runs rounds alternate
/// untraced / traced, so both sets come from the same window and host
/// state; untraced runs put every round in `untraced_ms`.
struct RoundLog {
  Samples untraced_ms, traced_ms;
  std::uint64_t rounds = 0;

  void merge(const RoundLog& o);
  /// Work per second at the 10th-percentile untraced round time.  On a
  /// shared host, other tenants slow rounds by up to ~60% in bursts that
  /// last seconds and can cover most of a run; the fast tail of the round
  /// times is what stays put from run to run (see NOTES.md).
  double rate(double work_per_round) const {
    return ratio(work_per_round * 1e3, untraced_ms.quantile(0.1));
  }
};

/// Run `round(tracer_or_null, index)` back to back for `seconds` (at least
/// two rounds).  Traced rounds register a Tracer window.
RoundLog run_rounds(double seconds, Tracer* tracer,
                    const std::function<void(Tracer*, std::uint64_t)>& round);

/// Time `setup()` `reps` times, in seconds.
Samples timed_setup(int reps, const std::function<void()>& setup);

/// The end of every workload: record peak_rss_mb, then time `setup()`
/// `reps` more times and record setup_s as the median of these and the
/// `before` samples, so that setup_s does not rest on one instant of host
/// load.  The extra set-ups come last so they cannot raise the peak RSS.
void finish_setup(Samples before, int reps, const std::function<void()>& setup,
                  Outcome* out);

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a(const void* p, std::size_t n, std::uint64_t h = kFnvBasis);
inline std::uint64_t fnv1a(const std::string& s, std::uint64_t h = kFnvBasis) {
  return fnv1a(s.data(), s.size(), h);
}
/// FNV-1a (word-wise) over the packed bit patterns of `n` binary64 results.
std::uint64_t hash_results(const csfma::PFloat* r, std::size_t n,
                           std::uint64_t h = kFnvBasis);
/// A 64-bit hash as a JSON-exact number (its top 52 bits).
inline double hash_metric(std::uint64_t h) { return (double)(h >> 12); }

bool same_bits(double a, double b);  // NaNs compare equal to NaNs

double peak_rss_mb();

/// Metrics every workload derives from a traced run: self time per layer
/// as a share of the traced wall time, reconciliation, overhead, span count.
void add_trace_metrics(const Tracer& tracer, const RoundLog& log,
                       Outcome* out);

/// Summed wall seconds of one HostProfiler scope (0 when absent).
double profiler_wall_s(const csfma::HostProfiler& p, const char* scope);

/// Mean seconds per traced round of the spans called `name`.
double per_round_s(const std::map<std::string, SpanTotals>& totals,
                   const std::string& name, const RoundLog& log);

Outcome run_batch(const Options& opt, Tracer* tracer);
Outcome run_chained(const Options& opt, Tracer* tracer);
Outcome run_hls_flow(const Options& opt, Tracer* tracer);
Outcome run_service_mix(const Options& opt, Tracer* tracer);

/// The unit ladder every simulation workload sweeps, in report order.
inline constexpr csfma::UnitKind kUnits[] = {
    csfma::UnitKind::Pcs, csfma::UnitKind::Fcs, csfma::UnitKind::Classic,
    csfma::UnitKind::Discrete};

}  // namespace perfbench
