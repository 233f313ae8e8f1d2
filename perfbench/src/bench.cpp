#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace perfbench {

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> x = v_;
  std::sort(x.begin(), x.end());
  const std::size_t n = x.size();
  if (n == 1) return x[0];
  const double pos = q * (double)(n + 1);
  std::size_t j = (std::size_t)std::floor(pos);
  j = std::clamp<std::size_t>(j, 1, n - 1);
  const double frac = std::clamp(pos - (double)j, 0.0, 1.0);
  return x[j - 1] + (x[j] - x[j - 1]) * frac;
}

void Outcome::fail(std::uint64_t n, const std::string& why) {
  failed += n;
  if (failures.size() < 20) failures.push_back(why);
}

void RoundLog::merge(const RoundLog& o) {
  untraced_ms.append(o.untraced_ms);
  traced_ms.append(o.traced_ms);
  rounds += o.rounds;
}

RoundLog run_rounds(double seconds, Tracer* tracer,
                    const std::function<void(Tracer*, std::uint64_t)>& round) {
  RoundLog log;
  const std::int64_t start = now_ns();
  const std::int64_t stop = start + (std::int64_t)(seconds * 1e9);
  for (std::uint64_t i = 0; i < 2 || now_ns() < stop; ++i) {
    const bool traced = tracer != nullptr && (i % 2 == 1);
    const std::int64_t t0 = now_ns();
    round(traced ? tracer : nullptr, i + 1);
    const std::int64_t t1 = now_ns();
    const double ms = (double)(t1 - t0) * 1e-6;
    ++log.rounds;
    if (traced) {
      tracer->add_window(t0, t1);
      log.traced_ms.add(ms);
    } else {
      log.untraced_ms.add(ms);
    }
  }
  return log;
}

Samples timed_setup(int reps, const std::function<void()>& setup) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    setup();
    s.add((double)(now_ns() - t0) * 1e-9);
  }
  return s;
}

void finish_setup(Samples before, int reps, const std::function<void()>& setup,
                  Outcome* out) {
  out->metrics["peak_rss_mb"] = peak_rss_mb();
  before.append(timed_setup(reps, setup));
  out->metrics["setup_s"] = before.median();
}

std::uint64_t fnv1a(const void* p, std::size_t n, std::uint64_t h) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool same_bits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::uint64_t hash_results(const csfma::PFloat* r, std::size_t n,
                           std::uint64_t h) {
  // FNV-1a over 64-bit words rather than bytes: this runs inside the
  // measured rounds, so it is kept cheap.
  for (std::size_t i = 0; i < n; ++i)
    h = (h ^ r[i].to_bits().lo64()) * 0x100000001b3ULL;
  return h;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
  return 0.0;
}

double profiler_wall_s(const csfma::HostProfiler& p, const char* scope) {
  const auto scopes = p.snapshot();
  const auto it = scopes.find(scope);
  return it == scopes.end() ? 0.0 : (double)it->second.wall_ns * 1e-9;
}

double per_round_s(const std::map<std::string, SpanTotals>& totals,
                   const std::string& name, const RoundLog& log) {
  const auto it = totals.find(name);
  if (it == totals.end()) return 0.0;
  return ratio(it->second.total_s, (double)log.traced_ms.size());
}

void add_trace_metrics(const Tracer& tracer, const RoundLog& log,
                       Outcome* out) {
  // The layers of the library, by span-name prefix; "bench" is the
  // benchmark's own work (hashing, oracle bookkeeping) inside rounds.
  static const char* kLayers[] = {"bench",   "engine",   "fma",   "energy",
                                  "introspect", "activity", "frontend",
                                  "hls",     "solver",   "fpga",  "dse",
                                  "service"};
  const double window = tracer.window_s();
  std::map<std::string, double> self;
  for (const auto& [name, t] : tracer.totals(true)) {
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] += t.self_s;
    out->require(std::find_if(std::begin(kLayers), std::end(kLayers),
                              [&](const char* l) { return layer == l; }) !=
                     std::end(kLayers),
                 "span outside the known layers: " + name);
  }
  for (const char* l : kLayers)
    out->metrics[std::string("self_pct.") + l] = 100.0 * ratio(self[l], window);
  const double reconcile = 100.0 * (ratio(tracer.covered_s(), window) - 1.0);
  out->metrics["trace.reconcile_pct"] = reconcile;
  out->require(std::fabs(reconcile) <= 5.0,
               "layer self times do not reconcile with wall time");
  out->metrics["trace.overhead_pct"] =
      100.0 * (ratio(log.traced_ms.median(), log.untraced_ms.median()) - 1.0);
  out->metrics["trace.spans"] = (double)tracer.spans().size();
}

}  // namespace perfbench
