#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "telemetry/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

namespace csfma {

double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t m = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[m]
                                 : 0.5 * (samples[m - 1] + samples[m]);
}

RobustStats robust_stats(const std::vector<double>& samples, double k) {
  RobustStats r;
  if (samples.empty()) return r;

  const double med0 = median_of(samples);
  std::vector<double> dev;
  dev.reserve(samples.size());
  for (double x : samples) dev.push_back(std::fabs(x - med0));
  // 1.4826 makes the MAD a consistent sigma estimate for normal noise.
  const double scale = 1.4826 * median_of(dev);

  std::vector<double> kept;
  kept.reserve(samples.size());
  if (scale > 0.0) {
    for (double x : samples)
      if (std::fabs(x - med0) <= k * scale) kept.push_back(x);
  }
  // MAD == 0 (identical samples, tiny n) or everything rejected: keep all.
  if (kept.empty()) kept = samples;

  r.kept = kept.size();
  r.rejected = samples.size() - kept.size();
  r.median = median_of(kept);
  dev.clear();
  for (double x : kept) dev.push_back(std::fabs(x - r.median));
  r.mad = median_of(dev);
  double sum = 0.0;
  r.min = kept.front();
  r.max = kept.front();
  for (double x : kept) {
    sum += x;
    r.min = std::min(r.min, x);
    r.max = std::max(r.max, x);
  }
  r.mean = sum / (double)kept.size();
  return r;
}

HarnessOptions extract_harness_args(int& argc, char** argv) {
  HarnessOptions opts;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(a, "--reps") == 0 && has_value) {
      opts.reps = std::atoi(argv[++i]);
    } else if (std::strcmp(a, "--warmup") == 0 && has_value) {
      opts.warmup = std::atoi(argv[++i]);
    } else if (std::strcmp(a, "--progress") == 0) {
      opts.progress = true;
    } else if (std::strcmp(a, "--no-hw-counters") == 0) {
      opts.hw_counters = false;
    } else if (std::strcmp(a, "--backend") == 0 && has_value) {
      if (!parse_engine_backend(argv[++i], &opts.backend)) {
        std::fprintf(stderr, "unknown --backend '%s' (scalar|sliced)\n",
                     argv[i]);
        std::exit(2);
      }
    } else if (std::strcmp(a, "--workers") == 0 && has_value) {
      opts.workers = std::atoi(argv[++i]);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (opts.reps < 1) opts.reps = 1;
  if (opts.warmup < 0) opts.warmup = 0;
  if (opts.workers < 0) opts.workers = 0;
  return opts;
}

std::string host_fingerprint() {
#if defined(__unix__) || defined(__APPLE__)
  utsname u;
  if (uname(&u) == 0)
    return std::string(u.nodename) + "/" + std::string(u.machine);
#endif
  return "unknown";
}

BenchHarness::BenchHarness(std::string name, HarnessOptions opts)
    : name_(std::move(name)),
      opts_(std::move(opts)),
      profiler_(opts_.hw_counters) {}

void BenchHarness::configure_engine(EngineConfig& cfg) {
  cfg.profiler = &profiler_;
  // Backend is uniform across a run; the worker request is NOT applied
  // here — benches with several thread configurations (engine_throughput's
  // 1t vs parallel phases) apply options().workers where it belongs.
  cfg.backend = opts_.backend;
  if (opts_.progress) {
    const std::string label = name_;
    cfg.progress = [label](const EngineProgress& p) {
      const double pct =
          p.ops_total > 0 ? 100.0 * (double)p.ops_done / (double)p.ops_total
                          : 100.0;
      std::fprintf(stderr,
                   "  [%s] %5.1f%%  %llu/%llu ops  %.0f ops/s  "
                   "elapsed %.1fs  eta %.1fs\n",
                   label.c_str(), pct, (unsigned long long)p.ops_done,
                   (unsigned long long)p.ops_total, p.ops_per_sec, p.seconds,
                   p.eta_seconds);
    };
  }
}

RobustStats BenchHarness::measure(const std::string& phase,
                                  const std::function<void()>& fn,
                                  std::uint64_t ops_per_rep) {
  using clock = std::chrono::steady_clock;
  for (int i = 0; i < opts_.warmup; ++i) fn();

  Phase* slot = nullptr;
  for (Phase& p : phases_)
    if (p.name == phase) slot = &p;
  if (slot == nullptr) {
    phases_.push_back(Phase{phase, {}, ops_per_rep});
    slot = &phases_.back();
  }
  slot->ops_per_rep = ops_per_rep;

  for (int i = 0; i < opts_.reps; ++i) {
    ProfScope scope(&profiler_, "bench." + phase);
    scope.items(ops_per_rep);
    const auto t0 = clock::now();
    fn();
    slot->samples_s.push_back(
        std::chrono::duration<double>(clock::now() - t0).count());
  }
  return robust_stats(slot->samples_s);
}

std::vector<std::pair<std::string, RobustStats>> BenchHarness::results()
    const {
  std::vector<std::pair<std::string, RobustStats>> out;
  out.reserve(phases_.size());
  for (const Phase& p : phases_)
    out.emplace_back(p.name, robust_stats(p.samples_s));
  return out;
}

std::string BenchHarness::host_perf_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("host");
  w.value(host_fingerprint());
  w.key("hw_counters");
  w.value(profiler_.hw_enabled());
  w.key("reps");
  w.value(opts_.reps);
  w.key("warmup");
  w.value(opts_.warmup);
  w.key("phases");
  w.begin_object();
  for (const Phase& p : phases_) {
    const RobustStats s = robust_stats(p.samples_s);
    w.key(p.name);
    w.begin_object();
    w.key("median_s");
    w.value(s.median);
    w.key("mad_s");
    w.value(s.mad);
    w.key("mean_s");
    w.value(s.mean);
    w.key("min_s");
    w.value(s.min);
    w.key("max_s");
    w.value(s.max);
    w.key("kept");
    w.value(s.kept);
    w.key("rejected");
    w.value(s.rejected);
    w.key("ops_per_rep");
    w.value(p.ops_per_rep);
    w.key("ops_per_sec");
    w.value(s.median > 0.0 ? (double)p.ops_per_rep / s.median : 0.0);
    w.key("samples_s");
    w.begin_array();
    for (double x : p.samples_s) w.value(x);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.key("profiler");
  w.raw(profiler_.to_json());
  w.end_object();
  return w.str();
}

void BenchHarness::attach(Report& report) const {
  for (const Phase& p : phases_) {
    const RobustStats s = robust_stats(p.samples_s);
    const std::string prefix = "host." + p.name;
    report.timing(prefix + ".median_s", s.median);
    report.timing(prefix + ".mad_s", s.mad);
    report.timing(prefix + ".mean_s", s.mean);
    report.timing(prefix + ".min_s", s.min);
    report.timing(prefix + ".max_s", s.max);
    if (p.ops_per_rep > 0 && s.median > 0.0)
      report.timing(prefix + ".ops_per_sec",
                    (double)p.ops_per_rep / s.median);
  }
  report.section("bench_host_perf", host_perf_json());
}

}  // namespace csfma
