// csfma_perfbench: the csfma benchmark driver.
//
//   csfma_perfbench --workload batch|chained|hls_flow|service_mix
//                   --seed N --seconds S --trace 0|1
//                   [--root DIR] [--trace-out FILE] [--record DIR]
//
// Runs one workload closed-loop for S seconds on inputs generated from
// seed N, checks its outputs against independent oracles (and, with
// --record, its deterministic counts against earlier runs), and prints one
// JSON object as the last line of stdout:
//   {"correct":...,"attempted":...,"failed":...,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, measured in a run whose rounds alternate traced and
// untraced (see NOTES.md).  A human-readable table goes to stderr.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by every workload with --trace 0.  BENCHMARK.json lists the same
// names and units; perfbench/run.py checks the two agree.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
};

// Printed by every workload with --trace 1; a layer a workload does not
// touch reports 0 (the "should not move" prediction of NOTES.md).
const MetricDef kPerLayer[] = {
    // Workload-specific views of the end-to-end metrics.
    {"sim_ops_per_s", "ops/s"},
    {"hls_kernels_per_s", "kernels/s"},
    {"requests_per_s", "req/s"},
    {"cold_p50_ms", "ms"},
    {"cold_p99_ms", "ms"},
    {"hit_p50_ms", "ms"},
    {"hit_p99_ms", "ms"},
    {"sweep_p50_ms", "ms"},
    {"cold_n", "count"},
    {"hit_n", "count"},
    {"sweep_n", "count"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"latency_n", "count"},
    {"failed_ratio", "ratio"},
    {"mean_ulp_error", "ulp"},
    {"sched_cycles", "cycles"},
    // engine
    {"engine.run_batch_s", "s"},
    {"engine.fill_s", "s"},
    {"engine.simulate_s", "s"},
    {"engine.merge_s", "s"},
    {"engine.overhead_s", "s"},
    {"engine.run_chained_s", "s"},
    // fma units and slices
    {"unit.pcs.batch_ns_per_op", "ns"},
    {"unit.fcs.batch_ns_per_op", "ns"},
    {"unit.classic.batch_ns_per_op", "ns"},
    {"unit.discrete.batch_ns_per_op", "ns"},
    {"unit.pcs.scalar_ns_per_op", "ns"},
    {"unit.pcs.sliced_ns_per_op", "ns"},
    {"slice.speedup_vs_scalar.pcs", "ratio"},
    {"unit.pcs.lift_ns", "ns"},
    {"unit.pcs.fma_ns", "ns"},
    {"unit.pcs.lower_ns", "ns"},
    {"unit.fcs.lift_ns", "ns"},
    {"unit.fcs.fma_ns", "ns"},
    {"unit.fcs.lower_ns", "ns"},
    {"unit.classic.fma_ns", "ns"},
    {"unit.discrete.fma_ns", "ns"},
    // energy, introspect
    {"energy.fill_chain_s", "s"},
    {"introspect.events_per_op", "ratio"},
    // solver, frontend, hls
    {"solver.codegen_s", "s"},
    {"frontend.parse_ms", "ms"},
    {"hls.insert_ms", "ms"},
    {"hls.insert_rounds", "count"},
    {"hls.schedule_list_ms", "ms"},
    {"hls.schedule_asap_ms", "ms"},
    {"hls.interp_ms", "ms"},
    {"hls.cdfg_nodes", "count"},
    {"hls.fma_inserted", "count"},
    // service, dse
    {"service.parse_us", "us"},
    {"service.server_latency_ms.p50", "ms"},
    {"transport.overhead_ms.p50", "ms"},
    {"service.queue_wait_ms.p50", "ms"},
    {"service.queue_wait_ms.p99", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.busy_rejects", "count"},
    {"dse.eval_ms", "ms"},
    // Deterministic counts: never move under a speed-only change.
    {"activity.pcs.toggles_per_op", "toggles"},
    {"activity.fcs.toggles_per_op", "toggles"},
    {"activity.classic.toggles_per_op", "toggles"},
    {"activity.discrete.toggles_per_op", "toggles"},
    {"result_fnv.pcs", "hash"},
    {"result_fnv.fcs", "hash"},
    {"result_fnv.classic", "hash"},
    {"result_fnv.discrete", "hash"},
    {"hls.cycles.small.discrete", "cycles"},
    {"hls.cycles.small.pcs", "cycles"},
    {"hls.cycles.small.fcs", "cycles"},
    {"hls.cycles.medium.discrete", "cycles"},
    {"hls.cycles.medium.pcs", "cycles"},
    {"hls.cycles.medium.fcs", "cycles"},
    {"hls.cycles.large.discrete", "cycles"},
    {"hls.cycles.large.pcs", "cycles"},
    {"hls.cycles.large.fcs", "cycles"},
    // The trace itself.
    {"trace.overhead_pct", "%"},
    {"trace.reconcile_pct", "%"},
    {"trace.spans", "count"},
    {"self_pct.bench", "%"},
    {"self_pct.engine", "%"},
    {"self_pct.fma", "%"},
    {"self_pct.energy", "%"},
    {"self_pct.introspect", "%"},
    {"self_pct.activity", "%"},
    {"self_pct.frontend", "%"},
    {"self_pct.hls", "%"},
    {"self_pct.solver", "%"},
    {"self_pct.fpga", "%"},
    {"self_pct.dse", "%"},
    {"self_pct.service", "%"},
};

// Simulated results and counts that no speed-only change may move.
bool deterministic(const std::string& name) {
  for (const char* prefix : {"activity.", "result_fnv.", "hls.cycles."})
    if (name.rfind(prefix, 0) == 0) return true;
  for (const char* n : {"mean_ulp_error", "sched_cycles", "hls.fma_inserted",
                        "hls.insert_rounds", "hls.cdfg_nodes",
                        "introspect.events_per_op"})
    if (name == n) return true;
  return false;
}

// Cross-run determinism: the first run of a (workload, seed) in `dir`
// records its deterministic counts; every later run must repeat them
// exactly.  `dir` is per binary, so a code change starts a new record.
void check_record(const std::string& dir, const Options& opt, Outcome* out) {
  std::string now;
  char buf[128];
  for (const auto& [name, v] : out->metrics)
    if (deterministic(name)) {
      std::snprintf(buf, sizeof buf, "%s %.17g\n", name.c_str(), v);
      now += buf;
    }
  const std::string path =
      dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".txt";
  std::ifstream in(path);
  if (in) {
    std::stringstream before;
    before << in.rdbuf();
    out->require(before.str() == now,
                 "deterministic counts differ from an earlier run (" + path +
                     ")");
    return;
  }
  std::ofstream(path) << now;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "csfma_perfbench: %s\nusage: csfma_perfbench --workload "
               "batch|chained|hls_flow|service_mix --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--trace-out FILE] [--record DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string trace_out, record;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && opt.seconds > 0.0 && opt.seconds <= 120.0;
    } else if (a == "--trace") {
      opt.trace = std::string(v) == "1";
      have_trace = opt.trace || std::string(v) == "0";
    } else if (a == "--root") {
      opt.root = v;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--record") {
      record = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds (0 < S <= 120) and --trace 0|1 are required");

  Tracer tracer;
  Tracer* t = opt.trace ? &tracer : nullptr;
  Outcome out;
  try {
    if (opt.workload == "batch") out = run_batch(opt, t);
    else if (opt.workload == "chained") out = run_chained(opt, t);
    else if (opt.workload == "hls_flow") out = run_hls_flow(opt, t);
    else if (opt.workload == "service_mix") out = run_service_mix(opt, t);
    else usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "csfma_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  out.metrics["failed_ratio"] =
      ratio((double)out.failed, (double)out.attempted);
  if (out.attempted == 0) out.fail(1, "no operation was attempted");

  // Every name a workload sets must be a declared metric: a typo would
  // otherwise silently report 0.
  std::set<std::string> declared;
  for (const MetricDef& d : kEndToEnd) declared.insert(d.name);
  for (const MetricDef& d : kPerLayer) declared.insert(d.name);
  for (const auto& [name, v] : out.metrics) {
    out.require(declared.count(name) == 1, "undeclared metric " + name);
    out.require(std::isfinite(v), "non-finite metric " + name);
  }
  for (const MetricDef& d : kEndToEnd)
    out.require(out.metrics.count(d.name) == 1 && out.metrics[d.name] > 0.0,
                std::string("end-to-end metric missing or not positive: ") +
                    d.name);

  if (!record.empty()) check_record(record, opt, &out);
  if (t != nullptr && !trace_out.empty() && !tracer.write_json(trace_out))
    std::fprintf(stderr, "csfma_perfbench: cannot write %s\n",
                 trace_out.c_str());

  const bool correct = out.failed == 0;
  for (const std::string& f : out.failures)
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  std::fprintf(stderr, "%-34s %22s  %s\n", "metric", "value", "unit");
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  const MetricDef* begin = opt.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef* end = opt.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const MetricDef* d = begin; d != end; ++d) {
    const auto it = out.metrics.find(d->name);
    const double v =
        it == out.metrics.end() || !std::isfinite(it->second) ? 0.0
                                                               : it->second;
    std::fprintf(stderr, "%-34s %22.6f  %s\n", d->name, v, d->unit);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    json += std::string(d == begin ? "" : ", ") + "\"" + d->name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + d->unit + "\"}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
