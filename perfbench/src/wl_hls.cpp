// hls_flow: parse, PCS/FCS FMA insertion and scheduling of the paper's
// kernels — the three ldlsolve kernels (list scheduler, FMA budget 39), the
// three ldlfactor kernels (ASAP) and examples/kernels/* (ASAP, like the
// hls_flow example).  This is the paper's second half (Fig 15); it touches
// none of the engine, so frontend, hls and solver are measured here.
//
// ldlfactor is scheduled ASAP because schedule_list does not terminate on
// it ("list scheduler runaway"): Cdfg::users() lists a node once even when
// it reads the same producer twice, so that node's remaining_deps never
// reaches zero.  See NOTES.md.
//
// One round compiles every kernel once, in a seed-dependent order.
#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "common/rng.hpp"
#include "fpga/device.hpp"
#include "frontend/parser.hpp"
#include "hls/fma_insert.hpp"
#include "hls/interp.hpp"
#include "hls/oplib.hpp"
#include "hls/schedule.hpp"
#include "solver/solvers.hpp"

namespace perfbench {
namespace {

using namespace csfma;

constexpr int kFmaBudget = 39;  // the paper's shared FMA units (Sec. IV-D)
constexpr FmaStyle kStyles[] = {FmaStyle::None, FmaStyle::Pcs, FmaStyle::Fcs};
const char* const kStyleKey[] = {"discrete", "pcs", "fcs"};
const char* const kSizeKey[] = {"small", "medium", "large"};

struct Kernel {
  std::string name;
  std::string src;
  bool list = false;  // list scheduler with the FMA budget, else ASAP
  int solver = -1;    // index into paper_solvers() for ldlsolve kernels
};

struct Setup {
  std::vector<BenchmarkSolver> solvers;
  std::vector<KernelInstance> instances;  // per solver: ldlsolve inputs
  OperatorLibrary lib;
  std::vector<Kernel> kernels;
};

Setup make_setup(const Options& opt, Tracer* t) {
  Setup s;
  {
    Tracer::Scope span(t, "solver.codegen");
    s.solvers = paper_solvers();
  }
  {
    Tracer::Scope span(t, "solver.kernel_instance");
    for (const BenchmarkSolver& b : s.solvers)
      s.instances.push_back(make_kernel_instance(b, opt.seed));
  }
  {
    Tracer::Scope span(t, "fpga.operator_library");
    s.lib = OperatorLibrary::for_device(virtex6());
  }
  for (std::size_t i = 0; i < s.solvers.size(); ++i) {
    s.kernels.push_back({"ldlsolve-" + s.solvers[i].name,
                         s.solvers[i].ldlsolve_src, true, (int)i});
    s.kernels.push_back(
        {"ldlfactor-" + s.solvers[i].name, s.solvers[i].ldlfactor_src, false});
  }
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(
           std::filesystem::path(opt.root) / "examples" / "kernels"))
    if (e.path().extension() == ".kernel") files.push_back(e.path());
  std::sort(files.begin(), files.end());
  for (const auto& f : files) {
    std::ifstream in(f);
    std::stringstream ss;
    ss << in.rdbuf();
    s.kernels.push_back({f.stem().string(), ss.str(), false});
  }
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 0x415);
  for (std::size_t i = s.kernels.size(); i > 1; --i)
    std::swap(s.kernels[i - 1], s.kernels[rng.next_below(i)]);
  return s;
}

struct Compiled {
  Cdfg graph;
  Schedule sched;
  FmaInsertStats stats;
};

int latency_of(const Cdfg& g, const OperatorLibrary& lib, int id) {
  const Node& n = g.node(id);
  if (n.kind == OpKind::Dot) return lib.dot_attr(n.arity() / 2).latency;
  return lib.attr(n.kind, n.style).latency;
}

// Independent re-check of a schedule: every operand is available when its
// user starts, the length covers every result, and a list schedule issues
// at most kFmaBudget FMAs per cycle.
std::string check_schedule(const Cdfg& g, const OperatorLibrary& lib,
                           const Schedule& s, bool list) {
  int length = 0;
  std::map<int, int> fma_issues;
  for (int id : g.live_nodes()) {
    const int start = s.start[(std::size_t)id];
    if (start < 0) return "live node " + std::to_string(id) + " unscheduled";
    for (int a : g.node(id).args)
      if (start < s.start[(std::size_t)a] + latency_of(g, lib, a))
        return "node " + std::to_string(id) + " starts before operand " +
               std::to_string(a) + " is ready";
    length = std::max(length, start + latency_of(g, lib, id));
    if (g.node(id).kind == OpKind::Fma && ++fma_issues[start] > kFmaBudget &&
        list)
      return "more than 39 FMAs issued in cycle " + std::to_string(start);
  }
  if (length != s.length) return "schedule length does not cover the results";
  return "";
}

}  // namespace

Outcome run_hls_flow(const Options& opt, Tracer* tracer) {
  Outcome out;
  Setup setup;
  Samples setup_s = timed_setup(5, [&] { setup = make_setup(opt, tracer); });
  const OperatorLibrary& lib = setup.lib;
  ResourceLimits limits;
  limits.fma = kFmaBudget;

  // Compile one kernel in all three styles; returns the schedule lengths.
  auto compile = [&](Tracer* t, const Kernel& k, Compiled* keep) {
    KernelInfo info;
    {
      Tracer::Scope span(t, "frontend.parse");
      info = parse_kernel(k.src);
    }
    std::int64_t cycles = 0, fma = 0, rounds = 0;
    for (int st = 0; st < 3; ++st) {
      Compiled c;
      {
        Tracer::Scope span(t, "hls.copy");
        c.graph = info.graph;
      }
      if (kStyles[st] != FmaStyle::None) {
        Tracer::Scope span(t, "hls.insert");
        c.stats = insert_fma_units(c.graph, lib, kStyles[st]);
      }
      if (k.list) {
        Tracer::Scope span(t, "hls.schedule_list");
        c.sched = schedule_list(c.graph, lib, limits);
      } else {
        Tracer::Scope span(t, "hls.schedule_asap");
        c.sched = schedule_asap(c.graph, lib);
      }
      cycles += c.sched.length;
      fma += c.stats.fma_inserted;
      rounds += c.stats.rounds;
      if (keep != nullptr) keep[st] = std::move(c);
    }
    return std::array<std::int64_t, 4>{cycles, fma, rounds,
                                       info.graph.num_nodes()};
  };

  // First pass, kept for the oracles: the deterministic counts.
  const std::size_t nk = setup.kernels.size();
  std::vector<std::array<Compiled, 3>> first(nk);
  std::array<std::int64_t, 4> pass{};
  for (std::size_t i = 0; i < nk; ++i) {
    const auto r = compile(nullptr, setup.kernels[i], first[i].data());
    for (int j = 0; j < 4; ++j) pass[(std::size_t)j] += r[(std::size_t)j];
  }

  const RoundLog log =
      run_rounds(opt.seconds, tracer, [&](Tracer* t, std::uint64_t id) {
        std::array<std::int64_t, 4> sum{};
        for (const Kernel& k : setup.kernels) {
          Tracer::Scope span(t, "hls.compile", id);
          const auto r = compile(t, k, nullptr);
          for (int j = 0; j < 4; ++j) sum[(std::size_t)j] += r[(std::size_t)j];
        }
        if (sum != pass)
          out.fail(nk, "a repeated compile pass differs from the first");
      });
  out.attempted = nk * (1 + log.rounds);

  // Oracles: every first-pass schedule re-checked; every FMA-inserted
  // ldlsolve evaluated through the bit-accurate units against the dense
  // LDL' reference solution.
  Samples interp_ms;
  for (std::size_t i = 0; i < nk; ++i) {
    const Kernel& k = setup.kernels[i];
    for (int st = 0; st < 3; ++st) {
      const Compiled& c = first[i][(std::size_t)st];
      const std::string why = check_schedule(c.graph, lib, c.sched, k.list);
      if (!why.empty()) out.fail(1, k.name + "/" + kStyleKey[st] + ": " + why);
      if (k.solver < 0) continue;
      const BenchmarkSolver& solver = setup.solvers[(std::size_t)k.solver];
      const KernelInstance& inst = setup.instances[(std::size_t)k.solver];
      std::map<std::string, double> got;
      const std::int64_t t0 = now_ns();
      {
        Tracer::Scope span(tracer, "hls.interp");
        got = Evaluator(c.graph).run(inst.inputs);
      }
      interp_ms.add((double)(now_ns() - t0) * 1e-6);
      ++out.attempted;
      for (int x = 0; x < solver.problem.nk; ++x) {
        const double want = inst.expect_x[(std::size_t)x];
        const double v = got.at(element_name("x", x, true));
        if (!(std::fabs(v - want) <= 1e-8 * (1.0 + std::fabs(want)))) {
          out.fail(1, k.name + "/" + kStyleKey[st] +
                          ": x differs from the dense reference");
          break;
        }
      }
      out.metrics["hls.cycles." + std::string(kSizeKey[k.solver]) + "." +
                  kStyleKey[st]] = c.sched.length;
    }
  }

  auto& m = out.metrics;
  const double rate = log.rate((double)nk);
  m["throughput_per_s"] = rate;
  m["hls_kernels_per_s"] = rate;
  m["latency_p50_ms"] = log.untraced_ms.median();
  m["latency_p90_ms"] = log.untraced_ms.quantile(0.9);
  m["latency_n"] = (double)log.untraced_ms.size();
  m["sched_cycles"] = (double)pass[0];
  m["hls.fma_inserted"] = (double)pass[1];
  m["hls.insert_rounds"] = (double)pass[2];
  m["hls.cdfg_nodes"] = (double)pass[3];
  m["hls.interp_ms"] = interp_ms.median();

  if (tracer != nullptr) {
    const auto in = tracer->totals(true);
    const auto post = tracer->totals(false);
    m["frontend.parse_ms"] = per_round_s(in, "frontend.parse", log) * 1e3;
    m["hls.insert_ms"] = per_round_s(in, "hls.insert", log) * 1e3;
    m["hls.schedule_list_ms"] = per_round_s(in, "hls.schedule_list", log) * 1e3;
    m["hls.schedule_asap_ms"] = per_round_s(in, "hls.schedule_asap", log) * 1e3;
    const auto cg = post.find("solver.codegen");
    if (cg != post.end())
      m["solver.codegen_s"] = cg->second.total_s / (double)cg->second.count;
    add_trace_metrics(*tracer, log, &out);
  }
  Setup again;
  finish_setup(std::move(setup_s), 5,
               [&] { again = make_setup(opt, tracer); }, &out);
  for (std::size_t i = 0; i < nk; ++i)
    out.require(again.kernels[i].src == setup.kernels[i].src,
                "kernels do not regenerate identically from the seed");
  return out;
}

}  // namespace perfbench
