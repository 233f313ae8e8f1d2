// Extension experiment — fused dot products in the HLS flow: the
// sum-of-products TREES of a matrix-vector multiply (the residual
// computations around the paper's solver kernel) collapse to single
// fused units in log depth, where the FMA chains stay linear.
//   ext_dot_hls [--json <path>] [--csv <path>]
#include <cstdio>
#include <sstream>
#include <vector>

#include "frontend/parser.hpp"
#include "harness.hpp"
#include "hls/dot_insert.hpp"
#include "hls/fma_insert.hpp"
#include "hls/schedule.hpp"
#include "solver/solvers.hpp"
#include "telemetry/report.hpp"

namespace {

using namespace csfma;

/// y = A x for a dense n x n matrix: one sum-of-products row per output.
std::string mvm_kernel(int n) {
  std::ostringstream os;
  os << "kernel mvm" << n << " {\n";
  os << "  input double A[" << n * n << "];\n";
  os << "  input double x[" << n << "];\n";
  os << "  output double y[" << n << "];\n";
  for (int i = 0; i < n; ++i) {
    os << "  y[" << i << "] = A[" << i * n << "]*x[0]";
    for (int j = 1; j < n; ++j)
      os << " + A[" << i * n + j << "]*x[" << j << "]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions hopts = extract_harness_args(argc, argv);
  const ReportCliArgs out_paths = extract_report_args(argc, argv);
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());

  // Host-perf phase: dot insertion + scheduling on the 16x16 MVM (the
  // full sweep runs once below).
  BenchHarness harness("ext_dot_hls", hopts);
  {
    KernelInfo k = parse_kernel(mvm_kernel(16));
    harness.measure("mvm_dot_insert.16", [&] {
      Cdfg g = k.graph;
      insert_dot_products(g, lib, 16);
      volatile int keep = schedule_asap(g, lib).length;
      (void)keep;
    });
  }

  Report report("ext_dot_hls");
  report.meta("device", "Virtex-6");
  report.meta("max_dot_terms", 16);
  std::vector<std::vector<ReportCell>> mvm_rows, solve_rows;

  std::printf("Extension — fused dot products in HLS (schedule cycles)\n\n");
  std::printf("-- dense matrix-vector multiply (tree-shaped sums) --\n");
  std::printf("%6s | %9s | %11s | %11s\n", "n", "discrete", "FMA chains",
              "fused dots");
  for (int n : {4, 8, 12, 16}) {
    KernelInfo k = parse_kernel(mvm_kernel(n));
    const int base = schedule_asap(k.graph, lib).length;
    Cdfg fma = k.graph;
    insert_fma_units(fma, lib, FmaStyle::Fcs);
    Cdfg dot = k.graph;
    DotInsertStats st = insert_dot_products(dot, lib, /*max_terms=*/16);
    const int lfma = schedule_asap(fma, lib).length;
    const int ldot = schedule_asap(dot, lib).length;
    std::printf("%6d | %9d | %11d | %11d  (%d dots)\n", n, base, lfma, ldot,
                st.dots_inserted);
    const std::string key = "mvm." + std::to_string(n);
    report.metric(key + ".cycles.discrete", (std::uint64_t)base);
    report.metric(key + ".cycles.fma", (std::uint64_t)lfma);
    report.metric(key + ".cycles.dots", (std::uint64_t)ldot);
    report.metric(key + ".dots_inserted", (std::uint64_t)st.dots_inserted);
    mvm_rows.push_back({n, base, lfma, ldot, st.dots_inserted});
  }

  std::printf("\n-- ldlsolve() (chain-shaped sums: FMA chains win) --\n");
  std::printf("%-8s | %9s | %11s | %11s | %11s\n", "solver", "discrete",
              "FMA chains", "fused dots", "dots+FMA");
  for (const auto& s : paper_solvers()) {
    KernelInfo k = parse_kernel(s.ldlsolve_src);
    const int base = schedule_asap(k.graph, lib).length;
    Cdfg fma = k.graph;
    insert_fma_units(fma, lib, FmaStyle::Fcs);
    Cdfg dot = k.graph;
    insert_dot_products(dot, lib, 16);
    Cdfg both = k.graph;
    insert_dot_products(both, lib, 16);
    insert_fma_units(both, lib, FmaStyle::Fcs);
    const int lfma = schedule_asap(fma, lib).length;
    const int ldot = schedule_asap(dot, lib).length;
    const int lboth = schedule_asap(both, lib).length;
    std::printf("%-8s | %9d | %11d | %11d | %11d\n", s.name.c_str(), base,
                lfma, ldot, lboth);
    report.metric(s.name + ".cycles.discrete", (std::uint64_t)base);
    report.metric(s.name + ".cycles.fma", (std::uint64_t)lfma);
    report.metric(s.name + ".cycles.dots", (std::uint64_t)ldot);
    report.metric(s.name + ".cycles.dots_fma", (std::uint64_t)lboth);
    solve_rows.push_back({s.name, base, lfma, ldot, lboth});
  }
  std::printf("\nreading: tree-shaped reductions favour the fused dot unit\n"
              "(one log-depth unit per row); the substitution chains of\n"
              "ldlsolve favour FMA chains (the dot cannot start before its\n"
              "last input, so chains of dots serialize at full unit latency).\n");
  if (!out_paths.json_path.empty() || !out_paths.csv_path.empty()) {
    report.table("mvm", {"n", "discrete", "fma", "dots", "dots_inserted"},
                 std::move(mvm_rows));
    report.table("ldlsolve", {"solver", "discrete", "fma", "dots", "dots_fma"},
                 std::move(solve_rows));
    harness.attach(report);
    if (!out_paths.json_path.empty()) report.write_json(out_paths.json_path);
    if (!out_paths.csv_path.empty()) report.write_csv(out_paths.csv_path, "mvm");
  }
  return 0;
}
