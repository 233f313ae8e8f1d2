// Extension experiment — compiling the FACTORIZATION kernel (ldlfactor)
// through the same flow.  The paper compiles only ldlsolve() (Fig 15);
// the factor kernel mixes multiply-add chains (fusable) with divisions by
// the pivots (not fusable), so the pass's *selective* use shows a smaller
// but still real reduction — exactly the paper's Sec. V recommendation.
// Scheduled like Fig 15: list scheduling with 39 FMA units.
//   ext_ldlfactor [--json <path>] [--csv <path>]
#include <cstdio>
#include <vector>

#include "frontend/parser.hpp"
#include "harness.hpp"
#include "hls/fma_insert.hpp"
#include "hls/schedule.hpp"
#include "solver/solvers.hpp"
#include "telemetry/report.hpp"

int main(int argc, char** argv) {
  using namespace csfma;
  HarnessOptions hopts = extract_harness_args(argc, argv);
  const ReportCliArgs out_paths = extract_report_args(argc, argv);
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  ResourceLimits limits;
  limits.fma = 39;  // Fig 15's unit budget (Sec. IV-D)

  // Host-perf phase: parse + fuse + schedule of the smallest factor kernel
  // (the full sweep runs once below).
  BenchHarness harness("ext_ldlfactor", hopts);
  harness.measure("factor_pipeline", [&] {
    KernelInfo k = parse_kernel(paper_solvers().front().ldlfactor_src);
    Cdfg g = k.graph;
    insert_fma_units(g, lib, FmaStyle::Fcs);
    volatile int keep = schedule_list(g, lib, limits).length;
    (void)keep;
  });

  Report report("ext_ldlfactor");
  report.meta("device", "Virtex-6");
  report.meta("fma_budget", limits.fma);
  std::vector<std::vector<ReportCell>> rows;
  std::printf("Extension — ldlfactor() schedule cycles (divisions stay "
              "discrete)\n");
  std::printf("%-8s | %5s | %4s | %9s | %9s | %9s | %8s\n", "solver", "stmts",
              "divs", "discrete", "PCS-FMA", "FCS-FMA", "red.FCS");
  std::printf("%.*s\n", 72, "--------------------------------------------------"
                            "----------------------");
  for (const auto& s : paper_solvers()) {
    KernelInfo k = parse_kernel(s.ldlfactor_src);
    const int base = schedule_list(k.graph, lib, limits).length;
    Cdfg pcs = k.graph, fcs = k.graph;
    insert_fma_units(pcs, lib, FmaStyle::Pcs);
    FmaInsertStats st = insert_fma_units(fcs, lib, FmaStyle::Fcs);
    const int lp = schedule_list(pcs, lib, limits).length;
    const int lf = schedule_list(fcs, lib, limits).length;
    const int divs = k.graph.count(OpKind::Div);
    const double red = 100.0 * (base - lf) / base;
    std::printf("%-8s | %5d | %4d | %9d | %9d | %9d | %7.1f%%  (%d FMAs)\n",
                s.name.c_str(), k.statements, divs, base, lp, lf, red,
                st.fma_inserted);
    report.metric(s.name + ".cycles.discrete", (std::uint64_t)base);
    report.metric(s.name + ".cycles.pcs", (std::uint64_t)lp);
    report.metric(s.name + ".cycles.fcs", (std::uint64_t)lf);
    report.metric(s.name + ".reduction_pct.fcs", red);
    report.metric(s.name + ".divs", (std::uint64_t)divs);
    report.metric(s.name + ".fma_inserted", (std::uint64_t)st.fma_inserted);
    rows.push_back({s.name, k.statements, divs, base, lp, lf, red,
                    st.fma_inserted});
  }
  if (!out_paths.json_path.empty() || !out_paths.csv_path.empty()) {
    report.table("ldlfactor",
                 {"solver", "stmts", "divs", "discrete", "pcs", "fcs",
                  "red_fcs_pct", "fma_inserted"},
                 std::move(rows));
    harness.attach(report);
    if (!out_paths.json_path.empty()) report.write_json(out_paths.json_path);
    if (!out_paths.csv_path.empty())
      report.write_csv(out_paths.csv_path, "ldlfactor");
  }
  return 0;
}
