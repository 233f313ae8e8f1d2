// Fig 15 — ldlsolve() schedule length for the three trajectory-planning
// solvers, compiled (a) with discrete CoreGen operators, (b) with automatic
// PCS-FMA insertion, (c) with automatic FCS-FMA insertion.  The paper
// reports 26.0%-50.1% reduction with up to 39 time-multiplexed FMA units.
//   fig15_hls [--json <path>] [--csv <path>]
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
  limits.fma = 39;  // the paper's unit budget (Sec. IV-D)

  // Host-perf phase: the full parse -> FMA-insert -> schedule pipeline over
  // every paper solver, compute only (the printing loop below runs once).
  BenchHarness harness("fig15_hls", hopts);
  {
    harness.measure("hls_pipeline", [&] {
      int sink = 0;
      for (const auto& s : paper_solvers()) {
        KernelInfo k = parse_kernel(s.ldlsolve_src);
        sink += schedule_list(k.graph, lib, limits).length;
        for (FmaStyle style : {FmaStyle::Pcs, FmaStyle::Fcs}) {
          Cdfg g = k.graph;
          insert_fma_units(g, lib, style);
          sink += schedule_list(g, lib, limits).length;
        }
      }
      volatile int keep = sink;  // defeat dead-code elimination
      (void)keep;
    });
  }

  Report report("fig15_hls");
  report.meta("device", "Virtex-6");
  report.meta("fma_budget", limits.fma);
  std::vector<std::vector<ReportCell>> rows;

  std::printf("Fig 15 — ldlsolve() schedule cycles (200 MHz operators)\n");
  std::printf("%-8s | %4s | %5s | %9s | %9s | %9s | %8s | %8s\n", "solver",
              "KKT", "stmts", "discrete", "PCS-FMA", "FCS-FMA", "red.PCS",
              "red.FCS");
  std::printf("%.*s\n", 84, "--------------------------------------------------"
                            "----------------------------------");
  for (const auto& s : paper_solvers()) {
    KernelInfo k = parse_kernel(s.ldlsolve_src);
    const int base = schedule_list(k.graph, lib, limits).length;

    Cdfg pcs = k.graph;
    FmaInsertStats sp = insert_fma_units(pcs, lib, FmaStyle::Pcs);
    const int lp = schedule_list(pcs, lib, limits).length;

    Cdfg fcs = k.graph;
    FmaInsertStats sf = insert_fma_units(fcs, lib, FmaStyle::Fcs);
    const int lf = schedule_list(fcs, lib, limits).length;

    const double red_pcs = 100.0 * (base - lp) / base;
    const double red_fcs = 100.0 * (base - lf) / base;
    std::printf("%-8s | %4d | %5d | %9d | %9d | %9d | %7.1f%% | %7.1f%%\n",
                s.name.c_str(), s.problem.nk, k.statements, base, lp, lf,
                red_pcs, red_fcs);
    std::printf("         fma inserted: pcs=%d (elided %d cvts), fcs=%d "
                "(elided %d cvts)\n",
                sp.fma_inserted, sp.conversions_elided, sf.fma_inserted,
                sf.conversions_elided);
    report.metric(s.name + ".cycles.discrete", (std::uint64_t)base);
    report.metric(s.name + ".cycles.pcs", (std::uint64_t)lp);
    report.metric(s.name + ".cycles.fcs", (std::uint64_t)lf);
    report.metric(s.name + ".reduction_pct.pcs", red_pcs);
    report.metric(s.name + ".reduction_pct.fcs", red_fcs);
    report.metric(s.name + ".fma_inserted.fcs",
                  (std::uint64_t)sf.fma_inserted);
    report.metric(s.name + ".conversions_elided.fcs",
                  (std::uint64_t)sf.conversions_elided);
    rows.push_back({s.name, s.problem.nk, k.statements, base, lp, lf, red_pcs,
                    red_fcs, sp.fma_inserted, sp.conversions_elided,
                    sf.fma_inserted, sf.conversions_elided});
  }
  std::printf("\npaper: reductions of 26.0%% to 50.1%%, growing with solver\n"
              "complexity, FCS > PCS (Sec. IV-D).\n");

  if (!out_paths.json_path.empty() || !out_paths.csv_path.empty()) {
    report.table("fig15",
                 {"solver", "kkt", "stmts", "discrete", "pcs", "fcs",
                  "red_pcs_pct", "red_fcs_pct", "pcs_fma", "pcs_elided",
                  "fcs_fma", "fcs_elided"},
                 std::move(rows));
    harness.attach(report);
    if (!out_paths.json_path.empty()) report.write_json(out_paths.json_path);
    if (!out_paths.csv_path.empty())
      report.write_csv(out_paths.csv_path, "fig15");
  }
  return 0;
}
