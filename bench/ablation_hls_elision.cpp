// Ablation — conversion elision in the insertion pass (Fig 12c): without
// removing the CvtToCs(CvtFromCs(x)) pairs between adjacent FMAs, every
// fused operation pays the full conversion latency and the chains stay in
// IEEE format between units.
//   ablation_hls_elision [--json <path>] [--csv <path>]
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

  // Host-perf phase: insertion with and without elision on the smallest
  // paper solver (the full sweep runs once below).
  BenchHarness harness("ablation_hls_elision", hopts);
  {
    KernelInfo k = parse_kernel(paper_solvers().front().ldlsolve_src);
    harness.measure("insert_elide", [&] {
      int sink = 0;
      for (bool elide : {true, false}) {
        Cdfg g = k.graph;
        insert_fma_units(g, lib, FmaStyle::Fcs, elide);
        sink += schedule_asap(g, lib).length;
      }
      volatile int keep = sink;
      (void)keep;
    });
  }

  Report report("ablation_hls_elision");
  report.meta("device", "Virtex-6");
  std::vector<std::vector<ReportCell>> rows;
  std::printf("Ablation — conversion elision between adjacent FMAs\n");
  std::printf("%-8s | %5s | %9s | %12s | %12s\n", "solver", "style", "discrete",
              "fused+elide", "fused, no elide");
  std::printf("%.*s\n", 64, "--------------------------------------------------"
                            "--------------");
  for (const auto& s : paper_solvers()) {
    KernelInfo k = parse_kernel(s.ldlsolve_src);
    const int base = schedule_asap(k.graph, lib).length;
    for (FmaStyle style : {FmaStyle::Pcs, FmaStyle::Fcs}) {
      Cdfg with = k.graph, without = k.graph;
      insert_fma_units(with, lib, style, /*elide=*/true);
      insert_fma_units(without, lib, style, /*elide=*/false);
      const int lw = schedule_asap(with, lib).length;
      const int lwo = schedule_asap(without, lib).length;
      const char* style_name = style == FmaStyle::Pcs ? "pcs" : "fcs";
      std::printf("%-8s | %5s | %9d | %12d | %12d\n", s.name.c_str(),
                  style_name, base, lw, lwo);
      const std::string key = s.name + "." + style_name;
      report.metric(key + ".cycles.discrete", (std::uint64_t)base);
      report.metric(key + ".cycles.elide", (std::uint64_t)lw);
      report.metric(key + ".cycles.no_elide", (std::uint64_t)lwo);
      rows.push_back({s.name, style_name, base, lw, lwo});
    }
  }
  if (!out_paths.json_path.empty() || !out_paths.csv_path.empty()) {
    report.table("hls_elision",
                 {"solver", "style", "discrete", "elide", "no_elide"},
                 std::move(rows));
    harness.attach(report);
    if (!out_paths.json_path.empty()) report.write_json(out_paths.json_path);
    if (!out_paths.csv_path.empty())
      report.write_csv(out_paths.csv_path, "hls_elision");
  }
  return 0;
}
