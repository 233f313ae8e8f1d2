// Ablation — sum-tree reassociation vs operator fusion: the two classic
// ways to attack a long accumulation, and how they interact.
//
//   discrete chain         : N * (add latency) depth
//   balanced discrete tree : log2(N) * (add latency)         (reassociate)
//   FCS-FMA chain          : N * (3 cycles) + conversions    (Sec. III-I)
//   fused dot unit         : 1 unit, log-depth internal tree (extension)
//   balance -> then fuse   : the interaction case
//   ablation_reassoc [--json <path>] [--csv <path>]
#include <cstdio>
#include <vector>

#include "frontend/parser.hpp"
#include "harness.hpp"
#include "hls/dot_insert.hpp"
#include "hls/fma_insert.hpp"
#include "hls/reassociate.hpp"
#include "hls/schedule.hpp"
#include "solver/solvers.hpp"
#include "telemetry/report.hpp"

int main(int argc, char** argv) {
  using namespace csfma;
  HarnessOptions hopts = extract_harness_args(argc, argv);
  const ReportCliArgs out_paths = extract_report_args(argc, argv);
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());

  // Host-perf phase: the reassociate + fuse transform pipeline on the
  // smallest paper solver (the full sweep runs once below).
  BenchHarness harness("ablation_reassoc", hopts);
  {
    KernelInfo k = parse_kernel(paper_solvers().front().ldlsolve_src);
    harness.measure("reassoc_fuse", [&] {
      Cdfg g = k.graph;
      reassociate_sums(g, lib);
      insert_fma_units(g, lib, FmaStyle::Fcs);
      volatile int keep = schedule_asap(g, lib).length;
      (void)keep;
    });
  }

  Report report("ablation_reassoc");
  report.meta("device", "Virtex-6");
  std::vector<std::vector<ReportCell>> rows;

  std::printf("Ablation — reassociation vs fusion on the ldlsolve kernels\n\n");
  std::printf("%-8s | %8s | %8s | %8s | %8s | %8s\n", "solver", "chain",
              "balanced", "FMA", "bal+FMA", "dots");
  std::printf("%.*s\n", 62, "--------------------------------------------------"
                            "------------");
  for (const auto& s : paper_solvers()) {
    KernelInfo k = parse_kernel(s.ldlsolve_src);
    const int base = schedule_asap(k.graph, lib).length;

    Cdfg bal = k.graph;
    reassociate_sums(bal, lib);
    const int lbal = schedule_asap(bal, lib).length;

    Cdfg fma = k.graph;
    insert_fma_units(fma, lib, FmaStyle::Fcs);
    const int lfma = schedule_asap(fma, lib).length;

    Cdfg both = k.graph;
    reassociate_sums(both, lib);
    insert_fma_units(both, lib, FmaStyle::Fcs);
    const int lboth = schedule_asap(both, lib).length;

    Cdfg dot = k.graph;
    insert_dot_products(dot, lib, 16);
    const int ldot = schedule_asap(dot, lib).length;

    std::printf("%-8s | %8d | %8d | %8d | %8d | %8d\n", s.name.c_str(), base,
                lbal, lfma, lboth, ldot);
    report.metric(s.name + ".cycles.chain", (std::uint64_t)base);
    report.metric(s.name + ".cycles.balanced", (std::uint64_t)lbal);
    report.metric(s.name + ".cycles.fma", (std::uint64_t)lfma);
    report.metric(s.name + ".cycles.bal_fma", (std::uint64_t)lboth);
    report.metric(s.name + ".cycles.dots", (std::uint64_t)ldot);
    rows.push_back({s.name, base, lbal, lfma, lboth, ldot});
  }
  std::printf("\nreading: substitution kernels are CHAIN-shaped: the binding\n"
              "row-to-row dependency enters through the LAST term, which the\n"
              "source order already places at the end of the linear sum — a\n"
              "balanced tree instead buries it log-deep behind unrelated\n"
              "terms, so reassociation HURTS here (and breaks the pair/\n"
              "elision structure for fusion: bal+FMA > FMA).  The FMA chain\n"
              "remains the strongest transform — the paper's design target.\n"
              "(Contrast with the tree-shaped MVM rows in ext_dot_hls, where\n"
              "balancing/dots win.)\n");
  if (!out_paths.json_path.empty() || !out_paths.csv_path.empty()) {
    report.table("reassoc",
                 {"solver", "chain", "balanced", "fma", "bal_fma", "dots"},
                 std::move(rows));
    harness.attach(report);
    if (!out_paths.json_path.empty()) report.write_json(out_paths.json_path);
    if (!out_paths.csv_path.empty())
      report.write_csv(out_paths.csv_path, "reassoc");
  }
  return 0;
}
