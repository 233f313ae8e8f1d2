// Table I — synthesis results on Virtex-6 (-1) at the paper's 200 MHz
// constraint: fmax, pipeline cycles, LUTs, DSPs for Xilinx CoreGen,
// FloPoCo FPPipeline, PCS-FMA and FCS-FMA.
//
//   table1_synthesis [--json <path>] [--csv <path>]
#include <cstdio>

#include "fpga/architectures.hpp"
#include "harness.hpp"
#include "telemetry/report.hpp"

namespace {

struct PaperRow {
  const char* arch;
  double fmax;
  int cycles, luts, dsps;
};

constexpr PaperRow kPaper[] = {
    {"Xilinx CoreGen", 244, 9, 1253, 13},
    {"FloPoCo FPPipeline", 190, 11, 1508, 7},
    {"PCS-FMA", 231, 5, 5832, 21},
    {"FCS-FMA", 211, 3, 4685, 12},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace csfma;
  const HarnessOptions hopts = extract_harness_args(argc, argv);
  const ReportCliArgs out_paths = extract_report_args(argc, argv);
  const Device dev = virtex6();
  BenchHarness harness("table1_synthesis", hopts);
  std::vector<SynthesisReport> rows;
  // 64 model evaluations per rep: one run is microseconds, too short to
  // time stably.
  harness.measure(
      "synthesis_model",
      [&] {
        for (int i = 0; i < 64; ++i) rows = table1_reports(dev, 200.0);
      },
      64 * 4 /* architectures */);

  std::printf("Table I — synthesis results (%s, 200 MHz constraint)\n",
              dev.name.c_str());
  std::printf("%-20s | %15s | %13s | %15s | %11s\n", "Architecture",
              "fMax paper/model", "Cyc paper/mod", "LUTs paper/model",
              "DSP pap/mod");
  std::printf("%.*s\n", 88,
              "----------------------------------------------------------------"
              "------------------------");
  for (const auto& r : rows) {
    const PaperRow* p = nullptr;
    for (const auto& pr : kPaper)
      if (r.arch == pr.arch) p = &pr;
    std::printf("%-20s | %7.0f / %5.1f | %5d / %5d | %7d / %5d | %4d / %4d\n",
                r.arch.c_str(), p ? p->fmax : 0.0, r.fmax_mhz,
                p ? p->cycles : 0, r.cycles, p ? p->luts : 0, r.luts,
                p ? p->dsps : 0, r.dsps);
  }

  std::printf("\nVirtex-5 portability check (PCS only; FCS needs the "
              "DSP48E1 pre-adder):\n");
  auto v5_rows = table1_reports(virtex5(), 200.0);
  for (const auto& r : v5_rows) {
    std::printf("  %-20s fmax=%6.1f MHz  cycles=%d  luts=%d  dsps=%d\n",
                r.arch.c_str(), r.fmax_mhz, r.cycles, r.luts, r.dsps);
  }

  if (!out_paths.json_path.empty() || !out_paths.csv_path.empty()) {
    Report report("table1_synthesis");
    report.meta("device", dev.name);
    report.meta("target_mhz", 200.0);
    auto synth_table = [](const std::vector<SynthesisReport>& reports,
                          const PaperRow* paper_rows, int num_paper) {
      std::vector<std::vector<ReportCell>> out;
      for (const auto& r : reports) {
        const PaperRow* p = nullptr;
        for (int i = 0; i < num_paper; ++i)
          if (r.arch == paper_rows[i].arch) p = &paper_rows[i];
        out.push_back({r.arch, p ? p->fmax : 0.0, r.fmax_mhz,
                       p ? p->cycles : 0, r.cycles, p ? p->luts : 0, r.luts,
                       p ? p->dsps : 0, r.dsps});
      }
      return out;
    };
    for (const auto& r : rows) {
      report.metric(r.arch + ".fmax_mhz", r.fmax_mhz);
      report.metric(r.arch + ".cycles", (std::uint64_t)r.cycles);
      report.metric(r.arch + ".luts", (std::uint64_t)r.luts);
      report.metric(r.arch + ".dsps", (std::uint64_t)r.dsps);
    }
    for (const auto& r : v5_rows)
      report.metric("virtex5." + r.arch + ".fmax_mhz", r.fmax_mhz);
    report.table("table1",
                 {"arch", "fmax_paper", "fmax_model", "cycles_paper",
                  "cycles_model", "luts_paper", "luts_model", "dsps_paper",
                  "dsps_model"},
                 synth_table(rows, kPaper, 4));
    harness.attach(report);
    if (!out_paths.json_path.empty()) report.write_json(out_paths.json_path);
    if (!out_paths.csv_path.empty())
      report.write_csv(out_paths.csv_path, "table1");
  }
  return 0;
}
