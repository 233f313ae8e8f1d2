// Extension experiment — the paper's motivating domain (Sec. I: "digital
// signal processing and control engineering applications"): an FIR filter
// (tree-shaped taps, dot-friendly) and an IIR biquad recurrence (Listing-1
// shaped chains, FMA-friendly) through the compilation strategies.
//   ext_dsp_kernels [--json <path>] [--csv <path>]
#include <cstdio>
#include <sstream>
#include <vector>

#include "frontend/parser.hpp"
#include "harness.hpp"
#include "hls/dot_insert.hpp"
#include "hls/fma_insert.hpp"
#include "hls/schedule.hpp"
#include "telemetry/report.hpp"

namespace {

using namespace csfma;

/// y[n] = sum_k h[k] * x[n+k] for `samples` outputs of a `taps`-tap FIR.
std::string fir_kernel(int taps, int samples) {
  std::ostringstream os;
  os << "kernel fir" << taps << " {\n";
  os << "  input double h[" << taps << "];\n";
  os << "  input double x[" << samples + taps - 1 << "];\n";
  os << "  output double y[" << samples << "];\n";
  for (int n = 0; n < samples; ++n) {
    os << "  y[" << n << "] = h[0]*x[" << n << "]";
    for (int k = 1; k < taps; ++k)
      os << " + h[" << k << "]*x[" << n + k << "]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

/// A direct-form-II-free biquad recurrence over `samples` steps:
///   y[n] = b0*x[n] + b1*x[n-1] + b2*x[n-2] - a1*y[n-1] - a2*y[n-2]
std::string iir_kernel(int samples) {
  std::ostringstream os;
  os << "kernel iir {\n";
  os << "  input double b0; input double b1; input double b2;\n";
  os << "  input double a1; input double a2;\n";
  os << "  input double x[" << samples + 2 << "];\n";
  os << "  var double w[" << samples + 2 << "];\n";
  os << "  output double y[" << samples << "];\n";
  os << "  w[0] = x[0]; w[1] = x[1];\n";
  for (int n = 0; n < samples; ++n) {
    os << "  w[" << n + 2 << "] = b0*x[" << n + 2 << "] + b1*x[" << n + 1
       << "] + b2*x[" << n << "] - a1*w[" << n + 1 << "] - a2*w[" << n
       << "];\n";
    os << "  y[" << n << "] = w[" << n + 2 << "];\n";
  }
  os << "}\n";
  return os.str();
}

void run(const char* name, const std::string& src, Report* report,
         std::vector<std::vector<ReportCell>>* rows) {
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  KernelInfo k = parse_kernel(src);
  const int base = schedule_asap(k.graph, lib).length;
  Cdfg fma = k.graph;
  insert_fma_units(fma, lib, FmaStyle::Fcs);
  Cdfg dot = k.graph;
  insert_dot_products(dot, lib, 16);
  const int lfma = schedule_asap(fma, lib).length;
  const int ldot = schedule_asap(dot, lib).length;
  std::printf("%-10s | %5d | %9d | %11d | %11d\n", name, k.statements, base,
              lfma, ldot);
  report->metric(std::string(name) + ".cycles.discrete", (std::uint64_t)base);
  report->metric(std::string(name) + ".cycles.fma", (std::uint64_t)lfma);
  report->metric(std::string(name) + ".cycles.dots", (std::uint64_t)ldot);
  rows->push_back({name, k.statements, base, lfma, ldot});
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions hopts = extract_harness_args(argc, argv);
  const ReportCliArgs out_paths = extract_report_args(argc, argv);

  // Host-perf phase: the full fir-16 pipeline (parse + both transforms +
  // schedules); the table below runs once.
  BenchHarness harness("ext_dsp_kernels", hopts);
  {
    const std::string src = fir_kernel(16, 8);
    OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
    harness.measure("fir16_pipeline", [&] {
      KernelInfo k = parse_kernel(src);
      Cdfg fma = k.graph;
      insert_fma_units(fma, lib, FmaStyle::Fcs);
      Cdfg dot = k.graph;
      insert_dot_products(dot, lib, 16);
      volatile int keep =
          schedule_asap(fma, lib).length + schedule_asap(dot, lib).length;
      (void)keep;
    });
  }

  Report report("ext_dsp_kernels");
  report.meta("device", "Virtex-6");
  std::vector<std::vector<ReportCell>> rows;
  std::printf("Extension — DSP kernels (schedule cycles @ 200 MHz)\n\n");
  std::printf("%-10s | %5s | %9s | %11s | %11s\n", "kernel", "stmts",
              "discrete", "FMA chains", "fused dots");
  std::printf("%.*s\n", 58, "--------------------------------------------------"
                            "--------");
  run("fir-8", fir_kernel(8, 8), &report, &rows);
  run("fir-16", fir_kernel(16, 8), &report, &rows);
  run("iir-8", iir_kernel(8), &report, &rows);
  run("iir-24", iir_kernel(24), &report, &rows);
  std::printf("\nthe FIR's independent tap sums collapse to one fused dot per\n"
              "output; the IIR's feedback recurrence is exactly the paper's\n"
              "Listing 1 and wants the FMA chain — the two unit types are\n"
              "complementary across the motivating domain.\n");
  if (!out_paths.json_path.empty() || !out_paths.csv_path.empty()) {
    report.table("dsp_kernels",
                 {"kernel", "stmts", "discrete", "fma", "dots"},
                 std::move(rows));
    harness.attach(report);
    if (!out_paths.json_path.empty()) report.write_json(out_paths.json_path);
    if (!out_paths.csv_path.empty())
      report.write_csv(out_paths.csv_path, "dsp_kernels");
  }
  return 0;
}
