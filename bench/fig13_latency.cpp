// Fig 13 — minimum computation time for one multiply-add operation:
// minimum clock period x pipeline length, for the four architectures.
//
//   fig13_latency [--json <path>] [--csv <path>]
//                 [--vcd <file> --watch <op-index> [--unit <kind>]]
//
// With --vcd, one operation of a fixed random operand stream is
// re-simulated on the selected unit (default pcs) with a SignalTap
// attached, the architecture's synthesis-model pipeline stages are traced
// behind it, and the waveform is written as a GTKWave-loadable VCD
// (docs/observability.md).
#include <cstdio>
#include <vector>

#include "engine/watch.hpp"
#include "fpga/architectures.hpp"
#include "harness.hpp"
#include "introspect/event_log.hpp"
#include "introspect/signal_tap.hpp"
#include "telemetry/report.hpp"

namespace {

void write_watch_vcd(const csfma::WatchOptions& watch) {
  using namespace csfma;
  // The watched stream: fixed-seed random triples, pure function of index.
  SignalTap tap(to_string(watch.unit));
  EventLog events(64);
  run_watched_op(watch, RandomTripleSource(0xF13, 65536), Round::NearestEven,
                 &tap, &events);

  // The same architecture's synthesis-model pipeline, stage by stage.
  const Device dev = virtex6();
  std::vector<Component> chain;
  switch (watch.unit) {
    case UnitKind::Discrete:
      chain = build_coregen_mul(dev);
      break;
    case UnitKind::Classic:
      chain = build_flopoco_fused(dev);
      break;
    case UnitKind::Pcs:
      chain = build_pcs_fma(dev);
      break;
    case UnitKind::Fcs:
      chain = build_fcs_fma(dev);
      break;
  }
  pipeline_chain(chain, 1000.0 / 200.0, dev.reg_clk_to_q_ns + dev.reg_setup_ns,
                 &tap);
  tap.write(watch.vcd_path);
  std::printf("wrote %s (unit %s, op %llu, %llu events)\n",
              watch.vcd_path.c_str(), to_string(watch.unit),
              (unsigned long long)watch.watch_op,
              (unsigned long long)events.raised());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csfma;
  std::vector<std::string> args(argv + 1, argv + argc);
  const WatchOptions watch = extract_watch_args(args);
  std::vector<char*> argp;
  argp.push_back(argv[0]);
  for (auto& a : args) argp.push_back(a.data());
  int argn = (int)argp.size();
  const HarnessOptions hopts = extract_harness_args(argn, argp.data());
  const ReportCliArgs out_paths = extract_report_args(argn, argp.data());
  if (watch.enabled()) write_watch_vcd(watch);
  BenchHarness harness("fig13_latency", hopts);
  std::vector<SynthesisReport> rows;
  // 64 model evaluations per rep: one run is microseconds, too short to
  // time stably.
  harness.measure(
      "synthesis_model",
      [&] {
        for (int i = 0; i < 64; ++i) rows = table1_reports(virtex6(), 200.0);
      },
      64 * 4 /* architectures */);

  // Paper values: cycles / fmax from Table I.
  struct P {
    const char* arch;
    double ns;
  };
  const P paper[] = {{"Xilinx CoreGen", 9 * 1000.0 / 244},
                     {"FloPoCo FPPipeline", 11 * 1000.0 / 190},
                     {"PCS-FMA", 5 * 1000.0 / 231},
                     {"FCS-FMA", 3 * 1000.0 / 211}};

  std::printf("Fig 13 — minimum multiply-add latency (min period x cycles)\n");
  std::printf("%-20s | %10s | %10s | %s\n", "Architecture", "paper [ns]",
              "model [ns]", "bar");
  double coregen_model = 0;
  for (const auto& r : rows)
    if (r.arch == "Xilinx CoreGen") coregen_model = r.min_ma_time_ns();
  for (const auto& r : rows) {
    double pns = 0;
    for (const auto& p : paper)
      if (r.arch == p.arch) pns = p.ns;
    const double m = r.min_ma_time_ns();
    std::printf("%-20s | %10.2f | %10.2f | ", r.arch.c_str(), pns, m);
    for (int i = 0; i < (int)(m + 0.5); ++i) std::printf("#");
    std::printf("\n");
  }
  std::printf("\nSpeed-up over the closest competitor (CoreGen):\n");
  for (const auto& r : rows) {
    if (r.arch == "PCS-FMA" || r.arch == "FCS-FMA") {
      std::printf("  %-8s %.2fx   (paper: %s)\n", r.arch.c_str(),
                  coregen_model / r.min_ma_time_ns(),
                  r.arch == "PCS-FMA" ? "~1.7x" : "~2.5x");
    }
  }

  if (!out_paths.json_path.empty() || !out_paths.csv_path.empty()) {
    Report report("fig13_latency");
    report.meta("device", "Virtex-6");
    report.meta("target_mhz", 200.0);
    std::vector<std::vector<ReportCell>> table_rows;
    for (const auto& r : rows) {
      double pns = 0;
      for (const auto& p : paper)
        if (r.arch == p.arch) pns = p.ns;
      const double m = r.min_ma_time_ns();
      report.metric(r.arch + ".min_ma_time_ns", m);
      report.metric(r.arch + ".paper_ns", pns);
      table_rows.push_back({r.arch, pns, m});
    }
    for (const auto& r : rows) {
      if (r.arch == "PCS-FMA" || r.arch == "FCS-FMA")
        report.metric(r.arch + ".speedup_vs_coregen",
                      coregen_model / r.min_ma_time_ns());
    }
    report.table("fig13", {"arch", "paper_ns", "model_ns"},
                 std::move(table_rows));
    harness.attach(report);
    if (!out_paths.json_path.empty()) report.write_json(out_paths.json_path);
    if (!out_paths.csv_path.empty())
      report.write_csv(out_paths.csv_path, "fig13");
  }
  return 0;
}
