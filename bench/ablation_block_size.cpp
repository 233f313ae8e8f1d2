// Ablation — PCS block size / carry density sweep (the paper's Sec. V
// future work: "different carry bit densities ... when increasing the
// block size to 56b").  For each geometry: operand width, group-adder
// delay, mux fan-in, guaranteed significant digits, and measured accuracy
// on random fused operations.
//   ablation_block_size [--json <path>] [--csv <path>]
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "fma/cs_fma.hpp"
#include "fpga/device.hpp"
#include "harness.hpp"
#include "telemetry/report.hpp"

int main(int argc, char** argv) {
  using namespace csfma;
  HarnessOptions hopts = extract_harness_args(argc, argv);
  const ReportCliArgs out_paths = extract_report_args(argc, argv);
  const Device dev = virtex6();
  Rng rng(5150);

  // Host-perf phase: the CS unit built from the paper's 55/11 geometry
  // point (the full geometry sweep runs once below).
  BenchHarness harness("ablation_block_size", hopts);
  {
    constexpr std::uint64_t kOps = 2000;
    CsFma unit(CsGeometry::pcs(55, 11));
    Rng prng(5151);
    harness.measure(
        "gen_pcs.55_11",
        [&] {
          double sink = 0;
          for (std::uint64_t t = 0; t < kOps; ++t) {
            PFloat a = PFloat::from_double(kBinary64,
                                           prng.next_fp_in_exp_range(-20, 20));
            PFloat b = PFloat::from_double(kBinary64,
                                           prng.next_fp_in_exp_range(-20, 20));
            PFloat c = PFloat::from_double(kBinary64,
                                           prng.next_fp_in_exp_range(-20, 20));
            sink +=
                unit.fma_ieee(a, b, c, Round::HalfAwayFromZero).to_double();
          }
          volatile double keep = sink;
          (void)keep;
        },
        kOps);
  }

  Report report("ablation_block_size");
  report.meta("device", "Virtex-6");
  report.meta("trials_per_geometry", 4000);
  std::vector<std::vector<ReportCell>> rows;

  std::printf("Ablation — PCS geometry sweep (block / carry spacing)\n\n");
  std::printf("%5s %5s | %7s | %9s | %5s | %6s | %10s | %10s\n", "block",
              "group", "operand", "group-add", "mux", "digits", "mean ulp",
              "max ulp");
  std::printf("%.*s\n", 76, "--------------------------------------------------"
                            "--------------------------");
  const CsGeometry sweep[] = {
      CsGeometry::pcs(22, 11), CsGeometry::pcs(33, 11), CsGeometry::pcs(44, 11),
      CsGeometry::pcs(44, 4),  CsGeometry::pcs(55, 5),  CsGeometry::pcs(55, 11),
      CsGeometry::pcs(55, 55), CsGeometry::pcs(56, 4),  CsGeometry::pcs(56, 8),
      CsGeometry::pcs(56, 14), CsGeometry::pcs(56, 28),
  };
  for (const CsGeometry& cfg : sweep) {
    CsFma unit(cfg);
    double sum = 0, worst = 0;
    const int trials = 4000;
    int counted = 0;
    Rng local(5150);
    for (int t = 0; t < trials; ++t) {
      PFloat a = PFloat::from_double(kBinary64, local.next_fp_in_exp_range(-20, 20));
      PFloat b = PFloat::from_double(kBinary64, local.next_fp_in_exp_range(-20, 20));
      PFloat c = PFloat::from_double(kBinary64, local.next_fp_in_exp_range(-20, 20));
      PFloat ref = PFloat::fma(b, c, a, kBinary64, Round::HalfAwayFromZero);
      if (!ref.is_normal()) continue;
      double e = PFloat::ulp_error(
          unit.fma_ieee(a, b, c, Round::HalfAwayFromZero), ref, 52);
      sum += e;
      worst = std::max(worst, e);
      ++counted;
    }
    const double mean = sum / counted;
    std::printf("%5d %5d | %6db | %7.3fns | %2d:1 | %6d | %10.4f | %10.2f%s\n",
                cfg.block(), cfg.group(), cfg.operand_bits(),
                dev.adder_delay_ns(cfg.group()), cfg.adder_blocks() - 1,
                cfg.guaranteed_digits(), mean, worst,
                (cfg.block() == 55 && cfg.group() == 11) ? "   <- paper" : "");
    const std::string key = "geom." + std::to_string(cfg.block()) + "." +
                            std::to_string(cfg.group());
    report.metric(key + ".operand_bits", (std::uint64_t)cfg.operand_bits());
    report.metric(key + ".guaranteed_digits",
                  (std::uint64_t)cfg.guaranteed_digits());
    report.metric(key + ".mean_ulp", mean);
    report.metric(key + ".max_ulp", worst);
    rows.push_back({cfg.block(), cfg.group(), cfg.operand_bits(),
                    dev.adder_delay_ns(cfg.group()), cfg.adder_blocks() - 1,
                    cfg.guaranteed_digits(), mean, worst});
  }
  (void)rng;
  std::printf("\nreading: >= 53 guaranteed digits (block >= 28) keeps fused\n"
              "results correctly rounded at binary64; the 56b geometries\n"
              "trade slightly wider operands for coarser carry grids (g=14\n"
              "or 28 store fewer carry bits than the paper's g=11 at 55b).\n");
  if (!out_paths.json_path.empty() || !out_paths.csv_path.empty()) {
    report.table("block_size",
                 {"block", "group", "operand_bits", "group_adder_ns",
                  "mux_fanin", "digits", "mean_ulp", "max_ulp"},
                 std::move(rows));
    harness.attach(report);
    if (!out_paths.json_path.empty()) report.write_json(out_paths.json_path);
    if (!out_paths.csv_path.empty())
      report.write_csv(out_paths.csv_path, "block_size");
  }
  return 0;
}
