// Ablation — exact Zero Detection vs early Leading-Zero Anticipation for
// the FCS-FMA's block selection (Sec. III-F vs III-G):
//   * timing: the ZD lands on the critical path and deepens the pipeline;
//   * accuracy: the ZD walks down to cancellation residues the LZA-chosen
//     window truncates (the paper's accepted inaccuracy).
//   ablation_zd_vs_lza [--json <path>] [--csv <path>]
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "fma/cs_fma.hpp"
#include "fpga/architectures.hpp"
#include "harness.hpp"
#include "telemetry/report.hpp"

int main(int argc, char** argv) {
  using namespace csfma;
  HarnessOptions hopts = extract_harness_args(argc, argv);
  const ReportCliArgs out_paths = extract_report_args(argc, argv);
  const Device dev = virtex6();

  // Host-perf phase: both FCS selection variants on a fixed slice of the
  // cancellation workload (the full 20000-trial sweep runs once below).
  BenchHarness harness("ablation_zd_vs_lza", hopts);
  {
    constexpr std::uint64_t kOps = 2000;
    Rng prng(31338);
    CsFma lza_u(CsGeometry::fcs(BlockSelect::Lza));
    CsFma zd_u(CsGeometry::fcs(BlockSelect::Zd));
    harness.measure(
        "fcs_cancellation",
        [&] {
          double sink = 0;
          for (std::uint64_t t = 0; t < kOps / 2; ++t) {
            double bd = prng.next_double(0.5, 2.0);
            double cd = prng.next_double(0.5, 2.0);
            double ad = -bd * cd *
                        (1.0 + prng.next_double(-0x1.0p-40, 0x1.0p-40));
            PFloat a = PFloat::from_double(kBinary64, ad);
            PFloat b = PFloat::from_double(kBinary64, bd);
            PFloat c = PFloat::from_double(kBinary64, cd);
            sink +=
                lza_u.fma_ieee(a, b, c, Round::HalfAwayFromZero).to_double();
            sink +=
                zd_u.fma_ieee(a, b, c, Round::HalfAwayFromZero).to_double();
          }
          volatile double keep = sink;
          (void)keep;
        },
        kOps);
  }

  // ---- timing/area ----
  SynthesisReport lza_r = synthesize(
      "FCS (early LZA)", build_fcs_fma(dev, BlockSelect::Lza), dev, 200.0);
  SynthesisReport zd_r = synthesize(
      "FCS (exact ZD)", build_fcs_fma(dev, BlockSelect::Zd), dev, 200.0);
  std::printf("Ablation — FCS block selection: exact ZD vs early LZA\n\n");
  std::printf("%-18s | %8s | %6s | %6s | %9s\n", "variant", "fmax", "cycles",
              "LUTs", "MA [ns]");
  for (const auto& r : {lza_r, zd_r}) {
    std::printf("%-18s | %8.1f | %6d | %6d | %9.2f\n", r.arch.c_str(),
                r.fmax_mhz, r.cycles, r.luts, r.min_ma_time_ns());
  }

  // ---- accuracy under partial cancellation ----
  Rng rng(31337);
  CsFma lza(CsGeometry::fcs(BlockSelect::Lza));
  CsFma zd(CsGeometry::fcs(BlockSelect::Zd));
  int lza_lost = 0, zd_lost = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    // a ~ -(b*c) with a small perturbation: heavy cancellation.
    double bd = rng.next_double(0.5, 2.0), cd = rng.next_double(0.5, 2.0);
    double ad = -bd * cd * (1.0 + rng.next_double(-0x1.0p-40, 0x1.0p-40));
    PFloat a = PFloat::from_double(kBinary64, ad);
    PFloat b = PFloat::from_double(kBinary64, bd);
    PFloat c = PFloat::from_double(kBinary64, cd);
    PFloat ref = PFloat::fma(b, c, a, kWideExact, Round::NearestEven);
    auto err = [&](CsFma& u) {
      return PFloat::ulp_error(u.fma_ieee(a, b, c, Round::HalfAwayFromZero),
                               ref, 52);
    };
    if (err(lza) > 1.0) ++lza_lost;
    if (err(zd) > 1.0) ++zd_lost;
  }
  std::printf("\naccuracy under ~2^-40 cancellation (%d trials):\n", trials);
  std::printf("  early LZA results off by >1 ulp: %d\n", lza_lost);
  std::printf("  exact ZD  results off by >1 ulp: %d\n", zd_lost);
  std::printf("\nthe paper chooses the LZA and absorbs its 3-digit margin in\n"
              "the 29c blocks; the ZD variant trades a pipeline stage (and\n"
              "fmax pressure) for exactness under deep cancellation.\n");

  if (!out_paths.json_path.empty() || !out_paths.csv_path.empty()) {
    Report report("ablation_zd_vs_lza");
    report.meta("device", "Virtex-6");
    report.meta("cancellation_trials", trials);
    std::vector<std::vector<ReportCell>> rows;
    for (const auto& r : {lza_r, zd_r}) {
      const std::string key =
          r.arch == lza_r.arch ? "lza" : "zd";
      report.metric(key + ".fmax_mhz", r.fmax_mhz);
      report.metric(key + ".cycles", (std::uint64_t)r.cycles);
      report.metric(key + ".luts", (std::uint64_t)r.luts);
      report.metric(key + ".min_ma_time_ns", r.min_ma_time_ns());
      rows.push_back({r.arch, r.fmax_mhz, r.cycles, r.luts,
                      r.min_ma_time_ns()});
    }
    report.metric("lza.lost_gt_1ulp", (std::uint64_t)lza_lost);
    report.metric("zd.lost_gt_1ulp", (std::uint64_t)zd_lost);
    report.table("zd_vs_lza",
                 {"variant", "fmax_mhz", "cycles", "luts", "min_ma_time_ns"},
                 std::move(rows));
    harness.attach(report);
    if (!out_paths.json_path.empty()) report.write_json(out_paths.json_path);
    if (!out_paths.csv_path.empty())
      report.write_csv(out_paths.csv_path, "zd_vs_lza");
  }
  return 0;
}
