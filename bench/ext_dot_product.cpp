// Extension experiment — the fused dot-product unit (Sec. V future work /
// the fused dot products of [9, 10]): accuracy of an N-term dot computed
//   (a) with discrete CoreGen mul/add (a rounding per op),
//   (b) as a chain of PCS-FMAs (deferred rounding between links),
//   (c) with the fused dot-product unit (ONE rounding total),
// against a wide-precision reference.
//   ext_dot_product [--json <path>] [--csv <path>]
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "fma/discrete.hpp"
#include "fma/cs_fma.hpp"
#include "fma/dot_product.hpp"
#include "harness.hpp"
#include "telemetry/report.hpp"

int main(int argc, char** argv) {
  using namespace csfma;
  HarnessOptions hopts = extract_harness_args(argc, argv);
  const ReportCliArgs out_paths = extract_report_args(argc, argv);
  Rng rng(8080);
  PcsDotProduct fused;
  CsFma fma(kPcsGeometry);
  DiscreteMulAdd coregen;

  // Host-perf phase: the fused unit on fixed 16-term dots (the accuracy
  // sweep below runs once).
  BenchHarness harness("ext_dot_product", hopts);
  {
    constexpr std::uint64_t kDots = 500;
    Rng prng(8081);
    std::vector<std::pair<PFloat, PFloat>> terms;
    for (int i = 0; i < 16; ++i) {
      terms.emplace_back(
          PFloat::from_double(kBinary64, prng.next_fp_in_exp_range(-8, 8)),
          PFloat::from_double(kBinary64, prng.next_fp_in_exp_range(-8, 8)));
    }
    harness.measure(
        "fused_dot.16",
        [&] {
          double sink = 0;
          for (std::uint64_t d = 0; d < kDots; ++d)
            sink += fused.dot_ieee(terms, Round::HalfAwayFromZero).to_double();
          volatile double keep = sink;
          (void)keep;
        },
        kDots);
  }

  Report report("ext_dot_product");
  report.meta("seed", (std::uint64_t)8080);
  report.meta("draws", 2000);
  std::vector<std::vector<ReportCell>> rows;

  std::printf("Extension — fused dot product accuracy (mean binary64 ulps vs "
              "wide reference, 2000 draws)\n\n");
  std::printf("%6s | %10s | %12s | %10s\n", "terms", "discrete", "FMA chain",
              "fused dot");
  std::printf("%.*s\n", 48, "------------------------------------------------");
  for (int n : {2, 4, 8, 16}) {
    double e_disc = 0, e_chain = 0, e_fused = 0;
    const int draws = 2000;
    for (int d = 0; d < draws; ++d) {
      std::vector<std::pair<PFloat, PFloat>> terms;
      for (int i = 0; i < n; ++i) {
        terms.emplace_back(
            PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-8, 8)),
            PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-8, 8)));
      }
      // Wide reference.
      PFloat ref = PFloat::zero(kWideExact, false);
      for (const auto& [a, b] : terms)
        ref = PFloat::fma(a, b, ref, kWideExact, Round::NearestEven);
      if (!ref.is_normal()) { --d; continue; }
      // (a) discrete.
      PFloat acc = PFloat::zero(kBinary64, false);
      for (const auto& [a, b] : terms) acc = coregen.mul_add(acc, a, b);
      e_disc += PFloat::ulp_error(acc, ref, 52);
      // (b) FMA chain.
      CsOperand pacc = ieee_to_cs(kPcsGeometry, PFloat::zero(kBinary64, false));
      for (const auto& [a, b] : terms)
        pacc = fma.fma(pacc, a, ieee_to_cs(kPcsGeometry, b));
      e_chain += PFloat::ulp_error(
          cs_to_ieee(pacc, kBinary64, Round::HalfAwayFromZero), ref, 52);
      // (c) fused dot.
      e_fused += PFloat::ulp_error(
          fused.dot_ieee(terms, Round::HalfAwayFromZero), ref, 52);
    }
    std::printf("%6d | %10.4f | %12.4f | %10.4f\n", n, e_disc / draws,
                e_chain / draws, e_fused / draws);
    const std::string key = "terms." + std::to_string(n);
    report.metric(key + ".ulp.discrete", e_disc / draws);
    report.metric(key + ".ulp.fma_chain", e_chain / draws);
    report.metric(key + ".ulp.fused_dot", e_fused / draws);
    rows.push_back({n, e_disc / draws, e_chain / draws, e_fused / draws});
  }
  std::printf("\nthe fused unit rounds once regardless of N; the FMA chain\n"
              "rounds its transfer mantissa per link; the discrete pipeline\n"
              "rounds twice per term.\n");
  if (!out_paths.json_path.empty() || !out_paths.csv_path.empty()) {
    report.table("dot_product",
                 {"terms", "ulp_discrete", "ulp_fma_chain", "ulp_fused_dot"},
                 std::move(rows));
    harness.attach(report);
    if (!out_paths.json_path.empty()) report.write_json(out_paths.json_path);
    if (!out_paths.csv_path.empty())
      report.write_csv(out_paths.csv_path, "dot_product");
  }
  return 0;
}
