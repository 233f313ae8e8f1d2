// Architecture exploration — the activity in the paper's title, as an API
// walk-through: sweep the FMA design space (discrete, classic fused, PCS
// geometries, FCS with both selectors) and print the latency / area /
// operand-width / accuracy trade-offs on one table.
//
//   ./build/examples/design_space
#include <cstdio>

#include "common/rng.hpp"
#include "fma/cs_fma.hpp"
#include "fpga/architectures.hpp"

namespace {

using namespace csfma;

/// Mean accuracy of 5000 random fused ops vs the correctly rounded result.
template <typename F>
double mean_ulp(F&& op) {
  Rng rng(6060);
  double sum = 0;
  int n = 0;
  for (int i = 0; i < 5000; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-20, 20));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-20, 20));
    PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-20, 20));
    PFloat ref = PFloat::fma(b, c, a, kBinary64, Round::HalfAwayFromZero);
    if (!ref.is_normal()) continue;
    sum += PFloat::ulp_error(op(a, b, c), ref, 52);
    ++n;
  }
  return sum / n;
}

}  // namespace

int main() {
  const Device dev = virtex6();
  auto row = [](const char* name, const SynthesisReport& r, double ulp) {
    std::printf("%-22s | %8.2f | %6d | %6d | %4d | %9.4f", name,
                r.min_ma_time_ns(), r.cycles, r.luts, r.dsps, ulp);
  };
  auto cs_ulp = [](const CsGeometry& g) {
    CsFma unit(g);
    return mean_ulp([&](const PFloat& a, const PFloat& b, const PFloat& c) {
      return unit.fma_ieee(a, b, c, Round::HalfAwayFromZero);
    });
  };

  std::printf("Design space — one multiply-add, %s @ 200 MHz target\n\n",
              dev.name.c_str());
  std::printf("%-22s | %8s | %6s | %6s | %4s | %9s\n", "design", "MA [ns]",
              "cycles", "LUTs", "DSPs", "mean ulp");
  std::printf("%.*s\n", 72, "--------------------------------------------------"
                            "----------------------");

  row("discrete mul+add", synthesize_coregen_pair(dev, 200.0),
      mean_ulp([](const PFloat& a, const PFloat& b, const PFloat& c) {
        return PFloat::add(PFloat::mul(b, c, kBinary64, Round::NearestEven), a,
                           kBinary64, Round::NearestEven);
      }));
  std::printf("\n");
  for (const CsGeometry& g :
       {kPcsGeometry, CsGeometry::pcs(56, 14), CsGeometry::pcs(44, 11),
        CsGeometry::pcs(33, 11), CsGeometry::pcs(22, 11)}) {
    const bool paper = g.block() == kPcsGeometry.block() &&
                       g.group() == kPcsGeometry.group();
    char name[32];
    std::snprintf(name, sizeof name,
                  paper ? "PCS-FMA %d/%d (paper)" : "PCS-FMA %d/%d", g.block(),
                  g.group());
    row(name, synthesize(name, build_pcs_fma(dev, g), dev, 200.0), cs_ulp(g));
    if (!paper) std::printf("   (%db operands)", g.operand_bits());
    std::printf("\n");
  }
  for (BlockSelect s : {BlockSelect::Lza, BlockSelect::Zd}) {
    row(s == BlockSelect::Lza ? "FCS-FMA (LZA)" : "FCS-FMA (ZD)",
        synthesize("fcs", build_fcs_fma(dev, s), dev, 200.0),
        cs_ulp(CsGeometry::fcs(s)));
    std::printf("\n");
  }
  std::printf("\nsmaller PCS geometries shrink operands below the 192b paper\n"
              "format at the cost of sub-double accuracy — the knob Sec. V\n"
              "proposes exploring.\n");
  return 0;
}
