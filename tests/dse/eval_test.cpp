// eval_design: a recorded digest pins every metric over a knob grid, the
// Table II energy anchors hold, and evaluation is a pure function of the
// DseConfig (the cacheability contract behind the canonical key).
#include "dse/eval.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

namespace csfma::dse {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(EvalDesign, GridDigestMatchesTheRecordedModel) {
  // Every metric of every valid point of a fixed grid over all four units,
  // both selects and the block, group, rwidth and depth knobs, chained
  // into one FNV-1a digest.  The value was recorded when the DSE still
  // carried its own copies of the PCS/FCS chains; it pins the chains, the
  // CoreGen/FloPoCo composition and rounding retune, the pipeliner cut
  // and the energy model together.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  int points = 0;
  for (UnitKind unit : kAllUnitKinds)
    for (BlockSelect select : {BlockSelect::Lza, BlockSelect::Zd})
      for (int block : {8, 22, 29, 33, 44, 55, 56, 62})
        for (int group : {2, 4, 11, 14})
          for (int rwidth : {0, 11, 53, 200})
            for (int depth : {1, 3, 8, 16, 64}) {
              DseConfig cfg;
              cfg.unit = unit;
              cfg.select = select;
              cfg.block = block;
              cfg.group = group;
              cfg.round_width = rwidth;
              cfg.depth = depth;
              if (!cfg.validate().empty()) continue;
              const DseMetrics m = eval_design(cfg);
              h = fnv1a(h, &m.delay_ns, sizeof m.delay_ns);
              h = fnv1a(h, &m.cycles, sizeof m.cycles);
              h = fnv1a(h, &m.fmax_mhz, sizeof m.fmax_mhz);
              h = fnv1a(h, &m.luts, sizeof m.luts);
              h = fnv1a(h, &m.dsps, sizeof m.dsps);
              h = fnv1a(h, &m.toggles_per_op, sizeof m.toggles_per_op);
              h = fnv1a(h, &m.energy_nj, sizeof m.energy_nj);
              ++points;
            }
  EXPECT_EQ(points, 4360);
  EXPECT_EQ(h, 0x3926793f46d9ecc5ULL);
}

TEST(EvalDesign, TableIIEnergyAnchorsHold) {
  // The energy coefficients are calibrated against the Table II anchors
  // with this model's own toggles and LUTs, so the anchor points land
  // exactly: discrete 0.54 nJ, paper-geometry PCS 2.67 nJ.
  DseConfig pcs;
  EXPECT_NEAR(eval_design(pcs).energy_nj, 2.67, 1e-9);
  DseConfig disc;
  disc.unit = UnitKind::Discrete;
  EXPECT_NEAR(eval_design(disc).energy_nj, 0.54, 1e-9);
}

TEST(EvalDesign, PaperPcsPointReportsTheShippingFigures) {
  const DseMetrics m = eval_design(DseConfig{});
  EXPECT_EQ(m.luts, 5802);
  EXPECT_EQ(m.dsps, 21);
  EXPECT_GT(m.fmax_mhz, 0.0);
  EXPECT_GT(m.cycles, 0);
  EXPECT_NEAR(m.delay_ns, m.cycles * 1000.0 / m.fmax_mhz, 1e-12);
}

TEST(EvalDesign, IsAPureFunctionOfTheConfig) {
  DseConfig cfg;
  cfg.unit = UnitKind::Fcs;
  cfg.block = 33;
  cfg.round_width = 11;
  cfg.select = BlockSelect::Zd;
  cfg.depth = 12;
  const DseMetrics a = eval_design(cfg);
  const DseMetrics b = eval_design(cfg);
  EXPECT_EQ(a.delay_ns, b.delay_ns);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.fmax_mhz, b.fmax_mhz);
  EXPECT_EQ(a.luts, b.luts);
  EXPECT_EQ(a.dsps, b.dsps);
  EXPECT_EQ(a.toggles_per_op, b.toggles_per_op);
  EXPECT_EQ(a.energy_nj, b.energy_nj);
}

TEST(EvalDesign, KnobsActuallyMoveTheMetrics) {
  // Smaller rounding width trims LUTs; a deeper pipeline adds cycles.
  DseConfig base;
  DseConfig narrow = base;
  narrow.round_width = 11;
  EXPECT_LT(eval_design(narrow).luts, eval_design(base).luts);
  DseConfig deep = base;
  deep.depth = 16;
  DseConfig shallow = base;
  shallow.depth = 2;
  EXPECT_GT(eval_design(deep).cycles, eval_design(shallow).cycles);
}

}  // namespace
}  // namespace csfma::dse
