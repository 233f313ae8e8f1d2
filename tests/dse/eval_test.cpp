// eval_design: recorded digests pin every metric over a knob grid, the
// Table II workload reproduces bench/table2_energy, and evaluation is a
// pure function of the DseConfig (the cacheability contract behind the
// canonical key).
#include "dse/eval.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

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
  // into two FNV-1a digests.  The timing/area digest was recorded when the
  // DSE still carried its own copies of the PCS/FCS chains; it pins the
  // chains, the CoreGen/FloPoCo composition and rounding retune, and the
  // pipeliner cut.  The energy digest was recorded when eval_design moved
  // onto Table II's measurement and calibration (energy/energy_model.hpp).
  std::uint64_t timing_area = 0xcbf29ce484222325ULL;
  std::uint64_t energy = 0xcbf29ce484222325ULL;
  const auto mix = [](std::uint64_t& h, const auto& v) {
    h = fnv1a(h, &v, sizeof v);
  };
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
              mix(timing_area, m.delay_ns);
              mix(timing_area, m.cycles);
              mix(timing_area, m.fmax_mhz);
              mix(timing_area, m.luts);
              mix(timing_area, m.dsps);
              mix(energy, m.toggles_per_op);
              mix(energy, m.energy_nj);
              ++points;
            }
  EXPECT_EQ(points, 4360);
  EXPECT_EQ(timing_area, 0x7e0c781ef9a63b19ULL);
  EXPECT_EQ(energy, 0xcaa582fc916a99fdULL);
}

/// The paper's four Table II designs as DSE points: the CoreGen pair,
/// FloPoCo, PCS 55/11 and the 29-digit FCS with the early LZA.
std::vector<DseConfig> paper_points(std::uint64_t seed, std::uint64_t ops) {
  std::vector<DseConfig> out;
  for (UnitKind unit : kAllUnitKinds) {
    DseConfig cfg;
    cfg.unit = unit;
    cfg.seed = seed;
    cfg.ops = ops;
    if (unit == UnitKind::Fcs) cfg.block = 29;
    out.push_back(cfg);
  }
  return out;
}

TEST(EvalDesign, TableIIEnergyAnchorsHold) {
  // At the Table II workload (seed 1001, 20 chains x 96 ops) the anchor
  // points are the calibration itself: discrete 0.54 nJ, paper-geometry
  // PCS 2.67 nJ.
  DseConfig pcs;
  pcs.seed = 1001;
  pcs.ops = 1920;
  EXPECT_NEAR(eval_design(pcs).energy_nj, 2.67, 1e-9);
  DseConfig disc = pcs;
  disc.unit = UnitKind::Discrete;
  EXPECT_NEAR(eval_design(disc).energy_nj, 0.54, 1e-9);
}

TEST(EvalDesign, TableIIWorkloadReproducesTable2Energy) {
  // bench/table2_energy's all-stage toggles per op on its workload, bit for
  // bit (tests/energy pins the same values).
  const double table2[] = {0x1.daebbbbbbbbbcp+5, 0x1.1a49ddddddddep+8,
                           0x1.a1a0ddddddddep+9, 0x1.62f3ccccccccdp+9};
  const std::vector<DseConfig> points = paper_points(1001, 1920);
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(eval_design(points[i]).toggles_per_op, table2[i])
        << to_string(points[i].unit);
}

TEST(EvalDesign, PaperPointsKeepTableIIOrdering) {
  // At the explorer's default workload (seed 1, 32 ops) the paper points
  // rank as in Table II: discrete < FloPoCo < FCS < PCS.
  const std::vector<DseConfig> points = paper_points(1, 32);
  double e[4];
  for (std::size_t i = 0; i < points.size(); ++i)
    e[i] = eval_design(points[i]).energy_nj;
  const double discrete = e[0], flopoco = e[1], pcs = e[2], fcs = e[3];
  EXPECT_LT(discrete, flopoco);
  EXPECT_LT(flopoco, fcs);
  EXPECT_LT(fcs, pcs);
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
