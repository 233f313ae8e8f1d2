// The Table I / Fig 13 claims as properties of the structural model.
#include "fpga/architectures.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"

namespace csfma {
namespace {

std::vector<SynthesisReport> v6_table() {
  return table1_reports(virtex6(), 200.0);
}

const SynthesisReport& row(const std::vector<SynthesisReport>& t,
                           const std::string& name) {
  for (const auto& r : t)
    if (r.arch == name) return r;
  ADD_FAILURE() << "missing row " << name;
  static SynthesisReport dummy;
  return dummy;
}

TEST(Architectures, DspCountsMatchPaper) {
  auto t = v6_table();
  EXPECT_EQ(row(t, "Xilinx CoreGen").dsps, 13);
  EXPECT_EQ(row(t, "FloPoCo FPPipeline").dsps, 7);
  EXPECT_EQ(row(t, "PCS-FMA").dsps, 21);
  EXPECT_EQ(row(t, "FCS-FMA").dsps, 12);
}

TEST(Architectures, LutCountsNearPaper) {
  // Table I: 1253 / 1508 / 5832 / 4685 LUTs.  The cost functions are
  // calibrated; hold them to +-12%.
  auto t = v6_table();
  EXPECT_NEAR(row(t, "Xilinx CoreGen").luts, 1253, 0.12 * 1253);
  EXPECT_NEAR(row(t, "FloPoCo FPPipeline").luts, 1508, 0.12 * 1508);
  EXPECT_NEAR(row(t, "PCS-FMA").luts, 5832, 0.12 * 5832);
  EXPECT_NEAR(row(t, "FCS-FMA").luts, 4685, 0.12 * 4685);
}

TEST(Architectures, CyclesMatchPaper) {
  auto t = v6_table();
  EXPECT_EQ(row(t, "Xilinx CoreGen").cycles, 9);  // 5-cycle mul + 4-cycle add
  EXPECT_EQ(row(t, "FloPoCo FPPipeline").cycles, 11);
  EXPECT_EQ(row(t, "PCS-FMA").cycles, 5);
  EXPECT_EQ(row(t, "FCS-FMA").cycles, 3);
}

TEST(Architectures, FmaxNearPaper) {
  // Table I: 244 / 190 / 231 / 211 MHz; hold the model to +-10%.
  auto t = v6_table();
  EXPECT_NEAR(row(t, "Xilinx CoreGen").fmax_mhz, 244, 24);
  EXPECT_NEAR(row(t, "FloPoCo FPPipeline").fmax_mhz, 190, 19);
  EXPECT_NEAR(row(t, "PCS-FMA").fmax_mhz, 231, 23);
  EXPECT_NEAR(row(t, "FCS-FMA").fmax_mhz, 211, 21);
}

TEST(Architectures, OnlyFloPoCoMisses200MHz) {
  for (const auto& r : v6_table()) {
    if (r.arch == "FloPoCo FPPipeline") {
      EXPECT_LT(r.fmax_mhz, 200.0);
    } else {
      EXPECT_GE(r.fmax_mhz, 200.0) << r.arch;
    }
  }
}

TEST(Architectures, Fig13LatencyOrdering) {
  // Fig 13: FCS fastest, then PCS, then CoreGen, FloPoCo slowest; the new
  // units are ~1.7x and ~2.5x faster than the closest competitor.
  auto t = v6_table();
  double coregen = row(t, "Xilinx CoreGen").min_ma_time_ns();
  double flopoco = row(t, "FloPoCo FPPipeline").min_ma_time_ns();
  double pcs = row(t, "PCS-FMA").min_ma_time_ns();
  double fcs = row(t, "FCS-FMA").min_ma_time_ns();
  EXPECT_LT(fcs, pcs);
  EXPECT_LT(pcs, coregen);
  EXPECT_LT(coregen, flopoco);
  EXPECT_NEAR(coregen / pcs, 1.7, 0.35);
  EXPECT_NEAR(coregen / fcs, 2.5, 0.5);
}

TEST(Architectures, FcsRequiresPreadder) {
  // Sec. III-H: the FCS-FMA is "limited to recent FPGA architectures".
  EXPECT_THROW(build_fcs_fma(virtex5()), CheckError);
  auto v5_rows = table1_reports(virtex5(), 200.0);
  for (const auto& r : v5_rows) EXPECT_NE(r.arch, "FCS-FMA");
  EXPECT_EQ(v5_rows.size(), 3u);
}

TEST(Architectures, PcsPortsToVirtex5) {
  // The PCS-FMA is explicitly portable to older FPGAs (Sec. III).
  auto v5 = table1_reports(virtex5(), 200.0);
  const auto& pcs = row(v5, "PCS-FMA");
  EXPECT_GT(pcs.fmax_mhz, 150.0);
  EXPECT_EQ(pcs.dsps, 21);
}

TEST(Architectures, ZdVariantCostsAStage) {
  // Sec. III-F vs III-G in the timing model: the exact-ZD FCS variant puts
  // the detector on the critical path and pays a pipeline stage.
  const Device dev = virtex6();
  SynthesisReport lza = synthesize("lza", build_fcs_fma(dev), dev, 200.0);
  SynthesisReport zd =
      synthesize("zd", build_fcs_fma(dev, BlockSelect::Zd), dev, 200.0);
  EXPECT_EQ(zd.cycles, lza.cycles + 1);
  EXPECT_GT(zd.luts, lza.luts);
  EXPECT_EQ(zd.dsps, lza.dsps);
  EXPECT_GT(zd.min_ma_time_ns(), lza.min_ma_time_ns());
}

// Recorded from the fixed Table I builders the geometry-driven PCS/FCS
// builders replaced: cycles, LUTs and DSPs exactly, fmax as the exact
// double (hex literal).
struct PinnedRow {
  const char* arch;
  int cycles, luts, dsps;
  double fmax_mhz;
};

void expect_pinned(const SynthesisReport& r, const PinnedRow& want,
                   const std::string& where) {
  EXPECT_EQ(r.arch, want.arch) << where;
  EXPECT_EQ(r.cycles, want.cycles) << where << " " << r.arch;
  EXPECT_EQ(r.luts, want.luts) << where << " " << r.arch;
  EXPECT_EQ(r.dsps, want.dsps) << where << " " << r.arch;
  EXPECT_EQ(r.fmax_mhz, want.fmax_mhz) << where << " " << r.arch;
}

void expect_table(const Device& dev, const std::vector<PinnedRow>& want) {
  const auto got = table1_reports(dev, 200.0);
  ASSERT_EQ(got.size(), want.size()) << dev.name;
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_pinned(got[i], want[i], dev.name);
}

TEST(Architectures, TableIRowsMatchRecordedValues) {
  expect_table(virtex5(),
               {{"Xilinx CoreGen", 9, 1393, 13, 0x1.96a7d52dba44bp+7},
                {"FloPoCo FPPipeline", 12, 1668, 7, 0x1.754ef652e782dp+7},
                {"PCS-FMA", 5, 5802, 21, 0x1.a0b5c7684dep+7}});
  expect_table(virtex6(),
               {{"Xilinx CoreGen", 9, 1393, 13, 0x1.d3a7685afc9bbp+7},
                {"FloPoCo FPPipeline", 11, 1668, 7, 0x1.7c3a672dbfc1ap+7},
                {"PCS-FMA", 5, 5802, 21, 0x1.d64b0bd6bea01p+7},
                {"FCS-FMA", 3, 4765, 12, 0x1.90cd35de23e97p+7}});
  expect_table(virtex7(),
               {{"Xilinx CoreGen", 8, 1393, 13, 0x1.9240ab5a69dc2p+7},
                {"FloPoCo FPPipeline", 9, 1668, 7, 0x1.80064ab740192p+7},
                {"PCS-FMA", 5, 5802, 21, 0x1.ff01d0d51378ap+7},
                {"FCS-FMA", 3, 4765, 12, 0x1.b3a76712d91f1p+7}});
}

TEST(Architectures, FcsZdRowMatchesRecordedValues) {
  const Device dev = virtex6();
  expect_pinned(
      synthesize("FCS-ZD", build_fcs_fma(dev, BlockSelect::Zd), dev, 200.0),
      {"FCS-ZD", 4, 4835, 12, 0x1.afb77fcc2127fp+7}, dev.name);
}

TEST(Architectures, PcsGeometryScalesTheChain) {
  // Sec. V's smaller PCS geometries: fewer DSP tiles and LUTs than the
  // paper's 55/11, and the result mux narrows with the adder window.
  const Device dev = virtex6();
  const SynthesisReport paper = synthesize("55/11", build_pcs_fma(dev), dev,
                                           200.0);
  const SynthesisReport small = synthesize(
      "22/11", build_pcs_fma(dev, CsGeometry::pcs(22, 11)), dev, 200.0);
  EXPECT_LT(small.dsps, paper.dsps);
  EXPECT_LT(small.luts, paper.luts);
  EXPECT_EQ(small.dsps, CsGeometry::pcs(22, 11).dsp_tiles());
  EXPECT_THROW(build_pcs_fma(dev, kFcsGeometry), CheckError);
}

TEST(Architectures, Virtex7SlightlyFaster) {
  auto v6 = v6_table();
  auto v7 = table1_reports(virtex7(), 200.0);
  EXPECT_GT(row(v7, "FCS-FMA").fmax_mhz, row(v6, "FCS-FMA").fmax_mhz);
}

}  // namespace
}  // namespace csfma
