#include "fpga/architectures.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.hpp"
#include "cs/csa_tree.hpp"

namespace csfma {

namespace {

/// Adder logic delay excluding register overhead (the pipeliner adds the
/// per-stage register cost itself).
double add_logic(const Device& d, int n) {
  return d.adder_delay_ns(n) - d.reg_clk_to_q_ns - d.reg_setup_ns;
}

double lut_level(const Device& d) { return d.lut6_logic_ns + d.lut_route_ns; }

/// Scale a baseline LUT count by a width ratio; ratio 1 returns it exactly.
int scl(int base, double ratio) {
  return static_cast<int>(std::lround(base * ratio));
}

}  // namespace

std::vector<Component> build_coregen_mul(const Device& dev) {
  // 53x53 tiled onto 13 DSP48E blocks (the CoreGen full-precision double
  // multiplier), DSP cascade post-adds, then rounding/normalization.
  std::vector<Component> c;
  c.push_back(Component::atomic("in-route", 0.8, {40, 0}));
  c.push_back(Component::atomic("pp/dsp", dev.dsp_mult_ns, {60, 13}));
  c.push_back(Component::layered("dsp-cascade", 2, 1.55, {140, 0}));
  c.push_back(Component::atomic("final-add", add_logic(dev, 106), {106, 0}));
  c.push_back(Component::atomic("exp-add", add_logic(dev, 12), {40, 0}));
  c.push_back(Component::layered("norm", 2, lut_level(dev), {120, 0}));
  c.push_back(Component::atomic("sticky/exc", 1.2, {60, 0}));
  c.push_back(Component::atomic("round", add_logic(dev, 55), {60, 0}));
  c.push_back(Component::layered("pack", 2, lut_level(dev), {60, 0}));
  return c;
}

std::vector<Component> build_coregen_add(const Device& dev) {
  std::vector<Component> c;
  c.push_back(Component::atomic("exp-diff", add_logic(dev, 11), {40, 0}));
  c.push_back(Component::atomic("swap/compare", 0.9, {60, 0}));
  c.push_back(Component::layered("align-shift", 3, lut_level(dev), {170, 0}));
  c.push_back(Component::atomic("sticky", 1.1, {50, 0}));
  c.push_back(Component::atomic("mant-add", add_logic(dev, 56), {60, 0}));
  c.push_back(Component::parallel("lza", {110, 0}));
  c.push_back(Component::layered("norm-shift", 3, lut_level(dev), {110, 0}));
  c.push_back(Component::atomic("round", add_logic(dev, 55), {60, 0}));
  c.push_back(Component::atomic("exc/flags", 1.0, {27, 0}));
  c.push_back(Component::atomic("out-route", 0.9, {20, 0}));
  c.push_back(Component::layered("post-norm/pack", 2, lut_level(dev), {0, 0}));
  return c;
}

std::vector<Component> build_flopoco_fused(const Device& dev) {
  // FloPoCo FPPipeline: truncated 7-DSP multiplier with LUT correction
  // logic, fused into the adder; the wide single-level normalization
  // shifter is the stage that caps fmax below the 200 MHz target.
  std::vector<Component> c;
  c.push_back(Component::layered("unpack", 3, lut_level(dev), {60, 0}));
  c.push_back(Component::atomic("operand-regs", 1.6, {0, 0}));
  c.push_back(Component::atomic("in-route", 0.9, {50, 0}));
  c.push_back(Component::atomic("pp/dsp(trunc)", dev.dsp_mult_ns, {80, 7}));
  c.push_back(Component::atomic("mult-route", 1.8, {0, 0}));
  c.push_back(Component::atomic("trunc-sticky", 1.6, {60, 0}));
  c.push_back(Component::layered("lut-correction", 5, lut_level(dev), {300, 0}));
  c.push_back(Component::atomic("final-add", add_logic(dev, 106), {106, 0}));
  c.push_back(Component::atomic("exp-diff", add_logic(dev, 12), {40, 0}));
  c.push_back(Component::atomic("swap/compare", 0.9, {60, 0}));
  c.push_back(Component::layered("align-shift", 4, lut_level(dev), {180, 0}));
  c.push_back(Component::atomic("sticky", 1.1, {50, 0}));
  c.push_back(Component::atomic("mant-add", add_logic(dev, 58), {62, 0}));
  c.push_back(Component::atomic("two-path-select", 2.0, {120, 0}));
  c.push_back(Component::atomic("lzc+norm-shift", 4.61, {240, 0}));
  c.push_back(Component::atomic("round", add_logic(dev, 55), {60, 0}));
  c.push_back(Component::atomic("exp-update", 1.0, {40, 0}));
  c.push_back(Component::layered("post-norm", 2, lut_level(dev), {60, 0}));
  c.push_back(Component::atomic("exc-handling", 1.2, {60, 0}));
  c.push_back(Component::atomic("out-regs-route", 1.5, {0, 0}));
  c.push_back(Component::layered("pack", 2, lut_level(dev), {40, 0}));
  return c;
}

std::vector<Component> build_pcs_fma(const Device& dev, const CsGeometry& g,
                                     int round_width) {
  CSFMA_CHECK_MSG(g.mant_blocks() == 2, "build_pcs_fma needs a PCS geometry");
  // Fig 9.  Multiplier: DSP tiles (21 = ceil(110/17) x ceil(53/24) at
  // 55/11) whose partial products reduce in a LUT CSA tree; C-rounding
  // correction adds one row (Fig 6).  A-path rounding + pre-shift run in
  // parallel with the multiply.  Then the 3:2 adder, Carry Reduction
  // (group-digit adders), the block Zero Detector and the result
  // multiplexer.  At 55/11 with a one-block rounding width every ratio
  // below is 1, so the paper's design gets the calibrated Table I areas.
  const CsGeometry& base = kPcsGeometry;
  const int tiles = g.dsp_tiles();  // DSP48 17x24 grid
  const int tree_levels = csa_levels_for_rows(tiles + 1);  // + C-round row
  const int base_levels = csa_levels_for_rows(21 + 1);
  const double w_adder =
      g.adder_width() / static_cast<double>(base.adder_width());
  const double w_rw = (round_width > 0 ? round_width : g.block()) /
                      static_cast<double>(g.block());
  const int mux_inputs = g.adder_blocks() - 1;
  const int mux_levels = mux_inputs <= 6 ? 2 : 3;

  std::vector<Component> c;
  c.push_back(Component::atomic(
      "in-route", 0.9,
      {scl(80, g.operand_bits() / static_cast<double>(base.operand_bits())),
       0}));
  c.push_back(Component::atomic("mult/dsp-tiles", dev.dsp_mult_ns,
                                {scl(260, tiles / 21.0), tiles}));
  c.push_back(Component::layered(
      "mult/csa-tree", tree_levels, lut_level(dev),
      {scl(1700, (g.product_width() * tree_levels) /
                     static_cast<double>(base.product_width() * base_levels)),
       0}));
  c.push_back(Component::parallel("a-round+preshift",
                                  {scl(980, 0.5 * w_adder + 0.5 * w_rw), 0}));
  c.push_back(Component::parallel("c-round", {scl(310, w_rw), 0}));
  c.push_back(
      Component::atomic("add/3:2", lut_level(dev), {scl(770, w_adder), 0}));
  c.push_back(Component::atomic("carry-reduce",
                                add_logic(dev, g.group()) + 0.60,
                                {scl(700, w_adder), 0}));
  c.push_back(Component::atomic("zd", 3 * lut_level(dev) + 1.2,
                                {scl(340, w_adder), 0}));
  c.push_back(Component::layered(
      "mux" + std::to_string(mux_inputs) + ":1", mux_levels, lut_level(dev),
      {scl(500, (mux_inputs * g.mant_digits()) / (6.0 * 110.0)), 0}));
  c.push_back(Component::atomic("exp/flags", add_logic(dev, 13), {110, 0}));
  c.push_back(Component::layered("result-route/pack", 2, lut_level(dev),
                                 {scl(52, g.mant_digits() / 110.0), 0}));
  return c;
}

std::vector<Component> build_fcs_fma(const Device& dev, BlockSelect select,
                                     int block, int round_width) {
  CSFMA_CHECK_MSG(dev.has_preadder,
                  "FCS-FMA requires DSP pre-adders (Virtex-6 or later)");
  // Fig 11.  The pre-adders assimilate C's CS planes into the DSP ports,
  // removing the Carry Reduce step entirely.  With the early LZA on the
  // inputs (parallel), only the 11:1 multiplexer follows the 3:2 adder on
  // the critical path; the exact ZD (13 blocks of digit pattern matching
  // plus the skip-priority chain) sits between them instead.  Areas are
  // the 29-digit baseline scaled by the block (and rounding) width.
  const int mant_digits = 3 * block;
  const int tiles = ((mant_digits + 22) / 23) * 4;  // ceil(3b/23)*ceil(53/17)
  const int tree_levels = csa_levels_for_rows(tiles + 1);  // + C-round row
  const int base_levels = csa_levels_for_rows(16 + 1);
  const double wb = block / 29.0;
  const double w_rw = (round_width > 0 ? round_width : block) /
                      static_cast<double>(block);

  std::vector<Component> c;
  c.push_back(Component::atomic("in-route", 0.6, {scl(80, wb), 0}));
  c.push_back(
      Component::atomic("mult/pre-add", dev.dsp_preadd_ns, {scl(120, wb), 0}));
  c.push_back(Component::atomic("mult/dsp-tiles", dev.dsp_mult_ns,
                                {scl(200, tiles / 16.0),
                                 scl(12, tiles / 16.0)}));
  c.push_back(Component::layered(
      "mult/csa-tree", tree_levels, lut_level(dev),
      {scl(1300, (mant_digits * tree_levels) /
                     static_cast<double>(87 * base_levels)),
       0}));
  if (select == BlockSelect::Lza) {
    c.push_back(Component::parallel("early-lza", {scl(430, wb), 0}));
  }
  c.push_back(Component::parallel("a-round+preshift",
                                  {scl(830, 0.5 * wb + 0.5 * w_rw), 0}));
  c.push_back(Component::parallel("c-round", {scl(250, w_rw), 0}));
  c.push_back(
      Component::atomic("add/3:2", lut_level(dev), {scl(754, wb), 0}));
  if (select == BlockSelect::Zd) {
    c.push_back(Component::atomic("zd", 3 * lut_level(dev) + 1.4,
                                  {scl(500, wb), 0}));
  }
  c.push_back(Component::layered("mux11:1", 3, lut_level(dev),
                                 {scl(600, wb), 0}));
  c.push_back(Component::atomic("exp/flags", add_logic(dev, 13), {100, 0}));
  c.push_back(Component::atomic("result-route/pack", 1.0, {scl(101, wb), 0}));
  return c;
}

void retune_round(std::vector<Component>& chain, const Device& dev,
                  int round_width, double lut_ratio) {
  for (auto& c : chain) {
    if (c.name == "round") {
      c = Component::atomic("round", add_logic(dev, round_width),
                            {scl(c.area.luts, lut_ratio), 0});
    }
  }
}

SynthesisReport synthesize(const std::string& name,
                           const std::vector<Component>& chain,
                           const Device& dev, double target_mhz) {
  const double period = 1000.0 / target_mhz;
  const double reg = dev.reg_clk_to_q_ns + dev.reg_setup_ns;
  PipelineResult p = pipeline_chain(chain, period, reg);
  Area a = total_area(chain);
  SynthesisReport r;
  r.arch = name;
  r.fmax_mhz = p.fmax_mhz;
  r.cycles = p.cycles;
  r.luts = a.luts;
  r.dsps = a.dsps;
  return r;
}

SynthesisReport synthesize_coregen_pair(const Device& dev, double target_mhz) {
  SynthesisReport mul =
      synthesize("coregen-mul", build_coregen_mul(dev), dev, target_mhz);
  SynthesisReport add =
      synthesize("coregen-add", build_coregen_add(dev), dev, target_mhz);
  SynthesisReport r;
  r.arch = "Xilinx CoreGen";
  r.fmax_mhz = std::min(mul.fmax_mhz, add.fmax_mhz);
  r.cycles = mul.cycles + add.cycles;
  r.luts = mul.luts + add.luts;
  r.dsps = mul.dsps + add.dsps;
  return r;
}

std::vector<SynthesisReport> table1_reports(const Device& dev,
                                            double target_mhz) {
  std::vector<SynthesisReport> rows;
  rows.push_back(synthesize_coregen_pair(dev, target_mhz));
  rows.push_back(synthesize("FloPoCo FPPipeline", build_flopoco_fused(dev), dev,
                            target_mhz));
  rows.push_back(synthesize("PCS-FMA", build_pcs_fma(dev), dev, target_mhz));
  if (dev.has_preadder) {
    rows.push_back(synthesize("FCS-FMA", build_fcs_fma(dev), dev, target_mhz));
  }
  return rows;
}

}  // namespace csfma
