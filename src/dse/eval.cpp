#include "dse/eval.hpp"

#include <cmath>
#include <cstddef>

#include "common/activity.hpp"
#include "cs/csa_tree.hpp"
#include "energy/energy_model.hpp"
#include "energy/workload.hpp"
#include "fpga/architectures.hpp"

namespace csfma::dse {

namespace {

// Mirrors the file-local helpers in fpga/architectures.cpp: adder logic
// delay excluding the per-stage register cost, and one LUT6 level.
double add_logic(const Device& d, int n) {
  return d.adder_delay_ns(n) - d.reg_clk_to_q_ns - d.reg_setup_ns;
}

double lut_level(const Device& d) { return d.lut6_logic_ns + d.lut_route_ns; }

/// Scale a baseline LUT count by a width ratio.  Ratio 1 returns the
/// baseline exactly, so default-geometry chains match the fixed builders.
int scl(int base, double ratio) {
  return static_cast<int>(std::lround(base * ratio));
}

/// Swap the IEEE units' final rounding stage for one examining `rwidth`
/// bits — the Sec. III-C knob applied to the discrete/classic chains,
/// whose natural examination width is the 55-bit baseline.
void retune_round(std::vector<Component>& chain, const Device& dev,
                  int rwidth, double ratio) {
  for (auto& c : chain) {
    if (c.name == "round") {
      c = Component::atomic("round", add_logic(dev, rwidth),
                            {scl(c.area.luts, ratio), 0});
    }
  }
}

std::vector<Component> build_discrete(const DseConfig& cfg, const Device& dev) {
  // The CoreGen pair, concatenated: latencies add (synthesize_coregen_pair
  // sums cycles and takes min fmax; one chain under one pipeliner models
  // the same composition while keeping the depth knob meaningful).
  std::vector<Component> c = build_coregen_mul(dev);
  std::vector<Component> add = build_coregen_add(dev);
  c.insert(c.end(), add.begin(), add.end());
  retune_round(c, dev, cfg.resolved_round_width(),
               cfg.resolved_round_width() / static_cast<double>(cfg.block));
  return c;
}

std::vector<Component> build_classic(const DseConfig& cfg, const Device& dev) {
  std::vector<Component> c = build_flopoco_fused(dev);
  retune_round(c, dev, cfg.resolved_round_width(),
               cfg.resolved_round_width() / static_cast<double>(cfg.block));
  return c;
}

std::vector<Component> build_pcs(const DseConfig& cfg, const Device& dev) {
  // build_pcs_fma generalized over the PCS geometry and the rounding
  // width.  Every area is the Fig 9 baseline scaled by the width ratio of
  // the structure it implements; at (55, 11, rwidth 55) all ratios are 1.
  const CsGeometry pc = CsGeometry::pcs(cfg.block, cfg.group);
  const CsGeometry& base = kPcsGeometry;
  const int tiles = pc.dsp_tiles();  // DSP48 17x24 grid
  const int tree_levels = csa_levels_for_rows(tiles + 1);
  const int base_levels = csa_levels_for_rows(21 + 1);
  const double w_adder =
      pc.adder_width() / static_cast<double>(base.adder_width());
  const double w_rw = cfg.resolved_round_width() / static_cast<double>(cfg.block);
  const int mux_inputs = pc.adder_blocks() - 1;
  const int mux_levels = mux_inputs <= 6 ? 2 : 3;

  std::vector<Component> c;
  c.push_back(Component::atomic(
      "in-route", 0.9,
      {scl(80, pc.operand_bits() / static_cast<double>(base.operand_bits())),
       0}));
  c.push_back(Component::atomic("mult/dsp-tiles", dev.dsp_mult_ns,
                                {scl(260, tiles / 21.0), tiles}));
  c.push_back(Component::layered(
      "mult/csa-tree", tree_levels, lut_level(dev),
      {scl(1700, (pc.product_width() * tree_levels) /
                     static_cast<double>(base.product_width() * base_levels)),
       0}));
  c.push_back(Component::parallel("a-round+preshift",
                                  {scl(980, 0.5 * w_adder + 0.5 * w_rw), 0}));
  c.push_back(Component::parallel("c-round", {scl(310, w_rw), 0}));
  c.push_back(
      Component::atomic("add/3:2", lut_level(dev), {scl(770, w_adder), 0}));
  c.push_back(Component::atomic("carry-reduce",
                                add_logic(dev, cfg.group) + 0.60,
                                {scl(700, w_adder), 0}));
  c.push_back(Component::atomic("zd", 3 * lut_level(dev) + 1.2,
                                {scl(340, w_adder), 0}));
  c.push_back(Component::layered(
      "mux" + std::to_string(mux_inputs) + ":1", mux_levels, lut_level(dev),
      {scl(500, (mux_inputs * pc.mant_digits()) / (6.0 * 110.0)), 0}));
  c.push_back(Component::atomic("exp/flags", add_logic(dev, 13), {110, 0}));
  c.push_back(Component::layered(
      "result-route/pack", 2, lut_level(dev),
      {scl(52, pc.mant_digits() / 110.0), 0}));
  return c;
}

std::vector<Component> build_fcs(const DseConfig& cfg, const Device& dev) {
  // build_fcs_fma / build_fcs_fma_zd generalized over the block size (the
  // FCS result is three blocks, baseline 29 digits) and the rounding
  // width; the select knob picks the parallel early LZA (Fig 11) or the
  // exact on-path zero detector (the Sec. III-F alternative).
  const int b = cfg.block;
  const int mant_digits = 3 * b;
  const int tiles = ((mant_digits + 22) / 23) * 4;  // ceil(3b/23)*ceil(53/17)
  const int tree_levels = csa_levels_for_rows(tiles + 1);
  const int base_levels = csa_levels_for_rows(16 + 1);
  const double wb = b / 29.0;
  const double w_rw = cfg.resolved_round_width() / static_cast<double>(b);

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
  if (cfg.select == BlockSelect::Lza) {
    c.push_back(Component::parallel("early-lza", {scl(430, wb), 0}));
  }
  c.push_back(Component::parallel("a-round+preshift",
                                  {scl(830, 0.5 * wb + 0.5 * w_rw), 0}));
  c.push_back(Component::parallel("c-round", {scl(250, w_rw), 0}));
  c.push_back(
      Component::atomic("add/3:2", lut_level(dev), {scl(754, wb), 0}));
  if (cfg.select == BlockSelect::Zd) {
    c.push_back(Component::atomic("zd", 3 * lut_level(dev) + 1.4,
                                  {scl(500, wb), 0}));
  }
  c.push_back(Component::layered("mux11:1", 3, lut_level(dev),
                                 {scl(600, wb), 0}));
  c.push_back(Component::atomic("exp/flags", add_logic(dev, 13), {100, 0}));
  c.push_back(Component::atomic("result-route/pack", 1.0, {scl(101, wb), 0}));
  return c;
}

/// Toggles per multiply-add of the configured unit on the Sec. IV-B
/// recurrence stream (cfg.ops operations, IEEE boundaries).  PCS points
/// simulate their own (block, group) geometry and count its CS adder
/// stage only; FCS points simulate the paper's 29-digit geometry with the
/// configured select (the FCS block knob is modelled, not simulated).
/// Pure in (unit, geometry, select, rm, seed, ops).
double measure_model_toggles(const DseConfig& cfg) {
  const int runs =
      static_cast<int>((cfg.ops + 31) / 32);  // 32 triples per depth-18 run
  RecurrenceSource src(cfg.seed, runs, 18);
  std::vector<OperandTriple> ops(cfg.ops);
  src.fill(0, ops.data(), ops.size());

  ActivityRecorder rec;
  std::unique_ptr<FmaUnit> unit;
  switch (cfg.unit) {
    case UnitKind::Pcs:
      unit = make_cs_unit(CsGeometry::pcs(cfg.block, cfg.group), &rec);
      break;
    case UnitKind::Fcs:
      unit = make_cs_unit(CsGeometry::fcs(cfg.select), &rec);
      break;
    default:
      unit = make_fma_unit(cfg.unit, &rec);
      break;
  }
  std::vector<PFloat> out(ops.size());
  FmaBatchHooks hooks;
  hooks.rm = cfg.rm;
  unit->fma_ieee_batch(ops.data(), ops.size(), out.data(), hooks);
  const std::uint64_t toggles = cfg.unit == UnitKind::Pcs
                                    ? rec.stage_totals()["add"].toggles
                                    : rec.total_toggles();
  return static_cast<double>(toggles) / static_cast<double>(cfg.ops);
}

/// (alpha, beta) calibrated once against the Table II anchors — the
/// discrete CoreGen pair at 0.54 nJ and the paper-geometry PCS-FMA at
/// 2.67 nJ — with toggles and LUTs taken from THIS model at its default
/// workload, so every point's energy is consistent with the anchors.
const EnergyCoefficients& model_coefficients() {
  static const EnergyCoefficients k = [] {
    const Device dev = virtex6();
    DseConfig a;
    a.unit = UnitKind::Discrete;
    DseConfig b;
    b.unit = UnitKind::Pcs;
    return calibrate(measure_model_toggles(a),
                     total_area(build_model_chain(a, dev)).luts, 0.54,
                     measure_model_toggles(b),
                     total_area(build_model_chain(b, dev)).luts, 2.67);
  }();
  return k;
}

}  // namespace

std::vector<Component> build_model_chain(const DseConfig& cfg,
                                         const Device& dev) {
  switch (cfg.unit) {
    case UnitKind::Discrete:
      return build_discrete(cfg, dev);
    case UnitKind::Classic:
      return build_classic(cfg, dev);
    case UnitKind::Pcs:
      return build_pcs(cfg, dev);
    case UnitKind::Fcs:
      return build_fcs(cfg, dev);
  }
  return {};
}

DseMetrics eval_design(const DseConfig& cfg) {
  const Device dev = virtex6();
  const std::vector<Component> chain = build_model_chain(cfg, dev);

  // The depth knob sets the target period to an even 1/depth split of the
  // combinational critical path; the greedy pipeliner then packs stages,
  // so an indivisible atom (a DSP stage, the wide adder) still bounds
  // fmax exactly as in the fixed Table I flow.
  double total = 0.0;
  for (const auto& c : chain) {
    if (!c.off_critical_path) total += c.total_delay();
  }
  const double reg = dev.reg_clk_to_q_ns + dev.reg_setup_ns;
  const double period = total / cfg.depth + reg;
  const PipelineResult p = pipeline_chain(chain, period, reg);
  const Area area = total_area(chain);

  DseMetrics m;
  m.cycles = p.cycles;
  m.fmax_mhz = p.fmax_mhz;
  m.delay_ns = p.cycles * 1000.0 / p.fmax_mhz;
  m.luts = area.luts;
  m.dsps = area.dsps;
  m.toggles_per_op = measure_model_toggles(cfg);
  m.energy_nj =
      energy_per_op_nj(model_coefficients(), m.toggles_per_op, m.luts);
  return m;
}

}  // namespace csfma::dse
