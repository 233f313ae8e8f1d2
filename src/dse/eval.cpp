#include "dse/eval.hpp"

#include "energy/energy_model.hpp"
#include "fpga/architectures.hpp"

namespace csfma::dse {

std::vector<Component> build_model_chain(const DseConfig& cfg,
                                         const Device& dev) {
  std::vector<Component> c;
  switch (cfg.unit) {
    case UnitKind::Pcs:
      return build_pcs_fma(dev, CsGeometry::pcs(cfg.block, cfg.group),
                           cfg.round_width);
    case UnitKind::Fcs:
      return build_fcs_fma(dev, cfg.select, cfg.block, cfg.round_width);
    case UnitKind::Discrete: {
      // The CoreGen pair, concatenated: latencies add (synthesize_coregen_pair
      // sums cycles and takes min fmax; one chain under one pipeliner models
      // the same composition while keeping the depth knob meaningful).
      c = build_coregen_mul(dev);
      const std::vector<Component> add = build_coregen_add(dev);
      c.insert(c.end(), add.begin(), add.end());
      break;
    }
    case UnitKind::Classic:
      c = build_flopoco_fused(dev);
      break;
  }
  // The rounding-width knob on the IEEE chains, whose "round" stages
  // examine the 55-bit baseline; LUTs scale by rwidth / block as in the
  // CS builders.
  const int rw = cfg.resolved_round_width();
  retune_round(c, dev, rw, rw / static_cast<double>(cfg.block));
  return c;
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
  // Every stage's toggles on the Sec. IV-B recurrence.  PCS points simulate
  // their own (block, group) geometry; FCS points the paper's 29-digit
  // geometry with the configured select (the FCS block knob scales the
  // area model only).
  const UnitFactory make_unit = [&cfg](ActivityRecorder* rec) {
    switch (cfg.unit) {
      case UnitKind::Pcs:
        return make_cs_unit(CsGeometry::pcs(cfg.block, cfg.group), rec);
      case UnitKind::Fcs:
        return make_cs_unit(CsGeometry::fcs(cfg.select), rec);
      default:
        return make_fma_unit(cfg.unit, rec);
    }
  };
  m.toggles_per_op =
      measure_recurrence(make_unit, cfg.seed, cfg.ops).toggles_per_op;
  m.energy_nj =
      energy_per_op_nj(energy_coefficients(), m.toggles_per_op, m.luts);
  return m;
}

}  // namespace csfma::dse
