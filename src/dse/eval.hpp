// Design-point evaluation: one DseConfig through the structural
// timing/area model and the switching-activity energy model.
//
// The chains come from the fpga/architectures.hpp builders, the same ones
// Table I, Fig 13 and the HLS operator library use: build_model_chain()
// only maps the DseConfig knobs onto their parameters, so the
// exploration's origin points are the Table I model by construction.
// Energy is Table II's model: the same all-stage recurrence measurement
// and the same (alpha, beta), so at the Table II workload (seed 1001,
// 1920 ops) the paper points reproduce bench/table2_energy exactly.
// Every output is a pure function of the DseConfig alone — same
// determinism contract as the engine: no wall clock, no global state, safe
// to evaluate concurrently and to cache by canonical key.
#pragma once

#include <vector>

#include "dse/config.hpp"
#include "fpga/device.hpp"
#include "fpga/pipeline.hpp"

namespace csfma::dse {

/// The four exploration objectives (all minimized) plus the synthesis
/// intermediates worth reporting.
struct DseMetrics {
  double delay_ns = 0.0;  // multiply-add latency: cycles / fmax
  int cycles = 0;
  double fmax_mhz = 0.0;
  int luts = 0;
  int dsps = 0;
  double toggles_per_op = 0.0;  // all stages, measure_recurrence(seed, ops)
  double energy_nj = 0.0;       // energy_coefficients(): Table II's model
};

/// The component chain for one design point on `dev`: the PCS/FCS
/// builders at the configured geometry, select and rounding width, or the
/// CoreGen pair / FloPoCo chain with its rounding stage retuned.
std::vector<Component> build_model_chain(const DseConfig& cfg,
                                         const Device& dev);

/// Evaluate one design point.  `cfg` must already be valid
/// (DseConfig::validate() returned empty).
DseMetrics eval_design(const DseConfig& cfg);

}  // namespace csfma::dse
