// Switching-activity energy model (Table II).
//
// The paper records post-layout switching activity (ISim VCD/SAIF) of each
// unit running the Sec. IV-B recurrence in pipeline steady state and feeds
// it to XPower.  The simulator equivalent: ActivityRecorder probes on every
// major component output count per-net toggles (measure_recurrence in
// energy/workload.hpp, every stage counted); energy per operation is
//
//   E = alpha * (toggles per op) + beta * (design LUTs)
//
// where the alpha term models the dynamic fabric/routing energy (scales
// with actual bit activity — the CS planes of the P/FCS units toggle far
// more than re-normalized IEEE buses, which is the paper's explanation of
// the 4-5x increase: "most of the energy was drawn in the large CSA trees")
// and the beta term models the clock tree / register load, which scales
// with design size.  energy_coefficients() calibrates alpha and beta ONCE
// against the two anchor values of Table II (Xilinx 0.54 nJ, PCS-FMA
// 2.67 nJ) on the Table II workload; FloPoCo and FCS-FMA are then
// predictions of the model (bench/table2_energy), and every DSE design
// point is priced with the same coefficients (dse::eval_design).
#pragma once

#include <cstdint>

#include "energy/workload.hpp"

namespace csfma {

struct EnergyCoefficients {
  double alpha_nj_per_toggle;
  double beta_nj_per_lut;
};

/// The Table II workload: 20 recurrence chains of depth kRecurrenceDepth
/// drawn from seed 1001, i.e. measure_recurrence(.., kTableIISeed,
/// kTableIIOps).
inline constexpr std::uint64_t kTableIISeed = 1001;
inline constexpr int kTableIIChains = 20;
inline constexpr std::uint64_t kTableIIOps =
    kTableIIChains * 2ull * (kRecurrenceDepth - 2);

/// Calibrate (alpha, beta) from two anchor designs.
EnergyCoefficients calibrate(double toggles_a, int luts_a, double energy_a_nj,
                             double toggles_b, int luts_b, double energy_b_nj);

/// The model's (alpha, beta), solved on first use from the discrete
/// CoreGen pair at 0.54 nJ and the paper-geometry PCS-FMA at 2.67 nJ:
/// toggles from measure_recurrence on the Table II workload, LUTs from the
/// Virtex-6 builders of fpga/architectures.hpp.  Thread-safe.
const EnergyCoefficients& energy_coefficients();

/// Energy per multiply-add of a design under the model.
double energy_per_op_nj(const EnergyCoefficients& k, double toggles_per_op,
                        int luts);

}  // namespace csfma
