#include "energy/energy_model.hpp"

#include "common/check.hpp"
#include "fpga/architectures.hpp"

namespace csfma {

EnergyCoefficients calibrate(double toggles_a, int luts_a, double energy_a_nj,
                             double toggles_b, int luts_b, double energy_b_nj) {
  // Solve the 2x2 system
  //   alpha*t_a + beta*l_a = e_a
  //   alpha*t_b + beta*l_b = e_b
  const double det = toggles_a * luts_b - toggles_b * luts_a;
  CSFMA_CHECK_MSG(det != 0.0, "degenerate calibration anchors");
  EnergyCoefficients k;
  k.alpha_nj_per_toggle = (energy_a_nj * luts_b - energy_b_nj * luts_a) / det;
  k.beta_nj_per_lut = (toggles_a * energy_b_nj - toggles_b * energy_a_nj) / det;
  return k;
}

const EnergyCoefficients& energy_coefficients() {
  static const EnergyCoefficients k = [] {
    const Device dev = virtex6();
    const auto toggles = [](UnitKind kind) {
      return measure_recurrence(
                 [kind](ActivityRecorder* rec) {
                   return make_fma_unit(kind, rec);
                 },
                 kTableIISeed, kTableIIOps)
          .toggles_per_op;
    };
    return calibrate(toggles(UnitKind::Discrete),
                     total_area(build_coregen_mul(dev)).luts +
                         total_area(build_coregen_add(dev)).luts,
                     0.54, toggles(UnitKind::Pcs),
                     total_area(build_pcs_fma(dev)).luts, 2.67);
  }();
  return k;
}

double energy_per_op_nj(const EnergyCoefficients& k, double toggles_per_op,
                        int luts) {
  return k.alpha_nj_per_toggle * toggles_per_op + k.beta_nj_per_lut * luts;
}

}  // namespace csfma
