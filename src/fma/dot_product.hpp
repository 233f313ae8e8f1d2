// Fused dot product — the paper's "applied to other floating-point
// operations" future-work direction (Sec. V), in the style of the fused
// dot-product units it cites ([9] Saleh/Swartzlander, [10] FFT versions).
//
// r = sum_i a_i * b_i is computed with ONE normalization/rounding at the
// very end: every product is formed exactly (106b), aligned into a shared
// 385b carry-save window, reduced with a single CSA tree, carry-reduced to
// the PCS form and block-selected with the same Zero Detector and 6:1
// multiplexer as the PCS-FMA.  The result is a PCS operand, so a fused dot
// product can feed an FMA chain directly without an intermediate rounding.
//
// Alignment truncation: terms more than ~270 bits below the largest
// product fall off the window (the fused-accumulator behaviour of
// de Dinechin/Pasca [12], which the paper builds on).
#pragma once

#include <iterator>
#include <utility>
#include <vector>

#include "common/activity.hpp"
#include "cs/csa_tree.hpp"
#include "fma/cs_format.hpp"

namespace csfma {

class PcsDotProduct {
 public:
  explicit PcsDotProduct(ActivityRecorder* activity = nullptr)
      : probes_(activity, kProbeNames) {}

  /// Fused sum of products; terms are IEEE binary64 pairs.  The result is
  /// in the PCS geometry (kPcsGeometry).
  CsOperand dot(const std::vector<std::pair<PFloat, PFloat>>& terms);

  /// Convenience: fused dot with a single exit rounding.
  PFloat dot_ieee(const std::vector<std::pair<PFloat, PFloat>>& terms,
                  Round rm);

  /// Stats of the last reduction tree (rows = 2 per DSP-tiled product).
  const CsaTreeStats& last_tree_stats() const { return tree_stats_; }

 private:
  /// The activity probes (no stage label), in kProbeNames order.
  enum Probe { kDotSum, kDotCarry };
  static constexpr ProbeName kProbeNames[] = {{"dot.sum", ""},
                                              {"dot.carry", ""}};

  ProbeHandles<std::size(kProbeNames)> probes_;
  CsaTreeStats tree_stats_{};
};

}  // namespace csfma
