// Discrete IEEE 754 multiply and add operators — the Xilinx CoreGen
// configuration of the paper's evaluation ("low latency" 5-cycle multiplier
// plus "low latency" 4-cycle adder, Sec. IV-A), and the FloPoCo FPPipeline
// fused pipeline.  Both are IEEE-interface, subnormal-free, correctly
// rounded operators; they differ (for our purposes) in the latency/area
// attributes the fpga/ and hls/ models attach, and in their switching
// activity (every intermediate is re-normalized, so the planes are narrow).
#pragma once

#include <iterator>

#include "common/activity.hpp"
#include "fp/pfloat.hpp"
#include "introspect/hooks.hpp"

namespace csfma {

/// A CoreGen-style discrete multiply-add pair: mul and add are separate,
/// fully rounded operators (two roundings per multiply-add).
class DiscreteMulAdd {
 public:
  /// `hooks` (optional) attaches signal taps; null costs a pointer check.
  explicit DiscreteMulAdd(ActivityRecorder* activity = nullptr,
                          const IntrospectHooks* hooks = nullptr)
      : probes_(activity, kProbeNames), hooks_(hooks) {}

  PFloat mul(const PFloat& a, const PFloat& b);
  PFloat add(const PFloat& a, const PFloat& b);

  /// The full multiply-add a + b*c as the discrete pipeline computes it.
  PFloat mul_add(const PFloat& a, const PFloat& b, const PFloat& c);

 private:
  /// The activity probes, in kProbeNames order.
  enum Probe { kMulOut, kAddOut };
  static constexpr ProbeName kProbeNames[] = {{"mul.out", "mul"},
                                              {"add.out", "add"}};

  void probe(Probe p, const PFloat& v);
  ProbeHandles<std::size(kProbeNames)> probes_;
  const IntrospectHooks* hooks_;
};

}  // namespace csfma
