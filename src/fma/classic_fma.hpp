// The classic fused multiply-add architecture (Hokenek/Montoye/Cook 1990),
// Fig 4 of the paper — the baseline the PCS/FCS designs depart from.
//
// IEEE 754-compliant operands AND result; internally:
//   * the multiplier produces the product in carry-save form (no
//     normalization between multiply and add),
//   * the addend is pre-shifted in parallel with the multiplication,
//   * a 161b end-around adder with conditional complement assimilates,
//   * a Leading Zero Anticipator computes the normalization distance in
//     parallel with the addition,
//   * the variable-distance shifter normalizes, then rounding and the
//     conditional 1-bit post-normalization shift finish.
//
// Being a correctly implemented fused operation, its value equals the
// correctly rounded a + b*c (verified against PFloat::fma in tests); the
// point of simulating the steps is the timing/area/energy model and the
// architectural contrast.
#pragma once

#include <iterator>

#include "common/activity.hpp"
#include "fma/fma_unit.hpp"
#include "fp/pfloat.hpp"
#include "introspect/hooks.hpp"

namespace csfma {

class ClassicFma {
 public:
  /// `hooks` (optional) attaches signal taps / the numerical event log;
  /// both pointers must outlive the unit.  Null costs one pointer check.
  explicit ClassicFma(ActivityRecorder* activity = nullptr,
                      const IntrospectHooks* hooks = nullptr)
      : probes_(activity, kProbeNames), hooks_(hooks) {}

  /// R = A + B * C, all IEEE binary64, round-to-nearest-even (the mode the
  /// 1990 design implements).
  PFloat fma(const PFloat& a, const PFloat& b, const PFloat& c);

  /// Bit-sliced batch form of fma(a, b, c).round_to(binary64, hooks.rm)
  /// (engine/slice.hpp): the batch runs through the plane-form fma_block in
  /// consecutive blocks of up to 64 operations, every operation in its
  /// lane.  A lane with three normal operands and an addend within the
  /// adder window's alignment range drives every probe and event; one with
  /// three normal operands beyond it drives the multiplier's probes only;
  /// any other drives none.  Every lane's value is PFloat::fma.  Only a
  /// unit with a SignalTap attached runs the scalar path per operation.
  /// Results, per-probe toggle counts and the event sequence are
  /// bit-identical to the scalar loop.
  void fma_ieee_batch(const OperandTriple* ops, std::size_t n, PFloat* out,
                      const FmaBatchHooks& hooks);

  /// Normalization shift distance used by the last operation (LZA-guided).
  int last_norm_shift() const { return last_norm_shift_; }

 private:
  /// One sliced block of `n` <= 64 operations, lane L holding ops[L].
  void fma_block(const OperandTriple* ops, int n, PFloat* out,
                 const FmaBatchHooks& hooks);

  /// The activity probes, in kProbeNames order; the scalar and sliced
  /// paths observe through the same handles.
  enum Probe { kMulSum, kMulCarry, kAddSum, kAddCarry, kNorm };
  static constexpr ProbeName kProbeNames[] = {{"mul.sum", "mul"},
                                              {"mul.carry", "mul"},
                                              {"add.sum", "add"},
                                              {"add.carry", "add"},
                                              {"norm", "norm"}};

  ProbeHandles<std::size(kProbeNames)> probes_;
  const IntrospectHooks* hooks_;
  int last_norm_shift_ = 0;
};

}  // namespace csfma
