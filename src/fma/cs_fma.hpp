// The carry-save FMA unit: R = A + B * C for any CsGeometry — the paper's
// PCS-FMA (Sec. III-F, Fig 9), its FCS-FMA (Sec. III-G/H, Fig 11) and every
// other (block, group, select) point of the design space.
//
//   * A, C, R in the geometry's CS operand format (deferred rounding data
//     travels with the value; Sec. III-C); B in IEEE 754 binary64 (the
//     non-critical operand stays standard, which keeps the multiplier tree
//     shallow; Sec. III-D);
//   * B_M x unrounded C_M as a DSP-tiled CSA tree built directly in the
//     adder window, C's deferred rounding folded in as a +B_M correction
//     row (Fig 6), A's applied by the A-path rounding unit in parallel
//     with the pre-shift (Fig 5);
//   * a 3:2 CS adder, then Carry Reduction to the group-g form (Sec. III-E;
//     skipped for group 1, where the DSP48E1 pre-adders of the next unit
//     assimilate the raw planes — the reason FCS does not port to
//     Virtex-5);
//   * the variable-distance normalization shifter replaced by a block
//     multiplexer, driven by the digit-level Zero Detector on the result
//     (Sec. III-D/F) or by early leading-zero anticipation on the inputs
//     (Sec. III-G).
//
// The datapath is simulated digit-exactly — the CSA tree, the adder window
// placement, the carry reduction, the block selection and the truncate-
// then-round tail handling are all the hardware's, including the paper's
// documented misrounding cases.  The only value-level shortcut is that
// two's-complement operands are assimilated where the hardware would use
// DSP pre-adder / group-adder structures (see csa_tree.hpp and DESIGN.md).
#pragma once

#include <iterator>

#include "common/activity.hpp"
#include "cs/csa_tree.hpp"
#include "fma/cs_format.hpp"
#include "fma/fma_unit.hpp"
#include "introspect/hooks.hpp"

namespace csfma {

class CsFma {
 public:
  /// `activity` (optional) receives per-component toggle counts, used by
  /// the energy model; the recorder must outlive the unit.  `hooks`
  /// (optional) attaches signal taps / the numerical event log; null costs
  /// one pointer check per operation.
  explicit CsFma(const CsGeometry& g, ActivityRecorder* activity = nullptr,
                 const IntrospectHooks* hooks = nullptr);

  const CsGeometry& geometry() const { return g_; }

  /// R = A + B * C.  B must be binary64 (or narrower); A and C carry their
  /// unrounded tails in and must be in this unit's geometry.
  CsOperand fma(const CsOperand& a, const PFloat& b, const CsOperand& c);

  /// Single-operation convenience with IEEE boundaries: converts the
  /// operands in, runs the unit once, converts the result out with the
  /// final rounding — what a single replaced multiply/add pair computes.
  PFloat fma_ieee(const PFloat& a, const PFloat& b, const PFloat& c, Round rm);

  /// Bit-sliced batch form of fma_ieee (engine/slice.hpp): the batch runs
  /// through the plane-form fma_block in consecutive blocks of up to 64
  /// operations, every operation in its lane.  Each lane is a datapath
  /// lane, an A pass-through or a side wire (an exception operand or a
  /// zero product); each probe observes exactly the lanes whose scalar
  /// path drives it, and a lane the datapath does not decide reads the
  /// scalar path's early result.  Only a unit with a SignalTap attached
  /// runs the scalar path per operation.  Results, per-probe toggle counts
  /// and the event sequence are bit-identical to the scalar loop (the
  /// engine's backend-equivalence gate).
  void fma_ieee_batch(const OperandTriple* ops, std::size_t n, PFloat* out,
                      const FmaBatchHooks& hooks);

  /// Stats of the most recent multiplication (tree geometry, for tests).
  const CsaTreeStats& last_mul_stats() const { return mul_stats_; }
  /// Leading adder blocks the result mux skipped in the most recent
  /// operation; the mantissa's top block is adder_blocks - 1 - skip.
  int last_skip() const { return last_skip_; }

 private:
  /// One sliced block of `n` <= 64 operations, lane L holding ops[L].
  void fma_block(const OperandTriple* ops, int n, PFloat* out,
                 const FmaBatchHooks& hooks);
  /// What the exception side wires (Sec. III-B) decide about an operation
  /// before any datapath stage sees it: nothing (kDatapath), or a NaN, a
  /// signed infinity or zero, or A rounded (a zero product).
  struct SideWire {
    enum Kind { kDatapath, kNan, kInf, kZero, kRoundedA } kind = kDatapath;
    bool sign = false;
  };
  /// Past the NaN and infinity wires it raises A's and C's
  /// deferred-rounding events (Sec. III-C), where the unit takes those
  /// decisions.
  SideWire side_wires(const CsOperand& a, const PFloat& b, const CsOperand& c,
                      EventLog* events) const;
  /// The result a side wire decides, given the operation's A.
  CsOperand side_wire_result(SideWire wire, const CsOperand& a) const;
  /// The mux output as an operand: zero test, exponent range checks.
  CsOperand result(PcsNum mant, PcsNum tail, int e_r, EventLog* events) const;

  /// The activity probes, in kProbeNames order; the scalar and sliced
  /// paths observe through the same handles.
  enum Probe {
    kMulSum, kMulCarry, kAShift, kAddSum, kAddCarry,
    kCreduceSum, kCreduceCarry, kMuxSum, kMuxCarry
  };
  static constexpr ProbeName kProbeNames[] = {
      {"mul.sum", "mul"},         {"mul.carry", "mul"},
      {"ashift", "align"},        {"add.sum", "add"},
      {"add.carry", "add"},       {"creduce.sum", "creduce"},
      {"creduce.carry", "creduce"},
      {"mux.sum", "mux"},         {"mux.carry", "mux"}};

  CsGeometry g_;
  ProbeHandles<std::size(kProbeNames)> probes_;
  const IntrospectHooks* hooks_;
  CsaTreeStats mul_stats_{};
  int last_skip_ = 0;
};

}  // namespace csfma
