// Partial carry-save (PCS) numbers and the Carry Reduction step.
//
// Sec. III-E of the paper: a full CS result (sum plane + carry plane of the
// same width) is reduced to a *partial* CS form in which explicit carry bits
// survive only at every `group`-th position (11 in the paper; 5 and 55 are
// the alternatives its constraint analysis allows — both supported here for
// the ablation bench).  Each group of `group` digits is assimilated by a
// small adder; its carry-out becomes the explicit carry bit of the next
// group.  This converts the 385b sum + 384b carries of the adder output into
// 385b sum + one carry bit per group, with constant (group-adder) latency.
#pragma once

#include "cs/cs_num.hpp"

namespace csfma {

/// A PCS number: sum plane of `width` bits plus explicit carry bits allowed
/// only at positions that are multiples of `group`.
/// Value = toSigned((sum + carries) mod 2^width), like CsNum.
class PcsNum {
 public:
  PcsNum(int width, int group, CsWord sum, CsWord carries);

  static PcsNum zero(int width, int group);

  int width() const { return cs_.width(); }
  int group() const { return group_; }
  const CsWord& sum() const { return cs_.sum(); }
  const CsWord& carries() const { return cs_.carry(); }

  int num_carry_positions() const { return (width() + group_ - 1) / group_; }

  /// View as a generic CS pair (digit i = sum_i + carries_i).
  const CsNum& as_cs() const { return cs_; }

  CsWord to_binary() const { return cs_.to_binary(); }
  CsWord signed_value() const { return cs_.signed_value(); }

  /// Extract `len` digits starting at `lo`; `lo` must be group-aligned so
  /// the carry positions of the extraction remain group-aligned.
  PcsNum extract_digits(int lo, int len) const;

 private:
  int group_;
  CsNum cs_;
};

/// The Carry Reduction block (Fig 9): assimilate each `group`-wide digit
/// group of a full CS number with a small adder; group carry-outs land at
/// the next group boundary of the result's carry plane (the top one falls
/// off the window, mod semantics).  Latency is one group-adder regardless of
/// total width — the point of the PCS representation.
PcsNum carry_reduce(const CsNum& x, int group);

/// Fold a PCS number's explicit carries back in with full-width addition
/// (used at the exit of an FMA chain, before conversion to IEEE 754).
CsWord pcs_assimilate(const PcsNum& x);

}  // namespace csfma
