#include "cs/pcs.hpp"

#include "common/check.hpp"

namespace csfma {

namespace {

/// Mask with a 1 at every multiple of `group` below `width`.
CsWord group_position_mask(int width, int group) {
  CsWord m;
  std::uint64_t* w = m.data();
  for (int p = 0; p < width; p += group)
    w[p >> 6] |= std::uint64_t{1} << (p & 63);
  return m;
}

}  // namespace

PcsNum::PcsNum(int width, int group, CsWord sum, CsWord carries)
    : group_(group), cs_(width, sum, carries) {
  CSFMA_CHECK_MSG(group >= 1 && group <= width, "PCS group");
  // Group 1 (full carry-save) allows a carry at every digit of the window,
  // which the CsNum plane checks already cover.
  CSFMA_CHECK_MSG(group == 1 ||
                      (carries & ~group_position_mask(width, group)).is_zero(),
                  "carry bits off the group grid");
}

PcsNum PcsNum::zero(int width, int group) {
  return PcsNum(width, group, CsWord(), CsWord());
}

PcsNum PcsNum::extract_digits(int lo, int len) const {
  CSFMA_CHECK(lo >= 0 && len >= 1 && lo + len <= width());
  CSFMA_CHECK_MSG(lo % group_ == 0, "extraction must be group-aligned");
  return PcsNum(len, group_ <= len ? group_ : len, sum().extract(lo, len),
                carries().extract(lo, len));
}

PcsNum carry_reduce(const CsNum& x, int group) {
  const int w = x.width();
  CSFMA_CHECK(group >= 1 && group <= w);
  CSFMA_CHECK_MSG(group <= 63, "group adders are modeled on 64-bit words");
  // Hot path (every FMA/dot reduces its 385b adder output): walk the raw
  // word storage with two-word window reads/writes instead of full-width
  // extract/deposit masks.  Values are identical to the masked form.
  const std::uint64_t* sw = x.sum().data();
  const std::uint64_t* cw = x.carry().data();
  CsWord out_sum, out_carries;
  std::uint64_t* os = out_sum.data();
  std::uint64_t* oc = out_carries.data();
  for (int lo = 0; lo < w; lo += group) {
    const int len = (lo + group <= w) ? group : (w - lo);
    // One small adder per group: sum-segment + carry-segment.
    const std::uint64_t seg =
        wide_read_bits(sw, lo, len) + wide_read_bits(cw, lo, len);
    wide_or_bits(os, lo, len, seg);
    const bool carry_out = (seg >> len) & 1;
    if (carry_out && lo + group < w) {
      oc[(lo + group) >> 6] |= std::uint64_t{1} << ((lo + group) & 63);
    }
    // A carry out of the topmost group falls off the window (mod 2^w).
  }
  return PcsNum(w, group, out_sum, out_carries);
}

CsWord pcs_assimilate(const PcsNum& x) { return x.to_binary(); }

}  // namespace csfma
