// Operand-level fuzzing: arbitrary VALID carry-save operands (redundant
// planes, live tails, extreme exponents) through the units, checked
// against references computed from the operands' exact values.  This
// exercises encodings that never arise from the IEEE converters.
// The units run behind the unified FmaUnit interface (the batch engine's
// dispatch path); the fuzzers hand the redundant operands in wrapped as
// native FmaOperand values.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "fma/fma_unit.hpp"

namespace csfma {
namespace {

/// A random PCS operand: planes restricted so the mantissa magnitude stays
/// within the format's |M| < 2^108 envelope (converter/unit outputs obey
/// this; wilder values are rejected by the format's design).
CsOperand random_pcs(Rng& rng) {
  // Format contract: the leading significant digit lies in the top 55b
  // block (block selection guarantees this for unit outputs; converters
  // place the IEEE significand there) — magnitude in [2^55, 2^107).
  CsWord mag = rng.next_wide_bits<7>((int)rng.next_int(56, 106)) |
               CsWord::bit_at((int)rng.next_int(55, 105));
  CsNum mant = CsNum::from_signed(110, rng.next_bool(), mag);
  // Shuffle value-preserving redundancy into the carry grid: move a random
  // slice of the sum plane into carries at group positions.
  CsWord carries;
  CsWord sum = mant.sum();
  for (int g = 1; g < 10; ++g) {
    if (!rng.next_bool()) continue;
    const int pos = 11 * g;
    // sum bit at pos-1 pair: 2^pos = carry at pos; move 2*2^(pos-1).
    if (sum.bit(pos) && !carries.bit(pos)) {
      sum.set_bit(pos, false);
      carries.set_bit(pos, true);  // same weight: value preserved
    }
  }
  PcsNum m(110, 11, sum, carries);
  PcsNum tail(55, 11, rng.next_wide_bits<7>(55),
              rng.next_wide_bits<7>(55) &
                  (CsWord::bit_at(0) | CsWord::bit_at(11) | CsWord::bit_at(22) |
                   CsWord::bit_at(33) | CsWord::bit_at(44)));
  return CsOperand(kPcsGeometry, m, tail, (int)rng.next_int(-200, 200),
                   FpClass::Normal, false);
}

CsOperand random_fcs(Rng& rng) {
  // Leading digit within the top 29c block: magnitude in [2^58, 2^84).
  CsWord mag = rng.next_wide_bits<7>((int)rng.next_int(59, 83)) |
               CsWord::bit_at((int)rng.next_int(58, 82));
  CsNum base = CsNum::from_signed(87, rng.next_bool(), mag);
  // FCS allows redundancy anywhere: split random bits between the planes.
  CsWord moved = base.sum() & rng.next_wide_bits<7>(85) & ~CsWord::bit_at(86);
  CsWord sum = base.sum() ^ moved;
  // moving bit b from sum to carry keeps the weight (same position).
  PcsNum mant(87, 1, sum, moved);
  PcsNum tail(29, 1, rng.next_wide_bits<7>(29), rng.next_wide_bits<7>(29));
  return CsOperand(kFcsGeometry, mant, tail, (int)rng.next_int(-200, 200),
                   FpClass::Normal, false);
}

TEST(OperandFuzz, PcsFmaOnRedundantOperands) {
  Rng rng(190);
  auto unit = make_fma_unit(UnitKind::Pcs);
  for (int i = 0; i < 20000; ++i) {
    CsOperand a = random_pcs(rng);
    CsOperand c = random_pcs(rng);
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-40, 40));
    CsOperand r = unit->fma(FmaOperand(a), b, FmaOperand(c)).cs();
    if (r.cls() != FpClass::Normal) continue;
    // Reference from the operands' exact values; the unit's deferred
    // rounding of a and c contributes up to ~2^-54 relative each.
    PFloat ref = PFloat::fma(b, c.exact_value(), a.exact_value(), kWideExact,
                             Round::NearestEven);
    if (!ref.is_normal()) continue;
    double err = PFloat::ulp_error(
        cs_to_ieee(r, kBinary64, Round::HalfAwayFromZero),
        ref.round_to(kBinary64, Round::HalfAwayFromZero), 52);
    // Cancellation can amplify the transfer rounding; use the magnitude
    // ratio envelope as in the chain tests.
    const double ratio = std::fabs(
        b.to_double() * c.exact_value().to_double() / ref.to_double());
    const double aratio =
        std::fabs(a.exact_value().to_double() / ref.to_double());
    ASSERT_LE(err, 1.1 + 0.25 * (ratio + aratio))
        << a.to_string() << " " << c.to_string();
  }
}

TEST(OperandFuzz, FcsFmaOnRedundantOperands) {
  Rng rng(191);
  auto unit = make_fma_unit(UnitKind::Fcs);
  for (int i = 0; i < 20000; ++i) {
    CsOperand a = random_fcs(rng);
    CsOperand c = random_fcs(rng);
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-40, 40));
    CsOperand r = unit->fma(FmaOperand(a), b, FmaOperand(c)).cs();
    if (r.cls() != FpClass::Normal) continue;
    PFloat ref = PFloat::fma(b, c.exact_value(), a.exact_value(), kWideExact,
                             Round::NearestEven);
    if (!ref.is_normal()) continue;
    double err = PFloat::ulp_error(
        cs_to_ieee(r, kBinary64, Round::HalfAwayFromZero),
        ref.round_to(kBinary64, Round::HalfAwayFromZero), 52);
    const double ratio = std::fabs(
        b.to_double() * c.exact_value().to_double() / ref.to_double());
    const double aratio =
        std::fabs(a.exact_value().to_double() / ref.to_double());
    ASSERT_LE(err, 1.1 + 0.25 * (ratio + aratio))
        << a.to_string() << " " << c.to_string();
  }
}

TEST(OperandFuzz, RedundancyShufflePreservesValue) {
  // Sanity on the fuzzers themselves: the redundant encodings represent
  // the intended values.
  Rng rng(192);
  for (int i = 0; i < 5000; ++i) {
    CsOperand p = random_pcs(rng);
    CsOperand f = random_fcs(rng);
    EXPECT_LT(p.mant().as_cs().magnitude(), CsWord::bit_at(107));
    EXPECT_LT(f.mant().as_cs().magnitude(), CsWord::bit_at(84));
  }
}

TEST(OperandFuzz, ConversionRoundTripAtExponentExtremes) {
  // The 12b excess-2047 exponent range exceeds IEEE's: operands near the
  // field limits convert out to inf/zero as specified.
  CsNum mant = CsNum::from_signed(110, false, CsWord(1ull) << 107);
  CsOperand huge(kPcsGeometry, PcsNum(110, 11, mant.sum(), mant.carry()),
                 PcsNum::zero(55, 11), 1500, FpClass::Normal, false);
  EXPECT_TRUE(cs_to_ieee(huge, kBinary64, Round::NearestEven).is_inf());
  CsOperand tiny(kPcsGeometry, PcsNum(110, 11, mant.sum(), mant.carry()),
                 PcsNum::zero(55, 11), -1500, FpClass::Normal, false);
  EXPECT_TRUE(cs_to_ieee(tiny, kBinary64, Round::NearestEven).is_zero());
  // But a wide-exponent readout format preserves them.
  EXPECT_TRUE(cs_to_ieee(huge, kWideExact, Round::NearestEven).is_normal());
}

}  // namespace
}  // namespace csfma
