// The CS operand format at the paper's FCS geometry (Sec. III-H): every
// digit keeps both planes (group 1).
#include "fma/cs_format.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace csfma {
namespace {

constexpr const CsGeometry& G = kFcsGeometry;

CsOperand fcs(const CsNum& mant, const CsNum& tail) {
  return CsOperand(G, PcsNum(mant.width(), 1, mant.sum(), mant.carry()),
                   PcsNum(tail.width(), 1, tail.sum(), tail.carry()), 0,
                   FpClass::Normal, false);
}

TEST(FcsFormat, GeometryMatchesPaper) {
  // Sec. III-H: 87c mantissa in three 29c blocks (reduced from 116b for
  // routability), 29c rounding data, 12b exponent; the adder window is 13
  // blocks and the result mux has 11 positions.
  EXPECT_EQ(G.mant_digits(), 87);
  EXPECT_EQ(G.mant_blocks(), 3);
  EXPECT_EQ(G.tail_digits(), 29);
  EXPECT_EQ(G.group(), 1);
  EXPECT_EQ(G.adder_width(), 13 * 29);
  EXPECT_EQ((G.product_width() + G.block() - 1) / G.block(), 5);
  EXPECT_EQ(G.max_skip() + 1, 11);
  EXPECT_EQ(G.sig_msb(), 82);
  EXPECT_EQ(G.frac_bits(), 111);
  EXPECT_EQ(G.dsp_tiles(), 16);
  EXPECT_EQ(G.select(), BlockSelect::Lza);
  // Worst case per Sec. III-H: 25c of block two + 29c of block three = 54c
  // significant digits, exceeding binary64's 53.
  EXPECT_GE(G.block() - kLzaMargin - 1 + G.block(), 54);
}

TEST(FcsFormat, IeeeRoundTripExact) {
  Rng rng(75);
  for (int i = 0; i < 20000; ++i) {
    double d = rng.next_fp_in_exp_range(-900, 900);
    PFloat x = PFloat::from_double(kBinary64, d);
    CsOperand f = ieee_to_cs(G, x);
    PFloat back = cs_to_ieee(f, kBinary64, Round::NearestEven);
    EXPECT_EQ(back.to_double(), d);
    EXPECT_DOUBLE_EQ(PFloat::ulp_error(f.exact_value(), x, 52), 0.0);
  }
}

TEST(FcsFormat, SignificandPlacement) {
  CsOperand f = ieee_to_cs(G, PFloat::from_double(kBinary64, 1.0));
  EXPECT_TRUE(f.mant().sum().bit(82));
  EXPECT_EQ(f.mant().to_binary().bit_width(), 83);
  // Digits 83..86 (sign + 3-digit LZA margin) stay clear on entry.
  for (int dgt = 83; dgt < 87; ++dgt) EXPECT_EQ(f.mant().as_cs().digit(dgt), 0);
}

TEST(FcsFormat, BothPlanesAreLive) {
  // Unlike the PCS operand, every digit may carry a CS carry bit: a
  // redundant encoding must round-trip through the value semantics.
  CsWord s = CsWord(0x5ull) << 80, c = CsWord(0x3ull) << 80;
  CsOperand f = fcs(CsNum(87, s, c), CsNum::zero(29));
  EXPECT_EQ(f.mant().to_binary(), (s + c).truncated(87));
}

TEST(FcsFormat, DigitZeroDetection) {
  // mant_digits_all_zero is the reliable all-0 check of Sec. III-G: it
  // must be digit-level (redundant zeros do NOT count).
  CsOperand z = fcs(CsNum::zero(87), CsNum::zero(29));
  EXPECT_TRUE(z.mant_digits_all_zero());
  // 1...1 + 1 wraps to value zero but digits are not zero.
  CsNum redundant(87, CsWord::mask(87), CsWord(1ull));
  EXPECT_TRUE(redundant.is_value_zero());
  CsOperand r = fcs(redundant, CsNum::zero(29));
  EXPECT_FALSE(r.mant_digits_all_zero());
}

TEST(FcsFormat, RoundIncrementTies) {
  auto with_tail = [](bool negative, CsWord tsum, CsWord tcarry) {
    CsNum mant = CsNum::from_signed(87, negative, CsWord(1ull) << 82);
    return fcs(mant, CsNum(29, tsum.truncated(29), tcarry.truncated(29)));
  };
  const CsWord half = CsWord::bit_at(28);
  EXPECT_EQ(with_tail(false, half - CsWord(1ull), CsWord()).round_increment(), 0);
  EXPECT_EQ(with_tail(false, half, CsWord()).round_increment(), 1);
  EXPECT_EQ(with_tail(true, half, CsWord()).round_increment(), 0);
  // Carry-plane bits participate in the decision at digit value level.
  EXPECT_EQ(with_tail(false, half - CsWord(1ull), CsWord(1ull)).round_increment(),
            1);
}

TEST(FcsFormat, SpecialsRoundTrip) {
  EXPECT_TRUE(cs_to_ieee(ieee_to_cs(G, PFloat::nan(kBinary64)), kBinary64,
                         Round::NearestEven)
                  .is_nan());
  PFloat ninf = PFloat::inf(kBinary64, true);
  EXPECT_TRUE(PFloat::same_value(
      cs_to_ieee(ieee_to_cs(G, ninf), kBinary64, Round::NearestEven), ninf));
}

}  // namespace
}  // namespace csfma
