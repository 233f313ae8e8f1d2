// The CS operand format at the paper's PCS geometry (Sec. III-F).
#include "fma/cs_format.hpp"

#include "fma/cs_fma.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace csfma {
namespace {

constexpr const CsGeometry& G = kPcsGeometry;

CsOperand pcs(const PcsNum& mant, const PcsNum& tail, int exp) {
  return CsOperand(G, mant, tail, exp, FpClass::Normal, false);
}

TEST(PcsFormat, GeometryMatchesPaper) {
  // Sec. III-F: 110b+10b mantissa, 55b+5b rounding data, 12b exponent = 192b.
  EXPECT_EQ(G.mant_digits(), 110);
  EXPECT_EQ(G.tail_digits(), 55);
  EXPECT_EQ(G.mant_digits() / G.group(), 10);
  EXPECT_EQ(G.tail_digits() / G.group(), 5);
  EXPECT_EQ(G.operand_bits(), 192);
  // Sec. III-D: adder 110+163+110 rounded up to the next multiple of 55.
  EXPECT_EQ(G.adder_width(), 385);
  EXPECT_EQ(G.adder_width() % G.block(), 0);
  EXPECT_EQ(G.product_width(), 163);
  EXPECT_EQ(G.sig_msb(), 107);
  EXPECT_EQ(G.frac_bits(), 162);
  EXPECT_EQ(G.select(), BlockSelect::Zd);
}

TEST(PcsFormat, IeeeRoundTripExact) {
  Rng rng(70);
  for (int i = 0; i < 20000; ++i) {
    double d = rng.next_fp_in_exp_range(-900, 900);
    PFloat x = PFloat::from_double(kBinary64, d);
    CsOperand p = ieee_to_cs(G, x);
    PFloat back = cs_to_ieee(p, kBinary64, Round::NearestEven);
    EXPECT_EQ(back.to_double(), d);
    // The conversion is exact, so the exact value matches too.
    EXPECT_DOUBLE_EQ(PFloat::ulp_error(p.exact_value(), x, 52), 0.0);
  }
}

TEST(PcsFormat, SpecialsRoundTrip) {
  for (auto mk : {+[] { return PFloat::inf(kBinary64, false); },
                  +[] { return PFloat::inf(kBinary64, true); },
                  +[] { return PFloat::zero(kBinary64, true); }}) {
    PFloat x = mk();
    PFloat back = cs_to_ieee(ieee_to_cs(G, x), kBinary64, Round::NearestEven);
    EXPECT_TRUE(PFloat::same_value(x, back));
    EXPECT_EQ(x.sign(), back.sign());
  }
  EXPECT_TRUE(cs_to_ieee(ieee_to_cs(G, PFloat::nan(kBinary64)), kBinary64,
                         Round::NearestEven)
                  .is_nan());
}

TEST(PcsFormat, SignificandPlacement) {
  // 1.0 -> significand MSB at mantissa digit 107 (Sec. III-B headroom).
  CsOperand p = ieee_to_cs(G, PFloat::from_double(kBinary64, 1.0));
  EXPECT_TRUE(p.mant().sum().bit(107));
  EXPECT_EQ(p.mant().to_binary().bit_width(), 108);
  EXPECT_TRUE(p.tail().to_binary().is_zero());
  // Negative values are two's complement, no separate sign bit.
  CsOperand n = ieee_to_cs(G, PFloat::from_double(kBinary64, -1.0));
  EXPECT_TRUE(n.mant().as_cs().is_value_negative());
  EXPECT_EQ(n.mant().as_cs().magnitude(), p.mant().to_binary());
}

TEST(PcsFormat, RoundIncrementHalfAwayFromZero) {
  // Build operands with controlled tails.
  auto with_tail = [](bool negative, CsWord tail_sum) {
    CsNum mant = CsNum::from_signed(110, negative, CsWord(1ull) << 107);
    return CsOperand(G, PcsNum(110, 11, mant.sum(), mant.carry()),
                     PcsNum(55, 11, tail_sum.truncated(55), CsWord()), 0,
                     FpClass::Normal, negative);
  };
  const CsWord half = CsWord::bit_at(54);
  // Below half: never round.
  EXPECT_EQ(with_tail(false, half - CsWord(1ull)).round_increment(), 0);
  // Above half: always round.
  EXPECT_EQ(with_tail(false, half | CsWord(1ull)).round_increment(), 1);
  EXPECT_EQ(with_tail(true, half | CsWord(1ull)).round_increment(), 1);
  // Exact half: away from zero — up for positive, down for negative.
  EXPECT_EQ(with_tail(false, half).round_increment(), 1);
  EXPECT_EQ(with_tail(true, half).round_increment(), 0);
}

TEST(PcsFormat, TailCarriesCountTowardRounding) {
  // Tail 0111...1 in the sum plane plus one explicit carry bit at the grid
  // reaches half: the rounding examines digit VALUES, not just sum bits.
  CsNum mant = CsNum::from_signed(110, false, CsWord(1ull) << 107);
  CsWord tail_sum = CsWord::mask(54);  // just below half
  CsOperand no_carry = pcs(PcsNum(110, 11, mant.sum(), mant.carry()),
                           PcsNum(55, 11, tail_sum, CsWord()), 0);
  EXPECT_EQ(no_carry.round_increment(), 0);
  CsOperand with_carry = pcs(PcsNum(110, 11, mant.sum(), mant.carry()),
                             PcsNum(55, 11, tail_sum, CsWord::bit_at(0)), 0);
  EXPECT_EQ(with_carry.round_increment(), 1);  // ripples to exactly half+..
}

TEST(PcsFormat, ExactValueIncludesTail) {
  CsNum mant = CsNum::from_signed(110, false, CsWord(1ull) << 107);
  CsOperand base =
      pcs(PcsNum(110, 11, mant.sum(), mant.carry()), PcsNum::zero(55, 11), 0);
  CsOperand with_tail = pcs(PcsNum(110, 11, mant.sum(), mant.carry()),
                            PcsNum(55, 11, CsWord::bit_at(54), CsWord()), 0);
  // The tail contributes half of one mantissa ulp, below even the wide
  // readout precision — compare the transferred integers directly.
  WideUint<8> xb = (WideUint<8>(base.mant().to_binary()).sext(110) << 55) +
                   WideUint<8>(base.tail_assimilated());
  WideUint<8> xt = (WideUint<8>(with_tail.mant().to_binary()).sext(110) << 55) +
                   WideUint<8>(with_tail.tail_assimilated());
  EXPECT_EQ(xt - xb, WideUint<8>(1ull) << 54);
  // It is invisible at binary64 readout precision.
  EXPECT_EQ(with_tail.exact_value().to_double(), base.exact_value().to_double());
}

TEST(PcsFormat, ExponentFieldRangeEnforced) {
  CsNum mant = CsNum::from_signed(110, false, CsWord(1ull) << 107);
  EXPECT_THROW(
      pcs(PcsNum(110, 11, mant.sum(), mant.carry()), PcsNum::zero(55, 11), 3000),
      CheckError);
  // Excess-2047 covers more range than IEEE's excess-1023 (Sec. III-F).
  EXPECT_GT(kCsExpMax, kBinary64.emax());
  EXPECT_LT(kCsExpMin, kBinary64.emin());
}

TEST(PcsFormat, WiderSourceFormatsConvert) {
  // The B-side of a chain can also enter through the converter when the
  // source is a 54-bit-significand value (the Sec. III-B custom format).
  Rng rng(71);
  FloatFormat f54{11, 53};
  for (int i = 0; i < 5000; ++i) {
    double d = rng.next_fp_in_exp_range(-100, 100);
    PFloat x = PFloat::from_double(f54, d);
    PFloat back = cs_to_ieee(ieee_to_cs(G, x), f54, Round::NearestEven);
    EXPECT_TRUE(PFloat::same_value(back, x));
  }
}

TEST(PcsFormat, PackedWordRoundTrips) {
  // The 192-bit operand word of Sec. III-F, round-tripped through an FMA
  // chain so mantissa carries and rounding tails are populated.
  Rng rng(72);
  CsFma unit(G);
  for (int i = 0; i < 5000; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-40, 40));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-40, 40));
    PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-40, 40));
    CsOperand r = unit.fma(ieee_to_cs(G, a), b, ieee_to_cs(G, c));
    if (r.cls() != FpClass::Normal) continue;
    U192 w = r.pack_bits();
    CsOperand back = CsOperand::unpack_bits(G, w);
    EXPECT_EQ(back.mant().sum(), r.mant().sum());
    EXPECT_EQ(back.mant().carries(), r.mant().carries());
    EXPECT_EQ(back.tail().sum(), r.tail().sum());
    EXPECT_EQ(back.tail().carries(), r.tail().carries());
    EXPECT_EQ(back.exp(), r.exp());
    EXPECT_EQ(back.pack_bits(), w);
  }
}

TEST(PcsFormat, PackedWordUses192Bits) {
  // Every field position is inside the 192-bit word; the exponent sits at
  // the top, so a maximal-exponent operand lights bit 191.
  CsNum mant = CsNum::from_signed(110, false, CsWord(1ull) << 107);
  CsOperand top = pcs(PcsNum(110, 11, mant.sum(), mant.carry()),
                      PcsNum::zero(55, 11), kCsExpMax);
  U192 w = top.pack_bits();
  EXPECT_LE(w.bit_width(), 192);
  EXPECT_TRUE(w.bit(191));  // exp field 0xFFF
  // Exceptions refuse to pack (they travel on the side wires), and so do
  // geometries wider than the word.
  EXPECT_THROW(CsOperand::make_nan(G).pack_bits(), CheckError);
  EXPECT_THROW(ieee_to_cs(kFcsGeometry, PFloat::from_double(kBinary64, 1.0))
                   .pack_bits(),
               CheckError);
}

}  // namespace
}  // namespace csfma
