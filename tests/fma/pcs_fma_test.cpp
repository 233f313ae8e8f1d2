// The CS unit at the paper's PCS geometry against the correctly rounded
// reference.
#include "fma/cs_fma.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace csfma {
namespace {

constexpr const CsGeometry& G = kPcsGeometry;

CsOperand lift(const PFloat& x) { return ieee_to_cs(G, x); }

struct RangeCase {
  const char* name;
  int emin, emax;
};

// Prints the case by value so discovered test names do not carry the
// (address-randomised) bytes of the name pointer.
void PrintTo(const RangeCase& tc, std::ostream* os) {
  *os << tc.name << " [" << tc.emin << ", " << tc.emax << "]";
}

class PcsFmaSweep : public ::testing::TestWithParam<RangeCase> {};

TEST_P(PcsFmaSweep, SingleOpIsCorrectlyRounded) {
  // A single replaced multiply/add (convert in, one FMA, convert out)
  // produces the correctly rounded fused result: the 55b rounding tail
  // travels to the output conversion, which rounds once.
  const RangeCase& tc = GetParam();
  Rng rng(80 + tc.emax);
  CsFma unit(G);
  for (int i = 0; i < 20000; ++i) {
    PFloat a = PFloat::from_double(kBinary64,
                                   rng.next_fp_in_exp_range(tc.emin, tc.emax));
    PFloat b = PFloat::from_double(kBinary64,
                                   rng.next_fp_in_exp_range(tc.emin, tc.emax));
    PFloat c = PFloat::from_double(kBinary64,
                                   rng.next_fp_in_exp_range(tc.emin, tc.emax));
    PFloat got = unit.fma_ieee(a, b, c, Round::HalfAwayFromZero);
    PFloat ref = PFloat::fma(b, c, a, kBinary64, Round::HalfAwayFromZero);
    ASSERT_TRUE(PFloat::same_value(got, ref))
        << a.to_string() << " + " << b.to_string() << " * " << c.to_string()
        << " got " << got.to_string() << " want " << ref.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, PcsFmaSweep,
    ::testing::Values(RangeCase{"narrow", -2, 2}, RangeCase{"mid", -40, 40},
                      RangeCase{"wide", -300, 300},
                      RangeCase{"huge", -800, 800}),
    [](const ::testing::TestParamInfo<RangeCase>& i) { return i.param.name; });

TEST(PcsFma, CancellationExact) {
  // a + b*c with a = -(b*c) exactly: fused result must be exactly zero.
  // Use 26-bit significands so the product is exactly representable.
  Rng rng(81);
  CsFma unit(G);
  for (int i = 0; i < 5000; ++i) {
    auto short_sig = [&rng] {
      double m = (double)(rng.next_below(1 << 26) | (1u << 25));
      return std::ldexp(rng.next_bool() ? m : -m, (int)rng.next_int(-20, 20));
    };
    PFloat b = PFloat::from_double(kBinary64, short_sig());
    PFloat c = PFloat::from_double(kBinary64, short_sig());
    PFloat prod = PFloat::mul(b, c, kBinary64, Round::NearestEven);  // exact
    CsOperand a = lift(prod.negated());
    CsOperand r = unit.fma(a, b, lift(c));
    EXPECT_TRUE(r.is_zero()) << r.to_string();
  }
}

TEST(PcsFma, RoundingErrorRecovery) {
  // fma(c, c, -round(c*c)) recovers the exact square rounding error.
  const double cd = 1.0 + 0x1p-30;
  CsFma unit(G);
  PFloat c = PFloat::from_double(kBinary64, cd);
  PFloat sq = PFloat::mul(c, c, kBinary64, Round::NearestEven);
  PFloat r = unit.fma_ieee(sq.negated(), c, c, Round::HalfAwayFromZero);
  EXPECT_EQ(r.to_double(), std::fma(cd, cd, -(cd * cd)));
}

TEST(PcsFma, ExceptionWires) {
  CsFma unit(G);
  const PFloat one = PFloat::from_double(kBinary64, 1.0);
  const PFloat pz = PFloat::zero(kBinary64, false);
  const PFloat pinf = PFloat::inf(kBinary64, false);
  EXPECT_TRUE(unit.fma(lift(one), PFloat::nan(kBinary64),
                       lift(one))
                  .is_nan());
  EXPECT_TRUE(unit.fma(lift(one), pinf, lift(pz)).is_nan());
  EXPECT_TRUE(unit.fma(lift(pinf), one, lift(one)).is_inf());
  // inf - inf through the product path.
  CsOperand r = unit.fma(lift(pinf.negated()), one, lift(pinf));
  EXPECT_TRUE(r.is_nan());
  // Ordinary inf propagation keeps the sign.
  CsOperand s = unit.fma(lift(one), one.negated(), lift(pinf));
  EXPECT_TRUE(s.is_inf());
  EXPECT_TRUE(s.exc_sign());
}

TEST(PcsFma, ZeroProductPassesAThrough) {
  CsFma unit(G);
  Rng rng(82);
  for (int i = 0; i < 2000; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-50, 50));
    CsOperand r = unit.fma(lift(a), PFloat::zero(kBinary64, false),
                            lift(PFloat::from_double(kBinary64, 2.0)));
    EXPECT_EQ(cs_to_ieee(r, kBinary64, Round::NearestEven).to_double(),
              a.to_double());
  }
}

TEST(PcsFma, ResultStaysOnFormatGrid) {
  // Constructor checks guarantee grid validity; exercise a spread of
  // magnitudes including heavy cancellation and far-apart exponents.
  Rng rng(83);
  CsFma unit(G);
  for (int i = 0; i < 20000; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-900, 900));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-900, 900));
    PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-900, 900));
    CsOperand r = unit.fma(lift(a), b, lift(c));
    if (r.cls() == FpClass::Normal) {
      // |mantissa| respects the signed window (needed by the next unit's
      // 163b product bound).
      EXPECT_LT(r.mant().as_cs().magnitude(), CsWord::bit_at(109));
    }
  }
}

TEST(PcsFma, ChainedOperandsSkipExitRounding) {
  // Chained: t = b2*x + y staying in PCS, then r = b1*t + z; vs the exact
  // composition.  The deferred tail keeps the chain within 1 ulp of exact.
  Rng rng(84);
  CsFma unit(G);
  for (int i = 0; i < 5000; ++i) {
    PFloat x = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-8, 8));
    PFloat y = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-8, 8));
    PFloat z = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-8, 8));
    PFloat b1 = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-4, 4));
    PFloat b2 = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-4, 4));
    CsOperand t = unit.fma(lift(y), b2, lift(x));
    CsOperand r = unit.fma(lift(z), b1, t);
    PFloat got = cs_to_ieee(r, kBinary64, Round::HalfAwayFromZero);
    // Exact composition in the wide format.
    PFloat te = PFloat::fma(b2, x, y, kWideExact, Round::NearestEven);
    PFloat re = PFloat::fma(b1, te, z, kWideExact, Round::NearestEven);
    if (!re.is_normal()) continue;
    double err = PFloat::ulp_error(got, re, 52);
    // Error envelope: half an ulp at the exit rounding, plus t's deferred
    // rounding.  The transfer guarantees >= ~53 significant digits above
    // the rounding point (the ZD may leave the leading digit near the
    // bottom of the top 55b block), so that contribution is up to ~2^-56
    // relative to b1*t, amplified by cancellation against z.
    const double ratio =
        std::fabs(b1.to_double() * te.to_double() / re.to_double());
    const double envelope = 0.55 + 0.25 * ratio;
    ASSERT_LE(err, envelope) << "chain error " << err << " ratio " << ratio;
  }
}

TEST(PcsFma, TruncateThenRoundMisroundingWitness) {
  // Sec. III-E: the deferred rounding examines only the single 55b block;
  // information below it was truncated by the producing unit's mux.  Build
  // a C operand whose tail is 0111...1 (one lsb below half): the unit must
  // round DOWN even though the pre-truncation value may have been >= half.
  CsNum mant = CsNum::from_signed(110, false, CsWord(1ull) << 107);
  PcsNum tail_just_below(55, 11, CsWord::mask(54), CsWord());
  CsOperand c(G, PcsNum(110, 11, mant.sum(), mant.carry()), tail_just_below,
              0, FpClass::Normal, false);
  EXPECT_EQ(c.round_increment(), 0);  // the documented erroneous round-down
  // One explicit carry anywhere in the tail tips it over.
  CsOperand c2(G, PcsNum(110, 11, mant.sum(), mant.carry()),
                PcsNum(55, 11, CsWord::mask(54), CsWord::bit_at(11)), 0,
                FpClass::Normal, false);
  EXPECT_EQ(c2.round_increment(), 1);

  // End-to-end: multiplying by B=1 with A=0 exposes the one-ulp gap the
  // paper accepts ("0.500...083" bound).
  CsFma unit(G);
  PFloat one = PFloat::from_double(kBinary64, 1.0);
  CsOperand r1 = unit.fma(CsOperand::make_zero(G, false), one, c);
  CsOperand r2 = unit.fma(CsOperand::make_zero(G, false), one, c2);
  // Compare the transferred integers directly (this sits below the 101-bit
  // readout precision): the two results differ by exactly B_M = 2^52 at
  // the product scale — one deferred-rounding ulp.
  ASSERT_EQ(r1.cls(), FpClass::Normal);
  ASSERT_EQ(r2.cls(), FpClass::Normal);
  ASSERT_EQ(r1.exp(), r2.exp());
  WideUint<8> x1 = (WideUint<8>(r1.mant().to_binary()).sext(110) << 55) +
                   WideUint<8>(r1.tail_assimilated());
  WideUint<8> x2 = (WideUint<8>(r2.mant().to_binary()).sext(110) << 55) +
                   WideUint<8>(r2.tail_assimilated());
  EXPECT_EQ(x2 - x1, WideUint<8>(1ull) << 52);
}

TEST(PcsFma, ZdSkipTracksMagnitudes) {
  // Balanced inputs land in the middle of the adder window; the ZD then
  // skips the two empty top blocks.
  CsFma unit(G);
  PFloat one = PFloat::from_double(kBinary64, 1.0);
  unit.fma(lift(one), one, lift(one));
  EXPECT_EQ(unit.last_skip(), 2);
  // A dominating A shifted far left leaves fewer skippable blocks.
  PFloat big = PFloat::from_double(kBinary64, 0x1p90);
  unit.fma(lift(big), one, lift(one));
  EXPECT_LT(unit.last_skip(), 2);
}

TEST(PcsFma, MultiplierTreeGeometry) {
  // 21 DSP tiles (Sec. IV / Table I) -> 21 CSA rows.
  CsFma unit(G);
  PFloat v = PFloat::from_double(kBinary64, 1.5);
  unit.fma(lift(v), v, lift(v));
  EXPECT_EQ(unit.last_mul_stats().rows, 21);
  EXPECT_EQ(unit.last_mul_stats().levels, csa_levels_for_rows(21));
}

}  // namespace
}  // namespace csfma
