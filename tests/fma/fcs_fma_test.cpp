// The CS unit at the paper's FCS geometry: early-LZA block selection,
// containment, accuracy.
#include "fma/cs_fma.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace csfma {
namespace {

constexpr const CsGeometry& G = kFcsGeometry;

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

class FcsFmaSweep : public ::testing::TestWithParam<RangeCase> {};

TEST_P(FcsFmaSweep, SingleOpIsCorrectlyRounded) {
  const RangeCase& tc = GetParam();
  Rng rng(90 + tc.emax);
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
    // The early-LZA design guarantees >= 54 significant digits when no
    // catastrophic cancellation occurs; with cancellation the relative
    // inaccuracy can grow (Sec. III-G).  Accept a 1-ulp envelope and track
    // exactness separately below.
    double err = PFloat::ulp_error(got, ref, 52);
    ASSERT_LE(err, 1.0) << a.to_string() << " " << b.to_string() << " "
                        << c.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, FcsFmaSweep,
    ::testing::Values(RangeCase{"narrow", -2, 2}, RangeCase{"mid", -40, 40},
                      RangeCase{"wide", -300, 300},
                      RangeCase{"huge", -800, 800}),
    [](const ::testing::TestParamInfo<RangeCase>& i) { return i.param.name; });

TEST(FcsFma, MostOpsExactlyRounded) {
  // Away from cancellation, results must be bit-identical to the reference.
  Rng rng(91);
  CsFma unit(G);
  int exact = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
    PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
    PFloat got = unit.fma_ieee(a, b, c, Round::HalfAwayFromZero);
    PFloat ref = PFloat::fma(b, c, a, kBinary64, Round::HalfAwayFromZero);
    if (PFloat::same_value(got, ref)) ++exact;
  }
  EXPECT_GT(exact, n * 99 / 100);
}

TEST(FcsFma, EarlyLzaContainment) {
  // The selected window must always contain the true leading digit:
  // the result's exact value must match the exact fma whenever the
  // magnitudes are balanced enough that nothing was truncated.
  Rng rng(92);
  CsFma unit(G);
  for (int i = 0; i < 10000; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-4, 4));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-4, 4));
    PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-4, 4));
    CsOperand r = unit.fma(lift(a), b, lift(c));
    PFloat exact = PFloat::fma(b, c, a, kWideExact, Round::NearestEven);
    if (r.cls() == FpClass::Normal && exact.is_normal()) {
      double err = PFloat::ulp_error(r.exact_value(), exact, 52);
      ASSERT_LE(err, 0.0000001) << "window missed the leading digit: "
                                << r.to_string();
    }
    // The mux picks the mantissa's top block among 11 positions (2..12).
    const int top = G.adder_blocks() - 1 - unit.last_skip();
    ASSERT_GE(top, 2);
    ASSERT_LE(top, 12);
  }
}

TEST(FcsFma, CancellationTruncatesGracefully) {
  // a = -(b*c) exactly (short significands): the early-LZA mux looks where
  // the big value would be; full cancellation leaves zeros there.  The
  // paper accepts this relative-accuracy loss; the result must be zero or
  // a value no larger than the anticipation window bottom.
  Rng rng(93);
  CsFma unit(G);
  for (int i = 0; i < 5000; ++i) {
    auto short_sig = [&rng] {
      double m = (double)(rng.next_below(1 << 26) | (1u << 25));
      return std::ldexp(rng.next_bool() ? m : -m, (int)rng.next_int(-10, 10));
    };
    PFloat b = PFloat::from_double(kBinary64, short_sig());
    PFloat c = PFloat::from_double(kBinary64, short_sig());
    PFloat prod = PFloat::mul(b, c, kBinary64, Round::NearestEven);  // exact
    CsOperand r = unit.fma(lift(prod.negated()), b, lift(c));
    // The adder value is exactly zero, but the raw planes of the selected
    // window can encode a redundant near-zero whose assimilation carry was
    // truncated below the window — the paper's accepted total-cancellation
    // inaccuracy.  The residual must sit at least 100 bits below |b*c|.
    if (!r.is_zero()) {
      PFloat res = r.exact_value().abs();
      PFloat bound = PFloat::mul(prod.abs(),
                                 PFloat::from_double(kBinary64, 0x1p-100),
                                 kWideExact, Round::NearestEven);
      // res <= bound  <=>  bound - res is not negative.
      PFloat diff = PFloat::sub(bound, res, kWideExact, Round::NearestEven);
      EXPECT_FALSE(diff.is_normal() && diff.sign())
          << r.to_string() << " residual too large vs |b*c|=" << prod.to_string();
    }
  }
}

TEST(FcsFma, PartialCancellationKeepsResidue) {
  // a = -(b*c) + small residue: the residue sits 40-80 bits below the
  // anticipated position — within the 116-digit window, so it survives.
  Rng rng(94);
  CsFma unit(G);
  for (int i = 0; i < 5000; ++i) {
    auto short_sig = [&rng] {
      double m = (double)(rng.next_below(1 << 20) | (1u << 19));
      return std::ldexp(m, (int)rng.next_int(-4, 4));
    };
    PFloat b = PFloat::from_double(kBinary64, short_sig());
    PFloat c = PFloat::from_double(kBinary64, short_sig());
    double residue = std::ldexp(1.0 + rng.next_unit(),
                                (int)rng.next_int(-60, -41));
    PFloat prod = PFloat::mul(b, c, kBinary64, Round::NearestEven);
    PFloat a = PFloat::from_double(
        kBinary64, std::fma(-1.0, prod.to_double(), 0.0) + 0.0);
    // a holds -(b*c) exactly; add the residue through the A tail instead:
    // feed a + residue as a wider-precision A via two chained adds.
    PFloat a_plus = PFloat::add(a, PFloat::from_double(kBinary64, residue),
                                kBinary64, Round::NearestEven);
    CsOperand r = unit.fma(lift(a_plus), b, lift(c));
    PFloat exact = PFloat::fma(b, c, a_plus, kWideExact, Round::NearestEven);
    double err = PFloat::ulp_error(r.exact_value(), exact, 52);
    ASSERT_LE(err, 1.0) << err;
  }
}

TEST(FcsFma, ExceptionWires) {
  CsFma unit(G);
  const PFloat one = PFloat::from_double(kBinary64, 1.0);
  const PFloat pinf = PFloat::inf(kBinary64, false);
  EXPECT_TRUE(
      unit.fma(lift(one), pinf, lift(PFloat::zero(kBinary64, false)))
          .is_nan());
  EXPECT_TRUE(unit.fma(lift(pinf), one, lift(one)).is_inf());
  EXPECT_TRUE(
      unit.fma(lift(pinf.negated()), one, lift(pinf)).is_nan());
}

TEST(FcsFma, MultiplierTreeGeometry) {
  // ceil(87/23) * ceil(53/17) = 4*4 = 16 tile rows feed the CSA tree.
  CsFma unit(G);
  PFloat v = PFloat::from_double(kBinary64, 1.5);
  unit.fma(lift(v), v, lift(v));
  EXPECT_EQ(unit.last_mul_stats().rows, 16);
}

TEST(FcsFma, ChainAccuracy) {
  Rng rng(95);
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
    PFloat te = PFloat::fma(b2, x, y, kWideExact, Round::NearestEven);
    PFloat re = PFloat::fma(b1, te, z, kWideExact, Round::NearestEven);
    if (!re.is_normal()) continue;
    double err = PFloat::ulp_error(got, re, 52);
    // Envelope: exit rounding plus t's deferred rounding.  The transfer
    // guarantees >= ~53 significant digits above the rounding point
    // (early-LZA margin included), i.e. up to ~2^-56 relative to b1*t,
    // amplified by cancellation against z.
    const double ratio =
        std::fabs(b1.to_double() * te.to_double() / re.to_double());
    const double envelope = 0.55 + 0.25 * ratio;
    ASSERT_LE(err, envelope) << "chain error " << err << " ratio " << ratio;
  }
}

}  // namespace
}  // namespace csfma
