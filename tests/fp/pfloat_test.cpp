// Structural and semantic tests of the parametric softfloat.
#include "fp/pfloat.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"

namespace csfma {
namespace {

TEST(FloatFormat, DerivedParameters) {
  EXPECT_EQ(kBinary64.bias(), 1023);
  EXPECT_EQ(kBinary64.emin(), -1022);
  EXPECT_EQ(kBinary64.emax(), 1023);
  EXPECT_EQ(kBinary64.precision(), 53);
  EXPECT_EQ(kBinary64.total_bits(), 64);
  EXPECT_EQ(kBinary68.total_bits(), 68);
  EXPECT_EQ(kBinary75.total_bits(), 75);
}

TEST(PFloat, DoubleRoundTripExact) {
  Rng rng(11);
  for (int i = 0; i < 50000; ++i) {
    double d = rng.next_fp_in_exp_range(-1022, 1023);
    PFloat f = PFloat::from_double(kBinary64, d);
    EXPECT_EQ(f.to_double(), d);
  }
}

TEST(PFloat, WiderFormatsRepresentDoublesExactly) {
  Rng rng(12);
  for (const auto& fmt : {kBinary68, kBinary75}) {
    for (int i = 0; i < 20000; ++i) {
      double d = rng.next_fp_in_exp_range(-1000, 1000);
      PFloat f = PFloat::from_double(fmt, d);
      EXPECT_EQ(f.to_double(), d);
    }
  }
}

/// from_double as the rounding path computes it: every normal double
/// through normalize_round, zero and subnormals flushed, Inf and NaN kept.
PFloat from_double_by_rounding(const FloatFormat& fmt, std::uint64_t bits,
                               Round rm) {
  const bool sign = bits >> 63;
  const int biased = (int)((bits >> 52) & 0x7FF);
  const std::uint64_t frac = bits & ((std::uint64_t{1} << 52) - 1);
  if (biased == 0x7FF) {
    return frac == 0 ? PFloat::inf(fmt, sign) : PFloat::nan(fmt);
  }
  if (biased == 0) return PFloat::zero(fmt, sign);
  return PFloat::normalize_round(fmt, sign,
                                 WideUint<8>(frac | (std::uint64_t{1} << 52)),
                                 biased - 1023 - 52, false, rm);
}

TEST(PFloat, FromDoubleMatchesTheRoundingPath) {
  // Formats that hold every binary64 normal take no rounding step; the
  // result must be the rounding path's, bit for bit, in every mode, and a
  // narrower format must still round.
  Rng rng(14);
  std::vector<std::uint64_t> bits = {
      0, std::uint64_t{1} << 63,                    // +-0
      1, 0x000fffffffffffffull, 0x800ffffffffffff0ull,  // subnormals
      0x7ff0000000000000ull, 0xfff0000000000000ull,  // +-Inf
      0x7ff8000000000000ull, 0xfff0000000000001ull,  // NaN
      0x0010000000000000ull, 0x8010000000000001ull,  // smallest normals
      0x7fefffffffffffffull, 0xffefffffffffffffull,  // largest normals
      0x3ff0000000000000ull, 0x3ff0000040000000ull,  // 1, 1 + 2^-22
  };
  for (int i = 0; i < 20000; ++i) bits.push_back(rng.next_u64());
  const FloatFormat binary32{8, 23};
  for (const FloatFormat& fmt : {kBinary64, kBinary68, kBinary75,
                                 FloatFormat{11, 53}, binary32}) {
    for (Round rm : {Round::NearestEven, Round::HalfAwayFromZero,
                     Round::TowardZero, Round::TowardPositive,
                     Round::TowardNegative}) {
      for (std::uint64_t b : bits) {
        double d;
        std::memcpy(&d, &b, sizeof d);
        const PFloat got = PFloat::from_double(fmt, d, rm);
        const PFloat want = from_double_by_rounding(fmt, b, rm);
        ASSERT_EQ(got.cls(), want.cls()) << std::hex << b;
        ASSERT_EQ(got.to_bits(), want.to_bits())
            << std::hex << b << " in {" << std::dec << fmt.exp_bits << ", "
            << fmt.frac_bits << "}, " << to_string(rm);
      }
    }
  }
  const double d = 1.0 + 0x1p-40;
  EXPECT_NE(PFloat::from_double(binary32, d, Round::TowardPositive).to_bits(),
            PFloat::from_double(binary32, d, Round::TowardZero).to_bits());
}

TEST(PFloat, SubnormalsFlushToZero) {
  double sub = 0x1p-1060;  // subnormal in binary64
  ASSERT_NE(sub, 0.0);
  PFloat f = PFloat::from_double(kBinary64, sub);
  EXPECT_TRUE(f.is_zero());
  // A multiply whose result falls below emin flushes too.
  PFloat a = PFloat::from_double(kBinary64, 0x1p-600);
  PFloat r = PFloat::mul(a, a, kBinary64, Round::NearestEven);
  EXPECT_TRUE(r.is_zero());
}

TEST(PFloat, PackedBitsMatchHostLayout) {
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    double d = rng.next_fp_in_exp_range(-1022, 1023);
    PFloat f = PFloat::from_double(kBinary64, d);
    std::uint64_t host;
    __builtin_memcpy(&host, &d, 8);
    EXPECT_EQ(f.to_bits().lo64(), host);
    EXPECT_EQ(f.to_bits().word(1), 0u);
    PFloat back = PFloat::from_bits(kBinary64, f.to_bits());
    EXPECT_TRUE(PFloat::same_value(f, back));
  }
}

TEST(PFloat, BitsRoundTripWideFormats) {
  Rng rng(14);
  for (const auto& fmt : {kBinary68, kBinary75}) {
    for (int i = 0; i < 5000; ++i) {
      double d = rng.next_fp_in_exp_range(-900, 900);
      PFloat f = PFloat::from_double(fmt, d);
      PFloat back = PFloat::from_bits(fmt, f.to_bits());
      EXPECT_TRUE(PFloat::same_value(f, back)) << f.to_string();
    }
  }
}

TEST(PFloat, SpecialValuePropagation) {
  const auto& F = kBinary64;
  PFloat one = PFloat::from_double(F, 1.0);
  PFloat pinf = PFloat::inf(F, false), ninf = PFloat::inf(F, true);
  PFloat qnan = PFloat::nan(F);
  PFloat pz = PFloat::zero(F, false);

  EXPECT_TRUE(PFloat::add(pinf, ninf, F, Round::NearestEven).is_nan());
  EXPECT_TRUE(PFloat::add(pinf, one, F, Round::NearestEven).is_inf());
  EXPECT_TRUE(PFloat::mul(pinf, pz, F, Round::NearestEven).is_nan());
  EXPECT_TRUE(PFloat::mul(ninf, one, F, Round::NearestEven).is_inf());
  EXPECT_TRUE(PFloat::mul(ninf, one, F, Round::NearestEven).sign());
  EXPECT_TRUE(PFloat::div(one, pz, F, Round::NearestEven).is_inf());
  EXPECT_TRUE(PFloat::div(pz, pz, F, Round::NearestEven).is_nan());
  EXPECT_TRUE(PFloat::add(qnan, one, F, Round::NearestEven).is_nan());
  EXPECT_TRUE(PFloat::fma(pinf, pz, one, F, Round::NearestEven).is_nan());
  EXPECT_TRUE(PFloat::fma(pinf, one, ninf, F, Round::NearestEven).is_nan());
  EXPECT_TRUE(PFloat::fma(one, one, pinf, F, Round::NearestEven).is_inf());
}

TEST(PFloat, SignedZeroRules) {
  const auto& F = kBinary64;
  PFloat pz = PFloat::zero(F, false), nz = PFloat::zero(F, true);
  EXPECT_FALSE(PFloat::add(pz, nz, F, Round::NearestEven).sign());
  EXPECT_TRUE(PFloat::add(pz, nz, F, Round::TowardNegative).sign());
  EXPECT_TRUE(PFloat::add(nz, nz, F, Round::NearestEven).sign());
  // x + (-x) is +0 except toward-negative.
  PFloat x = PFloat::from_double(F, 1.5);
  EXPECT_FALSE(PFloat::add(x, x.negated(), F, Round::NearestEven).sign());
  EXPECT_TRUE(PFloat::add(x, x.negated(), F, Round::TowardNegative).sign());
}

TEST(PFloat, HalfAwayFromZeroTies) {
  const auto& F = kBinary64;
  // 1 + 2^-53 is an exact tie between 1 and 1+2^-52.
  PFloat one = PFloat::from_double(F, 1.0);
  PFloat tie = PFloat::from_double(F, 0x1p-53);
  PFloat up = PFloat::add(one, tie, F, Round::HalfAwayFromZero);
  EXPECT_EQ(up.to_double(), 1.0 + 0x1p-52);
  // Nearest-even resolves the same tie downward (even significand).
  PFloat even = PFloat::add(one, tie, F, Round::NearestEven);
  EXPECT_EQ(even.to_double(), 1.0);
  // Negative side: ties go away from zero, i.e. more negative.
  PFloat down = PFloat::add(one.negated(), tie.negated(), F, Round::HalfAwayFromZero);
  EXPECT_EQ(down.to_double(), -(1.0 + 0x1p-52));
}

TEST(PFloat, DirectedOverflowSaturation) {
  const auto& F = kBinary64;
  PFloat big = PFloat::from_double(F, 0x1.fffffffffffffp1023);
  PFloat two = PFloat::from_double(F, 2.0);
  EXPECT_TRUE(PFloat::mul(big, two, F, Round::NearestEven).is_inf());
  PFloat tz = PFloat::mul(big, two, F, Round::TowardZero);
  EXPECT_TRUE(tz.is_normal());
  EXPECT_EQ(tz.to_double(), 0x1.fffffffffffffp1023);
  // Toward-positive: positive overflow goes to +inf, negative to -maxfinite.
  EXPECT_TRUE(PFloat::mul(big, two, F, Round::TowardPositive).is_inf());
  PFloat neg = PFloat::mul(big.negated(), two, F, Round::TowardPositive);
  EXPECT_TRUE(neg.is_normal());
  EXPECT_EQ(neg.to_double(), -0x1.fffffffffffffp1023);
}

TEST(PFloat, ExactCancellation) {
  const auto& F = kBinary64;
  Rng rng(15);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_fp_in_exp_range(-100, 100);
    PFloat x = PFloat::from_double(F, d);
    PFloat r = PFloat::sub(x, x, F, Round::NearestEven);
    EXPECT_TRUE(r.is_zero());
    EXPECT_FALSE(r.sign());
  }
}

TEST(PFloat, MixedFormatArithmetic) {
  // A 75b value + a 64b value rounded into 68b: exact small case.
  PFloat a = PFloat::from_double(kBinary75, 1.0);
  PFloat b = PFloat::from_double(kBinary64, 3.0);
  PFloat s = PFloat::add(a, b, kBinary68, Round::NearestEven);
  EXPECT_EQ(s.to_double(), 4.0);
  PFloat p = PFloat::mul(a, b, kBinary75, Round::NearestEven);
  EXPECT_EQ(p.to_double(), 3.0);
}

TEST(PFloat, WiderIsMoreAccurate) {
  // (1 + 2^-60) is not representable in binary64 but is in binary75.
  PFloat one64 = PFloat::from_double(kBinary64, 1.0);
  PFloat tiny = PFloat::from_double(kBinary64, 0x1p-60);
  PFloat s64 = PFloat::add(one64, tiny, kBinary64, Round::NearestEven);
  EXPECT_EQ(s64.to_double(), 1.0);  // absorbed
  PFloat s75 = PFloat::add(one64, tiny, kBinary75, Round::NearestEven);
  EXPECT_TRUE(s75.is_normal());
  EXPECT_GT(PFloat::ulp_error(s75, one64, 52), 0.0);  // it kept the tail
}

TEST(PFloat, FmaSingleRoundingBeatsMulAdd) {
  // Classic witness: fma(c, c, -round(c*c)) recovers the exact rounding
  // error of the square; a mul-then-add pipeline returns 0.
  const auto& F = kBinary64;
  const double cd = 1.0 + 0x1p-30;
  PFloat c = PFloat::from_double(F, cd);
  PFloat sq = PFloat::mul(c, c, F, Round::NearestEven);
  EXPECT_EQ(sq.to_double(), cd * cd);
  PFloat fused = PFloat::fma(c, c, sq.negated(), F, Round::NearestEven);
  const double expect = std::fma(cd, cd, -(cd * cd));
  ASSERT_NE(expect, 0.0);  // the witness really has a rounding tail
  EXPECT_EQ(fused.to_double(), expect);
  PFloat split = PFloat::add(sq, sq.negated(), F, Round::NearestEven);
  EXPECT_TRUE(split.is_zero());  // double rounding loses the tail entirely
}

TEST(PFloat, UlpErrorMetric) {
  const auto& F = kBinary64;
  PFloat one = PFloat::from_double(F, 1.0);
  PFloat oneplus = PFloat::from_double(F, 1.0 + 0x1p-52);
  EXPECT_DOUBLE_EQ(PFloat::ulp_error(oneplus, one, 52), 1.0);
  EXPECT_DOUBLE_EQ(PFloat::ulp_error(one, one, 52), 0.0);
  // Scale invariance: same relative gap at a different exponent.
  PFloat big = PFloat::from_double(F, 0x1p300);
  PFloat bigplus = PFloat::from_double(F, 0x1p300 * (1.0 + 0x1p-52));
  EXPECT_DOUBLE_EQ(PFloat::ulp_error(bigplus, big, 52), 1.0);
}

TEST(PFloat, DivisionBasics) {
  const auto& F = kBinary64;
  Rng rng(16);
  for (int i = 0; i < 20000; ++i) {
    double a = rng.next_fp_in_exp_range(-300, 300);
    double b = rng.next_fp_in_exp_range(-300, 300);
    PFloat q = PFloat::div(PFloat::from_double(F, a), PFloat::from_double(F, b),
                           F, Round::NearestEven);
    EXPECT_EQ(q.to_double(), a / b) << a << " / " << b;
  }
}

TEST(PFloat, RoundToNarrower) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_fp_in_exp_range(-500, 500);
    PFloat wide = PFloat::from_double(kBinary75, d);
    PFloat narrow = wide.round_to(kBinary64, Round::NearestEven);
    EXPECT_EQ(narrow.to_double(), d);
  }
}

TEST(PFloat, NormalizeRoundRejectsAmbiguousSticky) {
  // A sticky flag with an under-precise magnitude must be refused, not
  // silently misrounded.
  EXPECT_THROW(PFloat::normalize_round(kBinary64, false, WideUint<8>(3), 0,
                                       /*sticky=*/true, Round::NearestEven),
               CheckError);
}

}  // namespace
}  // namespace csfma
