// The fused dot-product unit against wide-precision references.
#include "fma/dot_product.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "fma/cs_fma.hpp"

namespace csfma {
namespace {

std::vector<std::pair<PFloat, PFloat>> random_terms(Rng& rng, int n, int emin,
                                                    int emax) {
  std::vector<std::pair<PFloat, PFloat>> t;
  for (int i = 0; i < n; ++i) {
    t.emplace_back(
        PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(emin, emax)),
        PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(emin, emax)));
  }
  return t;
}

/// Reference: accumulate in the 101-bit-wide format with fused steps.
PFloat wide_reference(const std::vector<std::pair<PFloat, PFloat>>& terms) {
  PFloat acc = PFloat::zero(kWideExact, false);
  for (const auto& [a, b] : terms)
    acc = PFloat::fma(a, b, acc, kWideExact, Round::NearestEven);
  return acc;
}

TEST(DotProduct, MatchesWideReference) {
  Rng rng(170);
  PcsDotProduct unit;
  for (int trial = 0; trial < 3000; ++trial) {
    int n = (int)rng.next_int(1, 8);
    auto terms = random_terms(rng, n, -12, 12);
    PFloat got = unit.dot_ieee(terms, Round::HalfAwayFromZero);
    PFloat ref = wide_reference(terms);
    if (!ref.is_normal()) continue;
    double err = PFloat::ulp_error(got, ref, 52);
    ASSERT_LE(err, 0.75) << "n=" << n << " err=" << err;
  }
}

TEST(DotProduct, SingleFusedRoundingBeatsSequentialFma) {
  // sum of cancelling products: a*b - a*b + tiny picks up zero error when
  // fused; a sequential discrete pipeline loses the tiny term's accuracy
  // only in adverse cases — construct one:  s = x*x - round(x*x) as a dot.
  const double x = 1.0 + 0x1p-30;
  PFloat fx = PFloat::from_double(kBinary64, x);
  PFloat sq = PFloat::mul(fx, fx, kBinary64, Round::NearestEven);
  PFloat mone = PFloat::from_double(kBinary64, -1.0);
  PcsDotProduct unit;
  PFloat r = unit.dot_ieee({{fx, fx}, {sq, mone}}, Round::HalfAwayFromZero);
  EXPECT_EQ(r.to_double(), std::fma(x, x, -sq.to_double()));
}

TEST(DotProduct, CancellationToExactZero) {
  Rng rng(171);
  PcsDotProduct unit;
  for (int trial = 0; trial < 2000; ++trial) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-9, 9));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-9, 9));
    CsOperand r = unit.dot({{a, b}, {a.negated(), b}});
    EXPECT_TRUE(r.is_zero());
  }
}

TEST(DotProduct, SpecialValues) {
  PcsDotProduct unit;
  const PFloat one = PFloat::from_double(kBinary64, 1.0);
  const PFloat pinf = PFloat::inf(kBinary64, false);
  const PFloat zero = PFloat::zero(kBinary64, false);
  EXPECT_TRUE(unit.dot({{pinf, zero}}).is_nan());
  EXPECT_TRUE(unit.dot({{pinf, one}, {one, one}}).is_inf());
  EXPECT_TRUE(unit.dot({{pinf, one}, {pinf.negated(), one}}).is_nan());
  EXPECT_TRUE(unit.dot({{PFloat::nan(kBinary64), one}}).is_nan());
  EXPECT_TRUE(unit.dot({}).is_zero());
  EXPECT_TRUE(unit.dot({{zero, one}, {one, zero}}).is_zero());
}

TEST(DotProduct, ResultChainsIntoFma) {
  // The fused dot result feeds a PCS-FMA without an intermediate rounding.
  Rng rng(172);
  PcsDotProduct dot;
  CsFma fma(kPcsGeometry);
  for (int trial = 0; trial < 1000; ++trial) {
    auto terms = random_terms(rng, 4, -6, 6);
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-4, 4));
    PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-4, 4));
    // r = dot(terms) + b*c with the dot result kept in carry-save.
    CsOperand acc = dot.dot(terms);
    CsOperand r = fma.fma(acc, b, ieee_to_cs(kPcsGeometry, c));
    PFloat got = cs_to_ieee(r, kBinary64, Round::HalfAwayFromZero);
    PFloat ref = PFloat::fma(b, c, wide_reference(terms), kWideExact,
                             Round::NearestEven);
    if (!ref.is_normal()) continue;
    double err = PFloat::ulp_error(got, ref, 52);
    ASSERT_LE(err, 1.0) << err;
  }
}

TEST(DotProduct, WideDynamicRangeTruncatesGracefully) {
  // A term 300 bits below the largest cannot influence a binary64 result.
  PcsDotProduct unit;
  PFloat big = PFloat::from_double(kBinary64, 0x1p100);
  PFloat tiny = PFloat::from_double(kBinary64, 0x1p-200);
  PFloat one = PFloat::from_double(kBinary64, 1.0);
  PFloat r = unit.dot_ieee({{big, big}, {tiny, one}}, Round::HalfAwayFromZero);
  EXPECT_EQ(r.to_double(), 0x1p200);
}

TEST(DotProduct, TreeRowsScaleWithTerms) {
  Rng rng(173);
  PcsDotProduct unit;
  auto t4 = random_terms(rng, 4, -2, 2);
  unit.dot(t4);
  int rows4 = unit.last_tree_stats().rows;
  auto t8 = random_terms(rng, 8, -2, 2);
  unit.dot(t8);
  int rows8 = unit.last_tree_stats().rows;
  EXPECT_EQ(rows4, 4);
  EXPECT_EQ(rows8, 8);
}

}  // namespace
}  // namespace csfma
