// Property tests of the rounding-mode semantics across operations —
// parameterized sweep over (operation, mode).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "fp/pfloat.hpp"

namespace csfma {
namespace {

struct ModeCase {
  Round mode;
  const char* name;
};

// Prints the mode by name so discovered test names do not carry the
// case's pointer and padding bytes.
void PrintTo(const ModeCase& tc, std::ostream* os) {
  *os << to_string(tc.mode);
}

class RoundingSweep : public ::testing::TestWithParam<ModeCase> {};

PFloat apply(const char* op, const PFloat& a, const PFloat& b, Round rm) {
  if (op == std::string("add")) return PFloat::add(a, b, kBinary64, rm);
  if (op == std::string("sub")) return PFloat::sub(a, b, kBinary64, rm);
  if (op == std::string("mul")) return PFloat::mul(a, b, kBinary64, rm);
  return PFloat::div(a, b, kBinary64, rm);
}

TEST_P(RoundingSweep, ResultBracketsExactValue) {
  // Whatever the mode, the rounded result must be one of the two
  // representable neighbours of the exact value (here: the wide-format
  // result stands in for "exact" — sufficient precision for one op).
  const Round rm = GetParam().mode;
  Rng rng(230 + (int)rm);
  for (const char* op : {"add", "sub", "mul", "div"}) {
    for (int i = 0; i < 8000; ++i) {
      PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-50, 50));
      PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-50, 50));
      PFloat r = apply(op, a, b, rm);
      PFloat exact = apply(op, a, b, Round::NearestEven);
      if (!r.is_normal() || !exact.is_normal()) continue;
      // |r - nearest| <= 1 ulp and directed modes sit on the correct side.
      double err = PFloat::ulp_error(r, exact, 52);
      ASSERT_LE(err, 1.0) << op;
    }
  }
}

TEST_P(RoundingSweep, DirectedModesAreMonotoneSided) {
  const Round rm = GetParam().mode;
  if (rm != Round::TowardPositive && rm != Round::TowardNegative &&
      rm != Round::TowardZero)
    return;  // only directed modes have a side
  Rng rng(240 + (int)rm);
  for (int i = 0; i < 20000; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-50, 50));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-50, 50));
    // Use a wide-precision product as the exact value.
    PFloat exact = PFloat::mul(a, b, kWideExact, Round::NearestEven);
    PFloat r = PFloat::mul(a, b, kBinary64, rm);
    if (!r.is_normal() || !exact.is_normal()) continue;
    // diff = r - exact, computed wide.
    PFloat diff = PFloat::sub(r, exact, kWideExact, Round::NearestEven);
    if (diff.is_zero()) continue;
    switch (rm) {
      case Round::TowardPositive:
        ASSERT_FALSE(diff.sign()) << "rounded below exact in toward-positive";
        break;
      case Round::TowardNegative:
        ASSERT_TRUE(diff.sign()) << "rounded above exact in toward-negative";
        break;
      case Round::TowardZero:
        // |r| <= |exact|: the (non-zero) difference points toward zero,
        // i.e. has the opposite sign of the exact value.
        ASSERT_EQ(diff.sign(), !exact.sign()) << "magnitude grew";
        break;
      default:
        break;
    }
  }
}

TEST_P(RoundingSweep, NearestModesAgreeExceptTies) {
  const Round rm = GetParam().mode;
  if (rm != Round::HalfAwayFromZero) return;
  Rng rng(250);
  int disagreements = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-50, 50));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-50, 50));
    PFloat ne = PFloat::mul(a, b, kBinary64, Round::NearestEven);
    PFloat ha = PFloat::mul(a, b, kBinary64, Round::HalfAwayFromZero);
    if (!PFloat::same_value(ne, ha)) {
      ++disagreements;
      // A disagreement must be an exact tie: the wide product's bit 53
      // tail is exactly half an ulp.
      PFloat wide = PFloat::mul(a, b, kWideExact, Round::NearestEven);
      PFloat back = wide.round_to(kBinary64, Round::TowardZero);
      // |wide - back| == exactly half an ulp of binary64.
      ASSERT_NEAR(std::fabs(PFloat::ulp_error(wide, back, 52)), 0.5, 1e-12);
    }
  }
  // Ties on random 53x53 products are rare but present over 50k draws...
  // (both outcomes acceptable; the assertion above is the property).
  (void)disagreements;
}

TEST_P(RoundingSweep, HalfAwayTieWitness) {
  if (GetParam().mode != Round::HalfAwayFromZero) return;
  // Construct exact ties deterministically: (1 + 2^-52) * (1 + 2^-53)?
  // Simpler: addition ties  x + 2^-53 at x = 1.
  PFloat one = PFloat::from_double(kBinary64, 1.0);
  PFloat half_ulp = PFloat::from_double(kBinary64, 0x1p-53);
  EXPECT_EQ(PFloat::add(one, half_ulp, kBinary64, Round::HalfAwayFromZero)
                .to_double(),
            1.0 + 0x1p-52);
  EXPECT_EQ(PFloat::add(one, half_ulp, kBinary64, Round::NearestEven)
                .to_double(),
            1.0);
  // Negative side mirrors.
  EXPECT_EQ(PFloat::add(one.negated(), half_ulp.negated(), kBinary64,
                        Round::HalfAwayFromZero)
                .to_double(),
            -(1.0 + 0x1p-52));
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, RoundingSweep,
    ::testing::Values(ModeCase{Round::NearestEven, "ne"},
                      ModeCase{Round::HalfAwayFromZero, "hafz"},
                      ModeCase{Round::TowardZero, "tz"},
                      ModeCase{Round::TowardPositive, "tp"},
                      ModeCase{Round::TowardNegative, "tn"}),
    [](const ::testing::TestParamInfo<ModeCase>& i) { return i.param.name; });

}  // namespace
}  // namespace csfma
