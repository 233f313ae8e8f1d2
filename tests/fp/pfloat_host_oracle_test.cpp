// Cross-checks the softfloat against the host FPU — an oracle that is
// completely independent of our implementation.  Operand exponents are
// constrained so results stay clear of the subnormal range (we flush
// subnormals; the host does not) and of overflow.
#include <gtest/gtest.h>

#include <cfenv>
#include <cmath>
#include <tuple>

#include "common/rng.hpp"
#include "fp/pfloat.hpp"

namespace csfma {
namespace {

struct OpCase {
  const char* name;
  int emin, emax;
};

// Prints the case by value so discovered test names do not carry the
// (address-randomised) bytes of the name pointer.
void PrintTo(const OpCase& tc, std::ostream* os) {
  *os << tc.name << " [" << tc.emin << ", " << tc.emax << "]";
}

class HostOracle : public ::testing::TestWithParam<OpCase> {};

double host_op(const char* op, double a, double b, double c) {
  if (op == std::string("add")) return a + b;
  if (op == std::string("sub")) return a - b;
  if (op == std::string("mul")) return a * b;
  if (op == std::string("div")) return a / b;
  return std::fma(a, b, c);
}

PFloat soft_op(const char* op, double a, double b, double c, Round rm) {
  const auto& F = kBinary64;
  PFloat fa = PFloat::from_double(F, a), fb = PFloat::from_double(F, b),
         fc = PFloat::from_double(F, c);
  if (op == std::string("add")) return PFloat::add(fa, fb, F, rm);
  if (op == std::string("sub")) return PFloat::sub(fa, fb, F, rm);
  if (op == std::string("mul")) return PFloat::mul(fa, fb, F, rm);
  if (op == std::string("div")) return PFloat::div(fa, fb, F, rm);
  return PFloat::fma(fa, fb, fc, F, rm);
}

TEST_P(HostOracle, MatchesRoundNearestEven) {
  const OpCase& tc = GetParam();
  Rng rng(100 + tc.emin);
  for (const char* op : {"add", "sub", "mul", "div", "fma"}) {
    for (int i = 0; i < 30000; ++i) {
      double a = rng.next_fp_in_exp_range(tc.emin, tc.emax);
      double b = rng.next_fp_in_exp_range(tc.emin, tc.emax);
      double c = rng.next_fp_in_exp_range(tc.emin, tc.emax);
      double ref = host_op(op, a, b, c);
      if (!std::isnormal(ref) && ref != 0.0) continue;  // subnormal/overflow
      double got = soft_op(op, a, b, c, Round::NearestEven).to_double();
      ASSERT_EQ(got, ref) << op << "(" << a << ", " << b << ", " << c << ")";
    }
  }
}

TEST_P(HostOracle, MatchesDirectedModes) {
  const OpCase& tc = GetParam();
  Rng rng(200 + tc.emax);
  const std::pair<Round, int> modes[] = {
      {Round::TowardZero, FE_TOWARDZERO},
      {Round::TowardPositive, FE_UPWARD},
      {Round::TowardNegative, FE_DOWNWARD},
  };
  for (auto [rm, fe] : modes) {
    ASSERT_EQ(std::fesetround(fe), 0);
    for (const char* op : {"add", "sub", "mul", "div"}) {
      for (int i = 0; i < 8000; ++i) {
        double a = rng.next_fp_in_exp_range(tc.emin, tc.emax);
        double b = rng.next_fp_in_exp_range(tc.emin, tc.emax);
        // volatile stops constant folding at compile-time rounding.
        volatile double va = a, vb = b;
        double ref;
        if (op == std::string("add")) ref = va + vb;
        else if (op == std::string("sub")) ref = va - vb;
        else if (op == std::string("mul")) ref = va * vb;
        else ref = va / vb;
        if (!std::isnormal(ref) && ref != 0.0) continue;
        double got = soft_op(op, a, b, 0.0, rm).to_double();
        ASSERT_EQ(got, ref) << op << "(" << a << ", " << b << ") mode "
                            << to_string(rm);
      }
    }
    std::fesetround(FE_TONEAREST);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ExponentRanges, HostOracle,
    ::testing::Values(OpCase{"narrow", -4, 4}, OpCase{"mid", -60, 60},
                      OpCase{"wide", -400, 400},
                      OpCase{"near_one", -1, 1}),
    [](const ::testing::TestParamInfo<OpCase>& info) { return info.param.name; });

}  // namespace
}  // namespace csfma
