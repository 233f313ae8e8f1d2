// ZD-based vs early-LZA block selection in the FCS geometry (the Sec. III-F
// / III-G design alternative exposed by BlockSelect).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "cs/csa_tree.hpp"
#include "fma/cs_fma.hpp"

namespace csfma {
namespace {

const CsGeometry kLza = CsGeometry::fcs(BlockSelect::Lza);
const CsGeometry kZd = CsGeometry::fcs(BlockSelect::Zd);

TEST(FcsSelect, BothModesCorrectlyRoundedOnBalancedInputs) {
  Rng rng(180);
  CsFma lza(kLza);
  CsFma zd(kZd);
  for (int i = 0; i < 20000; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
    PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
    PFloat ref = PFloat::fma(b, c, a, kBinary64, Round::HalfAwayFromZero);
    PFloat rl = lza.fma_ieee(a, b, c, Round::HalfAwayFromZero);
    PFloat rz = zd.fma_ieee(a, b, c, Round::HalfAwayFromZero);
    ASSERT_LE(PFloat::ulp_error(rl, ref, 52), 1.0);
    ASSERT_LE(PFloat::ulp_error(rz, ref, 52), 1.0);
  }
}

TEST(FcsSelect, ZdKeepsCancellationResidueLzaLoses) {
  // a = -(b*c) + residue far below: the early LZA anticipates at the big
  // operands' position; the exact ZD walks down to the residue.  Place the
  // residue ~120 bits below so it falls outside the LZA-selected window
  // but inside the ZD's reach.
  CsFma lza(kLza);
  CsFma zd(kZd);
  // b*c = 3 * 5 = 15 exactly; a = -15; feed the residue through the tail
  // of a hand-built A operand: value -15 + 2^-120.
  PFloat b = PFloat::from_double(kBinary64, 3.0);
  PFloat c = PFloat::from_double(kBinary64, 5.0);
  // A = -15 exactly, plus one unit at the mantissa's least significant
  // digit — a residue ~82 digits below A's leading digit, inside the adder
  // window but far below the anticipated result position.
  const CsOperand a0 = ieee_to_cs(kLza, PFloat::from_double(kBinary64, -15.0));
  const CsNum bumped = cs_add_binary(a0.mant().as_cs(), CsWord(1ull));
  const PcsNum mant(87, 1, bumped.sum(), bumped.carry());
  const CsOperand a_lza(kLza, mant, PcsNum::zero(29, 1), a0.exp(),
                        FpClass::Normal, true);
  const CsOperand a_zd(kZd, mant, PcsNum::zero(29, 1), a0.exp(),
                       FpClass::Normal, true);
  CsOperand rl = lza.fma(a_lza, b, ieee_to_cs(kLza, c));
  CsOperand rz = zd.fma(a_zd, b, ieee_to_cs(kZd, c));
  // ZD finds the residue; its result is non-zero.
  EXPECT_FALSE(rz.is_zero());
  // The LZA window misses it entirely (the accepted inaccuracy).
  EXPECT_TRUE(rl.is_zero() || rl.exact_value().is_zero() ||
              std::fabs(rl.exact_value().to_double()) <=
                  std::fabs(rz.exact_value().to_double()) + 1e-300);
  // ZD residue value: one A-tail ulp = 2^(exp(a) - 111 - 0) scale.
  EXPECT_GT(std::fabs(rz.exact_value().to_double()), 0.0);
}

TEST(FcsSelect, ModesAgreeAwayFromCancellation) {
  Rng rng(181);
  CsFma lza(kLza);
  CsFma zd(kZd);
  int agree = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-6, 6));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-6, 6));
    PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-6, 6));
    PFloat rl = lza.fma_ieee(a, b, c, Round::HalfAwayFromZero);
    PFloat rz = zd.fma_ieee(a, b, c, Round::HalfAwayFromZero);
    if (PFloat::same_value(rl, rz)) ++agree;
  }
  EXPECT_GT(agree, n * 99 / 100);
}

TEST(FcsSelect, ZdChainAccuracyAtLeastAsGood) {
  // Over a chained recurrence, the exact selector can only do as well or
  // better than the anticipating one on average.
  Rng rng(182);
  double e_lza = 0, e_zd = 0;
  for (int run = 0; run < 10; ++run) {
    double b1 = rng.next_double(1.0, 32.0) * (rng.next_bool() ? 1 : -1);
    double b2 = rng.next_double(0.001, 1.0);
    double x0[3] = {rng.next_double(-1, 1), rng.next_double(-1, 1),
                    rng.next_double(-1, 1)};
    PFloat golden = PFloat::zero(kWideExact, false);
    {
      // wide reference with discrete fused steps
      PFloat B1 = PFloat::from_double(kWideExact, b1);
      PFloat B2 = PFloat::from_double(kWideExact, b2);
      PFloat x3 = PFloat::from_double(kWideExact, x0[0]);
      PFloat x2 = PFloat::from_double(kWideExact, x0[1]);
      PFloat x1 = PFloat::from_double(kWideExact, x0[2]);
      for (int i = 3; i <= 40; ++i) {
        PFloat t = PFloat::fma(B2, x2, x3, kWideExact, Round::NearestEven);
        PFloat x = PFloat::fma(B1, x1, t, kWideExact, Round::NearestEven);
        x3 = x2; x2 = x1; x1 = x;
      }
      golden = x1;
    }
    for (const CsGeometry& g : {kLza, kZd}) {
      CsFma u(g);
      PFloat B1 = PFloat::from_double(kBinary64, b1);
      PFloat B2 = PFloat::from_double(kBinary64, b2);
      CsOperand x3 = ieee_to_cs(g, PFloat::from_double(kBinary64, x0[0]));
      CsOperand x2 = ieee_to_cs(g, PFloat::from_double(kBinary64, x0[1]));
      CsOperand x1 = ieee_to_cs(g, PFloat::from_double(kBinary64, x0[2]));
      for (int i = 3; i <= 40; ++i) {
        CsOperand t = u.fma(x3, B2, x2);
        CsOperand x = u.fma(t, B1, x1);
        x3 = x2; x2 = x1; x1 = x;
      }
      double e = PFloat::ulp_error(
          cs_to_ieee(x1, kBinary64, Round::HalfAwayFromZero), golden, 52);
      (g.select() == BlockSelect::Lza ? e_lza : e_zd) += e;
    }
  }
  EXPECT_LE(e_zd, e_lza + 1.0);
}

}  // namespace
}  // namespace csfma
