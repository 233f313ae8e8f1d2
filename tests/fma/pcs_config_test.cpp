// The CS unit across PCS geometries (the paper's Sec. V future work).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "fma/cs_fma.hpp"

namespace csfma {
namespace {

const CsGeometry kPcs56g8 = CsGeometry::pcs(56, 8);
const CsGeometry kPcs56g14 = CsGeometry::pcs(56, 14);

TEST(PcsConfig, PaperGeometryDerivesTheFixedConstants) {
  const CsGeometry c = CsGeometry::pcs(55, 11);
  EXPECT_EQ(c, kPcsGeometry);
  EXPECT_EQ(c.mant_digits(), 110);
  EXPECT_EQ(c.tail_digits(), 55);
  EXPECT_EQ(c.product_width(), 163);
  EXPECT_EQ(c.adder_width(), 385);
  EXPECT_EQ(c.sig_msb(), 107);
  EXPECT_EQ(c.frac_bits(), 162);
  EXPECT_EQ(c.mant_digits() / c.group(), 10);
  EXPECT_EQ(c.operand_bits(), 192);
  EXPECT_EQ(c.dsp_tiles(), 21);
}

TEST(PcsConfig, Sec5CandidateGeometries) {
  // 56b blocks admit the 8- and 14-bit carry spacings Sec. V suggests.
  for (const CsGeometry& c : {kPcs56g8, kPcs56g14}) {
    EXPECT_NO_THROW(c.validate());
    EXPECT_EQ(c.mant_digits(), 112);
    EXPECT_GE(c.guaranteed_digits(), 53);  // still exceeds double
  }
  EXPECT_EQ(kPcs56g8.mant_digits() / kPcs56g8.group(), 14);
  EXPECT_EQ(kPcs56g14.mant_digits() / kPcs56g14.group(), 8);
}

TEST(PcsConfig, InvalidGeometriesRejected) {
  EXPECT_THROW(CsGeometry::pcs(55, 7).validate(), CheckError);   // 7 !| 55
  EXPECT_THROW(CsGeometry::pcs(70, 10).validate(), CheckError);  // window overflow
  EXPECT_THROW(CsGeometry::pcs(4, 2).validate(), CheckError);    // too small
  EXPECT_THROW(CsGeometry::pcs(55, 1).validate(), CheckError);   // no carry reduce
  EXPECT_THROW({ CsFma unit(CsGeometry::pcs(55, 7)); }, CheckError);
}

TEST(PcsConfig, PaperGeometryMatchesFixedUnitExactly) {
  // A unit built from the (55, 11) design point is the UnitKind::Pcs unit,
  // bit for bit, on both its scalar and its sliced path.
  Rng rng(200);
  CsFma gen(CsGeometry::pcs(55, 11));
  auto fixed = make_fma_unit(UnitKind::Pcs);
  std::vector<OperandTriple> ops;
  for (int i = 0; i < 20000; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-60, 60));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-60, 60));
    PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-60, 60));
    PFloat rg = gen.fma_ieee(a, b, c, Round::HalfAwayFromZero);
    PFloat rf = fixed->fma_ieee(a, b, c, Round::HalfAwayFromZero);
    ASSERT_TRUE(PFloat::same_value(rg, rf))
        << a.to_string() << " " << b.to_string() << " " << c.to_string();
    ops.push_back({a, b, c});
  }
  std::vector<PFloat> sliced(ops.size());
  FmaBatchHooks hooks;
  hooks.rm = Round::HalfAwayFromZero;
  gen.fma_ieee_batch(ops.data(), ops.size(), sliced.data(), hooks);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_EQ(
        sliced[i].to_bits().lo64(),
        fixed->fma_ieee(ops[i].a, ops[i].b, ops[i].c, hooks.rm).to_bits().lo64())
        << i;
  }
}

TEST(PcsConfig, Block56IsCorrectlyRounded) {
  Rng rng(201);
  for (const CsGeometry& cfg : {kPcs56g8, kPcs56g14}) {
    CsFma unit(cfg);
    for (int i = 0; i < 10000; ++i) {
      PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-40, 40));
      PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-40, 40));
      PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-40, 40));
      PFloat got = unit.fma_ieee(a, b, c, Round::HalfAwayFromZero);
      PFloat ref = PFloat::fma(b, c, a, kBinary64, Round::HalfAwayFromZero);
      ASSERT_TRUE(PFloat::same_value(got, ref)) << i;
    }
  }
}

TEST(PcsConfig, SmallBlocksLoseAccuracyGracefully) {
  // A 22b-block geometry holds only ~41 significand bits: results are
  // still within its own guarantee, far off binary64.
  Rng rng(202);
  CsFma unit(CsGeometry::pcs(22, 11));
  double mean = 0;
  int counted = 0;
  for (int i = 0; i < 5000; ++i) {
    PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-10, 10));
    PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-10, 10));
    PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-10, 10));
    PFloat got = unit.fma_ieee(a, b, c, Round::HalfAwayFromZero);
    PFloat ref = PFloat::fma(b, c, a, kBinary64, Round::HalfAwayFromZero);
    if (!ref.is_normal()) continue;
    mean += PFloat::ulp_error(got, ref, 52);
    ++counted;
  }
  mean /= counted;
  // The geometry guarantees ~41 significant digits: mean error near one
  // ulp of ITS precision, i.e. ~2^(52-41) binary64 ulps (cancellation can
  // push individual cases higher).
  EXPECT_GT(mean, 64.0);
  EXPECT_LT(mean, 65536.0);
}

TEST(PcsConfig, WideGeometriesAreExactAtBinary64) {
  // A 5000-op draw per geometry.  Larger draws (200,000 ops, exponents in
  // [-30, 30]) still misround about one op in 200,000 at blocks 33 and 34
  // and none from block 35 on (EXPERIMENTS.md, "PCS geometry sweep").
  Rng rng(204);
  for (const CsGeometry& cfg :
       {CsGeometry::pcs(33, 11), CsGeometry::pcs(34, 2), CsGeometry::pcs(36, 2),
        CsGeometry::pcs(44, 4), CsGeometry::pcs(56, 28)}) {
    CsFma unit(cfg);
    for (int i = 0; i < 5000; ++i) {
      PFloat a = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
      PFloat b = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
      PFloat c = PFloat::from_double(kBinary64, rng.next_fp_in_exp_range(-30, 30));
      PFloat got = unit.fma_ieee(a, b, c, Round::HalfAwayFromZero);
      PFloat ref = PFloat::fma(b, c, a, kBinary64, Round::HalfAwayFromZero);
      ASSERT_TRUE(PFloat::same_value(got, ref)) << cfg.block() << "/" << cfg.group();
    }
  }
  // A negative addend far below the product lands right of the window's
  // lsb; its sign must still fill the window to the top.  The widest
  // windows (blocks >= 58) need the arithmetic shift across more than
  // 512 - W digits.
  const PFloat b = PFloat::from_double(kBinary64, 1.5);
  const PFloat c = PFloat::from_double(kBinary64, -1.25);
  for (const CsGeometry& cfg : {CsGeometry::pcs(58, 2), CsGeometry::pcs(62, 31)}) {
    CsFma unit(cfg);
    for (int e = -330; e <= -150; ++e) {
      for (double sig : {-1.2345, 1.75}) {
        const PFloat a = PFloat::from_double(kBinary64, std::ldexp(sig, e));
        PFloat got = unit.fma_ieee(a, b, c, Round::HalfAwayFromZero);
        PFloat ref = PFloat::fma(b, c, a, kBinary64, Round::HalfAwayFromZero);
        ASSERT_TRUE(PFloat::same_value(got, ref))
            << cfg.block() << "/" << cfg.group() << " A " << a.to_string();
      }
    }
  }
}

TEST(PcsConfig, ChainsWorkAcrossGeometries) {
  for (const CsGeometry& cfg :
       {CsGeometry::pcs(44, 11), kPcsGeometry, kPcs56g8}) {
    CsFma unit(cfg);
    PFloat b1 = PFloat::from_double(kBinary64, 1.5);
    CsOperand acc = ieee_to_cs(cfg, PFloat::from_double(kBinary64, 1.0));
    // acc = 1 + 1.5*acc five times: exact in every geometry >= 30 digits.
    for (int i = 0; i < 5; ++i) {
      acc = unit.fma(ieee_to_cs(cfg, PFloat::from_double(kBinary64, 1.0)), b1,
                     acc);
    }
    double expect = 1.0;
    for (int i = 0; i < 5; ++i) expect = 1.0 + 1.5 * expect;
    EXPECT_EQ(cs_to_ieee(acc, kBinary64, Round::HalfAwayFromZero).to_double(),
              expect)
        << cfg.block() << "/" << cfg.group();
  }
}

TEST(PcsConfig, OperandBitsScaleWithGeometry) {
  // The Sec. V trade-off: denser carries widen the operand.
  EXPECT_LT(CsGeometry::pcs(55, 55).operand_bits(), kPcsGeometry.operand_bits());
  EXPECT_GT(CsGeometry::pcs(55, 5).operand_bits(), kPcsGeometry.operand_bits());
  EXPECT_GT(kPcs56g8.operand_bits(), kPcs56g14.operand_bits());
}

}  // namespace
}  // namespace csfma
