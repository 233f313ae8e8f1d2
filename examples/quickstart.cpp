// Quickstart: fused multiply-add chains in carry-save format.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Shows the three levels of the library:
//   1. a single fused a + b*c through the PCS-FMA with IEEE boundaries,
//   2. a chain that stays in carry-save format between units (the paper's
//      deferred-rounding trick),
//   3. the exact-value introspection used to reason about accuracy.
#include <cstdio>

#include "fma/cs_fma.hpp"

int main() {
  using namespace csfma;

  // ---- 1. One fused operation, IEEE in / IEEE out ----
  CsFma pcs(kPcsGeometry);
  PFloat a = PFloat::from_double(kBinary64, 0.1);
  PFloat b = PFloat::from_double(kBinary64, 10.0);
  PFloat c = PFloat::from_double(kBinary64, 0.2);
  PFloat r = pcs.fma_ieee(a, b, c, Round::HalfAwayFromZero);
  std::printf("PCS-FMA: 0.1 + 10*0.2 = %.17g\n", r.to_double());

  // ---- 2. A chain with deferred rounding: recover the rounding error of
  //         a square, which a discrete mul+add pipeline cannot see ----
  const double x = 1.0 + 0x1p-30;
  PFloat fx = PFloat::from_double(kBinary64, x);
  PFloat sq = PFloat::mul(fx, fx, kBinary64, Round::NearestEven);
  // residual = x*x - round(x*x), computed fused:
  PFloat residual = pcs.fma_ieee(sq.negated(), fx, fx, Round::HalfAwayFromZero);
  std::printf("rounding error of x*x recovered: %.17g (discrete pipeline: 0)\n",
              residual.to_double());

  // ---- 3. Chained FMAs stay in the 192-bit PCS operand format; only the
  //         final readout rounds.  Compare against double precision. ----
  // Horner evaluation of p(t) = ((t + 1)t + 1)t + 1 at t close to -1:
  const double t = -1.0 + 0x1p-27;
  PFloat ft = PFloat::from_double(kBinary64, t);
  PFloat one = PFloat::from_double(kBinary64, 1.0);
  CsOperand acc = ieee_to_cs(kPcsGeometry, one);  // acc = 1
  for (int i = 0; i < 3; ++i) {
    // acc = 1 + t * acc   (A = 1, B = t, C = acc: C stays in carry-save)
    acc = pcs.fma(ieee_to_cs(kPcsGeometry, one), ft, acc);
  }
  double fused =
      cs_to_ieee(acc, kBinary64, Round::HalfAwayFromZero).to_double();
  double plain = 1.0;
  for (int i = 0; i < 3; ++i) plain = 1.0 + t * plain;
  std::printf("Horner near the root: fused=%.17g plain=%.17g\n", fused, plain);

  // ---- FCS: same unit, the full-carry-save geometry (3-cycle unit for
  //      Virtex-6+) ----
  CsFma fcs(kFcsGeometry);
  PFloat rf = fcs.fma_ieee(a, b, c, Round::HalfAwayFromZero);
  std::printf("FCS-FMA: 0.1 + 10*0.2 = %.17g\n", rf.to_double());
  std::printf("exact operand value introspection: %s\n",
              ieee_to_cs(kFcsGeometry, rf).exact_value().to_string().c_str());
  return 0;
}
