#include "hls/reassociate.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "hls/fma_insert.hpp"
#include "hls/interp.hpp"
#include "hls/schedule.hpp"

namespace csfma {
namespace {

OperatorLibrary lib() { return OperatorLibrary::for_device(virtex6()); }

/// `prefix` followed by `i`, built by appending (g++ 12 at -O3 reports a
/// false -Wrestrict on `indexed("x", i)`).
std::string indexed(const char* prefix, int i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

Cdfg long_sum(int n) {
  Cdfg g;
  int acc = g.add_input("x0");
  for (int i = 1; i < n; ++i) {
    int x = g.add_input(indexed("x", i));
    acc = (i % 3 == 0) ? g.add_op(OpKind::Sub, {acc, x})
                       : g.add_op(OpKind::Add, {acc, x});
  }
  g.add_output("s", acc);
  return g;
}

TEST(Reassociate, DepthBecomesLogarithmic) {
  OperatorLibrary l = lib();
  const int add_lat = l.attr(OpKind::Add).latency;
  for (int n : {4, 8, 16, 32}) {
    Cdfg g = long_sum(n);
    EXPECT_EQ(schedule_asap(g, l).length, (n - 1) * add_lat);
    ReassociateStats st = reassociate_sums(g, l);
    g.validate();
    EXPECT_EQ(st.trees_rebalanced, 1);
    EXPECT_EQ(st.terms, n);
    int depth = 0;
    for (int m = n; m > 1; m = (m + 1) / 2) ++depth;
    EXPECT_EQ(schedule_asap(g, l).length, depth * add_lat);
  }
}

TEST(Reassociate, ValuesWithinReassociationEnvelope) {
  Rng rng(220);
  OperatorLibrary l = lib();
  for (int t = 0; t < 500; ++t) {
    Cdfg base = long_sum(16);
    Cdfg bal = long_sum(16);
    reassociate_sums(bal, l);
    std::map<std::string, double> in;
    double maxmag = 0;
    for (int i = 0; i < 16; ++i) {
      in[indexed("x", i)] = rng.next_double(-100, 100);
      maxmag = std::max(maxmag, std::fabs(in[indexed("x", i)]));
    }
    double vb = Evaluator(base).run(in).at("s");
    double vf = Evaluator(bal).run(in).at("s");
    // Reassociation error <= n * eps * sum|x|.
    ASSERT_NEAR(vf, vb, 16 * 16 * maxmag * 0x1p-52 + 1e-300);
  }
}

TEST(Reassociate, SmallTreesUntouched) {
  OperatorLibrary l = lib();
  Cdfg g = long_sum(2);
  EXPECT_EQ(reassociate_sums(g, l).trees_rebalanced, 0);
}

TEST(Reassociate, NegatedRootGetsFreeNeg) {
  // -a - b - c: all terms negative; the balanced tree ends in a Neg.
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int c = g.add_input("c");
  int s = g.add_op(OpKind::Sub, {g.add_op(OpKind::Neg, {a}), b});
  g.add_output("o", g.add_op(OpKind::Sub, {s, c}));
  OperatorLibrary l = lib();
  Cdfg bal = g;
  reassociate_sums(bal, l, 2);
  bal.validate();
  auto out = Evaluator(bal).run({{"a", 1.0}, {"b", 2.0}, {"c", 4.0}});
  EXPECT_EQ(out.at("o"), -7.0);
}

TEST(Reassociate, BreaksFmaChains) {
  // The interaction the ablation quantifies: balancing a sum of products
  // leaves products paired with DIFFERENT adds, so fewer chained FMAs
  // elide; on a chain-shaped row the fused version can end up preferable
  // without balancing.
  OperatorLibrary l = lib();
  Cdfg g;
  int acc = g.add_input("b");
  for (int i = 0; i < 8; ++i) {
    int x = g.add_input(indexed("x", i));
    int y = g.add_input(indexed("y", i));
    acc = g.add_op(OpKind::Sub, {acc, g.add_op(OpKind::Mul, {x, y})});
  }
  g.add_output("o", acc);
  Cdfg fma_only = g;
  insert_fma_units(fma_only, l, FmaStyle::Fcs);
  Cdfg bal_then_fma = g;
  reassociate_sums(bal_then_fma, l);
  FmaInsertStats st = insert_fma_units(bal_then_fma, l, FmaStyle::Fcs);
  bal_then_fma.validate();
  // Balanced trees still fuse some pairs but elide fewer conversions.
  EXPECT_GT(st.fma_inserted, 0);
  // Semantics stay within the reassociation envelope.
  Rng rng(221);
  std::map<std::string, double> in{{"b", 3.0}};
  for (int i = 0; i < 8; ++i) {
    in[indexed("x", i)] = rng.next_double(-2, 2);
    in[indexed("y", i)] = rng.next_double(-2, 2);
  }
  double v1 = Evaluator(fma_only).run(in).at("o");
  double v2 = Evaluator(bal_then_fma).run(in).at("o");
  EXPECT_NEAR(v1, v2, std::fabs(v1) * 1e-10 + 1e-12);
}

}  // namespace
}  // namespace csfma
