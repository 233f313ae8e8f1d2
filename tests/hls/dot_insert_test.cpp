// The fused dot-product insertion pass.
#include "hls/dot_insert.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hls/interp.hpp"
#include "hls/schedule.hpp"

namespace csfma {
namespace {

OperatorLibrary lib() { return OperatorLibrary::for_device(virtex6()); }

/// `prefix` followed by `i`, built by appending (g++ 12 at -O3 reports a
/// false -Wrestrict on `"x" + std::to_string(i)`).
std::string indexed(const char* prefix, int i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

/// y = b - L0*z0 - L1*z1 - L2*z2 + w : one sum tree, three products.
Cdfg row_kernel() {
  Cdfg g;
  int b = g.add_input("b");
  int w = g.add_input("w");
  std::vector<int> prods;
  for (int i = 0; i < 3; ++i) {
    int l = g.add_input(indexed("L", i));
    int z = g.add_input(indexed("z", i));
    prods.push_back(g.add_op(OpKind::Mul, {l, z}));
  }
  int acc = b;
  for (int p : prods) acc = g.add_op(OpKind::Sub, {acc, p});
  acc = g.add_op(OpKind::Add, {acc, w});
  g.add_output("y", acc);
  return g;
}

TEST(DotInsert, RowTreeBecomesOneDot) {
  Cdfg g = row_kernel();
  OperatorLibrary l = lib();
  int before = schedule_asap(g, l).length;
  DotInsertStats st = insert_dot_products(g, l);
  g.validate();
  EXPECT_EQ(st.dots_inserted, 1);
  EXPECT_EQ(st.terms_fused, 5);  // 3 products + b + w
  EXPECT_EQ(g.count(OpKind::Dot), 1);
  EXPECT_EQ(g.count(OpKind::Add), 0);
  EXPECT_EQ(g.count(OpKind::Sub), 0);
  EXPECT_EQ(g.count(OpKind::Mul), 0);
  EXPECT_LT(schedule_asap(g, l).length, before);
}

TEST(DotInsert, SemanticsPreserved) {
  Rng rng(210);
  OperatorLibrary l = lib();
  Cdfg base = row_kernel();
  Cdfg fused = row_kernel();
  insert_dot_products(fused, l);
  for (int t = 0; t < 2000; ++t) {
    std::map<std::string, double> in{{"b", rng.next_double(-5, 5)},
                                     {"w", rng.next_double(-5, 5)}};
    for (int i = 0; i < 3; ++i) {
      in[indexed("L", i)] = rng.next_double(-5, 5);
      in[indexed("z", i)] = rng.next_double(-5, 5);
    }
    double vb = Evaluator(base).run(in).at("y");
    double vf = Evaluator(fused).run(in).at("y");
    ASSERT_NEAR(vf, vb, std::abs(vb) * 1e-12 + 1e-300);
  }
}

TEST(DotInsert, SingleProductTreeLeftAlone) {
  // Only one multiply: an FMA candidate, not a dot.
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int m = g.add_op(OpKind::Mul, {a, b});
  g.add_output("o", g.add_op(OpKind::Add, {m, a}));
  OperatorLibrary l = lib();
  DotInsertStats st = insert_dot_products(g, l);
  EXPECT_EQ(st.dots_inserted, 0);
}

TEST(DotInsert, TermLimitRespected) {
  // A 20-product tree with max_terms=16 stays discrete.
  Cdfg g;
  int acc = g.add_input("x");
  for (int i = 0; i < 20; ++i) {
    int a = g.add_input(indexed("a", i));
    int b = g.add_input(indexed("b", i));
    acc = g.add_op(OpKind::Add, {acc, g.add_op(OpKind::Mul, {a, b})});
  }
  g.add_output("o", acc);
  OperatorLibrary l = lib();
  Cdfg limited = g;
  EXPECT_EQ(insert_dot_products(limited, l, 16).dots_inserted, 0);
  Cdfg big = g;
  EXPECT_EQ(insert_dot_products(big, l, 32).dots_inserted, 1);
}

TEST(DotInsert, MultiUseTreeNodeBlocksFusion) {
  // An inner sum used twice cannot be folded into the tree.
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int m1 = g.add_op(OpKind::Mul, {a, b});
  int m2 = g.add_op(OpKind::Mul, {b, a});
  int inner = g.add_op(OpKind::Add, {m1, m2});
  int outer = g.add_op(OpKind::Add, {inner, a});
  g.add_output("o1", outer);
  g.add_output("o2", inner);  // second use of the inner sum
  OperatorLibrary l = lib();
  DotInsertStats st = insert_dot_products(g, l);
  // The inner tree (rooted at `inner`) can still fuse by itself...
  EXPECT_EQ(st.dots_inserted, 1);
  g.validate();
  // ...and both outputs still evaluate consistently.
  auto out = Evaluator(g).run({{"a", 3.0}, {"b", 4.0}});
  EXPECT_EQ(out.at("o2"), 24.0);
  EXPECT_EQ(out.at("o1"), 27.0);
}

TEST(DotInsert, SignFoldingThroughSubtractions) {
  // y = a*b - c*d - (e*f) with mixed signs.
  Cdfg g;
  int a = g.add_input("a"), b = g.add_input("b");
  int c = g.add_input("c"), d = g.add_input("d");
  int e = g.add_input("e"), f = g.add_input("f");
  int t = g.add_op(OpKind::Sub, {g.add_op(OpKind::Mul, {a, b}),
                                 g.add_op(OpKind::Mul, {c, d})});
  g.add_output("y", g.add_op(OpKind::Sub, {t, g.add_op(OpKind::Mul, {e, f})}));
  OperatorLibrary l = lib();
  Cdfg fused = g;
  insert_dot_products(fused, l);
  EXPECT_EQ(fused.count(OpKind::Dot), 1);
  Rng rng(211);
  for (int i = 0; i < 500; ++i) {
    std::map<std::string, double> in;
    for (const char* n : {"a", "b", "c", "d", "e", "f"})
      in[n] = rng.next_double(-3, 3);
    double vb = Evaluator(g).run(in).at("y");
    double vf = Evaluator(fused).run(in).at("y");
    ASSERT_NEAR(vf, vb, std::abs(vb) * 1e-12 + 1e-300);
  }
}

TEST(DotInsert, DotLatencyGrowsLogarithmically) {
  OperatorLibrary l = lib();
  EXPECT_EQ(l.dot_attr(2).latency, 5);
  EXPECT_EQ(l.dot_attr(4).latency, 6);
  EXPECT_EQ(l.dot_attr(8).latency, 7);
  EXPECT_EQ(l.dot_attr(16).latency, 8);
  EXPECT_GT(l.dot_attr(16).dsps, l.dot_attr(2).dsps);
}

}  // namespace
}  // namespace csfma
