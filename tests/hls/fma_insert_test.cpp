// The automatic insertion pass on the paper's Listing 1 and variants.
#include "hls/fma_insert.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "hls/interp.hpp"
#include "hls/schedule.hpp"

namespace csfma {
namespace {

OperatorLibrary lib() { return OperatorLibrary::for_device(virtex6()); }

Cdfg listing1() {
  Cdfg g;
  int a = g.add_input("a"), b = g.add_input("b"), c = g.add_input("c"),
      d = g.add_input("d"), e = g.add_input("e"), f = g.add_input("f"),
      gg = g.add_input("g"), h = g.add_input("h"), i = g.add_input("i"),
      k = g.add_input("k");
  int x1 = g.add_op(OpKind::Add, {g.add_op(OpKind::Mul, {a, b}),
                                  g.add_op(OpKind::Mul, {c, d})});
  int x2 = g.add_op(OpKind::Add, {g.add_op(OpKind::Mul, {e, f}),
                                  g.add_op(OpKind::Mul, {gg, x1})});
  int x3 = g.add_op(OpKind::Add, {g.add_op(OpKind::Mul, {h, i}),
                                  g.add_op(OpKind::Mul, {k, x2})});
  g.add_output("x3", x3);
  return g;
}

TEST(FmaInsert, Listing1GetsFused) {
  for (FmaStyle style : {FmaStyle::Pcs, FmaStyle::Fcs}) {
    Cdfg g = listing1();
    OperatorLibrary l = lib();
    int before = schedule_asap(g, l).length;
    FmaInsertStats st = insert_fma_units(g, l, style);
    g.validate();
    EXPECT_EQ(st.fma_inserted, 3);
    // The three FMAs chain: the two inner cvt pairs get elided.
    EXPECT_EQ(st.conversions_elided, 2);
    EXPECT_EQ(g.count(OpKind::Fma), 3);
    EXPECT_EQ(g.count(OpKind::Add), 0);  // every critical MA got fused
    int after = schedule_asap(g, l).length;
    EXPECT_LT(after, before) << "style " << (int)style;
  }
}

TEST(FmaInsert, ScheduleReductionIsSubstantial) {
  // Listing 1's critical path: 3 chained MAs = 3*(5+4) = 27 cycles.
  // Fused: cvt(1) + 3 FMAs + cvt_back(3).
  Cdfg g = listing1();
  OperatorLibrary l = lib();
  EXPECT_EQ(schedule_asap(g, l).length, 27);
  insert_fma_units(g, l, FmaStyle::Fcs);
  // Leading discrete mul (5) + cvt (1) + 3 chained FMAs (3 each) + exit
  // conversion (3) = 18 cycles: a 33% reduction.
  EXPECT_EQ(schedule_asap(g, l).length, 18);
  Cdfg g2 = listing1();
  insert_fma_units(g2, l, FmaStyle::Pcs);
  // 5 + 1 + 3*5 + 3 = 24 cycles: an 11% reduction.
  EXPECT_EQ(schedule_asap(g2, l).length, 24);
}

TEST(FmaInsert, SemanticsPreserved) {
  Rng rng(130);
  OperatorLibrary l = lib();
  for (FmaStyle style : {FmaStyle::Pcs, FmaStyle::Fcs}) {
    for (int trial = 0; trial < 200; ++trial) {
      Cdfg base = listing1();
      Cdfg fused = listing1();
      insert_fma_units(fused, l, style);
      std::map<std::string, double> in;
      for (const char* name : {"a", "b", "c", "d", "e", "f", "g", "h", "i", "k"})
        in[name] = rng.next_double(-4.0, 4.0);
      double vb = Evaluator(base).run(in).at("x3");
      double vf = Evaluator(fused).run(in).at("x3");
      // Fused chains round less often; results agree to ~1 ulp per stage.
      ASSERT_NEAR(vf, vb, std::abs(vb) * 1e-12 + 1e-300);
    }
  }
}

TEST(FmaInsert, MultiUseMulIsNotFused) {
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int m = g.add_op(OpKind::Mul, {a, b});
  int s1 = g.add_op(OpKind::Add, {m, a});
  int s2 = g.add_op(OpKind::Add, {m, b});  // m used twice
  g.add_output("o1", s1);
  g.add_output("o2", s2);
  OperatorLibrary l = lib();
  FmaInsertStats st = insert_fma_units(g, l, FmaStyle::Pcs);
  EXPECT_EQ(st.fma_inserted, 0);
  EXPECT_EQ(g.count(OpKind::Mul), 1);
}

TEST(FmaInsert, ProductReadTwiceByOneAddIsNotFused) {
  // t = a*b; y = t + t + c: the first add reads the product on both edges,
  // so t has two uses and must stay a discrete multiply.  Fusing it killed
  // t while the FMA still read it as its addend.
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int c = g.add_input("c");
  int t = g.add_op(OpKind::Mul, {a, b});
  int y = g.add_op(OpKind::Add, {g.add_op(OpKind::Add, {t, t}), c});
  g.add_output("y", y);
  Cdfg fused = g;
  FmaInsertStats st = insert_fma_units(fused, lib(), FmaStyle::Pcs);
  fused.validate();
  EXPECT_EQ(st.fma_inserted, 0);
  EXPECT_EQ(fused.count(OpKind::Mul), 1);
  const std::map<std::string, double> in{{"a", 1.5}, {"b", -2.25}, {"c", 3.0}};
  EXPECT_EQ(Evaluator(fused).run(in).at("y"), Evaluator(g).run(in).at("y"));
}

TEST(FmaInsert, SubtractionsFoldWithSignFlips) {
  Rng rng(131);
  OperatorLibrary l = lib();
  // o = x - b*c  and  o2 = b*c - x.
  auto build = [](bool mul_first) {
    Cdfg g;
    int x = g.add_input("x");
    int b = g.add_input("b");
    int c = g.add_input("c");
    int m = g.add_op(OpKind::Mul, {b, c});
    int s = mul_first ? g.add_op(OpKind::Sub, {m, x})
                      : g.add_op(OpKind::Sub, {x, m});
    g.add_output("o", s);
    return g;
  };
  for (bool mul_first : {false, true}) {
    Cdfg g = build(mul_first);
    Cdfg base = build(mul_first);
    FmaInsertStats st = insert_fma_units(g, l, FmaStyle::Pcs);
    EXPECT_EQ(st.fma_inserted, 1);
    g.validate();
    for (int t = 0; t < 100; ++t) {
      std::map<std::string, double> in{{"x", rng.next_double(-9, 9)},
                                       {"b", rng.next_double(-9, 9)},
                                       {"c", rng.next_double(-9, 9)}};
      double vb = Evaluator(base).run(in).at("o");
      double vf = Evaluator(g).run(in).at("o");
      ASSERT_NEAR(vf, vb, std::abs(vb) * 1e-12 + 1e-300);
    }
  }
}

TEST(FmaInsert, OffCriticalPairsLeftAlone) {
  OperatorLibrary l = lib();
  // A deep divide chain dominates; a side multiply-add has slack and must
  // not be replaced (the paper's selective use, Sec. V).
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int deep = g.add_op(OpKind::Div, {a, b});
  deep = g.add_op(OpKind::Div, {deep, b});
  int side = g.add_op(OpKind::Add, {g.add_op(OpKind::Mul, {a, b}), a});
  int join = g.add_op(OpKind::Add, {deep, side});
  g.add_output("o", join);
  FmaInsertStats st = insert_fma_units(g, l, FmaStyle::Fcs);
  EXPECT_EQ(st.fma_inserted, 0);
  EXPECT_EQ(g.count(OpKind::Mul), 1);
}

TEST(FmaInsert, ElisionDisabledKeepsConversions) {
  OperatorLibrary l = lib();
  Cdfg g = listing1();
  FmaInsertStats st = insert_fma_units(g, l, FmaStyle::Pcs,
                                       /*elide_conversions=*/false);
  EXPECT_EQ(st.fma_inserted, 3);
  EXPECT_EQ(st.conversions_elided, 0);
  // Unelided: each FMA has its own in/out conversions, so the chain is
  // longer than the elided version.
  Cdfg g2 = listing1();
  insert_fma_units(g2, l, FmaStyle::Pcs);
  EXPECT_GT(schedule_asap(g, l).length, schedule_asap(g2, l).length);
}

TEST(FmaInsert, CriticalOperandBecomesC) {
  // In x2 = e*f + g*x1 the x1 operand arrives late; it must be routed to
  // the CS-format C input so the chain elides.
  OperatorLibrary l = lib();
  Cdfg g = listing1();
  insert_fma_units(g, l, FmaStyle::Pcs);
  // Chained graph: some Fma node's C argument (args[2]) is another Fma.
  int chained = 0;
  for (int id : g.live_nodes()) {
    const Node& n = g.node(id);
    if (n.kind != OpKind::Fma) continue;
    if (g.node(n.args[2]).kind == OpKind::Fma) ++chained;
  }
  EXPECT_EQ(chained, 2);
}

}  // namespace
}  // namespace csfma
