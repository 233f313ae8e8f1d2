#include "hls/ir.hpp"

#include <gtest/gtest.h>

namespace csfma {
namespace {

Cdfg listing1() {
  // The paper's Listing 1: x1 = a*b + c*d; x2 = e*f + g*x1; x3 = h*i + k*x2.
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
  g.add_output("x1", x1);
  g.add_output("x2", x2);
  g.add_output("x3", x3);
  return g;
}

TEST(Ir, BuildAndValidate) {
  Cdfg g = listing1();
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.count(OpKind::Mul), 6);
  EXPECT_EQ(g.count(OpKind::Add), 3);
  EXPECT_EQ(g.count(OpKind::Input), 10);
  EXPECT_EQ(g.count(OpKind::Output), 3);
}

TEST(Ir, UsersAndReplace) {
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int s = g.add_op(OpKind::Add, {a, b});
  int t = g.add_op(OpKind::Mul, {s, s});
  g.add_output("o", t);
  EXPECT_EQ(g.users(s), (std::vector<int>{t, t}));  // one entry per use edge
  EXPECT_EQ(g.users(a).size(), 1u);
  int s2 = g.add_op(OpKind::Sub, {a, b});
  g.replace_uses(s, s2);
  EXPECT_TRUE(g.users(s).empty());
  EXPECT_EQ(g.users(s2), (std::vector<int>{t, t}));
}

TEST(Ir, PruneDeadRemovesUnreachable) {
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int used = g.add_op(OpKind::Add, {a, b});
  g.add_op(OpKind::Mul, {a, b});  // unused
  g.add_output("o", used);
  EXPECT_EQ(g.prune_dead(), 1);
  EXPECT_EQ(g.count(OpKind::Mul), 0);
  EXPECT_NO_THROW(g.validate());
}

TEST(Ir, TypingRejectsIeeeIntoFma) {
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int c = g.add_input("c");
  g.add_op(OpKind::Fma, {a, b, c}, FmaStyle::Pcs);  // A must be CS-typed
  EXPECT_THROW(g.validate(), CheckError);
}

TEST(Ir, TypingAcceptsProperChain) {
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int c = g.add_input("c");
  int ca = g.add_op(OpKind::CvtToCs, {a}, FmaStyle::Pcs);
  int cc = g.add_op(OpKind::CvtToCs, {c}, FmaStyle::Pcs);
  int f1 = g.add_op(OpKind::Fma, {ca, b, cc}, FmaStyle::Pcs);
  int f2 = g.add_op(OpKind::Fma, {ca, b, f1}, FmaStyle::Pcs);  // chained CS
  int out = g.add_op(OpKind::CvtFromCs, {f2}, FmaStyle::Pcs);
  g.add_output("o", out);
  EXPECT_NO_THROW(g.validate());
}

TEST(Ir, TypingRejectsMixedStyles) {
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int c = g.add_input("c");
  int ca = g.add_op(OpKind::CvtToCs, {a}, FmaStyle::Pcs);
  int cc = g.add_op(OpKind::CvtToCs, {c}, FmaStyle::Fcs);
  g.add_op(OpKind::Fma, {ca, b, cc}, FmaStyle::Pcs);
  EXPECT_THROW(g.validate(), CheckError);
}

TEST(Ir, TypingRejectsCsIntoPlainOp) {
  Cdfg g;
  int a = g.add_input("a");
  int ca = g.add_op(OpKind::CvtToCs, {a}, FmaStyle::Pcs);
  g.add_op(OpKind::Add, {ca, a});
  EXPECT_THROW(g.validate(), CheckError);
}

TEST(Ir, RebuildTopoNormalizesOrder) {
  Cdfg g = listing1();
  // Append a node and route an output through it (ids now out of order
  // relative to the use in no way — simulate a transform).
  int extra = g.add_op(OpKind::Neg, {0});
  g.replace_uses(1, extra);  // b's uses now point at a later id
  Cdfg r = rebuild_topo(g);
  EXPECT_NO_THROW(r.validate());
  for (int id : r.live_nodes()) {
    for (int a : r.node(id).args) EXPECT_LT(a, id);
  }
}

TEST(Ir, TopoOrderRespectsDependencies) {
  Cdfg g = listing1();
  auto order = g.topo_order();
  std::vector<int> pos((size_t)g.num_nodes(), -1);
  for (int i = 0; i < (int)order.size(); ++i) pos[(size_t)order[(size_t)i]] = i;
  for (int id : g.live_nodes()) {
    for (int a : g.node(id).args) {
      EXPECT_LT(pos[(size_t)a], pos[(size_t)id]);
    }
  }
}

TEST(Ir, DotExportContainsNodesAndCsEdges) {
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int ca = g.add_op(OpKind::CvtToCs, {a}, FmaStyle::Pcs);
  int cb = g.add_op(OpKind::CvtToCs, {b}, FmaStyle::Pcs);
  int f = g.add_op(OpKind::Fma, {ca, a, cb}, FmaStyle::Pcs);
  g.add_output("o", g.add_op(OpKind::CvtFromCs, {f}, FmaStyle::Pcs));
  std::string dot = g.to_dot("t");
  EXPECT_NE(dot.find("digraph t"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=lightblue"), std::string::npos);  // the fma
  EXPECT_NE(dot.find("penwidth=2.5"), std::string::npos);  // CS-typed edge
  EXPECT_NE(dot.find("input\\na"), std::string::npos);
}

}  // namespace
}  // namespace csfma
