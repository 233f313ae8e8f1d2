#include "hls/schedule.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace csfma {
namespace {

OperatorLibrary lib() { return OperatorLibrary::for_device(virtex6()); }

Cdfg chain_of_mas(int n) {
  // x[i+1] = a*x[i] + b : a dependent multiply-add chain of length n.
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int x = g.add_input("x0");
  for (int i = 0; i < n; ++i) {
    int m = g.add_op(OpKind::Mul, {a, x});
    x = g.add_op(OpKind::Add, {m, b});
  }
  g.add_output("x", x);
  return g;
}

TEST(Schedule, AsapChainLength) {
  OperatorLibrary l = lib();
  const int mul = l.attr(OpKind::Mul).latency;
  const int add = l.attr(OpKind::Add).latency;
  for (int n : {1, 3, 10}) {
    Cdfg g = chain_of_mas(n);
    Schedule s = schedule_asap(g, l);
    EXPECT_EQ(s.length, n * (mul + add));
  }
}

TEST(Schedule, AsapRespectsDependencies) {
  OperatorLibrary l = lib();
  Cdfg g = chain_of_mas(5);
  Schedule s = schedule_asap(g, l);
  for (int id : g.live_nodes()) {
    const Node& n = g.node(id);
    for (int a : n.args) {
      int avail = s.start[(size_t)a] + l.attr(g.node(a).kind, g.node(a).style).latency;
      EXPECT_GE(s.start[(size_t)id], avail);
    }
  }
}

TEST(Schedule, AlapMatchesAsapOnPureChain) {
  // A single dependency chain has zero mobility on every *operation*
  // (shared inputs like the re-used addend have slack toward later uses).
  OperatorLibrary l = lib();
  Cdfg g = chain_of_mas(4);
  Schedule asap = schedule_asap(g, l);
  Schedule alap = schedule_alap(g, l, asap.length);
  for (int id : g.live_nodes()) {
    OpKind k = g.node(id).kind;
    if (k == OpKind::Input || k == OpKind::Const || k == OpKind::Output)
      continue;
    EXPECT_EQ(asap.start[(size_t)id], alap.start[(size_t)id]) << id;
  }
}

TEST(Schedule, CriticalPathDetection) {
  OperatorLibrary l = lib();
  // Two parallel paths of different depth into one add: only the deep path
  // is critical.
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int deep = g.add_op(OpKind::Mul, {a, b});
  deep = g.add_op(OpKind::Mul, {deep, b});
  int shallow = g.add_op(OpKind::Add, {a, b});
  int join = g.add_op(OpKind::Add, {shallow, deep});
  g.add_output("o", join);
  auto crit = critical_nodes(g, l);
  EXPECT_TRUE(crit[(size_t)deep]);
  EXPECT_TRUE(crit[(size_t)join]);
  EXPECT_FALSE(crit[(size_t)shallow]);
}

TEST(Schedule, ListUnlimitedMatchesAsap) {
  OperatorLibrary l = lib();
  Cdfg g = chain_of_mas(6);
  Schedule asap = schedule_asap(g, l);
  Schedule list = schedule_list(g, l, {});
  EXPECT_EQ(list.length, asap.length);
}

TEST(Schedule, ListResourceLimitSerializesIndependentOps) {
  OperatorLibrary l = lib();
  // 8 independent multiplies; a single multiplier issues one per cycle
  // (fully pipelined), so the last one starts at cycle 7.
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  std::vector<int> ms;
  for (int i = 0; i < 8; ++i) ms.push_back(g.add_op(OpKind::Mul, {a, b}));
  for (int i = 0; i < 8; ++i) {
    std::string name = "o";
    name += std::to_string(i);
    g.add_output(name, ms[(size_t)i]);
  }
  ResourceLimits lim;
  lim.mul = 1;
  Schedule s = schedule_list(g, l, lim);
  EXPECT_EQ(s.length, 7 + l.attr(OpKind::Mul).latency);
  // With two multipliers it halves.
  lim.mul = 2;
  Schedule s2 = schedule_list(g, l, lim);
  EXPECT_EQ(s2.length, 3 + l.attr(OpKind::Mul).latency);
}

TEST(Schedule, ListCountsEveryUseEdgeOfASquaredValue) {
  // t = a + b; y = t * t: the multiply waits on two edges from one
  // producer, so both must release it (ldlfactor squares values the same
  // way).  Counting the producer once left y blocked forever.
  OperatorLibrary l = lib();
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int t = g.add_op(OpKind::Add, {a, b});
  int y = g.add_op(OpKind::Mul, {t, t});
  g.add_output("y", y);
  ResourceLimits lim;
  lim.mul = 1;
  Schedule s = schedule_list(g, l, lim);
  EXPECT_EQ(s.start[(size_t)y], l.attr(OpKind::Add).latency);
  EXPECT_EQ(s.length, schedule_asap(g, l).length);
}

TEST(Schedule, ListNeverBeatsAsap) {
  OperatorLibrary l = lib();
  Cdfg g = chain_of_mas(4);
  for (int fma_limit : {1, 2, 4}) {
    ResourceLimits lim;
    lim.mul = fma_limit;
    lim.add_sub = fma_limit;
    Schedule s = schedule_list(g, l, lim);
    EXPECT_GE(s.length, schedule_asap(g, l).length);
  }
}

TEST(Schedule, BaselineLatenciesMatchPaperSetup) {
  // Sec. IV-A: "low latency" 5-cycle multiplier, 4-cycle adder.
  OperatorLibrary l = lib();
  EXPECT_EQ(l.attr(OpKind::Mul).latency, 5);
  EXPECT_EQ(l.attr(OpKind::Add).latency, 4);
  EXPECT_EQ(l.attr(OpKind::Fma, FmaStyle::Pcs).latency, 5);
  EXPECT_EQ(l.attr(OpKind::Fma, FmaStyle::Fcs).latency, 3);
}

TEST(Schedule, OperatorLibraryMatchesRecordedValues) {
  // Latency, LUTs and DSPs the fpga/ synthesis model hands the scheduler,
  // recorded from the fixed Table I builders on each device; Virtex-5 has
  // no pre-adders, so no FCS unit.
  struct Pin {
    Device dev;
    OpAttr mul, add, pcs, fcs;
  };
  for (const Pin& p : {Pin{virtex5(), {5, 686, 13}, {4, 707, 0},
                           {5, 5802, 21}, {0, 0, 0}},
                       Pin{virtex6(), {5, 686, 13}, {4, 707, 0},
                           {5, 5802, 21}, {3, 4765, 12}},
                       Pin{virtex7(), {4, 686, 13}, {4, 707, 0},
                           {5, 5802, 21}, {3, 4765, 12}}}) {
    const OperatorLibrary l = OperatorLibrary::for_device(p.dev, 200.0);
    const std::pair<OpAttr, OpAttr> got_want[] = {
        {l.attr(OpKind::Mul), p.mul},
        {l.attr(OpKind::Add), p.add},
        {l.attr(OpKind::Fma, FmaStyle::Pcs), p.pcs},
        {l.attr(OpKind::Fma, FmaStyle::Fcs), p.fcs}};
    for (const auto& [got, want] : got_want) {
      EXPECT_EQ(got.latency, want.latency) << p.dev.name;
      EXPECT_EQ(got.luts, want.luts) << p.dev.name;
      EXPECT_EQ(got.dsps, want.dsps) << p.dev.name;
    }
  }
}

TEST(Schedule, ReportSummarizesKindsAndSpans) {
  OperatorLibrary l = lib();
  Cdfg g = chain_of_mas(3);
  Schedule s = schedule_asap(g, l);
  std::string rep = schedule_report(g, l, s);
  EXPECT_NE(rep.find("mul: 3 ops"), std::string::npos) << rep;
  EXPECT_NE(rep.find("add: 3 ops"), std::string::npos) << rep;
  EXPECT_NE(rep.find("schedule: 27 cycles"), std::string::npos) << rep;
  EXPECT_NE(rep.find("peak issue width"), std::string::npos) << rep;
}

TEST(Schedule, HigherTargetNeverLengthensPipeline) {
  // Model property: relaxing the clock target can only reduce (or keep)
  // the architecture pipeline depths the oplib derives.
  OperatorLibrary fast = OperatorLibrary::for_device(virtex6(), 250.0);
  OperatorLibrary slow = OperatorLibrary::for_device(virtex6(), 100.0);
  for (OpKind k : {OpKind::Mul, OpKind::Add}) {
    EXPECT_GE(fast.attr(k).latency, slow.attr(k).latency);
  }
  EXPECT_GE(fast.attr(OpKind::Fma, FmaStyle::Pcs).latency,
            slow.attr(OpKind::Fma, FmaStyle::Pcs).latency);
}

}  // namespace
}  // namespace csfma
