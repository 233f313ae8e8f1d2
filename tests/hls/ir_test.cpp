#include "hls/ir.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

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

std::vector<int> users_of(const Cdfg& g, int id) {
  const UseIndex index(g);
  const auto u = index.users(id);
  return {u.begin(), u.end()};
}

/// Forward the uses of `from` to `to`, as the passes do.
void forward_one(Cdfg& g, int from, int to) {
  std::vector<int> table((size_t)g.num_nodes(), -1);
  table[(size_t)from] = to;
  g.forward(table);
}

TEST(Ir, UsersAndReplace) {
  Cdfg g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int s = g.add_op(OpKind::Add, {a, b});
  int t = g.add_op(OpKind::Mul, {s, s});
  g.add_output("o", t);
  EXPECT_EQ(users_of(g, s), (std::vector<int>{t, t}));  // one per use edge
  EXPECT_EQ(users_of(g, a).size(), 1u);
  const UseIndex before(g);
  int s2 = g.add_op(OpKind::Sub, {a, b});
  EXPECT_THROW(before.users(s2), CheckError);  // appended after the snapshot
  forward_one(g, s, s2);
  EXPECT_TRUE(users_of(g, s).empty());
  EXPECT_EQ(users_of(g, s2), (std::vector<int>{t, t}));
}

/// users() by brute force: every live node's args, in ascending node id.
std::vector<int> scan_users(const Cdfg& g, int id) {
  std::vector<int> out;
  for (int n = 0; n < g.num_nodes(); ++n) {
    if (g.node(n).dead) continue;
    for (int a : g.node(n).args)
      if (a == id) out.push_back(n);
  }
  return out;
}

/// Append one random op.  Args are drawn from few nodes, so repeated
/// operands (t * t) are common.
void add_random_op(Cdfg& g, Rng& rng) {
  static constexpr OpKind kKinds[] = {OpKind::Add, OpKind::Sub, OpKind::Mul,
                                      OpKind::Neg, OpKind::Dot};
  const OpKind k = kKinds[rng.next_below(5)];
  const int arity = k == OpKind::Neg ? 1
                    : k == OpKind::Dot ? 2 * (int)rng.next_int(1, 3)
                                       : 2;
  std::vector<int> args;
  for (int i = 0; i < arity; ++i)
    args.push_back(rng.next_bool() && !args.empty()
                       ? args.back()
                       : (int)rng.next_below((std::uint64_t)g.num_nodes()));
  g.add_op(k, std::move(args),
           k == OpKind::Dot ? FmaStyle::Pcs : FmaStyle::None);
}

/// A random graph in creation order: 1-3 inputs, 1-30 ops, 3 outputs.
Cdfg random_graph(Rng& rng) {
  Cdfg g;
  const int inputs = (int)rng.next_int(1, 4);
  // Names are appended, not built with "in" + std::to_string(i): g++ 12
  // at -O3 reports a false -Wrestrict on that.
  for (int i = 0; i < inputs; ++i)
    g.add_input(std::string("in").append(std::to_string(i)));
  const int ops = (int)rng.next_int(1, 30);
  for (int i = 0; i < ops; ++i) add_random_op(g, rng);
  for (int i = 0; i < 3; ++i)
    g.add_output(std::string("o").append(std::to_string(i)),
                 (int)rng.next_below((std::uint64_t)g.num_nodes()));
  return g;
}

/// One random step of a mutator the passes use: append an op, forward a
/// few values to later ids (chains included; this may close a cycle),
/// mark a node dead (its readers may stay live) or prune.
void random_step(Cdfg& g, Rng& rng) {
  auto any_node = [&] {
    return (int)rng.next_below((std::uint64_t)g.num_nodes());
  };
  switch (rng.next_below(4)) {
    case 0:
      add_random_op(g, rng);
      break;
    case 1: {
      std::vector<int> to((size_t)g.num_nodes(), -1);
      for (int i = 0; i < 3; ++i) {
        const int from = any_node();
        if (from + 1 < g.num_nodes())
          to[(size_t)from] = (int)rng.next_int(from + 1, g.num_nodes() - 1);
      }
      g.forward(to);
      break;
    }
    case 2:
      g.mark_dead(any_node());
      break;
    default:
      g.prune_dead();
      break;
  }
}

TEST(Ir, UseIndexMatchesAScanOfTheLiveGraph) {
  // Random graphs with repeated operands, then random steps of the
  // mutators the passes use.  After every step a fresh index must list
  // exactly what a scan of the live graph finds, in order and with one
  // entry per use edge.
  Rng rng(27);
  for (int trial = 0; trial < 40; ++trial) {
    Cdfg g = random_graph(rng);
    for (int step = 0; step < 12; ++step) {
      random_step(g, rng);
      const UseIndex index(g);
      for (int id = 0; id < g.num_nodes(); ++id) {
        const auto u = index.users(id);
        ASSERT_EQ(std::vector<int>(u.begin(), u.end()), scan_users(g, id))
            << "trial " << trial << " step " << step << " node " << id;
      }
    }
  }
}

/// The reference order: a recursive DFS post-order from each live root in
/// id order.  A node's args are all checked (each for being dead, then
/// for closing a cycle) before any is visited, and they are visited last
/// arg first.
/// Returns the error the order must throw, or "" with `order` filled.
std::string reference_dfs(const Cdfg& g, int id, std::vector<int>& state,
                          std::vector<int>& order) {
  state[(size_t)id] = 1;
  const std::vector<int>& args = g.node(id).args;
  for (int a : args) {
    if (g.node(a).dead) return "live node references a dead node";
    if (state[(size_t)a] == 1) return "cycle in CDFG";
  }
  for (auto it = args.rbegin(); it != args.rend(); ++it) {
    if (state[(size_t)*it] != 0) continue;
    std::string err = reference_dfs(g, *it, state, order);
    if (!err.empty()) return err;
  }
  state[(size_t)id] = 2;
  order.push_back(id);
  return "";
}

std::string reference_topo_order(const Cdfg& g, std::vector<int>& order) {
  std::vector<int> state((size_t)g.num_nodes(), 0);
  for (int id = 0; id < g.num_nodes(); ++id) {
    if (g.node(id).dead || state[(size_t)id] != 0) continue;
    std::string err = reference_dfs(g, id, state, order);
    if (!err.empty()) return err;
  }
  return "";
}

/// The reference rebuild: re-add every node through the public builders
/// in topological order.
Cdfg reference_rebuild(const Cdfg& g, const std::vector<int>& order) {
  Cdfg out;
  std::vector<int> remap((size_t)g.num_nodes(), -1);
  for (int id : order) {
    const Node& n = g.node(id);
    std::vector<int> args;
    for (int a : n.args) args.push_back(remap[(size_t)a]);
    switch (n.kind) {
      case OpKind::Input: remap[(size_t)id] = out.add_input(n.name); break;
      case OpKind::Const: remap[(size_t)id] = out.add_const(n.const_value); break;
      case OpKind::Output:
        remap[(size_t)id] = out.add_output(n.name, args[0]);
        break;
      default:
        remap[(size_t)id] = out.add_op(n.kind, std::move(args), n.style);
        break;
    }
  }
  return out;
}

/// The message of the CheckError `f` throws, or "" when it returns.
template <typename F>
std::string thrown_by(F&& f) {
  try {
    f();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(Ir, TopoOrderAndRebuildMatchTheReferenceDfs) {
  // After every random mutator step, topo_order() is the reference DFS
  // order, rebuild_topo() equals a rebuild through the public builders,
  // and a graph holding a dead reference or a cycle throws that error
  // from both.
  Rng rng(29);
  int dead_refs = 0, cycles = 0, rebuilt = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Cdfg g = random_graph(rng);
    const int k = g.add_const(0.5 * (double)trial);
    g.add_op(OpKind::Mul, {k, (int)rng.next_below((std::uint64_t)k)});
    for (int step = 0; step < 12; ++step) {
      random_step(g, rng);
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " step " << step
                                        << "\n" << g.to_string());
      std::vector<int> want;
      const std::string err = reference_topo_order(g, want);
      if (!err.empty()) {
        EXPECT_NE(thrown_by([&] { g.topo_order(); }).find(err),
                  std::string::npos);
        EXPECT_NE(thrown_by([&] { rebuild_topo(g); }).find(err),
                  std::string::npos);
        ++(err == "cycle in CDFG" ? cycles : dead_refs);
        continue;
      }
      ASSERT_EQ(g.topo_order(), want);
      const Cdfg r = rebuild_topo(g);
      ASSERT_EQ(r.to_string(), reference_rebuild(g, want).to_string());
      std::vector<int> ids((size_t)r.num_nodes());
      for (int i = 0; i < r.num_nodes(); ++i) ids[(size_t)i] = i;
      EXPECT_EQ(r.topo_order(), ids);  // rebuilt graphs are in id order
      ++rebuilt;
    }
  }
  // The draw reaches all three outcomes.
  EXPECT_GT(dead_refs, 0);
  EXPECT_GT(cycles, 0);
  EXPECT_GT(rebuilt, 0);
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
  forward_one(g, 1, extra);  // b's uses now point at a later id
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
