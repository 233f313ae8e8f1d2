// The control-data-flow-graph IR of the Nymble-like HLS flow (Sec. III-I).
//
// Solver kernels are straight-line floating-point dataflow (the paper's
// Listing 1), so the IR is a pure dataflow graph over binary64 values with
// two extra value kinds for the custom formats: a CS-typed edge carries a
// PCS or FCS operand between fused units.  The FMA-insertion pass rewrites
//   add(x, mul(b, c))  -->  cvt_from_cs(fma(cvt_to_cs(x), b, cvt_to_cs(c)))
// and then elides back-to-back cvt pairs so chained FMAs stay in CS format.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace csfma {

enum class OpKind : std::uint8_t {
  Input,      // named external input
  Const,      // immediate double
  Output,     // named external output (single arg)
  Add,        // a + b
  Sub,        // a - b
  Mul,        // a * b
  Div,        // a / b
  Neg,        // -a (sign flip; free in hardware)
  Fma,        // a + b*c  (a, c in CS format; b IEEE)
  Dot,        // sum_i a_i*b_i, fused (2N IEEE args; CS result; PCS only)
  CvtToCs,    // IEEE -> PCS/FCS operand (chain entry)
  CvtFromCs,  // PCS/FCS operand -> IEEE (chain exit: assimilate+round)
};

const char* to_string(OpKind k);

/// Which carry-save FMA implementation a Fma/Cvt node uses.
enum class FmaStyle : std::uint8_t { None, Pcs, Fcs };

/// Value type carried by an edge.
enum class ValueType : std::uint8_t { Ieee, Cs };

struct Node {
  int id = -1;
  OpKind kind = OpKind::Const;
  std::vector<int> args;
  double const_value = 0.0;  // Const only
  std::string name;          // Input/Output only
  FmaStyle style = FmaStyle::None;
  bool dead = false;

  int arity() const { return (int)args.size(); }
};

class Cdfg {
 public:
  int add_input(const std::string& name);
  int add_const(double v);
  int add_output(const std::string& name, int value);
  int add_op(OpKind kind, std::vector<int> args, FmaStyle style = FmaStyle::None);

  const Node& node(int id) const {
    CSFMA_CHECK(id >= 0 && id < (int)nodes_.size());
    return nodes_[(size_t)id];
  }
  int num_nodes() const { return (int)nodes_.size(); }

  /// Live (non-dead) node ids in creation order.
  std::vector<int> live_nodes() const;
  /// Live node ids in a topological order (inputs/consts first): the DFS
  /// post-order over args from each live root in id order.  A graph whose
  /// args all precede their users (every parsed or rebuilt graph) comes
  /// out in id order from one scan.  Throws on a live node that reads a
  /// dead one, and on a cycle.
  std::vector<int> topo_order() const;

  /// Forward values: every arg `a` of a live node (Output args included)
  /// with `to[a] >= 0` becomes `to[a]`, following chains (to[to[a]] ...).
  /// Ids at or beyond to.size() stay.  One pass over the live nodes' args,
  /// so a pass records all of a round's replacements and forwards once.
  void forward(const std::vector<int>& to);
  void mark_dead(int id);
  /// Mark nodes unreachable from outputs dead.  Returns removed count.
  int prune_dead();

  /// Result type of a node.
  ValueType value_type(int id) const;
  /// Check arities, argument liveness and CS/IEEE typing. Throws on error.
  void validate() const;

  /// Count of live nodes of a kind.
  int count(OpKind kind) const;

  std::string to_string() const;

  /// Graphviz dot export (CS-typed edges drawn bold, like the paper's
  /// Fig 1/12 critical-path rendering).
  std::string to_dot(const std::string& graph_name = "cdfg") const;

 private:
  friend Cdfg rebuild_topo(Cdfg g);

  std::vector<Node> nodes_;
};

/// The use edges of a graph, indexed once in O(nodes + edges): a snapshot
/// the passes query instead of scanning every node per question.
///
/// users(id) lists the live nodes that read `id`, in ascending id, one
/// entry per use edge: a node reading `id` twice (y = t * t) is listed
/// twice, so the size is the fan-out the schedulers and fusion passes
/// count.  The list scheduler breaks priority ties by this order.
///
/// The index describes the graph as it was when built and is valid until
/// the next mutation (add_*, forward, mark_dead, prune_dead).  Looking up a
/// node appended after the snapshot throws.
class UseIndex {
 public:
  explicit UseIndex(const Cdfg& g);

  std::span<const int> users(int id) const& {
    CSFMA_CHECK_MSG(id >= 0 && (std::size_t)id + 1 < first_.size(),
                    "node " << id << " is not in the use index");
    return {users_.data() + first_[(std::size_t)id],
            users_.data() + first_[(std::size_t)id + 1]};
  }
  std::span<const int> users(int id) const&& = delete;  // would dangle

 private:
  std::vector<int> first_;  // users of id: users_[first_[id], first_[id + 1])
  std::vector<int> users_;
};

/// Rebuild a graph containing only live nodes, renumbered in topological
/// order (transform passes append nodes out of order; this restores the
/// args-precede-node invariant validate() checks).  The live nodes are
/// moved, not copied: passes call it as `g = rebuild_topo(std::move(g))`.
Cdfg rebuild_topo(Cdfg g);

}  // namespace csfma
