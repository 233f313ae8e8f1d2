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

  const Node& node(int id) const;
  Node& node(int id);
  int num_nodes() const { return (int)nodes_.size(); }

  /// Live (non-dead) node ids in creation order.
  std::vector<int> live_nodes() const;
  /// Live node ids in a topological order (inputs/consts first).
  std::vector<int> topo_order() const;
  /// ids of nodes that use `id` as an argument, one entry per use edge: a
  /// node reading `id` twice (y = t * t) is listed twice, so the size is
  /// the fan-out the schedulers and fusion passes count.
  std::vector<int> users(int id) const;

  /// Replace every use of `old_id` with `new_id` (Output args included).
  void replace_uses(int old_id, int new_id);
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
  std::vector<Node> nodes_;
};

/// Rebuild a graph containing only live nodes, renumbered in topological
/// order (transform passes append nodes out of order; this restores the
/// args-precede-node invariant validate() checks).
Cdfg rebuild_topo(const Cdfg& g);

}  // namespace csfma
