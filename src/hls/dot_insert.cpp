#include "hls/dot_insert.hpp"

#include <utility>
#include <vector>

#include "hls/schedule.hpp"

namespace csfma {

namespace {

struct Term {
  int value;     // leaf node id
  bool negated;  // sign of the term in the sum
};

/// Collect the additive terms of the maximal add/sub tree rooted at `id`.
/// Internal nodes must be single-use adds/subs; returns false if the tree
/// grows beyond `max_terms` leaves.
bool collect_terms(const Cdfg& g, const UseIndex& uses, int id, bool negated,
                   bool is_root, int max_terms, std::vector<Term>* terms,
                   std::vector<int>* internal) {
  const Node& n = g.node(id);
  const bool is_sum = n.kind == OpKind::Add || n.kind == OpKind::Sub;
  if (is_sum && (is_root || uses.users(id).size() == 1)) {
    internal->push_back(id);
    if (!collect_terms(g, uses, n.args[0], negated, false, max_terms, terms,
                       internal))
      return false;
    const bool rhs_neg = n.kind == OpKind::Sub ? !negated : negated;
    return collect_terms(g, uses, n.args[1], rhs_neg, false, max_terms, terms,
                         internal);
  }
  if ((int)terms->size() >= max_terms) return false;
  terms->push_back({id, negated});
  return true;
}

}  // namespace

DotInsertStats insert_dot_products(Cdfg& g, const OperatorLibrary& lib,
                                   int max_terms) {
  DotInsertStats stats;
  for (;;) {
    ++stats.rounds;
    std::vector<bool> crit = critical_nodes(g, lib);
    // Every use count below reads this snapshot, taken before the rewrite:
    // a product read both by a fused leaf and as a leaf of its own must not
    // look single-use once that leaf is marked dead.
    const UseIndex uses(g);
    // A leaf is fused when it is a product with no other user.
    auto fusable = [&](int leaf) {
      return g.node(leaf).kind == OpKind::Mul && uses.users(leaf).size() == 1;
    };
    bool changed = false;
    for (int id : g.topo_order()) {
      const Node& n = g.node(id);
      if (n.dead || (n.kind != OpKind::Add && n.kind != OpKind::Sub)) continue;
      if (!crit[(size_t)id]) continue;
      // Only maximal trees: the root must not itself feed another
      // single-use add/sub (that bigger tree will be found instead).
      const auto users = uses.users(id);
      if (users.size() == 1) {
        OpKind uk = g.node(users[0]).kind;
        if (uk == OpKind::Add || uk == OpKind::Sub) continue;
      }
      std::vector<Term> terms;
      std::vector<int> internal;
      if (!collect_terms(g, uses, id, false, true, max_terms, &terms,
                         &internal))
        continue;
      int product_leaves = 0;
      for (const Term& t : terms)
        if (fusable(t.value)) ++product_leaves;
      if (product_leaves < 2) continue;

      // Build the pair list.
      std::vector<int> args;
      const int one = g.add_const(1.0);
      const int minus_one = g.add_const(-1.0);
      for (const Term& t : terms) {
        if (fusable(t.value)) {
          const Node& leaf = g.node(t.value);
          int x = leaf.args[0], y = leaf.args[1];
          if (t.negated) x = g.add_op(OpKind::Neg, {x});
          args.push_back(x);
          args.push_back(y);
          g.mark_dead(t.value);
        } else {
          args.push_back(t.negated ? minus_one : one);
          args.push_back(t.value);
        }
      }
      const int dot = g.add_op(OpKind::Dot, std::move(args), FmaStyle::Pcs);
      const int back = g.add_op(OpKind::CvtFromCs, {dot}, FmaStyle::Pcs);
      std::vector<int> forwarded((size_t)g.num_nodes(), -1);
      forwarded[(size_t)id] = back;
      g.forward(forwarded);
      for (int t : internal) g.mark_dead(t);
      stats.dots_inserted += 1;
      stats.terms_fused += (int)terms.size();
      changed = true;
      break;  // the graph changed: recompute criticality
    }
    if (!changed) break;
    g.prune_dead();
    g = rebuild_topo(std::move(g));
    g.validate();
    CSFMA_CHECK_MSG(stats.rounds < 100000, "dot insertion did not converge");
  }
  return stats;
}

}  // namespace csfma
