#include "hls/reassociate.hpp"

#include <utility>
#include <vector>

namespace csfma {

namespace {

struct Term {
  int value;
  bool negated;
};

/// Collect the additive terms of the maximal tree rooted at `id` (internal
/// nodes single-use below the root).
void collect(const Cdfg& g, const UseIndex& uses, int id, bool negated,
             bool is_root, std::vector<Term>* terms,
             std::vector<int>* internal) {
  const Node& n = g.node(id);
  const bool is_sum = n.kind == OpKind::Add || n.kind == OpKind::Sub;
  if (is_sum && (is_root || uses.users(id).size() == 1)) {
    internal->push_back(id);
    collect(g, uses, n.args[0], negated, false, terms, internal);
    collect(g, uses, n.args[1], n.kind == OpKind::Sub ? !negated : negated,
            false, terms, internal);
    return;
  }
  terms->push_back({id, negated});
}

/// Combine two signed terms into one node; the pair's sign rides along.
Term combine(Cdfg& g, const Term& a, const Term& b) {
  if (a.negated == b.negated) {
    return {g.add_op(OpKind::Add, {a.value, b.value}), a.negated};
  }
  if (!a.negated) return {g.add_op(OpKind::Sub, {a.value, b.value}), false};
  return {g.add_op(OpKind::Sub, {b.value, a.value}), false};
}

}  // namespace

ReassociateStats reassociate_sums(Cdfg& g, const OperatorLibrary& lib,
                                  int min_terms) {
  (void)lib;
  ReassociateStats stats;
  // Snapshot the roots first: the rewrite appends nodes.  Each rewrite
  // also rebuilds the use index, so every tree is read off the live graph.
  UseIndex uses(g);
  std::vector<int> roots;
  for (int id : g.topo_order()) {
    const Node& n = g.node(id);
    if (n.kind != OpKind::Add && n.kind != OpKind::Sub) continue;
    const auto users = uses.users(id);
    if (users.size() == 1) {
      OpKind uk = g.node(users[0]).kind;
      if (uk == OpKind::Add || uk == OpKind::Sub) continue;  // not maximal
    }
    roots.push_back(id);
  }
  for (int root : roots) {
    if (g.node(root).dead) continue;
    std::vector<Term> terms;
    std::vector<int> internal;
    collect(g, uses, root, false, true, &terms, &internal);
    if ((int)terms.size() < min_terms) continue;
    // Balanced reduction: pairwise rounds.
    std::vector<Term> level = terms;
    while (level.size() > 1) {
      std::vector<Term> next;
      for (size_t i = 0; i + 1 < level.size(); i += 2)
        next.push_back(combine(g, level[i], level[i + 1]));
      if (level.size() % 2 == 1) next.push_back(level.back());
      level.swap(next);
    }
    int result = level[0].value;
    if (level[0].negated) result = g.add_op(OpKind::Neg, {result});
    std::vector<int> forwarded((size_t)g.num_nodes(), -1);
    forwarded[(size_t)root] = result;
    g.forward(forwarded);
    for (int t : internal) g.mark_dead(t);
    uses = UseIndex(g);
    ++stats.trees_rebalanced;
    stats.terms += (int)terms.size();
  }
  if (stats.trees_rebalanced > 0) {
    g.prune_dead();
    g = rebuild_topo(std::move(g));
    g.validate();
  }
  return stats;
}

}  // namespace csfma
