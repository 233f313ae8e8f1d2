#include "hls/fma_insert.hpp"

#include <utility>

#include "hls/schedule.hpp"

namespace csfma {

namespace {

struct Candidate {
  int add_id;   // the Add/Sub node
  int mul_id;   // its single-use Mul argument
  int x_id;     // the other addend (becomes the A input)
  int b_id;     // IEEE-side multiplier operand (stays in standard format)
  int c_id;     // time-critical multiplier operand (becomes the CS C input)
  bool negate_b;  // sub(x, mul): flip the IEEE-side multiplier operand
  bool negate_x;  // sub(mul, x): flip the addend
};

/// Find all critical multiply/add(or sub) pairs (Fig 12a -> 12b).
std::vector<Candidate> find_candidates(const Cdfg& g,
                                       const OperatorLibrary& lib) {
  // One order and one latency per node serve ASAP, ALAP, the critical
  // mask and the scan below.
  const TopoTiming t = topo_timing(g, lib);
  const Schedule asap = schedule_asap(g, t);
  const std::vector<bool> crit = critical_nodes(g, t, asap);
  std::vector<int> uses((size_t)g.num_nodes(), 0);  // live use edges per node
  for (int id : t.order)
    for (int a : g.node(id).args) ++uses[(size_t)a];
  auto finish = [&](int id) {
    return asap.start[(size_t)id] + t.latency[(size_t)id];
  };
  std::vector<Candidate> out;
  std::vector<bool> mul_taken((size_t)g.num_nodes(), false);
  for (int id : t.order) {
    const Node& n = g.node(id);
    if (n.kind != OpKind::Add && n.kind != OpKind::Sub) continue;
    if (!crit[(size_t)id]) continue;
    // Prefer the second operand as the fused multiply; fall back to the
    // first (mul on either side of the add).  The multiply itself may have
    // slack (in-row products precompute early); fusing is driven by the
    // criticality of the ADD, which is what sits on the chain.
    for (int which : {1, 0}) {
      const int m = n.args[(size_t)which];
      const Node& mn = g.node(m);
      if (mn.kind != OpKind::Mul) continue;
      if (mul_taken[(size_t)m]) continue;
      if (uses[(size_t)m] != 1) continue;  // product needed elsewhere
      Candidate c;
      c.add_id = id;
      c.mul_id = m;
      c.x_id = n.args[(size_t)(1 - which)];
      // The later-arriving multiplier operand becomes the time-critical C
      // input (the one the paper keeps in carry-save format, Sec. III-B);
      // the earlier one stays IEEE as B.  Ties keep source order.
      if (finish(mn.args[0]) > finish(mn.args[1])) {
        c.c_id = mn.args[0];
        c.b_id = mn.args[1];
      } else {
        c.b_id = mn.args[0];
        c.c_id = mn.args[1];
      }
      c.negate_b = false;
      c.negate_x = false;
      if (n.kind == OpKind::Sub) {
        if (which == 1) {
          c.negate_b = true;  // x - b*c == x + (-b)*c
        } else {
          c.negate_x = true;  // b*c - x == (-x) + b*c
        }
      }
      mul_taken[(size_t)m] = true;
      out.push_back(c);
      break;
    }
  }
  return out;
}

/// Fuse one candidate, recording forwarded[add] = the value replacing it.
/// The round forwards the recorded uses once, after its last candidate.
void apply_candidate(Cdfg& g, const Candidate& c, FmaStyle style,
                     std::vector<int>& forwarded) {
  // Any captured operand may itself have been fused by an earlier candidate
  // of this round; chase the forwarding chain to the live replacement.
  auto resolve = [&forwarded](int id) {
    while ((size_t)id < forwarded.size() && forwarded[(size_t)id] >= 0)
      id = forwarded[(size_t)id];
    return id;
  };
  int b = resolve(c.b_id);
  int cc = resolve(c.c_id);
  if (c.negate_b) b = g.add_op(OpKind::Neg, {b});
  int x = resolve(c.x_id);
  if (c.negate_x) x = g.add_op(OpKind::Neg, {x});
  const int cvt_a = g.add_op(OpKind::CvtToCs, {x}, style);
  const int cvt_c = g.add_op(OpKind::CvtToCs, {cc}, style);
  const int fma = g.add_op(OpKind::Fma, {cvt_a, b, cvt_c}, style);
  const int back = g.add_op(OpKind::CvtFromCs, {fma}, style);
  g.mark_dead(c.add_id);
  g.mark_dead(c.mul_id);
  forwarded[(size_t)c.add_id] = back;
}

/// Fig 12c: CvtToCs(CvtFromCs(v)) of matching style -> v.  The CvtFromCs
/// may be left unused; the round prunes it.  Each pair is decided from
/// node kinds and styles alone and forwarded once at the end, so the
/// nodes are visited in id order.
int elide_conversions(Cdfg& g) {
  int elided = 0;
  std::vector<int> forwarded((size_t)g.num_nodes(), -1);
  for (int id = 0; id < g.num_nodes(); ++id) {
    const Node& n = g.node(id);
    if (n.dead || n.kind != OpKind::CvtToCs) continue;
    const Node& a = g.node(n.args[0]);
    if (a.kind != OpKind::CvtFromCs || a.style != n.style) continue;
    forwarded[(size_t)id] = a.args[0];
    g.mark_dead(id);
    ++elided;
  }
  g.forward(forwarded);
  return elided;
}

}  // namespace

FmaInsertStats insert_fma_units(Cdfg& g, const OperatorLibrary& lib,
                                FmaStyle style, bool elide) {
  CSFMA_CHECK(style != FmaStyle::None);
  FmaInsertStats stats;
  for (;;) {
    ++stats.rounds;
    auto cands = find_candidates(g, lib);
    if (cands.empty()) break;
    std::vector<int> forwarded((size_t)g.num_nodes(), -1);
    for (const auto& c : cands) apply_candidate(g, c, style, forwarded);
    g.forward(forwarded);
    stats.fma_inserted += (int)cands.size();
    if (elide) stats.conversions_elided += elide_conversions(g);
    g.prune_dead();
    g = rebuild_topo(std::move(g));
    g.validate();
    CSFMA_CHECK_MSG(stats.rounds < 1000, "insertion did not converge");
  }
  return stats;
}

}  // namespace csfma
