#include "hls/schedule.hpp"

#include <algorithm>
#include <climits>
#include <map>
#include <queue>
#include <sstream>

namespace csfma {

TopoTiming topo_timing(const Cdfg& g, const OperatorLibrary& lib) {
  TopoTiming t;
  t.order = g.topo_order();
  t.latency.assign((size_t)g.num_nodes(), 0);
  for (int id : t.order) {
    const Node& n = g.node(id);
    t.latency[(size_t)id] = n.kind == OpKind::Dot
                                ? lib.dot_attr(n.arity() / 2).latency
                                : lib.attr(n.kind, n.style).latency;
  }
  return t;
}

Schedule schedule_asap(const Cdfg& g, const OperatorLibrary& lib) {
  return schedule_asap(g, topo_timing(g, lib));
}

Schedule schedule_asap(const Cdfg& g, const TopoTiming& t) {
  Schedule s;
  s.start.assign((size_t)g.num_nodes(), -1);
  for (int id : t.order) {
    int start = 0;
    for (int a : g.node(id).args)
      start = std::max(start, s.start[(size_t)a] + t.latency[(size_t)a]);
    s.start[(size_t)id] = start;
    s.length = std::max(s.length, start + t.latency[(size_t)id]);
  }
  return s;
}

Schedule schedule_alap(const Cdfg& g, const OperatorLibrary& lib,
                       int target_length) {
  return schedule_alap(g, topo_timing(g, lib), target_length);
}

Schedule schedule_alap(const Cdfg& g, const TopoTiming& t, int target_length) {
  Schedule s;
  s.start.assign((size_t)g.num_nodes(), -1);
  s.length = target_length;
  // Latest finish defaults to target_length; walk in reverse.
  std::vector<int> latest_finish((size_t)g.num_nodes(),
                                 std::numeric_limits<int>::max());
  for (auto it = t.order.rbegin(); it != t.order.rend(); ++it) {
    int id = *it;
    int lf = latest_finish[(size_t)id];
    if (lf == std::numeric_limits<int>::max()) lf = target_length;
    int start = lf - t.latency[(size_t)id];
    s.start[(size_t)id] = start;
    for (int a : g.node(id).args) {
      latest_finish[(size_t)a] = std::min(latest_finish[(size_t)a], start);
    }
  }
  return s;
}

std::vector<bool> critical_nodes(const Cdfg& g, const OperatorLibrary& lib) {
  const TopoTiming t = topo_timing(g, lib);
  return critical_nodes(g, t, schedule_asap(g, t));
}

std::vector<bool> critical_nodes(const Cdfg& g, const TopoTiming& t,
                                 const Schedule& asap) {
  const Schedule alap = schedule_alap(g, t, asap.length);
  std::vector<bool> crit((size_t)g.num_nodes(), false);
  for (int id : t.order) {
    crit[(size_t)id] = asap.start[(size_t)id] == alap.start[(size_t)id];
  }
  return crit;
}

Schedule schedule_list(const Cdfg& g, const OperatorLibrary& lib,
                       const ResourceLimits& limits) {
  // Priority: longest latency path from node to any sink (computed on the
  // reversed graph).
  const TopoTiming t = topo_timing(g, lib);
  const UseIndex uses(g);
  std::vector<int> path((size_t)g.num_nodes(), 0);
  for (auto it = t.order.rbegin(); it != t.order.rend(); ++it) {
    int id = *it;
    int best = 0;
    for (int u : uses.users(id)) best = std::max(best, path[(size_t)u]);
    path[(size_t)id] = best + t.latency[(size_t)id];
  }

  auto limit_of = [&limits](OpKind k) {
    switch (k) {
      case OpKind::Mul: return limits.mul;
      case OpKind::Add:
      case OpKind::Sub: return limits.add_sub;
      case OpKind::Div: return limits.div;
      case OpKind::Fma: return limits.fma;
      default: return 0;  // conversions/moves unconstrained
    }
  };
  auto pool_of = [](OpKind k) {
    switch (k) {
      case OpKind::Mul: return 0;
      case OpKind::Add:
      case OpKind::Sub: return 1;
      case OpKind::Div: return 2;
      case OpKind::Fma: return 3;
      default: return 4;
    }
  };

  Schedule s;
  s.start.assign((size_t)g.num_nodes(), -1);
  std::vector<int> remaining_deps((size_t)g.num_nodes(), 0);
  std::vector<int> avail((size_t)g.num_nodes(), 0);  // max producer finish
  std::vector<std::vector<int>> ready_at;  // per cycle, node ids becoming ready
  auto ensure_cycle = [&ready_at](size_t c) {
    if (ready_at.size() <= c) ready_at.resize(c + 1);
  };

  // Ready list keyed by priority.
  auto cmp = [&path](int a, int b) { return path[(size_t)a] < path[(size_t)b]; };
  std::priority_queue<int, std::vector<int>, decltype(cmp)> ready(cmp);

  int live_count = 0;
  for (int id : t.order) {
    remaining_deps[(size_t)id] = g.node(id).arity();
    ++live_count;
    if (remaining_deps[(size_t)id] == 0) ready.push(id);
  }

  int scheduled = 0;
  std::map<int, int> issued_this_cycle;  // pool -> count
  int cycle = 0;
  std::vector<int> deferred;
  while (scheduled < live_count) {
    issued_this_cycle.clear();
    ensure_cycle((size_t)cycle);
    for (int id : ready_at[(size_t)cycle]) ready.push(id);
    deferred.clear();
    while (!ready.empty()) {
      int id = ready.top();
      ready.pop();
      const Node& n = g.node(id);
      const int lim = limit_of(n.kind);
      const int pool = pool_of(n.kind);
      if (lim > 0 && issued_this_cycle[pool] >= lim) {
        deferred.push_back(id);
        continue;
      }
      ++issued_this_cycle[pool];
      s.start[(size_t)id] = cycle;
      ++scheduled;
      const int done = cycle + t.latency[(size_t)id];
      s.length = std::max(s.length, done);
      for (int u : uses.users(id)) {
        avail[(size_t)u] = std::max(avail[(size_t)u], done);
        if (--remaining_deps[(size_t)u] == 0) {
          // Ready when the LAST-finishing producer delivers, which is not
          // necessarily the producer whose decrement reached zero.
          const int at = avail[(size_t)u];
          if (at == cycle) {
            ready.push(u);  // zero-latency producers chain in-cycle
          } else {
            ensure_cycle((size_t)at);
            ready_at[(size_t)at].push_back(u);
          }
        }
      }
    }
    for (int id : deferred) {
      ensure_cycle((size_t)cycle + 1);
      ready_at[(size_t)cycle + 1].push_back(id);
    }
    ++cycle;
    // Nothing ready, deferred or due in a later cycle, yet nodes remain:
    // they wait on producers that never issue.
    CSFMA_CHECK_MSG(scheduled == live_count || ready_at.size() > (size_t)cycle,
                    "list scheduler runaway: " << live_count - scheduled
                                               << " live nodes never become ready");
  }
  return s;
}

std::string schedule_report(const Cdfg& g, const OperatorLibrary& lib,
                            const Schedule& s) {
  struct KindStat {
    int count = 0;
    int first = INT_MAX, last = -1;
  };
  std::map<std::string, KindStat> kinds;
  std::map<int, int> issues_per_cycle;
  for (int id : g.live_nodes()) {
    const Node& n = g.node(id);
    if (n.kind == OpKind::Input || n.kind == OpKind::Const ||
        n.kind == OpKind::Output)
      continue;
    KindStat& k = kinds[to_string(n.kind)];
    const int t = s.start[(size_t)id];
    ++k.count;
    k.first = std::min(k.first, t);
    k.last = std::max(k.last, t);
    ++issues_per_cycle[t];
  }
  std::ostringstream os;
  os << "schedule: " << s.length << " cycles\n";
  for (const auto& [name, k] : kinds) {
    os << "  " << name << ": " << k.count << " ops, issued in cycles ["
       << k.first << ", " << k.last << "]\n";
  }
  int peak = 0;
  for (const auto& [cycle, n] : issues_per_cycle) peak = std::max(peak, n);
  os << "  peak issue width: " << peak << " ops/cycle\n";
  (void)lib;
  return os.str();
}

void record_schedule_metrics(const Cdfg& g, const OperatorLibrary& lib,
                             const Schedule& s, MetricsRegistry& m,
                             const std::string& prefix) {
  std::map<int, std::uint64_t> issues_per_cycle;
  for (int id : g.live_nodes()) {
    const Node& n = g.node(id);
    if (n.kind == OpKind::Input || n.kind == OpKind::Const ||
        n.kind == OpKind::Output)
      continue;
    m.counter(prefix + ".ops." + to_string(n.kind)).add(1);
    m.counter(prefix + ".ops").add(1);
    ++issues_per_cycle[s.start[(size_t)id]];
  }
  Histogram& widths =
      m.histogram(prefix + ".issue_width", {1, 2, 4, 8, 16, 32, 64});
  std::uint64_t peak = 0;
  for (const auto& [cycle, n] : issues_per_cycle) {
    widths.observe((double)n);
    peak = std::max(peak, n);
  }
  m.gauge(prefix + ".length").set((double)s.length);
  m.gauge(prefix + ".peak_issue_width").set((double)peak);
  (void)lib;
}

}  // namespace csfma
