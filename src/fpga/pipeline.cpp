#include "fpga/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "introspect/signal_tap.hpp"

namespace csfma {

Component Component::atomic(std::string name, double delay_ns, Area area) {
  Component c;
  c.name = std::move(name);
  c.sub_delays = {delay_ns};
  c.area = area;
  return c;
}

Component Component::layered(std::string name, int levels, double per_level_ns,
                             Area area) {
  CSFMA_CHECK(levels >= 0);
  Component c;
  c.name = std::move(name);
  c.sub_delays.assign((size_t)levels, per_level_ns);
  c.area = area;
  return c;
}

Component Component::parallel(std::string name, Area area) {
  Component c;
  c.name = std::move(name);
  c.area = area;
  c.off_critical_path = true;
  return c;
}

double Component::total_delay() const {
  double t = 0;
  for (double d : sub_delays) t += d;
  return t;
}

namespace {

/// Greedy packing of sub-delays into stages of at most `budget` logic each.
/// `ends` (optional) receives, per stage, one past the index of its last
/// sub-delay.
std::vector<double> greedy_stages(const std::vector<double>& subs,
                                  double budget,
                                  std::vector<std::size_t>* ends = nullptr) {
  std::vector<double> stages;
  double cur = 0;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    const double d = subs[i];
    if (cur > 0 && cur + d > budget) {
      stages.push_back(cur);
      if (ends != nullptr) ends->push_back(i);
      cur = 0;
    }
    cur += d;  // an oversized sub-delay occupies a stage alone
  }
  stages.push_back(cur);
  if (ends != nullptr) ends->push_back(subs.size());
  return stages;
}

}  // namespace

PipelineResult pipeline_chain(const std::vector<Component>& chain,
                              double target_period_ns, double reg_overhead_ns) {
  return pipeline_chain(chain, target_period_ns, reg_overhead_ns, nullptr);
}

PipelineResult pipeline_chain(const std::vector<Component>& chain,
                              double target_period_ns, double reg_overhead_ns,
                              SignalTap* tap) {
  CSFMA_CHECK(target_period_ns > reg_overhead_ns);
  std::vector<double> subs;
  std::vector<const std::string*> sub_owner;
  for (const auto& c : chain) {
    if (c.off_critical_path) continue;
    subs.insert(subs.end(), c.sub_delays.begin(), c.sub_delays.end());
    sub_owner.insert(sub_owner.end(), c.sub_delays.size(), &c.name);
  }
  PipelineResult r;
  if (subs.empty()) {
    r.cycles = 1;
    r.max_stage_ns = reg_overhead_ns;
    r.fmax_mhz = 1000.0 / r.max_stage_ns;
    r.stage_delays = {reg_overhead_ns};
    return r;
  }
  // Phase 1 — depth selection: the fewest stages that meet the target
  // clock (the paper picks the lowest-latency configuration achieving the
  // target, Sec. IV-A).
  const double budget = target_period_ns - reg_overhead_ns;
  const size_t stages_needed = greedy_stages(subs, budget).size();
  // Phase 2 — register balancing (the paper re-balances FloPoCo's pipeline
  // the same way): binary-search the smallest logic budget that still fits
  // in `stages_needed` stages.
  double lo = *std::max_element(subs.begin(), subs.end());
  double hi = budget;
  for (int it = 0; it < 48 && hi - lo > 1e-9; ++it) {
    double mid = 0.5 * (lo + hi);
    if (greedy_stages(subs, mid).size() <= stages_needed) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  std::vector<std::size_t> ends;
  std::vector<double> stages = greedy_stages(subs, hi, &ends);
  // Greedy at the balanced budget may use fewer stages than selected; the
  // extra registers only help fmax, so keep the selected depth.
  r.stage_delays.clear();
  for (double s : stages) r.stage_delays.push_back(s + reg_overhead_ns);
  while (r.stage_delays.size() < stages_needed) {
    r.stage_delays.push_back(reg_overhead_ns);
    ends.push_back(subs.size());  // register-only stage: no components
  }
  r.cycles = (int)r.stage_delays.size();
  r.max_stage_ns =
      *std::max_element(r.stage_delays.begin(), r.stage_delays.end());
  r.fmax_mhz = 1000.0 / r.max_stage_ns;
  if (tap != nullptr) {
    double cum = 0;
    std::size_t lo = 0;
    for (std::size_t i = 0; i < r.stage_delays.size(); ++i) {
      const std::size_t end = ends[i];
      std::string members;
      for (std::size_t j = lo; j < end; ++j) {
        if (!members.empty() && *sub_owner[j] == *sub_owner[j - 1]) continue;
        if (!members.empty()) members += ", ";
        members += *sub_owner[j];
      }
      tap->vcd().comment("pipe stage " + std::to_string(i) + ": " +
                         (members.empty() ? "registers only" : members));
      std::string stage = "s";
      stage += std::to_string(i);
      tap->begin_stage(stage);
      cum += r.stage_delays[i];
      tap->tap_u64("pipe.stage_delay_ps",
                   (std::uint64_t)std::llround(r.stage_delays[i] * 1000.0), 32);
      tap->tap_u64("pipe.cum_delay_ps",
                   (std::uint64_t)std::llround(cum * 1000.0), 32);
      lo = end;
    }
  }
  return r;
}

Area total_area(const std::vector<Component>& chain) {
  Area a;
  for (const auto& c : chain) a += c.area;
  return a;
}

}  // namespace csfma
