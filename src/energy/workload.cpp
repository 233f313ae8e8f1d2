#include "energy/workload.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace csfma {

namespace {

RecurrenceInputs random_inputs(Rng& rng) {
  RecurrenceInputs in;
  double b1 = rng.next_double(1.0, 32.0) * (rng.next_bool() ? 1 : -1);
  double b2 = rng.next_double(0.001, 1.0) * (rng.next_bool() ? 1 : -1);
  in.b1 = PFloat::from_double(kBinary64, b1);
  in.b2 = PFloat::from_double(kBinary64, b2);
  for (auto& x : in.x)
    x = PFloat::from_double(kBinary64, rng.next_double(-1.0, 1.0));
  return in;
}

ActivityMeasurement reduce(const ActivityRecorder& rec, std::uint64_t ops) {
  ActivityMeasurement m;
  m.ops = ops;
  m.toggles_per_op = (double)rec.total_toggles() / (double)ops;
  for (const auto& [name, probe] : rec.probes())
    m.by_component[name] = (double)probe.toggles() / (double)ops;
  for (const auto& [stage, totals] : rec.stage_totals()) {
    m.stage_toggles[stage] = totals.toggles;
    m.by_stage[stage] = (double)totals.toggles / (double)ops;
  }
  return m;
}

}  // namespace

std::vector<RecurrenceInputs> recurrence_inputs(std::uint64_t seed, int runs) {
  CSFMA_CHECK(runs >= 0);
  Rng rng(seed);
  std::vector<RecurrenceInputs> inputs;
  inputs.reserve((std::size_t)runs);
  for (int r = 0; r < runs; ++r) inputs.push_back(random_inputs(rng));
  return inputs;
}

RecurrenceChainSource::RecurrenceChainSource(
    std::vector<RecurrenceInputs> inputs, int depth)
    : inputs_(std::move(inputs)), depth_(depth) {
  CSFMA_CHECK(depth >= 3);
}

void RecurrenceChainSource::fill_chain(std::uint64_t chain,
                                       ChainedOp* out) const {
  CSFMA_CHECK(chain < inputs_.size());
  const RecurrenceInputs& in = inputs_[(std::size_t)chain];
  const int steps = depth_ - 2;
  // Step j (0-based) issues ops 2j and 2j+1 of the chain:
  //   t = x3 + b2*x2   and   x = t + b1*x1,
  // where after each step (x3, x2, x1) <- (x2, x1, x).  Unwinding the
  // shifts: x1_j is op 2(j-1)+1's result, x2_j is op 2(j-2)+1's, x3_j is
  // op 2(j-3)+1's; before enough steps exist they are the seeds x[0..2].
  for (int j = 0; j < steps; ++j) {
    ChainedOp& t = out[2 * j];
    t.b = in.b2;
    t.a_ref = j >= 3 ? 2 * (j - 3) + 1 : -1;
    if (t.a_ref < 0) t.a = in.x[(std::size_t)j];  // x3_j = x[j] for j < 3
    t.c_ref = j >= 2 ? 2 * (j - 2) + 1 : -1;
    if (t.c_ref < 0) t.c = in.x[(std::size_t)(j + 1)];  // x2_j = x[j+1]
    ChainedOp& x = out[2 * j + 1];
    x.b = in.b1;
    x.a_ref = 2 * j;
    x.c_ref = j >= 1 ? 2 * (j - 1) + 1 : -1;
    if (x.c_ref < 0) x.c = in.x[2];  // x1_0 = x[2]
  }
}

std::vector<PFloat> recurrence_finals(
    EngineConfig cfg, const std::vector<RecurrenceInputs>& inputs, int depth,
    EventLog* events) {
  RecurrenceChainSource src(inputs, depth);
  cfg.shard_ops = src.ops_per_chain();
  cfg.rm = Round::HalfAwayFromZero;
  SimEngine engine(cfg);
  BatchResult r = engine.run_chained(src);
  if (events != nullptr) *events = r.events;
  const std::uint64_t opc = src.ops_per_chain();
  std::vector<PFloat> finals;
  finals.reserve(inputs.size());
  for (std::size_t run = 0; run < inputs.size(); ++run)
    finals.push_back(r.results[(run + 1) * (std::size_t)opc - 1]);
  return finals;
}

PFloat discrete_recurrence(const RecurrenceInputs& in, const FloatFormat& fmt,
                           int depth) {
  PFloat b1 = PFloat::from_double(fmt, in.b1.to_double());
  PFloat b2 = PFloat::from_double(fmt, in.b2.to_double());
  PFloat x3 = PFloat::from_double(fmt, in.x[0].to_double());
  PFloat x2 = PFloat::from_double(fmt, in.x[1].to_double());
  PFloat x1 = PFloat::from_double(fmt, in.x[2].to_double());
  for (int i = 3; i <= depth; ++i) {
    PFloat t = PFloat::add(PFloat::mul(b2, x2, fmt, Round::NearestEven), x3,
                           fmt, Round::NearestEven);
    PFloat x = PFloat::add(PFloat::mul(b1, x1, fmt, Round::NearestEven), t,
                           fmt, Round::NearestEven);
    x3 = x2;
    x2 = x1;
    x1 = x;
  }
  return x1;
}

ActivityMeasurement measure_recurrence(const UnitFactory& make_unit,
                                       std::uint64_t seed, std::uint64_t ops) {
  CSFMA_CHECK(ops > 0);
  const std::uint64_t opc = 2ull * (kRecurrenceDepth - 2);
  const std::uint64_t chains = (ops + opc - 1) / opc;
  RecurrenceChainSource src(recurrence_inputs(seed, (int)chains),
                            kRecurrenceDepth);
  ActivityRecorder rec;
  const std::unique_ptr<FmaUnit> unit = make_unit(&rec);
  std::vector<ChainedOp> chain((std::size_t)opc);
  std::vector<FmaOperand> natives((std::size_t)opc);
  std::vector<PFloat> results((std::size_t)opc);
  for (std::uint64_t c = 0; c < chains; ++c) {
    src.fill_chain(c, chain.data());
    step_chain(*unit, chain.data(), 0, std::min(opc, ops - c * opc),
               natives.data(), results.data(), FmaBatchHooks{});
  }
  return reduce(rec, ops);
}

}  // namespace csfma
