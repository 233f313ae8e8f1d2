// The Sec. IV-B benchmark workload, instrumented for switching activity:
//   x[n] = B1*x[n-1] + B2*x[n-2] + x[n-3],  1 < |B1| < 32,  0 < |B2| < 1,
// chained through a unit with ActivityRecorder probes attached, operands
// kept in the unit's native format between steps, mirroring the paper's
// ISim VCD/SAIF capture.  measure_recurrence() is the one toggle
// measurement behind Table II and every DSE design point.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/activity.hpp"
#include "engine/sim_engine.hpp"

namespace csfma {

struct ActivityMeasurement {
  double toggles_per_op = 0.0;  // summed over all probes, per multiply-add
  std::uint64_t ops = 0;
  // Per-component breakdown (probe name -> toggles per op) — the XPower
  // "analysis details" view the paper cites in Sec. IV-C.
  std::map<std::string, double> by_component;
  // Per-pipeline-stage breakdown (stage label -> toggles per op).  Stages
  // partition the probes, so the stage values sum to toggles_per_op.
  std::map<std::string, double> by_stage;
  // Raw per-stage toggle totals (before the per-op division), for reports.
  std::map<std::string, std::uint64_t> stage_toggles;
};

/// One run's coefficients and seed values for the recurrence.
struct RecurrenceInputs {
  PFloat b1, b2;
  std::array<PFloat, 3> x;
};

/// `runs` input sets drawn in order from one Rng(seed) stream.
std::vector<RecurrenceInputs> recurrence_inputs(std::uint64_t seed, int runs);

/// The recurrence workload as a CHAINED operand stream: one chain per run,
/// two multiply-adds per step, with A and C wired to earlier chain results
/// via ChainedOp refs — so SimEngine::run_chained keeps CS operands (with
/// their deferred-rounding tails) between operations, exactly like the
/// paper's Sec. IV-B chains.
class RecurrenceChainSource final : public ChainSource {
 public:
  RecurrenceChainSource(std::vector<RecurrenceInputs> inputs, int depth);
  std::uint64_t chains() const override { return inputs_.size(); }
  std::uint64_t ops_per_chain() const override {
    return 2ull * (std::uint64_t)(depth_ - 2);
  }
  void fill_chain(std::uint64_t chain, ChainedOp* out) const override;

 private:
  std::vector<RecurrenceInputs> inputs_;
  int depth_;
};

/// Chain length of the measured recurrence: Table II's x[50].
inline constexpr int kRecurrenceDepth = 50;

/// Final x[depth] of every run's recurrence through cfg.unit, chained
/// natively by SimEngine::run_chained, one chain per shard, read out half
/// away from zero (the CS units' deferred readout rule).  The caller's
/// `cfg` carries threads, backend, profiler and event capacity; shard_ops
/// and rm are set here.  `events`, when given, receives the run's merged
/// event log.  Fig 14's accuracy ladder.
std::vector<PFloat> recurrence_finals(
    EngineConfig cfg, const std::vector<RecurrenceInputs>& inputs, int depth,
    EventLog* events = nullptr);

/// x[depth] of one run through the discrete pipeline at format `fmt`: a
/// rounding per multiply and per add, the CoreGen baseline.  binary64 and
/// binary68 are Fig 14's 64b and 68b rows; binary75 is its golden.
PFloat discrete_recurrence(const RecurrenceInputs& in, const FloatFormat& fmt,
                           int depth);

/// Builds the unit under measurement, wired to the recorder that counts
/// its toggles (e.g. make_fma_unit(kind, rec) or make_cs_unit(geometry,
/// rec)).
using UnitFactory =
    std::function<std::unique_ptr<FmaUnit>(ActivityRecorder* rec)>;

/// All-stage switching activity of one unit on the recurrence: the first
/// `ops` multiply-adds of RecurrenceChainSource(recurrence_inputs(seed,
/// ...), kRecurrenceDepth), stepped in order on ONE unit through
/// step_chain, so CS operands stay native between operations and every
/// probe counts every transition (chain seams included).  Rounding moves
/// no toggle, so the readout rounds to nearest-even.  Pure in (unit,
/// seed, ops).
ActivityMeasurement measure_recurrence(const UnitFactory& make_unit,
                                       std::uint64_t seed, std::uint64_t ops);

}  // namespace csfma
