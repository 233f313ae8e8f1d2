// Multi-threaded batch simulation engine.
//
// All statistical experiments (Fig 14 accuracy sweeps, Table II switching
// activity, the operand fuzzers) amount to pushing large streams of operand
// triples R = A + B*C through a bit-accurate unit simulator.  SimEngine is
// the one driver for that: it takes an operand stream (in-memory vector or
// generated workload), selects a unit through the FmaUnit factory, shards
// the stream across worker threads and merges per-shard switching activity
// deterministically at the end.  run_batch, run_stream and run_chained are
// three bodies on one shard driver: one shard cut, one claim loop and one
// merge, with the same telemetry for every entry point.
//
// Determinism model: the stream is cut into LOGICAL shards of a fixed size
// (EngineConfig::shard_ops) that depends only on the data, never on the
// thread count.  Each shard is simulated by exactly one worker with its own
// unit instance and its own ActivityRecorder; workers claim shards from an
// atomic queue.  Because every operation is value-independent of its
// neighbours and every shard's activity capture starts from a fresh
// baseline, results are bit-identical and merged toggle totals are EQUAL
// for any thread count, including 1.  (A probe only counts transitions
// between consecutive operations of the same shard; transitions across a
// shard seam are never counted, in any configuration.)
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/activity.hpp"
#include "fma/fma_unit.hpp"
#include "introspect/event_log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/trace.hpp"

namespace csfma {

/// ops/seconds with degenerate-run guards: empty streams and zero or
/// non-finite durations report a rate of 0 instead of NaN/inf, so rates
/// are always safe to embed in reports.
inline double safe_rate(std::uint64_t ops, double seconds) {
  if (ops == 0 || !std::isfinite(seconds) || seconds <= 0.0) return 0.0;
  return (double)ops / seconds;
}

// OperandTriple lives in fma/fma_unit.hpp (included above) so unit batch
// entry points can consume operand arrays without depending on the engine.

/// Execution backend for the batch hot path.  Sliced hands each shard to
/// FmaUnit::fma_ieee_batch, which units with bit-sliced kernels
/// (engine/slice.hpp) override; Scalar forces the per-operation reference
/// loop.  Results, activity totals and event logs are bit-identical
/// between the two for any thread count — the CI backend-equivalence gate
/// byte-compares them.
enum class EngineBackend {
  Scalar,  // reference oracle: one operation at a time
  Sliced,  // bit-sliced batch kernels where the unit provides them
};

const char* to_string(EngineBackend backend);
/// Parse "scalar" / "sliced" into *out; returns false on anything else.
bool parse_engine_backend(std::string_view s, EngineBackend* out);

/// An indexable operand stream.  fill() must be a pure function of the
/// requested index range — it is called concurrently from worker threads
/// and must hand out the same triples for the same indices regardless of
/// how the range is chunked.
class OperandSource {
 public:
  virtual ~OperandSource() = default;
  /// Total number of triples in the stream.
  virtual std::uint64_t size() const = 0;
  /// Fill out[0..n) with triples [start, start+n).
  virtual void fill(std::uint64_t start, OperandTriple* out,
                    std::size_t n) const = 0;
};

/// View over an in-memory vector (not owned; must outlive the source).
class VectorSource final : public OperandSource {
 public:
  explicit VectorSource(const std::vector<OperandTriple>& ops) : ops_(&ops) {}
  std::uint64_t size() const override { return ops_->size(); }
  void fill(std::uint64_t start, OperandTriple* out,
            std::size_t n) const override;

 private:
  const std::vector<OperandTriple>* ops_;
};

/// Seeded random triples: triple i is a pure function of (seed, i), with
/// exponents uniform in [emin, emax].
class RandomTripleSource final : public OperandSource {
 public:
  RandomTripleSource(std::uint64_t seed, std::uint64_t n, int emin = -8,
                     int emax = 8)
      : seed_(seed), n_(n), emin_(emin), emax_(emax) {}
  std::uint64_t size() const override { return n_; }
  void fill(std::uint64_t start, OperandTriple* out,
            std::size_t n) const override;

 private:
  std::uint64_t seed_, n_;
  int emin_, emax_;
};

/// One chained work item: R = A + B*C where A and/or C may be the NATIVE
/// result of an earlier operation in the SAME chain instead of a fresh
/// IEEE input — deferred rounding data travels with the value between
/// operations, exactly the paper's Sec. IV-B recurrence wiring.
struct ChainedOp {
  PFloat a, b, c;  // IEEE inputs; a (resp. c) is ignored when its ref >= 0
  /// Index, within the chain, of the earlier operation whose native result
  /// feeds the A (resp. C) input; -1 = use the IEEE value above.  Must be
  /// strictly less than this operation's own index.
  std::int64_t a_ref = -1;
  std::int64_t c_ref = -1;
};

/// A stream of independent fixed-length operation chains.  fill_chain()
/// must be a pure function of the chain index — it is called concurrently
/// from worker threads.
class ChainSource {
 public:
  virtual ~ChainSource() = default;
  /// Number of independent chains.
  virtual std::uint64_t chains() const = 0;
  /// Operations per chain (every chain has the same length).
  virtual std::uint64_t ops_per_chain() const = 0;
  /// Fill out[0..ops_per_chain()) with chain `chain`'s operations.
  virtual void fill_chain(std::uint64_t chain, ChainedOp* out) const = 0;
};

/// Step operations [begin, end) of one chain on `unit`: lift the IEEE
/// inputs, feed earlier NATIVE results forward through a_ref/c_ref, run
/// the multiply-add and lower each result into results[j] with hooks.rm.
/// natives[j] keeps op j's unlowered result for later refs, so `natives`
/// and `results` must hold ops [0, end) of the chain.  With hooks.events
/// set, op j is stamped as stream index hooks.base_index + j, and a ref
/// operand as the IEEE readout of the result it chains from.
/// SimEngine::run_chained and the --watch replay (engine/watch.hpp) both
/// step chains through this.
void step_chain(FmaUnit& unit, const ChainedOp* chain, std::uint64_t begin,
                std::uint64_t end, FmaOperand* natives, PFloat* results,
                const FmaBatchHooks& hooks);

/// Heartbeat snapshot for long runs, handed to EngineConfig::progress.
/// ops_per_sec and eta_seconds use safe_rate-style guards: they are 0
/// until enough has happened to divide by.
struct EngineProgress {
  std::uint64_t ops_done = 0;
  std::uint64_t ops_total = 0;
  std::uint64_t shards_done = 0;
  std::uint64_t shards_total = 0;
  double seconds = 0.0;      // elapsed wall clock
  double ops_per_sec = 0.0;  // ops_done / seconds
  double eta_seconds = 0.0;  // remaining ops at the current rate
};
using ProgressFn = std::function<void(const EngineProgress&)>;

struct EngineConfig {
  UnitKind unit = UnitKind::Pcs;
  /// Worker threads; 0 = std::thread::hardware_concurrency().  Requests
  /// above the host's hardware concurrency are CLAMPED to it: the workers
  /// are pure compute, so oversubscription only adds context-switch
  /// overhead and can push a parallel run below the single-thread rate.
  /// SimEngine::threads_clamped() reports when the clamp engaged (results
  /// are thread-count invariant either way).
  int threads = 0;
  /// Hot-path execution backend (see EngineBackend).  Sliced is the
  /// default; Scalar is the reference oracle the equivalence gate runs.
  EngineBackend backend = EngineBackend::Sliced;
  /// Final (deferred) rounding of each operation's CS->IEEE readout.
  Round rm = Round::NearestEven;
  /// Logical shard size in operations.  Fixed per-data granularity — NOT
  /// derived from the thread count — so activity totals are reproducible
  /// across machines and thread counts.
  std::uint64_t shard_ops = 8192;
  /// Optional telemetry sinks (not owned; must outlive the run).  When
  /// null the engine's only telemetry cost is a pointer test per shard.
  /// Metrics: engine.ops / engine.shards counters and an engine.shard.ops
  /// histogram (all Deterministic — thread-count invariant), plus
  /// engine.shard.seconds / engine.consume_wait.seconds histograms and
  /// engine.worker.<w>.utilization gauges (Timing).  Trace: per-shard
  /// shard/fill/simulate/consume spans on the worker's lane and a final
  /// merge span.  Chained runs report the same set.
  MetricsRegistry* metrics = nullptr;
  TraceSession* trace = nullptr;
  /// Host-performance profiler (telemetry/perf.hpp; not owned).  Each
  /// shard records engine.fill / engine.simulate / engine.consume scopes
  /// into its own per-shard profiler; the shards merge IN SHARD ORDER
  /// into this one after the join (plus an engine.merge scope), so the
  /// scope-name structure and the calls/items counts are thread-count
  /// invariant even though the timings are not.
  HostProfiler* profiler = nullptr;
  /// Progress heartbeat for multi-minute runs: invoked (serialized, never
  /// concurrently) after a shard completes when at least
  /// progress_interval_s elapsed since the previous beat, and once more
  /// at 100% before the run returns.  Null = silent (no clock cost).
  ProgressFn progress;
  double progress_interval_s = 0.5;
  /// Capacity of the numerical event log (introspect/event_log.hpp);
  /// 0 disables it entirely (no begin_op/raise cost in the unit).  Each
  /// shard records into its own log; the logs merge IN SHARD ORDER, so the
  /// merged sequence — and its to_json() — is byte-identical for any
  /// thread count.
  std::size_t event_capacity = 0;
  /// Cooperative cancellation flag (not owned; must outlive the run).
  /// Checked at SHARD CLAIM boundaries only: a worker finishes the shard it
  /// is simulating, then stops claiming new ones, so an aborted run still
  /// joins cleanly and the flag costs one relaxed load per shard.  When the
  /// flag stopped any shard from running, the run's stats report
  /// `aborted = true` and the partial results/activity/events MUST be
  /// discarded by the caller — the set of completed shards depends on
  /// scheduling, so partial output is the one thing the engine cannot make
  /// deterministic (src/service drops it; see docs/service.md).
  const std::atomic<bool>* abort = nullptr;
};

struct ShardStats {
  std::uint64_t start = 0;  // index of the shard's first operation
  std::uint64_t ops = 0;
  int worker = 0;        // worker thread that simulated the shard
  double seconds = 0.0;  // the shard's simulate phase (no fill or consume)
  double ops_per_sec = 0.0;
};

struct BatchStats {
  std::uint64_t ops = 0;
  double seconds = 0.0;  // wall clock over the whole run
  double ops_per_sec = 0.0;
  /// True when EngineConfig::abort stopped at least one shard from being
  /// simulated.  Results, activity and events are then PARTIAL and
  /// scheduling-dependent; callers must not emit or cache them.
  bool aborted = false;
  /// Operations actually simulated (== ops unless aborted).
  std::uint64_t ops_done = 0;
  std::vector<ShardStats> shards;  // in shard order
};

struct BatchResult {
  /// results[i] is the IEEE readout of triple i.
  std::vector<PFloat> results;
  /// Per-shard recorders merged in shard order.
  ActivityRecorder activity;
  /// Per-shard event logs merged in shard order (empty unless
  /// EngineConfig::event_capacity > 0).
  EventLog events{0};
  BatchStats stats;
};

struct StreamResult {
  ActivityRecorder activity;
  EventLog events{0};
  BatchStats stats;
};

class SimEngine {
 public:
  explicit SimEngine(EngineConfig cfg = {});

  const EngineConfig& config() const { return cfg_; }
  /// The actual worker count (after resolving threads == 0 and clamping to
  /// the host's hardware concurrency).
  int resolved_threads() const { return threads_; }
  /// The worker count the config asked for (0 = auto), before clamping.
  int requested_threads() const { return cfg_.threads; }
  /// True when the requested count exceeded the host's hardware
  /// concurrency and was clamped down to it.
  bool threads_clamped() const { return threads_clamped_; }

  /// Simulate the whole stream, keeping every result: results[i] is the
  /// readout of triple i, bit-identical for any thread count.
  BatchResult run_batch(const OperandSource& src) const;
  BatchResult run_batch(const std::vector<OperandTriple>& ops) const;

  /// Chunked streaming: results are handed shard-by-shard to `consume`
  /// (serialized under a lock, in completion order — shard index `start`
  /// identifies the range) and the per-worker result buffer is reused, so
  /// memory stays O(threads * shard_ops) however long the stream is.
  using ConsumeFn =
      std::function<void(std::uint64_t start, const PFloat* results,
                         std::size_t n)>;
  StreamResult run_stream(const OperandSource& src,
                          const ConsumeFn& consume = nullptr) const;

  /// Simulate a stream of operation chains, keeping values in the unit's
  /// NATIVE format between chained operations (CS operands with deferred
  /// rounding for PCS/FCS).  results[chain * ops_per_chain + j] is the IEEE
  /// readout of chain op j — every intermediate is lowered for inspection,
  /// but the value fed forward is the unlowered native one.  Sharding is on
  /// chain boundaries (chains are independent; operations within a chain
  /// are not), so results, activity and events stay bit-identical for any
  /// thread count.
  BatchResult run_chained(const ChainSource& src) const;

 private:
  EngineConfig cfg_;
  int threads_;
  bool threads_clamped_ = false;
};

}  // namespace csfma
