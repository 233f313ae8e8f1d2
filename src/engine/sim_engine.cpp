#include "engine/sim_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace csfma {

namespace {

/// Serialized, rate-limited progress emission for the shard driver.
/// Workers bump atomic counters per completed shard; a compare-exchange
/// on the next-beat deadline elects at most one emitter per interval, and
/// the callback itself runs under a mutex so user code never sees
/// concurrent invocations.
class ProgressGate {
 public:
  using clock = std::chrono::steady_clock;

  ProgressGate(const ProgressFn& fn, double interval_s,
               std::uint64_t ops_total, std::uint64_t shards_total,
               clock::time_point t0)
      : fn_(fn),
        interval_us_((std::int64_t)(interval_s * 1e6)),
        ops_total_(ops_total),
        shards_total_(shards_total),
        t0_(t0) {
    next_emit_us_.store(interval_us_, std::memory_order_relaxed);
  }

  void shard_done(std::uint64_t ops) {
    if (!fn_) return;
    ops_done_.fetch_add(ops, std::memory_order_relaxed);
    shards_done_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t now = now_us();
    std::int64_t deadline = next_emit_us_.load(std::memory_order_relaxed);
    if (now < deadline) return;
    if (!next_emit_us_.compare_exchange_strong(deadline, now + interval_us_))
      return;  // another worker took this beat
    emit(now);
  }

  /// The final 100% beat, after the join (always fires, even on runs
  /// shorter than one interval).
  void finish() {
    if (!fn_) return;
    emit(now_us());
  }

 private:
  std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                                 t0_)
        .count();
  }

  void emit(std::int64_t now) {
    EngineProgress p;
    p.ops_done = ops_done_.load(std::memory_order_relaxed);
    p.ops_total = ops_total_;
    p.shards_done = shards_done_.load(std::memory_order_relaxed);
    p.shards_total = shards_total_;
    p.seconds = (double)now / 1e6;
    p.ops_per_sec = safe_rate(p.ops_done, p.seconds);
    if (p.ops_per_sec > 0.0 && p.ops_total >= p.ops_done)
      p.eta_seconds = (double)(p.ops_total - p.ops_done) / p.ops_per_sec;
    std::lock_guard<std::mutex> lock(mu_);
    fn_(p);
  }

  const ProgressFn& fn_;
  const std::int64_t interval_us_;
  const std::uint64_t ops_total_, shards_total_;
  const clock::time_point t0_;
  std::atomic<std::uint64_t> ops_done_{0}, shards_done_{0};
  std::atomic<std::int64_t> next_emit_us_{0};
  std::mutex mu_;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Where one worker's phases report: the run's trace session on the
/// worker's lane and the current shard's host profiler (either may be
/// null).
struct Sinks {
  TraceSession* trace = nullptr;
  HostProfiler* prof = nullptr;
  int lane = 0;
};

/// One engine phase as one scope statement, reported to every attached
/// sink: the trace span `<phase>`, the profiler scope `engine.<phase>`
/// with `items` work units and, when `seconds` is given, the phase's wall
/// time, stored at scope exit.  A null sink costs a pointer test.
class PhaseScope {
 public:
  PhaseScope(const Sinks& sinks, const char* phase, std::uint64_t items,
             double* seconds = nullptr)
      : span_(sinks.trace, phase, "engine", sinks.lane),
        scope_(sinks.prof, sinks.prof != nullptr
                               ? std::string("engine.") + phase
                               : std::string()),
        seconds_(seconds) {
    scope_.items(items);
    if (seconds_ != nullptr) t0_ = std::chrono::steady_clock::now();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope() {
    if (seconds_ != nullptr) *seconds_ = seconds_since(t0_);
  }

  void arg(std::string_view key, std::uint64_t value) { span_.arg(key, value); }

 private:
  TraceSpan span_;
  ProfScope scope_;
  double* seconds_;
  std::chrono::steady_clock::time_point t0_;
};

/// One claimed shard as a shard body sees it: stream operations
/// [start, start + ops), a whole number of the run's work items.
struct Shard {
  std::uint64_t start = 0;
  std::size_t ops = 0;
  int worker = 0;
  FmaUnit* unit = nullptr;     // fresh, wired to the shard's own recorder
  EventLog* events = nullptr;  // the shard's own log; null when off
  Sinks sinks;                 // the worker's lane + the shard's profiler
  Histogram* consume_wait = nullptr;  // null without a metrics registry
  double seconds = 0.0;  // simulate time, set by the body's simulate phase
};

/// The one worker loop behind run_batch, run_stream and run_chained.  A
/// run is `items` work items of `item_ops` operations each (single
/// operations, or whole chains) cut into shards of `shard_items`: a pure
/// function of the data and the config, never of the thread count.
/// Workers claim shards from an atomic counter until none are left or the
/// abort flag is raised, and `body` simulates each claimed shard on a
/// fresh unit.  Recorders, event logs, profilers and ShardStats are per
/// shard and merge IN SHARD ORDER after the join, so every Deterministic
/// output is thread-count invariant.
template <class Body>
void drive_shards(const EngineConfig& cfg, int threads, std::uint64_t items,
                  std::uint64_t shard_items, std::uint64_t item_ops,
                  const Body& body, ActivityRecorder* activity,
                  EventLog* events, BatchStats* stats) {
  const std::uint64_t n = items * item_ops;
  const std::uint64_t num_shards = (items + shard_items - 1) / shard_items;

  std::vector<ActivityRecorder> shard_recs((std::size_t)num_shards);
  const bool log_events = cfg.event_capacity > 0;
  std::vector<EventLog> shard_events(
      log_events ? (std::size_t)num_shards : 0, EventLog(cfg.event_capacity));
  std::vector<ShardStats> shard_stats((std::size_t)num_shards);
  // Per-shard host profilers, same shape as shard_recs (deque because
  // HostProfiler owns a mutex and cannot be copied into a vector).
  std::deque<HostProfiler> shard_profs;
  if (cfg.profiler != nullptr) {
    for (std::uint64_t s = 0; s < num_shards; ++s)
      shard_profs.emplace_back(cfg.profiler->hw_enabled());
  }

  // Resolve telemetry handles once, outside the worker loop.  All of the
  // Deterministic entries are integral and merge by commutative addition,
  // so concurrent updates from workers cannot perturb the thread-count
  // invariance contract; the Timing entries make no such promise.
  MetricsRegistry* metrics = cfg.metrics;
  Counter* m_ops = nullptr;
  Counter* m_shards = nullptr;
  Histogram* m_shard_size = nullptr;
  Histogram* m_shard_secs = nullptr;
  Histogram* m_consume_wait = nullptr;
  if (metrics != nullptr) {
    m_ops = &metrics->counter("engine.ops");
    m_shards = &metrics->counter("engine.shards");
    m_shard_size = &metrics->histogram(
        "engine.shard.ops", {1, 16, 256, 1024, 4096, 8192, 16384, 65536});
    m_shard_secs = &metrics->histogram(
        "engine.shard.seconds",
        {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0}, Stability::Timing);
    m_consume_wait = &metrics->histogram(
        "engine.consume_wait.seconds",
        {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}, Stability::Timing);
  }

  const int nthreads = (int)std::min<std::uint64_t>(num_shards, threads);
  std::atomic<std::uint64_t> next_shard{0};
  const auto wall0 = std::chrono::steady_clock::now();
  ProgressGate gate(cfg.progress, cfg.progress_interval_s, n, num_shards,
                    wall0);

  auto worker = [&](int wid) {
    for (;;) {
      // Cooperative cancellation: stop claiming shards once the abort flag
      // is raised; the shard being simulated always runs to completion.
      if (cfg.abort != nullptr && cfg.abort->load(std::memory_order_relaxed))
        break;
      const std::uint64_t s = next_shard.fetch_add(1);
      if (s >= num_shards) break;
      const std::uint64_t first = s * shard_items;
      Shard sh;
      sh.start = first * item_ops;
      sh.ops = (std::size_t)(std::min(shard_items, items - first) * item_ops);
      sh.worker = wid;
      sh.events = log_events ? &shard_events[(std::size_t)s] : nullptr;
      sh.sinks = {cfg.trace,
                  cfg.profiler != nullptr ? &shard_profs[(std::size_t)s]
                                          : nullptr,
                  wid};
      sh.consume_wait = m_consume_wait;
      PhaseScope shard({cfg.trace, nullptr, wid}, "shard", sh.ops);
      shard.arg("index", s);
      shard.arg("start", sh.start);
      shard.arg("ops", (std::uint64_t)sh.ops);
      IntrospectHooks hooks;
      hooks.events = sh.events;
      auto unit = make_fma_unit(cfg.unit, &shard_recs[(std::size_t)s],
                                sh.events != nullptr ? &hooks : nullptr);
      sh.unit = unit.get();
      body(sh);

      shard_stats[(std::size_t)s] = {sh.start, sh.ops, wid, sh.seconds,
                                     safe_rate(sh.ops, sh.seconds)};
      if (metrics != nullptr) {
        m_ops->add(sh.ops);
        m_shards->add(1);
        m_shard_size->observe((double)sh.ops);
        m_shard_secs->observe(sh.seconds);
      }
      gate.shard_done(sh.ops);
    }
  };

  if (nthreads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve((std::size_t)(nthreads - 1));
    for (int w = 1; w < nthreads; ++w) pool.emplace_back(worker, w);
    worker(0);
    for (auto& t : pool) t.join();
  }
  const double wall = seconds_since(wall0);

  // Merge in shard order: deterministic regardless of completion order.
  {
    PhaseScope merge({cfg.trace, cfg.profiler, 0}, "merge", num_shards);
    merge.arg("shards", num_shards);
    for (const auto& rec : shard_recs) activity->merge_from(rec);
    if (log_events) {
      *events = EventLog(cfg.event_capacity);
      for (const auto& log : shard_events) events->merge_from(log);
    }
  }
  if (cfg.profiler != nullptr) {
    for (const auto& p : shard_profs) cfg.profiler->merge_from(p);
  }
  gate.finish();
  if (metrics != nullptr) {
    // Utilization = simulate time / wall time per worker lane; Timing by
    // definition (and the gauge names depend on the worker count).
    std::vector<double> worker_busy((std::size_t)nthreads, 0.0);
    for (const ShardStats& st : shard_stats)
      worker_busy[(std::size_t)st.worker] += st.seconds;
    for (int w = 0; w < nthreads; ++w) {
      metrics
          ->gauge("engine.worker." + std::to_string(w) + ".utilization",
                  Stability::Timing)
          .set(wall > 0.0 ? worker_busy[(std::size_t)w] / wall : 0.0);
    }
    metrics->gauge("engine.batch.seconds", Stability::Timing).set(wall);
    metrics->gauge("engine.batch.ops_per_sec", Stability::Timing)
        .set(safe_rate(n, wall));
  }
  stats->ops = n;
  stats->seconds = wall;
  stats->ops_per_sec = safe_rate(n, wall);
  // A shard the abort flag stopped keeps its zero ShardStats.
  stats->ops_done = 0;
  for (const ShardStats& st : shard_stats) stats->ops_done += st.ops;
  stats->aborted = stats->ops_done < n;
  stats->shards = std::move(shard_stats);
}

/// The batch/stream shard body: fill the shard's triples into the worker's
/// operand buffer, simulate them with the configured backend into
/// `results` (or, streaming, the worker's reused result buffer) and hand
/// them to `consume`, serialized, when one is set.
void run_triples(const EngineConfig& cfg, int threads,
                 const OperandSource& src, PFloat* results,
                 const SimEngine::ConsumeFn& consume,
                 ActivityRecorder* activity, EventLog* events,
                 BatchStats* stats) {
  std::vector<std::vector<OperandTriple>> in_bufs((std::size_t)threads);
  std::vector<std::vector<PFloat>> out_bufs((std::size_t)threads);
  std::mutex consume_mu;
  drive_shards(
      cfg, threads, src.size(), cfg.shard_ops, 1,
      [&](Shard& sh) {
        std::vector<OperandTriple>& in = in_bufs[(std::size_t)sh.worker];
        {
          PhaseScope fill(sh.sinks, "fill", sh.ops);
          in.resize(sh.ops);
          src.fill(sh.start, in.data(), sh.ops);
        }
        std::vector<PFloat>& buf = out_bufs[(std::size_t)sh.worker];
        if (results == nullptr) buf.resize(sh.ops);
        PFloat* out = results != nullptr ? results + sh.start : buf.data();
        {
          PhaseScope simulate(sh.sinks, "simulate", sh.ops, &sh.seconds);
          FmaBatchHooks bh;
          bh.rm = cfg.rm;
          bh.events = sh.events;
          bh.base_index = sh.start;
          if (cfg.backend == EngineBackend::Sliced) {
            sh.unit->fma_ieee_batch(in.data(), sh.ops, out, bh);
          } else {
            // Reference oracle: the base-class per-operation loop,
            // bypassing any unit batch override.
            sh.unit->FmaUnit::fma_ieee_batch(in.data(), sh.ops, out, bh);
          }
        }
        if (!consume) return;
        const auto w0 = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> lock(consume_mu);
        if (sh.consume_wait != nullptr)
          sh.consume_wait->observe(seconds_since(w0));
        PhaseScope phase(sh.sinks, "consume", sh.ops);
        consume(sh.start, out, sh.ops);
      },
      activity, events, stats);
}

}  // namespace

const char* to_string(EngineBackend backend) {
  switch (backend) {
    case EngineBackend::Scalar:
      return "scalar";
    case EngineBackend::Sliced:
      return "sliced";
  }
  return "?";
}

bool parse_engine_backend(std::string_view s, EngineBackend* out) {
  if (s == "scalar") {
    *out = EngineBackend::Scalar;
    return true;
  }
  if (s == "sliced") {
    *out = EngineBackend::Sliced;
    return true;
  }
  return false;
}

void VectorSource::fill(std::uint64_t start, OperandTriple* out,
                        std::size_t n) const {
  CSFMA_CHECK(start + n <= ops_->size());
  for (std::size_t i = 0; i < n; ++i) out[i] = (*ops_)[start + i];
}

void RandomTripleSource::fill(std::uint64_t start, OperandTriple* out,
                              std::size_t n) const {
  CSFMA_CHECK(start + n <= n_);
  for (std::size_t i = 0; i < n; ++i) {
    // Per-index seeding (not one sequential stream) so that any chunking of
    // the range reproduces the same triples.
    Rng rng(seed_ ^ ((start + i + 1) * 0x9e3779b97f4a7c15ULL));
    out[i].a = PFloat::from_double(kBinary64,
                                   rng.next_fp_in_exp_range(emin_, emax_));
    out[i].b = PFloat::from_double(kBinary64,
                                   rng.next_fp_in_exp_range(emin_, emax_));
    out[i].c = PFloat::from_double(kBinary64,
                                   rng.next_fp_in_exp_range(emin_, emax_));
  }
}

SimEngine::SimEngine(EngineConfig cfg) : cfg_(cfg) {
  CSFMA_CHECK(cfg_.threads >= 0);
  CSFMA_CHECK(cfg_.shard_ops >= 1);
  const unsigned hw = std::thread::hardware_concurrency();
  const int hw_threads = hw == 0 ? 1 : (int)hw;
  threads_ = cfg_.threads == 0 ? hw_threads : cfg_.threads;
  // Pure-compute workers gain nothing from oversubscription; clamping keeps
  // a "parallel" run from falling below the single-thread rate on small
  // hosts.  Shard decomposition is thread-count independent, so the clamp
  // never changes results.
  threads_clamped_ = threads_ > hw_threads;
  if (threads_clamped_) threads_ = hw_threads;
}

void step_chain(FmaUnit& unit, const ChainedOp* chain, std::uint64_t begin,
                std::uint64_t end, FmaOperand* natives, PFloat* results,
                const FmaBatchHooks& hooks) {
  for (std::uint64_t j = begin; j < end; ++j) {
    const ChainedOp& op = chain[j];
    CSFMA_CHECK(op.a_ref < (std::int64_t)j && op.c_ref < (std::int64_t)j);
    if (hooks.events != nullptr) {
      // Ref operands are stamped with the IEEE readout of the result they
      // chain from (already lowered below).
      const auto bits = [&](std::int64_t ref, const PFloat& v) {
        return (ref >= 0 ? results[ref] : v).to_bits().lo64();
      };
      hooks.events->begin_op(hooks.base_index + j, bits(op.a_ref, op.a),
                             op.b.to_bits().lo64(), bits(op.c_ref, op.c));
    }
    const FmaOperand a =
        op.a_ref >= 0 ? natives[op.a_ref] : unit.lift(op.a);
    const FmaOperand c =
        op.c_ref >= 0 ? natives[op.c_ref] : unit.lift(op.c);
    FmaOperand res = unit.fma(a, op.b, c);
    results[j] = unit.lower(res, hooks.rm);
    natives[j] = std::move(res);
  }
}

BatchResult SimEngine::run_batch(const OperandSource& src) const {
  BatchResult r;
  r.results.resize((std::size_t)src.size());
  run_triples(cfg_, threads_, src, r.results.data(), nullptr, &r.activity,
              &r.events, &r.stats);
  return r;
}

BatchResult SimEngine::run_batch(const std::vector<OperandTriple>& ops) const {
  return run_batch(VectorSource(ops));
}

StreamResult SimEngine::run_stream(const OperandSource& src,
                                   const ConsumeFn& consume) const {
  StreamResult r;
  run_triples(cfg_, threads_, src, nullptr, consume, &r.activity, &r.events,
              &r.stats);
  return r;
}

BatchResult SimEngine::run_chained(const ChainSource& src) const {
  const std::uint64_t chains = src.chains();
  const std::uint64_t opc = src.ops_per_chain();
  CSFMA_CHECK(opc >= 1);
  BatchResult r;
  r.results.resize((std::size_t)(chains * opc));
  // Shard on CHAIN boundaries: operations within a chain depend on earlier
  // results, chains are independent.  The chains-per-shard count is a pure
  // function of shard_ops and the chain length — never of the thread count.
  const std::uint64_t chains_per_shard =
      std::max<std::uint64_t>(cfg_.shard_ops / opc, 1);
  std::vector<std::vector<ChainedOp>> chain_bufs((std::size_t)threads_);
  std::vector<std::vector<FmaOperand>> natives((std::size_t)threads_);
  drive_shards(
      cfg_, threads_, chains, chains_per_shard, opc,
      [&](Shard& sh) {
        std::vector<ChainedOp>& ops = chain_bufs[(std::size_t)sh.worker];
        {
          PhaseScope fill(sh.sinks, "fill", sh.ops);
          ops.resize(sh.ops);
          for (std::uint64_t off = 0; off < sh.ops; off += opc)
            src.fill_chain((sh.start + off) / opc, ops.data() + off);
        }
        std::vector<FmaOperand>& nat = natives[(std::size_t)sh.worker];
        nat.resize((std::size_t)opc);
        PhaseScope simulate(sh.sinks, "simulate", sh.ops, &sh.seconds);
        FmaBatchHooks bh;
        bh.rm = cfg_.rm;
        bh.events = sh.events;
        for (std::uint64_t off = 0; off < sh.ops; off += opc) {
          bh.base_index = sh.start + off;
          step_chain(*sh.unit, ops.data() + off, 0, opc, nat.data(),
                     r.results.data() + bh.base_index, bh);
        }
      },
      &r.activity, &r.events, &r.stats);
  return r;
}

}  // namespace csfma
