// SimEngine: correctness of the batch/stream drivers and, critically, the
// determinism contract — results and merged switching activity must not
// depend on the worker thread count (the logical sharding is fixed by the
// data, see src/engine/sim_engine.hpp).
#include "engine/sim_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "energy/workload.hpp"
#include "fma/classic_fma.hpp"

namespace csfma {
namespace {

EngineConfig config(UnitKind kind, int threads, std::uint64_t shard_ops) {
  EngineConfig cfg;
  cfg.unit = kind;
  cfg.threads = threads;
  cfg.rm = Round::NearestEven;
  cfg.shard_ops = shard_ops;
  return cfg;
}

std::map<std::string, std::uint64_t> toggle_map(const ActivityRecorder& rec) {
  std::map<std::string, std::uint64_t> m;
  for (const auto& [name, p] : rec.probes()) m[name] = p.toggles();
  return m;
}

TEST(SimEngine, MatchesDirectUnitLoop) {
  RandomTripleSource src(7, 1000);
  SimEngine engine(config(UnitKind::Classic, 2, 128));
  BatchResult r = engine.run_batch(src);
  ASSERT_EQ(r.results.size(), 1000u);

  std::vector<OperandTriple> ops(1000);
  src.fill(0, ops.data(), ops.size());
  ClassicFma unit;
  for (size_t i = 0; i < ops.size(); ++i) {
    PFloat want = unit.fma(ops[i].a, ops[i].b, ops[i].c);
    EXPECT_TRUE(PFloat::same_value(r.results[i], want)) << "op " << i;
  }
}

TEST(SimEngine, VectorBatchOverloadMatchesSource) {
  std::vector<OperandTriple> ops(257);
  RandomTripleSource src(8, ops.size());
  src.fill(0, ops.data(), ops.size());
  SimEngine engine(config(UnitKind::Pcs, 2, 64));
  BatchResult from_vec = engine.run_batch(ops);
  BatchResult from_src = engine.run_batch(src);
  ASSERT_EQ(from_vec.results.size(), from_src.results.size());
  for (size_t i = 0; i < ops.size(); ++i)
    EXPECT_TRUE(PFloat::same_value(from_vec.results[i], from_src.results[i]));
  EXPECT_EQ(toggle_map(from_vec.activity), toggle_map(from_src.activity));
}

// The determinism contract on a 10k-sample stream, for the three fused
// units (the ones with a sliced block): 1 worker and N workers produce
// bit-identical results and equal merged toggle totals (per probe, not
// just in aggregate).
TEST(SimEngine, ThreadCountDoesNotChangeResultsOrActivity) {
  for (UnitKind kind : {UnitKind::Classic, UnitKind::Pcs, UnitKind::Fcs}) {
    RandomTripleSource src(42, 10000, -12, 12);
    SimEngine one(config(kind, 1, 512));
    SimEngine many(config(kind, 4, 512));
    BatchResult r1 = one.run_batch(src);
    BatchResult rn = many.run_batch(src);
    ASSERT_EQ(r1.results.size(), rn.results.size());
    for (size_t i = 0; i < r1.results.size(); ++i) {
      ASSERT_TRUE(PFloat::same_value(r1.results[i], rn.results[i]))
          << to_string(kind) << " op " << i;
    }
    EXPECT_EQ(toggle_map(r1.activity), toggle_map(rn.activity))
        << to_string(kind);
    EXPECT_EQ(r1.activity.total_toggles(), rn.activity.total_toggles());
    EXPECT_GT(r1.activity.total_toggles(), 0u);
  }
}

TEST(SimEngine, StreamMatchesBatchAndReusesBuffers) {
  RandomTripleSource src(11, 5000);
  SimEngine engine(config(UnitKind::Fcs, 3, 256));
  BatchResult batch = engine.run_batch(src);

  std::vector<PFloat> streamed(5000);
  StreamResult stream = engine.run_stream(
      src, [&](std::uint64_t start, const PFloat* results, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) streamed[start + i] = results[i];
      });
  for (size_t i = 0; i < streamed.size(); ++i)
    EXPECT_TRUE(PFloat::same_value(streamed[i], batch.results[i])) << i;
  EXPECT_EQ(toggle_map(stream.activity), toggle_map(batch.activity));
}

TEST(SimEngine, ShardStatsCoverTheWholeStream) {
  RandomTripleSource src(13, 1000);
  SimEngine engine(config(UnitKind::Discrete, 2, 300));
  BatchResult r = engine.run_batch(src);
  ASSERT_EQ(r.stats.shards.size(), 4u);  // ceil(1000 / 300)
  std::uint64_t total = 0, expect_start = 0;
  for (const auto& s : r.stats.shards) {
    EXPECT_EQ(s.start, expect_start);
    EXPECT_GE(s.ops_per_sec, 0.0);
    expect_start += s.ops;
    total += s.ops;
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(r.stats.ops, 1000u);
  EXPECT_GT(r.stats.ops_per_sec, 0.0);
}

TEST(SimEngine, EmptyStream) {
  std::vector<OperandTriple> none;
  SimEngine engine(config(UnitKind::Pcs, 4, 128));
  BatchResult r = engine.run_batch(none);
  EXPECT_TRUE(r.results.empty());
  EXPECT_EQ(r.stats.ops, 0u);
  EXPECT_TRUE(r.stats.shards.empty());
  EXPECT_EQ(r.activity.total_toggles(), 0u);
}

TEST(SimEngine, RandomSourceIsChunkingInvariant) {
  RandomTripleSource src(99, 100);
  std::vector<OperandTriple> whole(100), pieces(100);
  src.fill(0, whole.data(), 100);
  src.fill(0, pieces.data(), 37);
  src.fill(37, pieces.data() + 37, 41);
  src.fill(78, pieces.data() + 78, 22);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(PFloat::same_value(whole[i].a, pieces[i].a));
    EXPECT_TRUE(PFloat::same_value(whole[i].b, pieces[i].b));
    EXPECT_TRUE(PFloat::same_value(whole[i].c, pieces[i].c));
  }
}

TEST(SimEngine, SafeRateGuardsDegenerateInputs) {
  EXPECT_EQ(safe_rate(0, 0.0), 0.0);
  EXPECT_EQ(safe_rate(0, 1.0), 0.0);
  EXPECT_EQ(safe_rate(100, 0.0), 0.0);
  EXPECT_EQ(safe_rate(100, -1.0), 0.0);
  EXPECT_EQ(safe_rate(100, std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_EQ(safe_rate(100, std::nan("")), 0.0);
  EXPECT_DOUBLE_EQ(safe_rate(100, 2.0), 50.0);
}

TEST(SimEngine, EmptyStreamRatesAreFiniteZero) {
  std::vector<OperandTriple> none;
  SimEngine engine(config(UnitKind::Pcs, 4, 128));
  BatchResult r = engine.run_batch(none);
  EXPECT_EQ(r.stats.ops_per_sec, 0.0);
  EXPECT_TRUE(std::isfinite(r.stats.ops_per_sec));
  EXPECT_TRUE(std::isfinite(r.stats.seconds));
}

// Renders only the Deterministic entries of a registry, the subset the
// thread-count-invariance contract covers (Timing entries — wall clock,
// per-worker utilization — legitimately differ between runs).
std::string deterministic_json(const MetricsRegistry& reg) {
  MetricsRegistry det;
  MetricsSnapshot s = reg.snapshot();
  for (const auto& [name, c] : s.counters)
    if (c.stability == Stability::Deterministic)
      det.counter(name).add(c.value);
  for (const auto& [name, g] : s.gauges)
    if (g.stability == Stability::Deterministic) det.gauge(name).set(g.value);
  for (const auto& [name, h] : s.histograms)
    if (h.stability == Stability::Deterministic)
      det.histogram(name, h.bounds).merge_from(h);
  return det.to_json();
}

// The telemetry face of the determinism contract: exported Deterministic
// metrics are byte-identical JSON for 1 worker and 4 workers on the same
// seed, for batch and chained runs alike, and both runs also export
// *some* Timing entries (which are compared by presence only).
TEST(SimEngine, TelemetryMetricsAreThreadCountInvariant) {
  RandomTripleSource src(42, 3000);
  // 30 chains of 36 ops, 7 chains per 256-op shard.
  RecurrenceChainSource chains(recurrence_inputs(42, 30), 20);
  auto run = [&](bool chained, int threads, MetricsRegistry& reg) {
    EngineConfig cfg = config(UnitKind::Pcs, threads, 256);
    cfg.metrics = &reg;
    SimEngine engine(cfg);
    if (chained) {
      engine.run_chained(chains);
    } else {
      engine.run_batch(src);
    }
  };
  struct Case {
    bool chained;
    std::uint64_t ops, shards;
  };
  for (const Case& c : {Case{false, 3000, 12},  // ceil(3000/256)
                        Case{true, 30 * 36, 5}}) {  // ceil(30/7)
    MetricsRegistry reg1, reg4;
    run(c.chained, 1, reg1);
    run(c.chained, 4, reg4);
    EXPECT_EQ(deterministic_json(reg1), deterministic_json(reg4)) << c.chained;
    EXPECT_NE(deterministic_json(reg1).find("\"engine.shard.ops\""),
              std::string::npos)
        << c.chained;
    EXPECT_EQ(reg1.counter("engine.ops").value(), c.ops) << c.chained;
    EXPECT_EQ(reg1.counter("engine.shards").value(), c.shards) << c.chained;
    // Timing metrics exist in both but are not compared for equality.
    EXPECT_TRUE(reg1.gauge("engine.batch.seconds", Stability::Timing).is_set());
    EXPECT_TRUE(reg4.gauge("engine.batch.seconds", Stability::Timing).is_set());
  }
}

// Batch and chained runs emit the same spans: shard, fill and simulate once
// per shard, then one merge.
TEST(SimEngine, TraceSessionRecordsShardAndMergeSpans) {
  RandomTripleSource src(7, 600);  // ceil(600/256) = 3 shards
  // 21 chains of 36 ops, 7 chains per 256-op shard: 3 shards.
  RecurrenceChainSource chains(recurrence_inputs(7, 21), 20);
  for (bool chained : {false, true}) {
    TraceSession trace;
    EngineConfig cfg = config(UnitKind::Fcs, 2, 256);
    cfg.trace = &trace;
    SimEngine engine(cfg);
    if (chained) {
      engine.run_chained(chains);
    } else {
      engine.run_batch(src);
    }
    std::map<std::string, int> names;
    for (const auto& e : trace.events()) names[e.name] += 1;
    EXPECT_EQ(names["shard"], 3) << chained;
    EXPECT_EQ(names["fill"], 3) << chained;
    EXPECT_EQ(names["simulate"], 3) << chained;
    EXPECT_EQ(names["merge"], 1) << chained;
    // The export is well-formed chrome://tracing JSON.
    EXPECT_NE(trace.to_json().find("\"traceEvents\":["), std::string::npos);
  }
}

TEST(SimEngine, TelemetryOffByDefault) {
  RandomTripleSource src(3, 100);
  SimEngine engine(config(UnitKind::Classic, 2, 64));
  BatchResult r = engine.run_batch(src);  // no registry/session: must not crash
  EXPECT_EQ(r.results.size(), 100u);
}

// run_chained against a hand-wired recurrence through the same FmaUnit
// chaining API: every intermediate readout must match, for all four
// architectures (the CS units carry unrounded tails between links, so this
// exercises the native-operand forwarding, not just the arithmetic).
TEST(SimEngine, ChainedMatchesHandWiredRecurrence) {
  const int depth = 20;
  const auto inputs = recurrence_inputs(31, 3);
  RecurrenceChainSource src(inputs, depth);
  for (UnitKind kind : kAllUnitKinds) {
    EngineConfig cfg;
    cfg.unit = kind;
    cfg.threads = 2;
    cfg.rm = Round::HalfAwayFromZero;
    cfg.shard_ops = src.ops_per_chain();  // one chain per shard
    SimEngine engine(cfg);
    BatchResult r = engine.run_chained(src);
    ASSERT_EQ(r.results.size(), inputs.size() * src.ops_per_chain());

    auto unit = make_fma_unit(kind);
    for (std::size_t run = 0; run < inputs.size(); ++run) {
      const RecurrenceInputs& in = inputs[run];
      FmaOperand x3 = unit->lift(in.x[0]);
      FmaOperand x2 = unit->lift(in.x[1]);
      FmaOperand x1 = unit->lift(in.x[2]);
      std::size_t op = run * (std::size_t)src.ops_per_chain();
      for (int i = 3; i <= depth; ++i) {
        FmaOperand t = unit->fma(x3, in.b2, x2);
        ASSERT_TRUE(PFloat::same_value(
            r.results[op], unit->lower(t, Round::HalfAwayFromZero)))
            << to_string(kind) << " op " << op;
        ++op;
        FmaOperand x = unit->fma(t, in.b1, x1);
        ASSERT_TRUE(PFloat::same_value(
            r.results[op], unit->lower(x, Round::HalfAwayFromZero)))
            << to_string(kind) << " op " << op;
        ++op;
        x3 = x2;
        x2 = x1;
        x1 = x;
      }
    }
  }
}

// Chained runs shard on chain boundaries, so results and merged activity
// are thread-count invariant exactly like batch runs.
TEST(SimEngine, ChainedIsThreadCountInvariant) {
  RecurrenceChainSource src(recurrence_inputs(55, 10), 30);
  for (UnitKind kind : {UnitKind::Fcs, UnitKind::Pcs}) {
    auto run = [&](int threads) {
      EngineConfig cfg;
      cfg.unit = kind;
      cfg.threads = threads;
      cfg.rm = Round::HalfAwayFromZero;
      cfg.shard_ops = src.ops_per_chain();  // 10 shards
      SimEngine engine(cfg);
      return engine.run_chained(src);
    };
    BatchResult r1 = run(1);
    BatchResult r4 = run(4);
    ASSERT_EQ(r1.results.size(), r4.results.size()) << to_string(kind);
    for (std::size_t i = 0; i < r1.results.size(); ++i)
      ASSERT_TRUE(PFloat::same_value(r1.results[i], r4.results[i]))
          << to_string(kind) << " op " << i;
    EXPECT_EQ(toggle_map(r1.activity), toggle_map(r4.activity))
        << to_string(kind);
    EXPECT_GT(r1.activity.total_toggles(), 0u) << to_string(kind);
  }
}

/// FNV-1a over a chained run's result bits, recorder JSON and event-log
/// JSON.
std::uint64_t chained_digest(const std::vector<PFloat>& results,
                             const ActivityRecorder& rec,
                             const EventLog& events) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const PFloat& r : results) {
    const std::uint64_t bits = r.to_bits().lo64();
    mix(&bits, sizeof bits);
  }
  const std::string act = rec.to_json(), ev = events.to_json();
  mix(act.data(), act.size());
  mix(ev.data(), ev.size());
  return h;
}

// The Table II workload (seed 1001, 20 chains of depth 50) with CS
// operands native between ops, so tails, deferred rounding and redundant
// planes reach every stage: results, per-probe toggles and event logs of
// every unit and both nearest readouts, pinned to digests recorded before
// the scalar carry-save datapath was reworked.  The two readouts give the
// same bits on this workload, so each unit's modes share one digest.
TEST(SimEngine, ChainedRunsMatchRecordedDigests) {
  const RecurrenceChainSource src(recurrence_inputs(1001, 20),
                                  kRecurrenceDepth);
  const struct {
    UnitKind kind;
    Round rm;
    std::uint64_t digest;
  } rows[] = {
      {UnitKind::Discrete, Round::HalfAwayFromZero, 0x15d5d6a589f86e04ULL},
      {UnitKind::Discrete, Round::NearestEven, 0x15d5d6a589f86e04ULL},
      {UnitKind::Classic, Round::HalfAwayFromZero, 0xbb7e1bcb1a4af0faULL},
      {UnitKind::Classic, Round::NearestEven, 0xbb7e1bcb1a4af0faULL},
      {UnitKind::Pcs, Round::HalfAwayFromZero, 0x2ac46625e52f22c3ULL},
      {UnitKind::Pcs, Round::NearestEven, 0x2ac46625e52f22c3ULL},
      {UnitKind::Fcs, Round::HalfAwayFromZero, 0x6abfa62c5831510bULL},
      {UnitKind::Fcs, Round::NearestEven, 0x6abfa62c5831510bULL},
  };
  for (const auto& row : rows) {
    EngineConfig cfg;
    cfg.unit = row.kind;
    cfg.threads = 1;
    cfg.rm = row.rm;
    cfg.event_capacity = 1 << 16;
    const BatchResult r = SimEngine(cfg).run_chained(src);
    EXPECT_EQ(chained_digest(r.results, r.activity, r.events), row.digest)
        << to_string(row.kind) << " " << to_string(row.rm);
  }
  // FCS-ZD has no UnitKind: step its chains on one unit directly.
  const std::uint64_t opc = src.ops_per_chain();
  for (const auto& [rm, digest] :
       {std::pair{Round::HalfAwayFromZero, 0x216d3cdd1fd74f03ULL},
        std::pair{Round::NearestEven, 0x216d3cdd1fd74f03ULL}}) {
    ActivityRecorder rec;
    EventLog events(1 << 16);
    IntrospectHooks hooks;
    hooks.events = &events;
    auto unit = make_cs_unit(CsGeometry::fcs(BlockSelect::Zd), &rec, &hooks);
    std::vector<ChainedOp> ops((std::size_t)opc);
    std::vector<FmaOperand> natives((std::size_t)opc);
    std::vector<PFloat> results((std::size_t)(src.chains() * opc));
    FmaBatchHooks bh;
    bh.rm = rm;
    bh.events = &events;
    for (std::uint64_t ch = 0; ch < src.chains(); ++ch) {
      src.fill_chain(ch, ops.data());
      bh.base_index = ch * opc;
      step_chain(*unit, ops.data(), 0, opc, natives.data(),
                 results.data() + bh.base_index, bh);
    }
    EXPECT_EQ(chained_digest(results, rec, events), digest)
        << "fcs-zd " << to_string(rm);
  }
}

// Cooperative cancellation: EngineConfig::abort is polled at shard CLAIM
// boundaries only, so an aborted run stops on an exact shard boundary,
// reports a truthful ops_done, and the shards it did finish are bit-exact.
TEST(SimEngine, AbortPreSetClaimsNoShards) {
  RandomTripleSource src(21, 4000);
  std::atomic<bool> stop{true};
  EngineConfig cfg = config(UnitKind::Pcs, 3, 256);
  cfg.abort = &stop;
  SimEngine engine(cfg);
  BatchResult r = engine.run_batch(src);
  EXPECT_TRUE(r.stats.aborted);
  EXPECT_EQ(r.stats.ops_done, 0u);
  EXPECT_EQ(r.stats.ops, 4000u);  // requested size still reported
}

TEST(SimEngine, AbortUnsetRunsToCompletion) {
  RandomTripleSource src(23, 1000);
  std::atomic<bool> stop{false};
  EngineConfig cfg = config(UnitKind::Fcs, 2, 300);
  cfg.abort = &stop;
  SimEngine engine(cfg);
  BatchResult r = engine.run_batch(src);
  EXPECT_FALSE(r.stats.aborted);
  EXPECT_EQ(r.stats.ops_done, 1000u);
}

TEST(SimEngine, AbortMidRunStopsOnShardBoundary) {
  RandomTripleSource src(22, 4000);
  std::atomic<bool> stop{false};
  EngineConfig cfg = config(UnitKind::Pcs, 1, 250);
  cfg.abort = &stop;
  cfg.progress_interval_s = 0.0;  // a beat after every shard
  cfg.progress = [&](const EngineProgress& p) {
    if (p.ops_done >= 500) stop.store(true);
  };
  SimEngine engine(cfg);
  BatchResult aborted = engine.run_batch(src);
  EXPECT_TRUE(aborted.stats.aborted);
  // One worker, abort raised after the second beat: exactly two shards ran.
  EXPECT_EQ(aborted.stats.ops_done, 500u);

  // The in-flight shard runs to completion, so the prefix that WAS
  // simulated matches a full run bit for bit.
  SimEngine full(config(UnitKind::Pcs, 1, 250));
  BatchResult want = full.run_batch(src);
  EXPECT_FALSE(want.stats.aborted);
  for (std::uint64_t i = 0; i < aborted.stats.ops_done; ++i)
    ASSERT_TRUE(PFloat::same_value(aborted.results[i], want.results[i])) << i;
}

TEST(SimEngine, AbortChainedStopsOnChainBoundary) {
  RecurrenceChainSource src(recurrence_inputs(9, 12), 20);
  std::atomic<bool> stop{false};
  EngineConfig cfg = config(UnitKind::Fcs, 1, src.ops_per_chain());
  cfg.abort = &stop;
  cfg.progress_interval_s = 0.0;
  cfg.progress = [&](const EngineProgress& p) {
    if (p.shards_done >= 3) stop.store(true);
  };
  SimEngine engine(cfg);
  BatchResult r = engine.run_chained(src);
  EXPECT_TRUE(r.stats.aborted);
  EXPECT_EQ(r.stats.ops_done, 3 * src.ops_per_chain());
  EXPECT_EQ(r.stats.ops_done % src.ops_per_chain(), 0u);
}

// ---- backend equivalence (the scalar|sliced knob) ------------------------

/// An operand stream that forces every sliced-path special case: NaN and
/// infinity operands, zero products, a zero addend, an A pass-through
/// (addend exponent far above the product), exact cancellation, a
/// subnormal-flush product, plus a random tail — and a length (130) that
/// leaves an odd remainder after two full 64-lane blocks.
std::vector<OperandTriple> adversarial_ops() {
  auto f = [](double v) { return PFloat::from_double(kBinary64, v); };
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  std::vector<OperandTriple> ops;
  ops.push_back({f(qnan), f(1.5), f(2.0)});       // NaN a
  ops.push_back({f(1.0), f(qnan), f(2.0)});       // NaN b
  ops.push_back({f(1.0), f(1.5), f(qnan)});       // NaN c
  ops.push_back({f(inf), f(1.5), f(2.0)});        // inf a
  ops.push_back({f(1.0), f(-inf), f(2.0)});       // inf b
  ops.push_back({f(1.0), f(1.5), f(inf)});        // inf c
  ops.push_back({f(1.0), f(0.0), f(2.0)});        // zero product (b)
  ops.push_back({f(1.0), f(1.5), f(-0.0)});       // zero product (c)
  ops.push_back({f(0.0), f(1.5), f(2.0)});        // zero addend
  ops.push_back({f(-0.0), f(-1.5), f(2.0)});      // negative product
  // A pass-through: the addend sits far above the product window.
  ops.push_back({f(std::ldexp(1.0, 500)), f(std::ldexp(1.0, -200)),
                 f(std::ldexp(1.0, -200))});
  // Exact cancellation: a + b*c == 0 triggers the late zero detect.
  ops.push_back({f(-3.75), f(1.5), f(2.5)});
  // Massive cancellation with a tiny residue (deep ZD block skipping).
  ops.push_back({f(-3.75), f(1.5), f(2.5000000000000004)});
  // Subnormal flush: the product exponent falls below the PCS range.
  ops.push_back({f(0.0), f(std::ldexp(1.0, -1060)),
                 f(std::ldexp(1.0, -1060))});
  ops.push_back({f(std::ldexp(1.0, -1000)), f(std::ldexp(1.0, -1060)),
                 f(std::ldexp(1.0, -500))});
  RandomTripleSource tail(2026, 130 - ops.size(), -12, 12);
  std::vector<OperandTriple> rest(130 - ops.size());
  tail.fill(0, rest.data(), rest.size());
  ops.insert(ops.end(), rest.begin(), rest.end());
  return ops;
}

/// Results, per-probe toggle counts AND the serialized event log must be
/// byte-identical between the scalar reference backend and the sliced
/// backend, at any thread count (the CI backend-equivalence gate), for
/// every unit with a sliced block: classic, PCS and FCS.
TEST(SimEngine, BackendEquivalenceOnAdversarialOperands) {
  const std::vector<OperandTriple> ops = adversarial_ops();
  for (UnitKind kind : {UnitKind::Classic, UnitKind::Pcs, UnitKind::Fcs}) {
    auto run = [&](EngineBackend backend, int threads) {
      EngineConfig cfg = config(kind, threads, 32);
      cfg.backend = backend;
      cfg.event_capacity = 1024;
      SimEngine engine(cfg);
      return engine.run_batch(ops);
    };
    const BatchResult ref = run(EngineBackend::Scalar, 1);
    EXPECT_GT(ref.events.events().size(), 0u);  // the stream raises events
    for (EngineBackend backend :
         {EngineBackend::Scalar, EngineBackend::Sliced}) {
      for (int threads : {1, 3}) {
        const std::string at = std::string(to_string(kind)) + " " +
                               to_string(backend) + " t" +
                               std::to_string(threads);
        const BatchResult got = run(backend, threads);
        ASSERT_EQ(got.results.size(), ref.results.size());
        for (std::size_t i = 0; i < ref.results.size(); ++i) {
          // Bit equality, not same_value(): NaN results must match too.
          EXPECT_EQ(got.results[i].to_bits(), ref.results[i].to_bits())
              << at << " op " << i;
        }
        EXPECT_EQ(toggle_map(got.activity), toggle_map(ref.activity)) << at;
        EXPECT_EQ(got.events.to_json(), ref.events.to_json()) << at;
      }
    }
  }
}

// The same contract on a 5000-op random stream, for classic, PCS and FCS.
TEST(SimEngine, BackendEquivalenceOnRandomStream) {
  RandomTripleSource src(314159, 5000, -12, 12);
  for (UnitKind kind : {UnitKind::Classic, UnitKind::Pcs, UnitKind::Fcs}) {
    EngineConfig scfg = config(kind, 2, 512);
    scfg.backend = EngineBackend::Scalar;
    EngineConfig vcfg = scfg;
    vcfg.backend = EngineBackend::Sliced;
    const BatchResult rs = SimEngine(scfg).run_batch(src);
    const BatchResult rv = SimEngine(vcfg).run_batch(src);
    ASSERT_EQ(rs.results.size(), rv.results.size());
    for (std::size_t i = 0; i < rs.results.size(); ++i)
      ASSERT_TRUE(PFloat::same_value(rs.results[i], rv.results[i]))
          << to_string(kind) << " " << i;
    EXPECT_EQ(toggle_map(rs.activity), toggle_map(rv.activity))
        << to_string(kind);
    EXPECT_GT(rs.activity.total_toggles(), 0u);
  }
}

// ---- worker clamp (small-host fix) ---------------------------------------

// A worker request beyond the host's hardware threads is clamped to it —
// oversubscribing a 1-thread CI box made `batch_parallel` slower than
// `batch_1t` — and the clamp is visible to callers (engine_throughput
// records it as `threads_clamped` in its report meta).
TEST(SimEngine, WorkerRequestClampsToHardwareThreads) {
  const unsigned hwc = std::thread::hardware_concurrency();
  const int hw = hwc == 0 ? 1 : (int)hwc;

  SimEngine greedy(config(UnitKind::Pcs, hw + 63, 128));
  EXPECT_EQ(greedy.requested_threads(), hw + 63);
  EXPECT_EQ(greedy.resolved_threads(), hw);
  EXPECT_TRUE(greedy.threads_clamped());

  SimEngine one(config(UnitKind::Pcs, 1, 128));
  EXPECT_EQ(one.resolved_threads(), 1);
  EXPECT_FALSE(one.threads_clamped());

  SimEngine autodetect(config(UnitKind::Pcs, 0, 128));
  EXPECT_EQ(autodetect.requested_threads(), 0);
  EXPECT_EQ(autodetect.resolved_threads(), hw);
  EXPECT_FALSE(autodetect.threads_clamped());  // auto-detect is not a clamp

  // Clamped runs still honor the determinism contract.
  RandomTripleSource src(8086, 2000, -8, 8);
  const BatchResult a = one.run_batch(src);
  const BatchResult b = greedy.run_batch(src);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i)
    ASSERT_TRUE(PFloat::same_value(a.results[i], b.results[i])) << i;
  EXPECT_EQ(toggle_map(a.activity), toggle_map(b.activity));
}

}  // namespace
}  // namespace csfma
