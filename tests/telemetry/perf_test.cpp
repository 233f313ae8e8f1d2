// HostProfiler / ProfScope / bench-harness statistics: the host-side
// performance observability layer (telemetry/perf.hpp, bench/harness.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "energy/workload.hpp"
#include "engine/sim_engine.hpp"
#include "harness.hpp"
#include "telemetry/perf.hpp"

namespace csfma {
namespace {

// ---------------------------------------------------------------- robust
// stats (the harness's warmup/repeat/outlier logic)

TEST(RobustStats, MedianOfOddAndEven) {
  EXPECT_DOUBLE_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
}

TEST(RobustStats, MadRejectsSchedulerHiccup) {
  // Nine tight samples and one 10x outlier (a descheduled rep): the
  // outlier must not shift the median or survive rejection.
  std::vector<double> s = {1.00, 1.01, 0.99, 1.02, 0.98,
                           1.00, 1.01, 0.99, 1.00, 10.0};
  RobustStats st = robust_stats(s);
  EXPECT_EQ(st.kept, 9u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_NEAR(st.median, 1.0, 0.02);
  EXPECT_LT(st.max, 2.0);  // recomputed on survivors only
  EXPECT_NEAR(st.mean, 1.0, 0.02);
}

TEST(RobustStats, ZeroMadKeepsEverything) {
  // All-equal samples have MAD 0: nothing is rejected (the guard against
  // rejecting the whole set).
  RobustStats st = robust_stats({2.0, 2.0, 2.0, 2.0});
  EXPECT_EQ(st.kept, 4u);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_DOUBLE_EQ(st.median, 2.0);
  EXPECT_DOUBLE_EQ(st.mad, 0.0);
}

TEST(RobustStats, InliersSurviveModerateSpread) {
  std::vector<double> s = {1.0, 1.1, 0.9, 1.05, 0.95};
  RobustStats st = robust_stats(s);
  EXPECT_EQ(st.kept, 5u);
  EXPECT_EQ(st.rejected, 0u);
}

// ------------------------------------------------------------- profiler

TEST(HostProfiler, GracefulDegradationWithoutPerfEvents) {
  // Requesting counters must never fail; on hosts without perf_event the
  // profiler runs timers-only and every scope exports zero counts.
  HostProfiler prof(/*want_hw_counters=*/true);
  EXPECT_EQ(prof.hw_enabled(), perf_events_available());
  {
    ProfScope scope(&prof, "work");
    scope.items(5);
    volatile double sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
    (void)sink;
  }
  auto snap = prof.snapshot();
  ASSERT_EQ(snap.count("work"), 1u);
  const ScopeStats& s = snap["work"];
  EXPECT_EQ(s.calls, 1u);
  EXPECT_EQ(s.items, 5u);
  EXPECT_GT(s.wall_ns, 0u);
  if (!perf_events_available()) {
    EXPECT_FALSE(s.hw.available);
    EXPECT_EQ(s.hw.cycles, 0u);
    EXPECT_EQ(s.hw.instructions, 0u);
    EXPECT_EQ(s.hw.cache_misses, 0u);
  }
  // The export structure is identical either way, only the flag differs.
  const std::string json = prof.to_json();
  EXPECT_NE(json.find("\"hw_counters\""), std::string::npos);
  EXPECT_NE(json.find("\"cycles\""), std::string::npos);
}

TEST(HostProfiler, NullProfilerScopeIsNoOp) {
  ProfScope scope(nullptr, "ignored");
  scope.items(123);  // must not crash or record anywhere
}

TEST(HostProfiler, MergeFoldsByName) {
  HostProfiler a(false), b(false);
  a.record("x", ScopeStats{1, 10, 100, 90, {}});
  b.record("x", ScopeStats{2, 20, 200, 180, {}});
  b.record("y", ScopeStats{1, 5, 50, 40, {}});
  a.merge_from(b);
  auto snap = a.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap["x"].calls, 3u);
  EXPECT_EQ(snap["x"].items, 30u);
  EXPECT_EQ(snap["x"].wall_ns, 300u);
  EXPECT_EQ(snap["y"].items, 5u);
}

/// Scope structure and the Deterministic fields (calls, items) of the
/// engine's per-shard profilers, merged shard-in-order, must not depend
/// on the worker thread count, for streamed and chained runs alike; only
/// the nanosecond fields may.
TEST(HostProfiler, EngineMergeIsThreadCountInvariant) {
  // 40 chains of 36 ops, 13 chains per 500-op shard: 4 shards.
  RecurrenceChainSource chains(recurrence_inputs(42, 40), 20);
  auto run = [&](bool chained, int threads) {
    HostProfiler prof(false);
    RandomTripleSource src(42, 4000);
    EngineConfig cfg;
    cfg.unit = UnitKind::Pcs;
    cfg.threads = threads;
    cfg.shard_ops = 500;  // 8 shards
    cfg.profiler = &prof;
    SimEngine engine(cfg);
    if (chained) {
      (void)engine.run_chained(chains);
    } else {
      // run_stream so the consume path is instrumented too (run_batch has
      // no consume callback and therefore no engine.consume scope).
      (void)engine.run_stream(
          src, [](std::uint64_t, const PFloat*, std::size_t) {});
    }
    return prof.snapshot();
  };
  struct Case {
    bool chained;
    std::uint64_t ops, shards;
  };
  for (const Case& c : {Case{false, 4000, 8}, Case{true, 40 * 36, 4}}) {
    auto one = run(c.chained, 1), four = run(c.chained, 4);
    ASSERT_EQ(one.size(), four.size()) << c.chained;
    for (const auto& [name, s1] : one) {
      ASSERT_EQ(four.count(name), 1u) << name;
      EXPECT_EQ(s1.calls, four[name].calls) << name;
      EXPECT_EQ(s1.items, four[name].items) << name;
    }
    // The instrumented hot paths are all present and attribute every op.
    ASSERT_EQ(one.count("engine.simulate"), 1u) << c.chained;
    EXPECT_EQ(one["engine.simulate"].items, c.ops) << c.chained;
    EXPECT_EQ(one["engine.simulate"].calls, c.shards) << c.chained;
    EXPECT_EQ(one.count("engine.fill"), 1u) << c.chained;
    EXPECT_EQ(one.count("engine.consume"), c.chained ? 0u : 1u);
    EXPECT_EQ(one.count("engine.merge"), 1u) << c.chained;
  }
}

// ------------------------------------------------------------- progress

TEST(EngineProgress, FinalBeatReportsCompletion) {
  RandomTripleSource src(7, 3000);
  EngineConfig cfg;
  cfg.unit = UnitKind::Classic;
  cfg.threads = 2;
  cfg.shard_ops = 250;  // 12 shards
  cfg.progress_interval_s = 0.0;  // beat on every shard
  std::atomic<int> beats{0};
  std::uint64_t last_ops = 0, last_shards = 0;
  bool monotone = true;
  cfg.progress = [&](const EngineProgress& p) {
    ++beats;
    if (p.ops_done < last_ops || p.shards_done < last_shards)
      monotone = false;  // callback is serialized, so plain reads are safe
    last_ops = p.ops_done;
    last_shards = p.shards_done;
    EXPECT_EQ(p.ops_total, 3000u);
    EXPECT_EQ(p.shards_total, 12u);
    EXPECT_LE(p.ops_done, p.ops_total);
  };
  SimEngine engine(cfg);
  (void)engine.run_batch(src);
  EXPECT_GE(beats.load(), 1);
  EXPECT_TRUE(monotone);
  // The forced 100% beat after the join.
  EXPECT_EQ(last_ops, 3000u);
  EXPECT_EQ(last_shards, 12u);
}

TEST(EngineProgress, LongIntervalStillEmitsFinalBeat) {
  RandomTripleSource src(9, 500);
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.shard_ops = 100;
  cfg.progress_interval_s = 3600.0;  // never due during the run
  std::vector<EngineProgress> beats;
  cfg.progress = [&](const EngineProgress& p) { beats.push_back(p); };
  SimEngine engine(cfg);
  (void)engine.run_batch(src);
  ASSERT_EQ(beats.size(), 1u);  // only the forced completion beat
  EXPECT_EQ(beats.back().ops_done, 500u);
}

// -------------------------------------------------------------- harness

TEST(BenchHarness, ExtractHarnessArgsStripsFlags) {
  const char* raw[] = {"bench",      "1000", "--reps", "9", "--warmup", "2",
                       "--progress", "--no-hw-counters", "4"};
  int argc = 9;
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  HarnessOptions o = extract_harness_args(argc, argv.data());
  EXPECT_EQ(o.reps, 9);
  EXPECT_EQ(o.warmup, 2);
  EXPECT_TRUE(o.progress);
  EXPECT_FALSE(o.hw_counters);
  // Positionals survive in order.
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[0], "bench");
  EXPECT_STREQ(argv[1], "1000");
  EXPECT_STREQ(argv[2], "4");
}

TEST(BenchHarness, MeasureRunsWarmupPlusReps) {
  HarnessOptions o;
  o.reps = 3;
  o.warmup = 2;
  BenchHarness h("unit_test", o);
  int calls = 0;
  RobustStats st = h.measure("phase", [&] { ++calls; }, 7);
  EXPECT_EQ(calls, 5);          // 2 warmup + 3 timed
  EXPECT_EQ(st.kept + st.rejected, 3u);
  auto snap = h.profiler().snapshot();
  ASSERT_EQ(snap.count("bench.phase"), 1u);
  EXPECT_EQ(snap["bench.phase"].calls, 3u);   // timed reps only
  EXPECT_EQ(snap["bench.phase"].items, 21u);  // 3 reps x 7 ops
}

TEST(BenchHarness, AttachEmitsHostTimingAndSection) {
  HarnessOptions o;
  o.reps = 2;
  o.warmup = 0;
  BenchHarness h("unit_test", o);
  h.measure("p", [] {}, 10);
  Report report("unit_test");
  h.attach(report);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"host.p.median_s\""), std::string::npos);
  EXPECT_NE(json.find("\"host.p.ops_per_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"bench_host_perf\""), std::string::npos);
  EXPECT_NE(json.find("\"samples_s\""), std::string::npos);
}

}  // namespace
}  // namespace csfma
