// The introspection layer against the real engine and units: event-log
// determinism across thread counts (the contract CI gates on), per-stage
// activity attribution summing exactly to the per-unit totals, and the
// --vcd/--watch re-simulation path.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "energy/workload.hpp"
#include "engine/sim_engine.hpp"
#include "engine/watch.hpp"
#include "introspect/event_log.hpp"

namespace csfma {
namespace {

// The Sec. IV-B recurrence through run_chained, one chain per shard so the
// merge path genuinely reorders work: the merged event log's JSON must be
// byte-identical for 1 and 4 workers, and events must actually fire.
TEST(IntrospectIntegration, ChainedEventLogIsThreadCountInvariant) {
  for (UnitKind kind : {UnitKind::Pcs, UnitKind::Fcs}) {
    auto run = [&](int threads) {
      RecurrenceChainSource src(recurrence_inputs(1001, 12), 40);
      EngineConfig cfg;
      cfg.unit = kind;
      cfg.threads = threads;
      cfg.rm = Round::HalfAwayFromZero;
      cfg.event_capacity = 128;
      cfg.shard_ops = src.ops_per_chain();  // 12 shards
      SimEngine engine(cfg);
      BatchResult r = engine.run_chained(src);
      return std::pair<std::string, std::uint64_t>(r.events.to_json(),
                                                   r.events.raised());
    };
    auto [json1, raised1] = run(1);
    auto [json4, raised4] = run(4);
    EXPECT_EQ(json1, json4) << to_string(kind);
    EXPECT_EQ(raised1, raised4) << to_string(kind);
    EXPECT_GT(raised1, 0u) << to_string(kind)
                           << ": recurrence raised no events";
  }
}

TEST(IntrospectIntegration, BatchEventLogIsThreadCountInvariant) {
  auto run = [](int threads) {
    RandomTripleSource src(2024, 4000, -30, 30);
    EngineConfig cfg;
    cfg.unit = UnitKind::Pcs;
    cfg.threads = threads;
    cfg.event_capacity = 64;
    cfg.shard_ops = 256;
    SimEngine engine(cfg);
    return engine.run_batch(src).events.to_json();
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(IntrospectIntegration, EventsOffByDefaultCostsNothing) {
  RandomTripleSource src(3, 200);
  EngineConfig cfg;
  cfg.unit = UnitKind::Fcs;
  cfg.threads = 2;
  SimEngine engine(cfg);  // event_capacity = 0: no log at all
  BatchResult r = engine.run_batch(src);
  EXPECT_EQ(r.events.raised(), 0u);
  EXPECT_TRUE(r.events.events().empty());
}

// Stages PARTITION the probes: for every architecture, per-stage toggles
// sum exactly to the unit's total, and every probe carries a stage label.
TEST(IntrospectIntegration, StageTogglesSumToUnitTotals) {
  for (UnitKind kind : kAllUnitKinds) {
    RandomTripleSource src(5, 500);
    EngineConfig cfg;
    cfg.unit = kind;
    cfg.threads = 2;
    cfg.shard_ops = 128;
    SimEngine engine(cfg);
    BatchResult r = engine.run_batch(src);
    std::uint64_t sum = 0;
    for (const auto& [stage, st] : r.activity.stage_totals()) {
      EXPECT_FALSE(stage.empty())
          << to_string(kind) << " has an unlabelled probe";
      sum += st.toggles;
    }
    EXPECT_EQ(sum, r.activity.total_toggles()) << to_string(kind);
    EXPECT_GT(sum, 0u) << to_string(kind);
    EXPECT_GE(r.activity.stage_totals().size(), 2u) << to_string(kind);
  }
}

// The ActivityMeasurement face of the same invariant (what table2_energy
// publishes in its stage_activity report section).
TEST(IntrospectIntegration, MeasurementStageTogglesSumToTotal) {
  for (UnitKind kind : kAllUnitKinds) {
    ActivityMeasurement m = measure_recurrence(
        [kind](ActivityRecorder* rec) { return make_fma_unit(kind, rec); }, 77,
        4 * 96);
    double stage_sum = 0;
    for (const auto& [stage, t] : m.by_stage) stage_sum += t;
    EXPECT_NEAR(stage_sum, m.toggles_per_op, 1e-9) << to_string(kind);
    EXPECT_GT(m.toggles_per_op, 0.0) << to_string(kind);
  }
}

// run_watched_op re-simulates exactly the stream's op (sources are pure
// functions of the index) and writes a loadable VCD.
TEST(IntrospectIntegration, WatchedOpMatchesDirectSimulation) {
  WatchOptions opts;
  opts.vcd_path = testing::TempDir() + "csfma_watch_test.vcd";
  opts.watch_op = 5;
  opts.unit = UnitKind::Fcs;
  RandomTripleSource src(123, 16);
  const PFloat got = run_watched_op(opts, src, Round::NearestEven);

  OperandTriple t;
  src.fill(5, &t, 1);
  auto unit = make_fma_unit(UnitKind::Fcs);
  EXPECT_TRUE(PFloat::same_value(
      got, unit->fma_ieee(t.a, t.b, t.c, Round::NearestEven)));

  std::ifstream f(opts.vcd_path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("$timescale"), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire"), std::string::npos);
  EXPECT_NE(text.find("op_index"), std::string::npos);
}

// The chained watch re-simulates the containing chain so the watched op
// sees the same native (unrounded) upstream values as the batch run.
TEST(IntrospectIntegration, WatchedChainedOpMatchesEngineReadout) {
  RecurrenceChainSource src(recurrence_inputs(88, 3), 20);
  EngineConfig cfg;
  cfg.unit = UnitKind::Pcs;
  cfg.threads = 1;
  cfg.rm = Round::HalfAwayFromZero;
  SimEngine engine(cfg);
  BatchResult r = engine.run_chained(src);

  WatchOptions opts;
  opts.vcd_path = testing::TempDir() + "csfma_watch_chain_test.vcd";
  opts.unit = UnitKind::Pcs;
  // A late op in chain 1: depends on native results many links back.
  opts.watch_op = src.ops_per_chain() + src.ops_per_chain() - 1;
  const PFloat got =
      run_watched_chained(opts, src, Round::HalfAwayFromZero);
  EXPECT_TRUE(PFloat::same_value(got, r.results[opts.watch_op]));

  // The header comment stamps A and C with the IEEE readouts of the ops
  // they chain from, as the engine's event log does.
  const std::uint64_t opc = src.ops_per_chain();
  std::vector<ChainedOp> chain((std::size_t)opc);
  src.fill_chain(1, chain.data());
  const ChainedOp& op = chain[(std::size_t)(opc - 1)];
  ASSERT_GE(op.a_ref, 0);
  ASSERT_GE(op.c_ref, 0);
  const auto hex = [](const PFloat& v) {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  (unsigned long long)v.to_bits().lo64());
    return std::string(buf);
  };
  std::ifstream f(opts.vcd_path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string want =
      "watched op " + std::to_string(opts.watch_op) +
      ": a=" + hex(r.results[(std::size_t)(opc + op.a_ref)]) +
      " b=" + hex(op.b) +
      " c=" + hex(r.results[(std::size_t)(opc + op.c_ref)]) + " r=" + hex(got);
  EXPECT_NE(ss.str().find(want), std::string::npos) << want;
}

TEST(IntrospectIntegration, ExtractWatchArgsLeavesOtherArgs) {
  std::vector<std::string> args = {"--json", "out.json", "--vcd", "w.vcd",
                                   "--watch", "17", "--unit", "fcs", "pos"};
  WatchOptions opts = extract_watch_args(args);
  EXPECT_TRUE(opts.enabled());
  EXPECT_EQ(opts.vcd_path, "w.vcd");
  EXPECT_EQ(opts.watch_op, 17u);
  EXPECT_TRUE(opts.unit_set);
  EXPECT_EQ(opts.unit, UnitKind::Fcs);
  ASSERT_EQ(args.size(), 3u);
  EXPECT_EQ(args[0], "--json");
  EXPECT_EQ(args[1], "out.json");
  EXPECT_EQ(args[2], "pos");
}

}  // namespace
}  // namespace csfma
