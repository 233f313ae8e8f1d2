// Microbenchmarks (google-benchmark): throughput of the bit-accurate unit
// simulators themselves.  Not a paper experiment — a health check that the
// simulation is fast enough for the statistical benches.
//
// All unit loops go through the unified FmaUnit interface and the batch
// driver: per-op IEEE-boundary timing via fma_ieee, chained native-format
// timing via lift/fma/lower (the Sec. IV-B wiring), and whole-batch
// RandomTripleSource runs through SimEngine with telemetry attached — the
// same paths every statistical experiment uses, so regressions here are
// regressions everywhere.
#include <benchmark/benchmark.h>

#include "engine/sim_engine.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace csfma;

std::vector<OperandTriple> triples(std::uint64_t n, std::uint64_t seed) {
  RandomTripleSource src(seed, n);
  std::vector<OperandTriple> v((std::size_t)n);
  src.fill(0, v.data(), v.size());
  return v;
}

/// Software-FMA baseline: the correctly rounded PFloat op every unit
/// simulator builds on.
void BM_SoftFloatFma(benchmark::State& state) {
  auto ops = triples(256, 1);
  size_t i = 0;
  for (auto _ : state) {
    const OperandTriple& t = ops[i % 256];
    PFloat r = PFloat::fma(t.a, t.b, t.c, kBinary64, Round::NearestEven);
    benchmark::DoNotOptimize(r);
    ++i;
  }
  state.SetItemsProcessed((int64_t)state.iterations());
}
BENCHMARK(BM_SoftFloatFma);

/// One multiply-add per iteration with IEEE 754 boundaries (convert in,
/// run the unit, convert out) — the engine's per-op hot path.
void BM_FmaIeee(benchmark::State& state, UnitKind kind) {
  auto unit = make_fma_unit(kind);
  auto ops = triples(256, 2);
  size_t i = 0;
  for (auto _ : state) {
    const OperandTriple& t = ops[i % 256];
    PFloat r = unit->fma_ieee(t.a, t.b, t.c, Round::NearestEven);
    benchmark::DoNotOptimize(r);
    ++i;
  }
  state.SetItemsProcessed((int64_t)state.iterations());
}
BENCHMARK_CAPTURE(BM_FmaIeee, discrete, UnitKind::Discrete);
BENCHMARK_CAPTURE(BM_FmaIeee, classic, UnitKind::Classic);
BENCHMARK_CAPTURE(BM_FmaIeee, pcs, UnitKind::Pcs);
BENCHMARK_CAPTURE(BM_FmaIeee, fcs, UnitKind::Fcs);

/// Chained native-format accumulation: operands stay in the unit's
/// inter-operation format (carry-save for PCS/FCS), with one deferred
/// lower() per 64-op chain — the paper's recurrence wiring.
void BM_FmaChained(benchmark::State& state, UnitKind kind) {
  auto unit = make_fma_unit(kind);
  auto ops = triples(256, 3);
  FmaOperand acc = unit->lift(ops[0].a);
  size_t i = 0;
  for (auto _ : state) {
    const OperandTriple& t = ops[i % 256];
    acc = unit->fma(acc, t.b, unit->lift(t.c));
    if (++i % 64 == 0) {
      PFloat out = unit->lower(acc, Round::HalfAwayFromZero);
      benchmark::DoNotOptimize(out);
      acc = unit->lift(ops[i % 256].a);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed((int64_t)state.iterations());
}
BENCHMARK_CAPTURE(BM_FmaChained, classic, UnitKind::Classic);
BENCHMARK_CAPTURE(BM_FmaChained, pcs, UnitKind::Pcs);
BENCHMARK_CAPTURE(BM_FmaChained, fcs, UnitKind::Fcs);

/// Whole-batch runs through the engine with telemetry ON: measures the
/// full production path (shard claim + fill + simulate + activity merge +
/// metrics) at single-worker granularity.
void BM_EngineBatch(benchmark::State& state, UnitKind kind) {
  const std::uint64_t n = (std::uint64_t)state.range(0);
  RandomTripleSource src(4, n);
  MetricsRegistry metrics;
  EngineConfig cfg;
  cfg.unit = kind;
  cfg.threads = 1;
  cfg.shard_ops = 1024;
  cfg.metrics = &metrics;
  SimEngine engine(cfg);
  for (auto _ : state) {
    BatchResult r = engine.run_batch(src);
    benchmark::DoNotOptimize(r.results.data());
  }
  state.SetItemsProcessed((int64_t)(state.iterations() * (int64_t)n));
}
BENCHMARK_CAPTURE(BM_EngineBatch, pcs, UnitKind::Pcs)->Arg(4096);
BENCHMARK_CAPTURE(BM_EngineBatch, fcs, UnitKind::Fcs)->Arg(4096);

/// Format conversion costs (chain entry/exit).
void BM_LiftLower(benchmark::State& state, UnitKind kind) {
  auto unit = make_fma_unit(kind);
  auto ops = triples(256, 5);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        unit->lower(unit->lift(ops[i % 256].a), Round::HalfAwayFromZero));
    ++i;
  }
  state.SetItemsProcessed((int64_t)state.iterations());
}
BENCHMARK_CAPTURE(BM_LiftLower, pcs, UnitKind::Pcs);
BENCHMARK_CAPTURE(BM_LiftLower, fcs, UnitKind::Fcs);

}  // namespace

BENCHMARK_MAIN();
