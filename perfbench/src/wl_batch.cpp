// batch: seeded random triples through SimEngine::run_batch for all four
// units.  This is where the sliced kernels and the sliceable-run splitting
// do their work.
//
// The benchmark generates the inputs itself (exponents in [-8, 8]; 1% with
// a huge addend that forces A pass-through; 0.2% with a zero, inf or NaN
// operand) and hands the engine only those triples through a
// VectorSource.  One round pushes kRoundOps triples through every unit;
// rounds cycle over a pool of kPoolRounds distinct input sets.
#include <cmath>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "engine/sim_engine.hpp"
#include "telemetry/perf.hpp"

namespace perfbench {
namespace {

using namespace csfma;

constexpr std::size_t kRoundOps = 4096;
constexpr std::size_t kPoolRounds = 16;
constexpr std::uint64_t kShardOps = 1024;
// One engine worker: with two, a 10-seed set's throughput spread 24% as
// the host moved under it (chained on one worker: 4-7%); the 2-worker path
// is still checked for identical results and activity after the window.
constexpr int kWorkers = 1;

struct Pool {
  std::vector<std::vector<OperandTriple>> rounds;
  std::vector<double> a, b, c;  // host copies, flat index
  std::vector<double> fused;    // std::fma: one rounding
  std::vector<double> twice;    // a + b*c: two roundings
};

double special_value(Rng& rng) {
  switch (rng.next_below(5)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return INFINITY;
    case 3: return -INFINITY;
    default: return NAN;
  }
}

Pool make_pool(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xba7c4);
  Pool p;
  const std::size_t n = kRoundOps * kPoolRounds;
  p.a.resize(n);
  p.b.resize(n);
  p.c.resize(n);
  p.fused.resize(n);
  p.twice.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double a = rng.next_fp_in_exp_range(-8, 8);
    double b = rng.next_fp_in_exp_range(-8, 8);
    double c = rng.next_fp_in_exp_range(-8, 8);
    const std::uint64_t cls = rng.next_below(1000);
    if (cls < 10) {
      a = rng.next_fp_in_exp_range(120, 300);  // |A| >> |B*C|: pass-through
    } else if (cls < 12) {
      double* slot[] = {&a, &b, &c};
      *slot[rng.next_below(3)] = special_value(rng);
    }
    p.a[i] = a;
    p.b[i] = b;
    p.c[i] = c;
    p.fused[i] = std::fma(b, c, a);
    volatile double prod = b * c;  // keep the product rounding separate
    p.twice[i] = a + prod;
  }
  p.rounds.resize(kPoolRounds);
  for (std::size_t r = 0; r < kPoolRounds; ++r) {
    p.rounds[r].resize(kRoundOps);
    for (std::size_t j = 0; j < kRoundOps; ++j) {
      const std::size_t i = r * kRoundOps + j;
      p.rounds[r][j] = {PFloat::from_double(kBinary64, p.a[i]),
                        PFloat::from_double(kBinary64, p.b[i]),
                        PFloat::from_double(kBinary64, p.c[i])};
    }
  }
  return p;
}

// The operand_fuzz_test envelope for the carry-save units: 1.1 ulp plus a
// quarter ulp per unit of |B*C/R| and |A/R| (cancellation amplifies the
// transfer rounding).  Returns the error, or -1 when it is out of bounds.
double cs_error(double got, std::size_t i, const Pool& p) {
  const double want = p.fused[i];
  if (std::isnan(want)) return std::isnan(got) ? 0.0 : -1.0;
  if (std::isinf(want)) return same_bits(got, want) ? 0.0 : -1.0;
  if (want == 0.0) return got == 0.0 ? 0.0 : -1.0;
  const double err =
      PFloat::ulp_error(PFloat::from_double(kBinary64, got),
                        PFloat::from_double(kBinary64, want), 52);
  const double env = 1.1 + 0.25 * (std::fabs(p.b[i] * p.c[i] / want) +
                                   std::fabs(p.a[i] / want));
  return err <= env ? err : -1.0;
}

struct UnitState {
  UnitKind kind{};
  const char* span = "";
  std::unique_ptr<SimEngine> plain, profiled;
  HostProfiler profiler{false};
  // First pass over the pool: the verified results and their hashes.
  std::vector<std::vector<PFloat>> results;
  std::vector<std::uint64_t> result_hash, activity_hash;
  std::uint64_t toggles = 0;
  ActivityRecorder last;  // activity of the last measured round
  std::size_t last_round = 0;
};

EngineConfig engine_config(UnitKind kind, int threads) {
  EngineConfig cfg;
  cfg.unit = kind;
  cfg.threads = threads;
  cfg.shard_ops = kShardOps;
  return cfg;
}

}  // namespace

Outcome run_batch(const Options& opt, Tracer* tracer) {
  Outcome out;
  Pool pool;
  Samples setup = timed_setup(5, [&] { pool = make_pool(opt.seed); });

  UnitState units[4];
  for (int u = 0; u < 4; ++u) {
    UnitState& s = units[u];
    s.kind = kUnits[u];
    s.span = intern(std::string("engine.run_batch:") + to_string(s.kind));
    s.plain = std::make_unique<SimEngine>(engine_config(s.kind, kWorkers));
    EngineConfig cfg = engine_config(s.kind, kWorkers);
    cfg.profiler = &s.profiler;
    s.profiled = std::make_unique<SimEngine>(cfg);
    // First pass (also the warm-up): keep every result for the oracles.
    for (std::size_t r = 0; r < kPoolRounds; ++r) {
      BatchResult br = s.plain->run_batch(VectorSource(pool.rounds[r]));
      s.result_hash.push_back(
          hash_results(br.results.data(), br.results.size()));
      s.activity_hash.push_back(fnv1a(br.activity.to_json()));
      s.toggles += br.activity.total_toggles();
      s.results.push_back(std::move(br.results));
    }
  }
  const std::uint64_t first_pass_ops = 4 * kRoundOps * kPoolRounds;

  // The measured window: every round re-checks its results against the
  // first pass (determinism across repeated runs); the last round's
  // activity is compared after the window.
  const RoundLog log = run_rounds(opt.seconds, tracer, [&](Tracer* t,
                                                           std::uint64_t id) {
    const std::size_t k = (std::size_t)(id % kPoolRounds);
    for (UnitState& s : units) {
      BatchResult br;
      {
        Tracer::Scope span(t, s.span, id);
        br = (t != nullptr ? s.profiled : s.plain)
                 ->run_batch(VectorSource(pool.rounds[k]));
      }
      std::uint64_t rh;
      {
        Tracer::Scope span(t, "bench.hash", id);
        rh = hash_results(br.results.data(), br.results.size());
      }
      if (rh != s.result_hash[k])
        out.fail(kRoundOps, std::string(to_string(s.kind)) +
                                ": repeated round differs from first pass");
      s.last = std::move(br.activity);
      s.last_round = k;
    }
  });
  const std::uint64_t window_ops = 4 * kRoundOps * log.rounds;
  out.attempted = first_pass_ops + window_ops;

  // Oracles on the first pass: classic == std::fma, discrete == two
  // roundings, PCS/FCS within the fuzz envelope of the correctly rounded
  // result (whose mean error is the accuracy metric).
  double err_sum = 0.0;
  std::uint64_t err_n = 0;
  for (UnitState& s : units) {
    std::uint64_t bad = 0;
    for (std::size_t r = 0; r < kPoolRounds; ++r)
      for (std::size_t j = 0; j < kRoundOps; ++j) {
        const std::size_t i = r * kRoundOps + j;
        const double got = s.results[r][j].to_double();
        if (s.kind == UnitKind::Classic) {
          bad += !same_bits(got, pool.fused[i]);
        } else if (s.kind == UnitKind::Discrete) {
          bad += !same_bits(got, pool.twice[i]);
        } else {
          const double e = cs_error(got, i, pool);
          if (e < 0.0) {
            ++bad;
          } else if (std::isnormal(pool.fused[i])) {
            err_sum += e;
            ++err_n;
          }
        }
      }
    if (bad > 0)
      out.fail(bad, std::string(to_string(s.kind)) + ": " +
                        std::to_string(bad) + " results fail the host oracle");
  }

  // Scalar oracle: sampled rounds re-run through the base-class
  // FmaUnit::fma_ieee_batch must match bit for bit; the same ops through
  // the unit's own (sliced, where it has one) override give the same-run
  // speedup base.
  Samples scalar_ns, sliced_ns;
  const std::size_t sampled[] = {(std::size_t)(opt.seed % kPoolRounds),
                                 (std::size_t)((opt.seed + 7) % kPoolRounds)};
  for (UnitState& s : units) {
    for (std::size_t r : sampled) {
      const auto& ops = pool.rounds[r];
      std::vector<PFloat> scalar(kRoundOps), sliced(kRoundOps);
      std::unique_ptr<FmaUnit> unit = make_fma_unit(s.kind);
      const std::string key = to_string(s.kind);
      std::int64_t t0 = now_ns();
      {
        Tracer::Scope span(tracer, intern("fma." + key + ".scalar_batch"));
        unit->FmaUnit::fma_ieee_batch(ops.data(), kRoundOps, scalar.data(), {});
      }
      std::int64_t t1 = now_ns();
      {
        Tracer::Scope span(tracer, intern("fma." + key + ".batch"));
        unit->fma_ieee_batch(ops.data(), kRoundOps, sliced.data(), {});
      }
      std::int64_t t2 = now_ns();
      if (s.kind == UnitKind::Pcs) {
        scalar_ns.add((double)(t1 - t0) / kRoundOps);
        sliced_ns.add((double)(t2 - t1) / kRoundOps);
      }
      std::uint64_t bad = 0;
      for (std::size_t j = 0; j < kRoundOps; ++j)
        bad += !same_bits(scalar[j].to_double(), s.results[r][j].to_double()) ||
               !same_bits(sliced[j].to_double(), s.results[r][j].to_double());
      out.attempted += 2 * kRoundOps;
      if (bad > 0)
        out.fail(bad, key + ": engine results differ from the scalar oracle");
    }
    {
      Tracer::Scope span(tracer, "activity.to_json");
      out.require(fnv1a(s.last.to_json()) == s.activity_hash[s.last_round],
                  std::string(to_string(s.kind)) +
                      ": repeated round's activity differs from first pass");
    }
    // Worker-count invariance: one sampled round on two workers.
    SimEngine two(engine_config(s.kind, 2));
    BatchResult br = two.run_batch(VectorSource(pool.rounds[sampled[0]]));
    out.attempted += kRoundOps;
    out.require(hash_results(br.results.data(), br.results.size()) ==
                        s.result_hash[sampled[0]] &&
                    fnv1a(br.activity.to_json()) ==
                        s.activity_hash[sampled[0]],
                std::string(to_string(s.kind)) +
                    ": 1 and 2 engine workers disagree");
  }

  const double rate = log.rate(4.0 * kRoundOps);
  auto& m = out.metrics;
  m["throughput_per_s"] = rate;
  m["sim_ops_per_s"] = rate;
  m["latency_p50_ms"] = log.untraced_ms.median();
  m["latency_p90_ms"] = log.untraced_ms.quantile(0.9);
  m["latency_n"] = (double)log.untraced_ms.size();
  m["mean_ulp_error"] = ratio(err_sum, (double)err_n);
  for (UnitState& s : units) {
    const std::string key = to_string(s.kind);
    std::uint64_t h = kFnvBasis;
    for (std::uint64_t rh : s.result_hash) h = fnv1a(&rh, sizeof rh, h);
    m["result_fnv." + key] = hash_metric(h);
    m["activity." + key + ".toggles_per_op"] =
        ratio((double)s.toggles, (double)(kRoundOps * kPoolRounds));
  }
  m["unit.pcs.scalar_ns_per_op"] = scalar_ns.median();
  m["unit.pcs.sliced_ns_per_op"] = sliced_ns.median();
  m["slice.speedup_vs_scalar.pcs"] =
      ratio(scalar_ns.median(), sliced_ns.median());

  if (tracer != nullptr) {
    const auto totals = tracer->totals(true);
    const double rounds = (double)log.traced_ms.size();
    double run_s = 0.0, fill = 0.0, sim = 0.0, merge = 0.0;
    for (UnitState& s : units) {
      const double unit_s = per_round_s(totals, s.span, log);
      run_s += unit_s;
      m["unit." + std::string(to_string(s.kind)) + ".batch_ns_per_op"] =
          unit_s * 1e9 / (double)kRoundOps;
      fill += profiler_wall_s(s.profiler, "engine.fill") / rounds;
      sim += profiler_wall_s(s.profiler, "engine.simulate") / rounds;
      merge += profiler_wall_s(s.profiler, "engine.merge") / rounds;
    }
    m["engine.run_batch_s"] = run_s;
    m["engine.fill_s"] = fill;
    m["engine.simulate_s"] = sim;
    m["engine.merge_s"] = merge;
    // Wall time of run_batch not spent in its workers' fill/simulate
    // (split across kWorkers) or the merge: thread start/join, shard
    // claiming, unit construction, load imbalance.
    m["engine.overhead_s"] = run_s - merge - (fill + sim) / kWorkers;
    add_trace_metrics(*tracer, log, &out);
  }
  Pool again;
  finish_setup(std::move(setup), 5, [&] { again = make_pool(opt.seed); },
               &out);
  out.require(std::memcmp(again.fused.data(), pool.fused.data(),
                          pool.fused.size() * sizeof(double)) == 0,
              "inputs do not regenerate identically from the seed");
  return out;
}

}  // namespace perfbench
