// chained: the Sec. IV-B recurrence (RecurrenceChainSource, depth 50)
// through SimEngine::run_chained for all four units, with the event log on.
// It runs the scalar native lift/fma/lower core that Fig 14, Table II and
// activity DSE use and bypasses the sliced kernels entirely: the control
// for any slice change.  One round runs kChains chains through every unit;
// rounds cycle over a pool of kPoolRounds distinct chain sets.
#include <memory>

#include "bench.hpp"
#include "energy/workload.hpp"
#include "engine/sim_engine.hpp"

namespace perfbench {
namespace {

using namespace csfma;

constexpr int kDepth = 50;
constexpr std::size_t kChains = 32;
constexpr std::size_t kPoolRounds = 8;
constexpr std::size_t kOpsPerChain = 2 * (kDepth - 2);
constexpr std::size_t kRoundOps = kChains * kOpsPerChain;
// One engine worker, as in batch: its round times spread far less from run
// to run on a shared host than two workers' do; the 2-worker path is still
// checked for identical results after the window.
constexpr int kWorkers = 1;
constexpr Round kReadout = Round::HalfAwayFromZero;  // Fig 14's CS readout

// x[depth] of the recurrence in the 75-bit CoreGen format: Fig 14's golden.
PFloat golden(const RecurrenceInputs& in) {
  const FloatFormat f = kBinary75;
  const Round ne = Round::NearestEven;
  PFloat b1 = in.b1.round_to(f, ne), b2 = in.b2.round_to(f, ne);
  PFloat x3 = in.x[0].round_to(f, ne), x2 = in.x[1].round_to(f, ne),
         x1 = in.x[2].round_to(f, ne);
  for (int i = 3; i <= kDepth; ++i) {
    PFloat t = PFloat::add(PFloat::mul(b2, x2, f, ne), x3, f, ne);
    PFloat x = PFloat::add(PFloat::mul(b1, x1, f, ne), t, f, ne);
    x3 = x2;
    x2 = x1;
    x1 = x;
  }
  return x1;
}

struct Pool {
  std::vector<std::unique_ptr<RecurrenceChainSource>> rounds;
  std::vector<PFloat> golden;  // per chain, flat index
};

Pool make_pool(std::uint64_t seed) {
  const std::vector<RecurrenceInputs> inputs =
      recurrence_inputs(seed * 0x9e3779b97f4a7c15ULL + 0xc4a1,
                        (int)(kChains * kPoolRounds));
  Pool p;
  for (const RecurrenceInputs& in : inputs) p.golden.push_back(golden(in));
  for (std::size_t r = 0; r < kPoolRounds; ++r)
    p.rounds.push_back(std::make_unique<RecurrenceChainSource>(
        std::vector<RecurrenceInputs>(inputs.begin() + r * kChains,
                                      inputs.begin() + (r + 1) * kChains),
        kDepth));
  return p;
}

EngineConfig engine_config(UnitKind kind, int threads) {
  EngineConfig cfg;
  cfg.unit = kind;
  cfg.threads = threads;
  cfg.shard_ops = kRoundOps / 4;  // four shards of whole chains
  cfg.rm = kReadout;
  cfg.event_capacity = 256;
  return cfg;
}

struct UnitState {
  UnitKind kind{};
  const char* span = "";
  std::unique_ptr<SimEngine> plain, profiled;
  HostProfiler profiler{false};
  std::vector<std::vector<PFloat>> results;
  std::vector<std::uint64_t> result_hash, activity_hash, event_hash;
  std::uint64_t toggles = 0, events = 0;
  BatchResult last;  // the last measured round
  std::size_t last_round = 0;
};

}  // namespace

Outcome run_chained(const Options& opt, Tracer* tracer) {
  Outcome out;
  Pool pool;
  Samples setup = timed_setup(5, [&] { pool = make_pool(opt.seed); });

  UnitState units[4];
  for (int u = 0; u < 4; ++u) {
    UnitState& s = units[u];
    s.kind = kUnits[u];
    s.span = intern(std::string("engine.run_chained:") + to_string(s.kind));
    s.plain = std::make_unique<SimEngine>(engine_config(s.kind, kWorkers));
    EngineConfig cfg = engine_config(s.kind, kWorkers);
    cfg.profiler = &s.profiler;
    s.profiled = std::make_unique<SimEngine>(cfg);
    for (std::size_t r = 0; r < kPoolRounds; ++r) {
      BatchResult br = s.plain->run_chained(*pool.rounds[r]);
      s.result_hash.push_back(
          hash_results(br.results.data(), br.results.size()));
      s.activity_hash.push_back(fnv1a(br.activity.to_json()));
      s.event_hash.push_back(fnv1a(br.events.to_json()));
      s.toggles += br.activity.total_toggles();
      s.events += br.events.raised();
      s.results.push_back(std::move(br.results));
    }
  }
  const std::uint64_t first_pass_ops = 4 * kRoundOps * kPoolRounds;

  const RoundLog log = run_rounds(opt.seconds, tracer, [&](Tracer* t,
                                                           std::uint64_t id) {
    const std::size_t k = (std::size_t)(id % kPoolRounds);
    for (UnitState& s : units) {
      BatchResult br;
      {
        Tracer::Scope span(t, s.span, id);
        br = (t != nullptr ? s.profiled : s.plain)
                 ->run_chained(*pool.rounds[k]);
      }
      std::uint64_t rh;
      {
        Tracer::Scope span(t, "bench.hash", id);
        rh = hash_results(br.results.data(), br.results.size());
      }
      if (rh != s.result_hash[k])
        out.fail(kRoundOps, std::string(to_string(s.kind)) +
                                ": repeated round differs from first pass");
      s.last = std::move(br);
      s.last_round = k;
    }
  });
  out.attempted = first_pass_ops + 4 * kRoundOps * log.rounds;

  // Oracle: sampled chains replayed through the unit's own lift/fma/lower,
  // keeping native operands between operations exactly as the recurrence
  // wires them, must reproduce the engine's readouts bit for bit.
  const std::size_t r0 = (std::size_t)(opt.seed % kPoolRounds);
  for (UnitState& s : units) {
    const std::string key = to_string(s.kind);
    const char* lift = intern("fma." + key + ".lift");
    const char* fma = intern("fma." + key + ".fma");
    const char* lower = intern("fma." + key + ".lower");
    std::unique_ptr<FmaUnit> unit = make_fma_unit(s.kind);
    std::vector<ChainedOp> ops(kOpsPerChain);
    std::vector<FmaOperand> natives(kOpsPerChain);
    auto operand = [&](std::int64_t ref, const PFloat& v) {
      if (ref >= 0) return natives[(std::size_t)ref];
      Tracer::Scope span(tracer, lift);
      return unit->lift(v);
    };
    std::uint64_t bad = 0;
    for (std::size_t g = 0; g < kChains; g += 4) {
      {
        Tracer::Scope span(tracer, "energy.fill_chain");
        pool.rounds[r0]->fill_chain(g, ops.data());
      }
      for (std::size_t j = 0; j < kOpsPerChain; ++j) {
        const ChainedOp& op = ops[j];
        const FmaOperand a = operand(op.a_ref, op.a);
        const FmaOperand c = operand(op.c_ref, op.c);
        {
          Tracer::Scope span(tracer, fma);
          natives[j] = unit->fma(a, op.b, c);
        }
        PFloat r;
        {
          Tracer::Scope span(tracer, lower);
          r = unit->lower(natives[j], kReadout);
        }
        bad += !same_bits(r.to_double(),
                          s.results[r0][g * kOpsPerChain + j].to_double());
      }
      out.attempted += kOpsPerChain;
    }
    if (bad > 0)
      out.fail(bad, key + ": engine chains differ from the lift/fma/lower replay");
    // The last measured round's activity and events match the first pass.
    {
      Tracer::Scope span(tracer, "activity.to_json");
      out.require(fnv1a(s.last.activity.to_json()) ==
                      s.activity_hash[s.last_round],
                  key + ": repeated round's activity differs");
    }
    {
      Tracer::Scope span(tracer, "introspect.to_json");
      out.require(fnv1a(s.last.events.to_json()) == s.event_hash[s.last_round],
                  key + ": repeated round's events differ");
    }
    // Worker-count invariance on one round.
    SimEngine two(engine_config(s.kind, 2));
    BatchResult br = two.run_chained(*pool.rounds[r0]);
    out.attempted += kRoundOps;
    out.require(
        hash_results(br.results.data(), br.results.size()) ==
                s.result_hash[r0] &&
            fnv1a(br.activity.to_json()) == s.activity_hash[r0] &&
            fnv1a(br.events.to_json()) == s.event_hash[r0],
        key + ": 1 and 2 engine workers disagree");
  }

  // Fig 14 accuracy: x[50] of every pool chain against the 75-bit golden.
  double err = 0.0;
  std::uint64_t err_n = 0;
  for (UnitState& s : units) {
    if (s.kind != UnitKind::Pcs && s.kind != UnitKind::Fcs) continue;
    for (std::size_t r = 0; r < kPoolRounds; ++r)
      for (std::size_t g = 0; g < kChains; ++g) {
        err += PFloat::ulp_error(s.results[r][(g + 1) * kOpsPerChain - 1],
                                 pool.golden[r * kChains + g], 52);
        ++err_n;
      }
  }

  const double rate = log.rate(4.0 * kRoundOps);
  auto& m = out.metrics;
  m["throughput_per_s"] = rate;
  m["sim_ops_per_s"] = rate;
  m["latency_p50_ms"] = log.untraced_ms.median();
  m["latency_p90_ms"] = log.untraced_ms.quantile(0.9);
  m["latency_n"] = (double)log.untraced_ms.size();
  m["mean_ulp_error"] = ratio(err, (double)err_n);
  std::uint64_t events = 0;
  for (UnitState& s : units) {
    const std::string key = to_string(s.kind);
    std::uint64_t h = kFnvBasis;
    for (std::uint64_t rh : s.result_hash) h = fnv1a(&rh, sizeof rh, h);
    m["result_fnv." + key] = hash_metric(h);
    m["activity." + key + ".toggles_per_op"] =
        ratio((double)s.toggles, (double)(kRoundOps * kPoolRounds));
    events += s.events;
  }
  m["introspect.events_per_op"] = ratio((double)events, (double)first_pass_ops);

  if (tracer != nullptr) {
    const auto in = tracer->totals(true);
    const auto post = tracer->totals(false);
    const double rounds = (double)log.traced_ms.size();
    double run_s = 0.0, fill = 0.0, sim = 0.0, merge = 0.0;
    for (UnitState& s : units) {
      run_s += per_round_s(in, s.span, log);
      fill += profiler_wall_s(s.profiler, "engine.fill") / rounds;
      sim += profiler_wall_s(s.profiler, "engine.simulate") / rounds;
      merge += profiler_wall_s(s.profiler, "engine.merge") / rounds;
      const std::string key = to_string(s.kind);
      for (const char* op : {"lift", "fma", "lower"}) {
        const auto it = post.find("fma." + key + "." + op);
        if (it == post.end()) continue;
        const bool cs = s.kind == UnitKind::Pcs || s.kind == UnitKind::Fcs;
        if (cs || std::string(op) == "fma")
          m["unit." + key + "." + op + "_ns"] =
              it->second.total_s * 1e9 / (double)it->second.count;
      }
    }
    m["engine.run_chained_s"] = run_s;
    m["energy.fill_chain_s"] = fill;
    m["engine.simulate_s"] = sim;
    m["engine.merge_s"] = merge;
    m["engine.overhead_s"] = run_s - merge - (fill + sim) / kWorkers;
    add_trace_metrics(*tracer, log, &out);
  }
  Pool again;
  finish_setup(std::move(setup), 5, [&] { again = make_pool(opt.seed); },
               &out);
  out.require(hash_results(again.golden.data(), again.golden.size()) ==
                  hash_results(pool.golden.data(), pool.golden.size()),
              "inputs do not regenerate identically from the seed");
  return out;
}

}  // namespace perfbench
