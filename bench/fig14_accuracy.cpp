// Fig 14 — average mantissa error of x[50] for the Sec. IV-B recurrence
//   x[n] = B1*x[n-1] + B2*x[n-2] + x[n-3],  1 < |B1| < 32, 0 < |B2| < 1,
// arithmetic mean over 20 computations, against the 75b CoreGen-style
// golden reference.  Ladder: 64b discrete, 68b discrete, PCS-FMA chain,
// FCS-FMA chain (the paper plots 64b, 68b and FCS).
//   fig14_accuracy [--json <path>] [--threads <n>]
//                  [--backend scalar|sliced] [--workers <n>]
//
// --threads (or the harness-wide --workers spelling) sets the engine
// worker count for the chained runs; every output — ulp numbers AND the
// merged event-log JSON — is byte-identical for any value (the CI
// determinism gate diffs 1 vs 4, and the backend-equivalence gate diffs
// scalar vs sliced on top).
//
// The P/FCS chains run through SimEngine::run_chained (operands stay in
// CS form with their deferred-rounding tails between operations); the
// format ladder runs the discrete pipeline at binary64/68/75, which are
// operand FORMATS, not FmaUnit architectures.  Both halves live in
// src/energy/workload.hpp (recurrence_finals, discrete_recurrence).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "energy/workload.hpp"
#include "harness.hpp"
#include "telemetry/report.hpp"

namespace {

using namespace csfma;

/// Fig 14's own draw: |B2| from 1e-6, wider than recurrence_inputs().
RecurrenceInputs random_inputs(Rng& rng) {
  const double b1 = rng.next_double(1.0, 32.0) * (rng.next_bool() ? 1 : -1);
  const double b2 = rng.next_double(1e-6, 1.0) * (rng.next_bool() ? 1 : -1);
  RecurrenceInputs in;
  in.b1 = PFloat::from_double(kBinary64, b1);
  in.b2 = PFloat::from_double(kBinary64, b2);
  for (auto& x : in.x)
    x = PFloat::from_double(kBinary64, rng.next_double(-1.0, 1.0));
  return in;
}

}  // namespace

int main(int argc, char** argv) {
  const HarnessOptions hopts = extract_harness_args(argc, argv);
  const ReportCliArgs out_paths = extract_report_args(argc, argv);
  int threads = hopts.workers > 0 ? hopts.workers : 1;  // --workers alias
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--threads") threads = std::atoi(argv[i + 1]);
  }
  const int kRuns = 20, kDepth = 50;
  const std::uint64_t kSeed = 424242;
  Rng rng(kSeed);
  std::vector<RecurrenceInputs> inputs;
  for (int run = 0; run < kRuns; ++run) inputs.push_back(random_inputs(rng));
  BenchHarness harness("fig14_accuracy", hopts);
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.event_capacity = 256;
  harness.configure_engine(cfg);
  const std::uint64_t ops_per_rep =
      (std::uint64_t)kRuns * 2u * (std::uint64_t)(kDepth - 2);
  EventLog pcs_events(0), fcs_events(0);
  std::vector<PFloat> pcs_finals, fcs_finals;
  harness.measure(
      "chain.pcs",
      [&] {
        cfg.unit = UnitKind::Pcs;
        pcs_finals = recurrence_finals(cfg, inputs, kDepth, &pcs_events);
      },
      ops_per_rep);
  harness.measure(
      "chain.fcs",
      [&] {
        cfg.unit = UnitKind::Fcs;
        fcs_finals = recurrence_finals(cfg, inputs, kDepth, &fcs_events);
      },
      ops_per_rep);

  double e64 = 0, e68 = 0, e_pcs = 0, e_fcs = 0;
  harness.measure(
      "format_ladder",
      [&] {
        e64 = e68 = e_pcs = e_fcs = 0;
        for (int run = 0; run < kRuns; ++run) {
          const RecurrenceInputs& in = inputs[(std::size_t)run];
          const PFloat golden = discrete_recurrence(in, kBinary75, kDepth);
          e64 += PFloat::ulp_error(discrete_recurrence(in, kBinary64, kDepth),
                                   golden, 52);
          e68 += PFloat::ulp_error(discrete_recurrence(in, kBinary68, kDepth),
                                   golden, 52);
          e_pcs += PFloat::ulp_error(pcs_finals[(std::size_t)run], golden, 52);
          e_fcs += PFloat::ulp_error(fcs_finals[(std::size_t)run], golden, 52);
        }
      },
      ops_per_rep);
  e64 /= kRuns;
  e68 /= kRuns;
  e_pcs /= kRuns;
  e_fcs /= kRuns;

  std::printf("Fig 14 — average mantissa error of x[50] vs the 75b golden\n");
  std::printf("(arithmetic mean over %d computations, in binary64 ulps)\n\n",
              kRuns);
  auto bar = [](double v) {
    int n = (int)(v * 4.0 + 0.5);
    for (int i = 0; i < n && i < 60; ++i) std::printf("#");
    std::printf("\n");
  };
  std::printf("  64b (IEEE double)   %8.3f ulp   ", e64);
  bar(e64);
  std::printf("  68b (wider CoreGen) %8.3f ulp   ", e68);
  bar(e68);
  std::printf("  PCS-FMA chain       %8.3f ulp   ", e_pcs);
  bar(e_pcs);
  std::printf("  FCS-FMA chain       %8.3f ulp   ", e_fcs);
  bar(e_fcs);
  std::printf("\npaper's claim: both P/FCS-FMA chains clearly outperform\n"
              "standard double precision in average accuracy: %s\n",
              (e_pcs < e64 && e_fcs < e64) ? "REPRODUCED" : "NOT reproduced");
  std::printf("\nnumerical events along the chains (see docs/observability.md):\n"
              "  PCS: %llu raised (%llu logged)   FCS: %llu raised (%llu "
              "logged)\n",
              (unsigned long long)pcs_events.raised(),
              (unsigned long long)pcs_events.events().size(),
              (unsigned long long)fcs_events.raised(),
              (unsigned long long)fcs_events.events().size());

  if (!out_paths.json_path.empty()) {
    Report report("fig14_accuracy");
    report.meta("seed", kSeed);
    report.meta("runs", kRuns);
    report.meta("depth", kDepth);
    report.meta("reference", "binary75 discrete");
    report.metric("ulp.64b", e64);
    report.metric("ulp.68b", e68);
    report.metric("ulp.pcs", e_pcs);
    report.metric("ulp.fcs", e_fcs);
    report.metric("reproduced",
                  (std::uint64_t)((e_pcs < e64 && e_fcs < e64) ? 1 : 0));
    report.table("fig14", {"ladder", "avg_ulp_error"},
                 {{"64b (IEEE double)", e64},
                  {"68b (wider CoreGen)", e68},
                  {"PCS-FMA chain", e_pcs},
                  {"FCS-FMA chain", e_fcs}});
    // The numerical event logs of the chained runs (shard-order merged by
    // the engine; byte-identical for any thread count).
    report.section("events.pcs", pcs_events.to_json());
    report.section("events.fcs", fcs_events.to_json());
    harness.attach(report);
    report.write_json(out_paths.json_path);
  }
  return (e_pcs < e64 && e_fcs < e64) ? 0 : 1;
}
