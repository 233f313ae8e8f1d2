// Accuracy exploration of the carry-save formats: run the Sec. IV-B
// recurrence at increasing depth and watch the error of each number system
// grow relative to the 75b golden — the analysis behind Fig 14, exposed
// as an API walk-through for the engine layer:
//
//   * recurrence_inputs()     draws the shared workload coefficients,
//   * RecurrenceChainSource   unrolls them into chained multiply-adds,
//   * recurrence_finals()     streams them through an FmaUnit with
//                             SimEngine::run_chained, keeping CS operands
//                             (deferred-rounding tails) between the links
//                             of each chain, and keeps each chain's x[depth],
//   * discrete_recurrence()   runs the two-rounding pipeline at 64/68/75b:
//                             operand FORMATS, not FmaUnit architectures.
//
//   ./build/examples/accuracy_explorer [runs]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "energy/workload.hpp"
#include "engine/sim_engine.hpp"

using namespace csfma;

int main(int argc, char** argv) {
  const int runs = argc > 1 ? std::atoi(argv[1]) : 20;
  const std::vector<RecurrenceInputs> inputs = recurrence_inputs(2026, runs);

  std::printf("mean |error| of x[depth] vs 75b golden, in binary64 ulps "
              "(%d runs)\n\n", runs);
  std::printf("%6s | %10s | %10s | %10s | %10s\n", "depth", "64b", "68b",
              "PCS chain", "FCS chain");
  std::printf("%.*s\n", 60, "--------------------------------------------------"
                            "----------");
  for (int depth : {10, 20, 35, 50, 80}) {
    EngineConfig pcs_cfg, fcs_cfg;
    pcs_cfg.unit = UnitKind::Pcs;
    fcs_cfg.unit = UnitKind::Fcs;
    const std::vector<PFloat> pcs = recurrence_finals(pcs_cfg, inputs, depth);
    const std::vector<PFloat> fcs = recurrence_finals(fcs_cfg, inputs, depth);
    double e64 = 0, e68 = 0, ep = 0, ef = 0;
    for (int i = 0; i < runs; ++i) {
      const RecurrenceInputs& in = inputs[(std::size_t)i];
      const PFloat golden = discrete_recurrence(in, kBinary75, depth);
      e64 += PFloat::ulp_error(discrete_recurrence(in, kBinary64, depth),
                               golden, 52);
      e68 += PFloat::ulp_error(discrete_recurrence(in, kBinary68, depth),
                               golden, 52);
      ep += PFloat::ulp_error(pcs[(std::size_t)i], golden, 52);
      ef += PFloat::ulp_error(fcs[(std::size_t)i], golden, 52);
    }
    std::printf("%6d | %10.3f | %10.3f | %10.3f | %10.3f\n", depth, e64 / runs,
                e68 / runs, ep / runs, ef / runs);
  }
  std::printf("\nthe CS chains round once per readout instead of twice per\n"
              "multiply-add, so their error grows markedly slower than 64b.\n");
  return 0;
}
