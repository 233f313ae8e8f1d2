// Ablation — PCS carry-bit spacing (Sec. III-E): the paper's constraint
// analysis allows explicit carries every 5th, 11th or 55th bit; it picks 11
// because the 5b->11b group-adder delay difference is negligible while the
// carry-bit count (area, operand width) drops.  Future work (Sec. V)
// mentions exploring other densities with a 56b block.
//   ablation_carry_spacing [--json <path>] [--csv <path>]
#include <cstdio>
#include <vector>

#include "cs/pcs.hpp"
#include "common/rng.hpp"
#include "fpga/device.hpp"
#include "harness.hpp"
#include "telemetry/report.hpp"

int main(int argc, char** argv) {
  using namespace csfma;
  HarnessOptions hopts = extract_harness_args(argc, argv);
  const ReportCliArgs out_paths = extract_report_args(argc, argv);
  const Device dev = virtex6();

  // Host-perf phase: the carry_reduce hot loop on the paper's 11b spacing.
  BenchHarness harness("ablation_carry_spacing", hopts);
  {
    constexpr std::uint64_t kReduces = 2000;
    Rng prng(78);
    harness.measure(
        "carry_reduce.11",
        [&] {
          bool ok = true;
          for (std::uint64_t i = 0; i < kReduces; ++i) {
            CsNum x(385, prng.next_wide_bits<7>(385),
                    prng.next_wide_bits<7>(385));
            ok = ok && (carry_reduce(x, 11).to_binary() == x.to_binary());
          }
          volatile bool keep = ok;
          (void)keep;
        },
        kReduces);
  }

  Report report("ablation_carry_spacing");
  report.meta("device", "Virtex-6");
  report.meta("adder_width", 385);
  std::vector<std::vector<ReportCell>> rows;
  std::printf("Ablation — PCS carry spacing on the 385b adder result\n");
  std::printf("%7s | %12s | %11s | %13s | %s\n", "group", "adder [ns]",
              "carry bits", "operand bits", "value-preserving?");
  std::printf("%.*s\n", 70, "--------------------------------------------------"
                            "--------------------");
  Rng rng(77);
  for (int group : {5, 11, 55}) {
    // Functional check: reduction preserves the value on random data.
    bool ok = true;
    for (int i = 0; i < 2000; ++i) {
      CsNum x(385, rng.next_wide_bits<7>(385), rng.next_wide_bits<7>(385));
      ok = ok && (carry_reduce(x, group).to_binary() == x.to_binary());
    }
    const int carries_385 = 385 / group;
    const int mant_carries = 110 / group;
    const int tail_carries = 55 / group;
    const int operand_bits = 110 + mant_carries + 55 + tail_carries + 12;
    std::printf("%7d | %12.3f | %11d | %13d | %s\n", group,
                dev.adder_delay_ns(group), carries_385, operand_bits,
                ok ? "yes" : "NO");
    const std::string key = "group." + std::to_string(group);
    report.metric(key + ".adder_ns", dev.adder_delay_ns(group));
    report.metric(key + ".carry_bits", (std::uint64_t)carries_385);
    report.metric(key + ".operand_bits", (std::uint64_t)operand_bits);
    report.metric(key + ".value_preserving", (std::uint64_t)(ok ? 1 : 0));
    rows.push_back({group, dev.adder_delay_ns(group), carries_385,
                    operand_bits, ok ? "yes" : "no"});
  }
  std::printf("\npaper datapoints: 5b adder 1.650 ns vs 11b adder 1.742 ns —\n"
              "the 11-bit spacing costs <0.1 ns but saves half the carry "
              "bits;\nthe 55b spacing's group adder is the full-block adder "
              "(too slow\nto be 'free' within a 5 ns stage alongside other "
              "logic).\n");
  if (!out_paths.json_path.empty() || !out_paths.csv_path.empty()) {
    report.table("carry_spacing",
                 {"group", "adder_ns", "carry_bits", "operand_bits",
                  "value_preserving"},
                 std::move(rows));
    harness.attach(report);
    if (!out_paths.json_path.empty()) report.write_json(out_paths.json_path);
    if (!out_paths.csv_path.empty())
      report.write_csv(out_paths.csv_path, "carry_spacing");
  }
  return 0;
}
