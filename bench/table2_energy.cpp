// Table II — average energy per multiply-add (nJ), from switching activity
// of the Sec. IV-B recurrence in steady state.  The (alpha, beta) model is
// calibrated on the Xilinx and PCS anchors; FloPoCo and FCS are model
// predictions (see src/energy/energy_model.hpp).
//   table2_energy [--json <path>] [--csv <path>]
#include <cstdio>

#include "energy/energy_model.hpp"
#include "fpga/architectures.hpp"
#include "harness.hpp"
#include "telemetry/json.hpp"
#include "telemetry/report.hpp"

int main(int argc, char** argv) {
  using namespace csfma;
  const HarnessOptions hopts = extract_harness_args(argc, argv);
  const ReportCliArgs out_paths = extract_report_args(argc, argv);
  BenchHarness harness("table2_energy", hopts);
  const auto measure = [&harness](const char* phase, UnitKind kind) {
    const UnitFactory make_unit = [kind](ActivityRecorder* rec) {
      return make_fma_unit(kind, rec);
    };
    ActivityMeasurement m;
    harness.measure(
        phase,
        [&] { m = measure_recurrence(make_unit, kTableIISeed, kTableIIOps); },
        kTableIIOps);
    return m;
  };
  const ActivityMeasurement disc =
      measure("measure.discrete", UnitKind::Discrete);
  const ActivityMeasurement classic =
      measure("measure.classic", UnitKind::Classic);
  const ActivityMeasurement pcs = measure("measure.pcs", UnitKind::Pcs);
  const ActivityMeasurement fcs = measure("measure.fcs", UnitKind::Fcs);

  auto t1 = table1_reports(virtex6(), 200.0);
  auto luts = [&t1](const char* n) {
    for (const auto& r : t1)
      if (r.arch == n) return r.luts;
    return 0;
  };
  const int l_x = luts("Xilinx CoreGen"), l_f = luts("FloPoCo FPPipeline"),
            l_p = luts("PCS-FMA"), l_c = luts("FCS-FMA");

  const EnergyCoefficients& k = energy_coefficients();

  std::printf("Table II — average energy per multiply-add (nJ)\n");
  std::printf("calibration: alpha=%.3e nJ/toggle  beta=%.3e nJ/LUT "
              "(anchored on Xilinx=0.54, PCS=2.67)\n\n",
              k.alpha_nj_per_toggle, k.beta_nj_per_lut);
  std::printf("%-20s | %12s | %6s | %10s | %10s\n", "Architecture",
              "toggles/op", "LUTs", "paper [nJ]", "model [nJ]");
  std::printf("%.*s\n", 72, "--------------------------------------------------"
                            "----------------------");
  std::printf("%-20s | %12.1f | %6d | %10.2f | %10.2f  (anchor)\n",
              "Xilinx (Mul+Add)", disc.toggles_per_op, l_x, 0.54,
              energy_per_op_nj(k, disc.toggles_per_op, l_x));
  std::printf("%-20s | %12.1f | %6d | %10.2f | %10.2f  (prediction)\n",
              "FloPoCo", classic.toggles_per_op, l_f, 0.74,
              energy_per_op_nj(k, classic.toggles_per_op, l_f));
  std::printf("%-20s | %12.1f | %6d | %10.2f | %10.2f  (anchor)\n", "PCS-FMA",
              pcs.toggles_per_op, l_p, 2.67,
              energy_per_op_nj(k, pcs.toggles_per_op, l_p));
  std::printf("%-20s | %12.1f | %6d | %10.2f | %10.2f  (prediction)\n",
              "FCS-FMA", fcs.toggles_per_op, l_c, 2.36,
              energy_per_op_nj(k, fcs.toggles_per_op, l_c));
  std::printf("\npaper's headline: the P/FCS units draw 4-5x the discrete "
              "pair; the CSA planes dominate the activity:\n");
  std::printf("  PCS/Xilinx energy ratio: model %.1fx (paper %.1fx)\n",
              energy_per_op_nj(k, pcs.toggles_per_op, l_p) /
                  energy_per_op_nj(k, disc.toggles_per_op, l_x),
              2.67 / 0.54);
  std::printf("  toggles ratio PCS/discrete: %.1fx\n",
              pcs.toggles_per_op / disc.toggles_per_op);

  // The XPower "analysis details" view (Sec. IV-C): where the PCS unit's
  // activity actually happens.
  std::printf("\nPCS-FMA per-component activity (toggles/op):\n");
  for (const auto& [name, t] : pcs.by_component) {
    std::printf("  %-14s %8.1f  (%4.1f%%)\n", name.c_str(), t,
                100.0 * t / pcs.toggles_per_op);
  }

  // Per-pipeline-stage attribution: stages partition the probes, so each
  // unit's stage toggles sum exactly to its per-unit total above.
  std::printf("\nPer-stage activity (toggles/op; stages sum to the unit "
              "total):\n");
  const struct {
    const char* name;
    const ActivityMeasurement* m;
  } stage_rows[] = {{"Xilinx (Mul+Add)", &disc},
                    {"FloPoCo", &classic},
                    {"PCS-FMA", &pcs},
                    {"FCS-FMA", &fcs}};
  for (const auto& row : stage_rows) {
    std::printf("  %-18s", row.name);
    for (const auto& [stage, t] : row.m->by_stage) {
      std::printf("  %s=%.1f", stage.empty() ? "(unlabelled)" : stage.c_str(),
                  t);
    }
    std::printf("  | total=%.1f\n", row.m->toggles_per_op);
  }

  if (!out_paths.json_path.empty() || !out_paths.csv_path.empty()) {
    Report report("table2_energy");
    report.meta("seed", kTableIISeed);
    report.meta("runs", kTableIIChains);
    report.meta("depth", kRecurrenceDepth);
    report.meta("anchors", "Xilinx=0.54nJ PCS=2.67nJ");
    report.metric("calibration.alpha_nj_per_toggle", k.alpha_nj_per_toggle);
    report.metric("calibration.beta_nj_per_lut", k.beta_nj_per_lut);
    struct Row {
      const char* arch;
      const ActivityMeasurement* m;
      int luts;
      double paper_nj;
    };
    const Row table2_rows[] = {{"Xilinx (Mul+Add)", &disc, l_x, 0.54},
                               {"FloPoCo", &classic, l_f, 0.74},
                               {"PCS-FMA", &pcs, l_p, 2.67},
                               {"FCS-FMA", &fcs, l_c, 2.36}};
    std::vector<std::vector<ReportCell>> out_rows;
    for (const auto& row : table2_rows) {
      const double model_nj =
          energy_per_op_nj(k, row.m->toggles_per_op, row.luts);
      report.metric(std::string(row.arch) + ".toggles_per_op",
                    row.m->toggles_per_op);
      report.metric(std::string(row.arch) + ".energy_nj", model_nj);
      report.metric(std::string(row.arch) + ".ops", row.m->ops);
      out_rows.push_back({row.arch, row.m->toggles_per_op, row.luts,
                          row.paper_nj, model_nj});
    }
    report.table("table2",
                 {"arch", "toggles_per_op", "luts", "paper_nj", "model_nj"},
                 std::move(out_rows));
    // Appends `"name":` (separate appends: g++ 12 -O3 reports a false
    // -Wrestrict on `"literal" + std::string`).
    auto key = [](std::string& out, std::string_view name) {
      out += '"';
      out += json_escape(name);
      out += "\":";
    };
    // The XPower-style per-probe breakdown of the PCS capture, the Table II
    // toggle data made inspectable per component.
    {
      std::string by_comp = "{";
      bool first = true;
      for (const auto& [name, t] : pcs.by_component) {
        if (!first) by_comp += ',';
        first = false;
        key(by_comp, name);
        by_comp += json_double(t);
      }
      by_comp += "}";
      report.section("pcs_by_component", by_comp);
    }
    // Per-stage activity attribution for every unit (scripts/check_report.py
    // validates that stage toggles sum to the unit total).
    {
      std::string stage_json = "{";
      bool first_arch = true;
      for (const auto& row : stage_rows) {
        if (!first_arch) stage_json += ',';
        first_arch = false;
        std::uint64_t total = 0;
        for (const auto& [stage, t] : row.m->stage_toggles) total += t;
        key(stage_json, row.name);
        stage_json += "{\"total_toggles\":";
        stage_json += std::to_string(total);
        stage_json += ",\"ops\":";
        stage_json += std::to_string(row.m->ops);
        stage_json += ",\"stages\":{";
        bool first_stage = true;
        for (const auto& [stage, t] : row.m->stage_toggles) {
          if (!first_stage) stage_json += ',';
          first_stage = false;
          key(stage_json, stage);
          stage_json += std::to_string(t);
        }
        stage_json += "}}";
      }
      stage_json += "}";
      report.section("stage_activity", stage_json);
    }
    harness.attach(report);
    if (!out_paths.json_path.empty()) report.write_json(out_paths.json_path);
    if (!out_paths.csv_path.empty())
      report.write_csv(out_paths.csv_path, "table2");
  }
  return 0;
}
