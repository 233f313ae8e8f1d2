// End-to-end integration: the whole paper pipeline in one test file.
//
//   MPC QP --> KKT --> LDL' --> generated ldlsolve() --> parse --> FMA
//   insertion --> interpret (with the bit-accurate PCS/FCS simulators)
//   --> compare against the numeric interior-point reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "energy/workload.hpp"
#include "fpga/architectures.hpp"
#include "frontend/parser.hpp"
#include "hls/fma_insert.hpp"
#include "hls/interp.hpp"
#include "hls/schedule.hpp"
#include "solver/solvers.hpp"

namespace csfma {
namespace {

TEST(Pipeline, HardwareKernelComputesValidNewtonStep) {
  // Build the QP, take the first barrier Newton system, solve it (a) with
  // the dense reference and (b) with the generated kernel transformed by
  // the FCS insertion pass and interpreted through the real simulators.
  const double x0[4] = {0, 0, 1, 0};
  const double xref[4] = {8, 3, 0, 0};
  MpcProblem p = build_mpc(4, x0, xref);
  BenchmarkSolver s = make_benchmark_solver("it", 4);

  // The first Newton system at z = 0, mu = 1.
  std::vector<double> phi((size_t)p.nz, 0.0), grad((size_t)p.nz);
  for (int i = 0; i < p.nz; ++i) {
    grad[(size_t)i] = p.q_lin[(size_t)i];
    if (std::isfinite(p.lb[(size_t)i])) {
      grad[(size_t)i] -= 1.0 / (0.0 - p.lb[(size_t)i]);
      phi[(size_t)i] += 1.0 / (p.lb[(size_t)i] * p.lb[(size_t)i]);
    }
    if (std::isfinite(p.ub[(size_t)i])) {
      grad[(size_t)i] += 1.0 / p.ub[(size_t)i];
      phi[(size_t)i] += 1.0 / (p.ub[(size_t)i] * p.ub[(size_t)i]);
    }
  }
  Dense kk = kkt_matrix(p, phi, 1e-9);
  LdlFactors f = ldl_factor_dense(kk);
  std::vector<double> rhs((size_t)p.nk, 0.0);
  for (int i = 0; i < p.nz; ++i) rhs[(size_t)p.kkt_var(i)] = -grad[(size_t)i];
  for (int e = 0; e < p.ne; ++e) rhs[(size_t)p.kkt_dual(e)] = p.b_eq[(size_t)e];
  std::vector<double> want = ldl_solve_dense(f, rhs);

  // Feed the same factors through the generated + transformed kernel.
  KernelInfo k = parse_kernel(s.ldlsolve_src);
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  Cdfg fused = k.graph;
  insert_fma_units(fused, lib, FmaStyle::Fcs);
  std::map<std::string, double> in;
  std::vector<double> lv = pack_l_values(s.sym, f);
  for (int m = 0; m < s.sym.nnz(); ++m)
    in[element_name("Lv", m, true)] = lv[(size_t)m];
  for (int i = 0; i < p.nk; ++i) {
    in[element_name("dinv", i, true)] = 1.0 / f.d[(size_t)i];
    in[element_name("b", i, true)] = rhs[(size_t)i];
  }
  auto out = Evaluator(fused).run(in);
  for (int i = 0; i < p.nk; ++i) {
    double got = out.at(element_name("x", i, true));
    ASSERT_NEAR(got, want[(size_t)i], 1e-8 * (1.0 + std::fabs(want[(size_t)i])))
        << "x[" << i << "]";
  }
}

TEST(Pipeline, FullIpmTrajectoryIsDynamicallyFeasible) {
  const double x0[4] = {0, 0, 0.5, -0.5};
  const double xref[4] = {5, -2, 0, 0};
  MpcProblem p = build_mpc(8, x0, xref);
  IpmResult r = solve_qp(p);
  ASSERT_TRUE(r.converged);
  // Roll the dynamics forward from x0 using the planned inputs and verify
  // the planned states match — the physical-plausibility check.
  double x[4] = {x0[0], x0[1], x0[2], x0[3]};
  const double dt = p.dt;
  for (int t = 0; t < p.horizon; ++t) {
    const double ax = r.z[(size_t)(6 * t)], ay = r.z[(size_t)(6 * t + 1)];
    double nx[4] = {x[0] + dt * x[2] + 0.5 * dt * dt * ax,
                    x[1] + dt * x[3] + 0.5 * dt * dt * ay, x[2] + dt * ax,
                    x[3] + dt * ay};
    for (int q = 0; q < 4; ++q) {
      EXPECT_NEAR(r.z[(size_t)(6 * t + 2 + q)], nx[q], 1e-5) << t << " " << q;
      x[q] = nx[q];
    }
  }
}

TEST(Pipeline, SynthesisAndSchedulingAgreeOnLatencies) {
  // The operator library must reflect the Table I pipeline depths that the
  // architecture models produce — one source of truth.
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  auto t1 = table1_reports(virtex6(), 200.0);
  for (const auto& r : t1) {
    if (r.arch == "PCS-FMA") {
      EXPECT_EQ(lib.attr(OpKind::Fma, FmaStyle::Pcs).latency, r.cycles);
    }
    if (r.arch == "FCS-FMA") {
      EXPECT_EQ(lib.attr(OpKind::Fma, FmaStyle::Fcs).latency, r.cycles);
    }
  }
}

TEST(Pipeline, EnergyWorkloadsAreSeedStable) {
  const auto fcs = [](std::uint64_t seed) {
    return measure_recurrence(
        [](ActivityRecorder* rec) { return make_fma_unit(UnitKind::Fcs, rec); },
        seed, 3 * 96);
  };
  auto a = fcs(42);
  auto b = fcs(42);
  EXPECT_DOUBLE_EQ(a.toggles_per_op, b.toggles_per_op);
  auto c = fcs(43);
  EXPECT_NE(a.toggles_per_op, c.toggles_per_op);  // the seed matters
}

TEST(Pipeline, Fig15MatchesTheRecordedSchedules) {
  // Fig 15 as fig15_hls prints it: list scheduler, 39 FMA units, Virtex-6.
  // Cycles for discrete / PCS / FCS, then FMAs inserted and conversions
  // elided for PCS and FCS.
  struct Row {
    int discrete, pcs, fcs;
    int pcs_fma, pcs_elided, fcs_fma, fcs_elided;
  };
  const Row want[] = {{205, 163, 103, 96, 118, 104, 130},
                      {413, 323, 199, 192, 246, 200, 258},
                      {621, 483, 295, 288, 374, 296, 386}};
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  ResourceLimits limits;
  limits.fma = 39;
  const auto solvers = paper_solvers();
  ASSERT_EQ(solvers.size(), 3u);
  for (std::size_t i = 0; i < solvers.size(); ++i) {
    SCOPED_TRACE(solvers[i].name);
    const KernelInfo k = parse_kernel(solvers[i].ldlsolve_src);
    Cdfg pcs = k.graph, fcs = k.graph;
    const FmaInsertStats sp = insert_fma_units(pcs, lib, FmaStyle::Pcs);
    const FmaInsertStats sf = insert_fma_units(fcs, lib, FmaStyle::Fcs);
    const Row got{schedule_list(k.graph, lib, limits).length,
                  schedule_list(pcs, lib, limits).length,
                  schedule_list(fcs, lib, limits).length,
                  sp.fma_inserted, sp.conversions_elided,
                  sf.fma_inserted, sf.conversions_elided};
    EXPECT_EQ(got.discrete, want[i].discrete);
    EXPECT_EQ(got.pcs, want[i].pcs);
    EXPECT_EQ(got.fcs, want[i].fcs);
    EXPECT_EQ(got.pcs_fma, want[i].pcs_fma);
    EXPECT_EQ(got.pcs_elided, want[i].pcs_elided);
    EXPECT_EQ(got.fcs_fma, want[i].fcs_fma);
    EXPECT_EQ(got.fcs_elided, want[i].fcs_elided);
  }
}

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Pipeline, HlsFlowGraphsMatchTheRecordedDigests) {
  // Every graph perfbench's hls_flow compiles: the paper's ldlsolve and
  // ldlfactor kernels and examples/kernels/*, as parsed and after FMA
  // insertion with PCS and with FCS.  One FNV-1a digest per kernel chains
  // each graph's to_string(), its FmaInsertStats and its schedule
  // (ldlsolve list-scheduled at 39 FMA units, the rest ASAP).  Fig 15's pin
  // checks only counts, but node ids break list-scheduler ties, so a pass
  // that renumbers or reorders a graph moves these digests.
  const std::map<std::string, std::uint64_t> want = {
      {"complex_mac", 0xc4d866e8821a7b78ULL},
      {"horner", 0x904663e1d2d2fe25ULL},
      {"ldlfactor-large", 0x78bc27fe95537741ULL},
      {"ldlfactor-medium", 0x4b7c5834157da725ULL},
      {"ldlfactor-small", 0xb634c6d3ce89d1fbULL},
      {"ldlsolve-large", 0xe4a2f197f812a2b1ULL},
      {"ldlsolve-medium", 0x47d49c14c4d43725ULL},
      {"ldlsolve-small", 0x4e49ba11eb8e951dULL},
  };
  struct Kernel {
    std::string name, src;
    bool list;
  };
  std::vector<Kernel> kernels;
  for (const BenchmarkSolver& s : paper_solvers()) {
    kernels.push_back({"ldlsolve-" + s.name, s.ldlsolve_src, true});
    kernels.push_back({"ldlfactor-" + s.name, s.ldlfactor_src, false});
  }
  for (const auto& e : std::filesystem::directory_iterator(CSFMA_KERNEL_DIR)) {
    if (e.path().extension() != ".kernel") continue;
    std::ifstream in(e.path());
    std::stringstream ss;
    ss << in.rdbuf();
    kernels.push_back({e.path().stem().string(), ss.str(), false});
  }
  ASSERT_EQ(kernels.size(), want.size());
  const OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  ResourceLimits limits;
  limits.fma = 39;
  const auto mix = [](std::uint64_t& h, const auto& v) {
    h = fnv1a(h, &v, sizeof v);
  };
  for (const Kernel& k : kernels) {
    const KernelInfo info = parse_kernel(k.src);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (FmaStyle style : {FmaStyle::None, FmaStyle::Pcs, FmaStyle::Fcs}) {
      Cdfg g = info.graph;
      FmaInsertStats st;
      if (style != FmaStyle::None) st = insert_fma_units(g, lib, style);
      const std::string text = g.to_string();
      h = fnv1a(h, text.data(), text.size());
      mix(h, st.fma_inserted);
      mix(h, st.conversions_elided);
      mix(h, st.rounds);
      const Schedule s = k.list ? schedule_list(g, lib, limits)
                                : schedule_asap(g, lib);
      h = fnv1a(h, s.start.data(), s.start.size() * sizeof(int));
      mix(h, s.length);
    }
    const auto it = want.find(k.name);
    EXPECT_TRUE(it != want.end() && it->second == h)
        << k.name << " digest 0x" << std::hex << h;
  }
}

TEST(Pipeline, Virtex5FlowFallsBackToPcs) {
  // On a pre-pre-adder device the flow still works with the PCS unit.
  OperatorLibrary lib = OperatorLibrary::for_device(virtex5());
  BenchmarkSolver s = make_benchmark_solver("v5", 4);
  KernelInfo k = parse_kernel(s.ldlsolve_src);
  Cdfg fused = k.graph;
  FmaInsertStats st = insert_fma_units(fused, lib, FmaStyle::Pcs);
  EXPECT_GT(st.fma_inserted, 0);
  EXPECT_LT(schedule_asap(fused, lib).length,
            schedule_asap(k.graph, lib).length);
}

}  // namespace
}  // namespace csfma
