// End-to-end integration: the whole paper pipeline in one test file.
//
//   MPC QP --> KKT --> LDL' --> generated ldlsolve() --> parse --> FMA
//   insertion --> interpret (with the bit-accurate PCS/FCS simulators)
//   --> compare against the numeric interior-point reference.
#include <gtest/gtest.h>

#include <cmath>

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
