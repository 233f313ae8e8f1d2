// Microbenchmarks of the HLS flow: kernel parsing, scheduling and the FMA
// insertion pass on the generated solver kernels.
#include <benchmark/benchmark.h>

#include "frontend/parser.hpp"
#include "hls/fma_insert.hpp"
#include "hls/schedule.hpp"
#include "solver/solvers.hpp"

namespace {

using namespace csfma;

const BenchmarkSolver& medium() {
  static BenchmarkSolver s = make_benchmark_solver("medium", 8);
  return s;
}

void BM_ParseLdlsolve(benchmark::State& state) {
  const std::string& src = medium().ldlsolve_src;
  for (auto _ : state) {
    KernelInfo k = parse_kernel(src);
    benchmark::DoNotOptimize(k.graph.num_nodes());
  }
}
BENCHMARK(BM_ParseLdlsolve);

void BM_ScheduleAsap(benchmark::State& state) {
  KernelInfo k = parse_kernel(medium().ldlsolve_src);
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_asap(k.graph, lib).length);
  }
}
BENCHMARK(BM_ScheduleAsap);

void BM_ScheduleList39Fma(benchmark::State& state) {
  KernelInfo k = parse_kernel(medium().ldlsolve_src);
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  Cdfg fused = k.graph;
  insert_fma_units(fused, lib, FmaStyle::Fcs);
  ResourceLimits lim;
  lim.fma = 39;
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_list(fused, lib, lim).length);
  }
}
BENCHMARK(BM_ScheduleList39Fma);

void BM_FmaInsertion(benchmark::State& state) {
  KernelInfo k = parse_kernel(medium().ldlsolve_src);
  OperatorLibrary lib = OperatorLibrary::for_device(virtex6());
  for (auto _ : state) {
    Cdfg g = k.graph;
    FmaInsertStats st = insert_fma_units(g, lib, FmaStyle::Fcs);
    benchmark::DoNotOptimize(st.fma_inserted);
  }
}
BENCHMARK(BM_FmaInsertion);

void BM_GenerateSolver(benchmark::State& state) {
  for (auto _ : state) {
    BenchmarkSolver s = make_benchmark_solver("tmp", 8);
    benchmark::DoNotOptimize(s.ldlsolve_src.size());
  }
}
BENCHMARK(BM_GenerateSolver);

}  // namespace

BENCHMARK_MAIN();
