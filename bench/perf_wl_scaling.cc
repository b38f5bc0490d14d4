// Section 3.1's complexity claim: 1-WL runs in O((n + m) log n). Benchmarks
// the asynchronous partition-refinement implementation and the sort-ranked
// round pass (ColorRefinement, the one-graph case of RefineDataset) on
// sparse random graphs of increasing size; the reported time per (n + m)
// should grow only logarithmically for the fast variant. The dataset case
// refines graph2vec_wl's 400 graphs jointly (t = 3) and builds their WL
// subtree Gram matrix, at 1 and 4 threads. The folklore k-WL cases run the
// tuple pass: the 2-WL kernel on 100 G(20, p) graphs (t = 3) at 1 and 4
// threads, and KwlCompare on the CFI pair over K4 at k = 3.

#include <vector>

#include <benchmark/benchmark.h>

#include "base/parallel.h"
#include "base/rng.h"
#include "bench_meta.h"
#include "graph/generators.h"
#include "kernel/wl_kernel.h"
#include "wl/cfi.h"
#include "wl/color_refinement.h"
#include "wl/kwl.h"

namespace {

using x2vec::graph::Graph;

Graph SparseGraph(int n) {
  x2vec::Rng rng = x2vec::MakeRng(31);
  // Average degree 6 — comfortably in the sparse regime.
  return x2vec::graph::ErdosRenyiGnm(n, 3 * n, rng);
}

void BM_StableColoringFast(benchmark::State& state) {
  const Graph g = SparseGraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(x2vec::wl::StableColoringFast(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StableColoringFast)
    ->RangeMultiplier(2)
    ->Range(256, 32768)
    ->Complexity(benchmark::oNLogN)
    ->Unit(benchmark::kMillisecond);

void BM_HashRefinement(benchmark::State& state) {
  const Graph g = SparseGraph(static_cast<int>(state.range(0)));
  x2vec::wl::RefinementOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(x2vec::wl::ColorRefinement(g, options));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HashRefinement)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Unit(benchmark::kMillisecond);

void BM_JointRefinementPair(benchmark::State& state) {
  const Graph g = SparseGraph(static_cast<int>(state.range(0)));
  const Graph h = SparseGraph(static_cast<int>(state.range(0)) + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x2vec::wl::WlIndistinguishable(g, h));
  }
}
BENCHMARK(BM_JointRefinementPair)
    ->RangeMultiplier(4)
    ->Range(256, 4096)
    ->Unit(benchmark::kMillisecond);

// graph2vec_wl's shape: 400 G(30, p) graphs, p alternating 0.10 and 0.25.
std::vector<Graph> Graph2VecDataset() {
  x2vec::Rng rng = x2vec::MakeRng(62);
  std::vector<Graph> graphs;
  for (int i = 0; i < 400; ++i) {
    graphs.push_back(
        x2vec::graph::ErdosRenyiGnp(30, i % 2 == 0 ? 0.10 : 0.25, rng));
  }
  return graphs;
}

void BM_RefineDataset(benchmark::State& state) {
  const std::vector<Graph> graphs = Graph2VecDataset();
  x2vec::wl::RefinementOptions options;
  options.max_rounds = 3;
  x2vec::SetThreadCount(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(x2vec::wl::RefineDataset(graphs, options));
  }
  x2vec::SetThreadCount(0);
}
BENCHMARK(BM_RefineDataset)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_WlSubtreeKernelMatrix(benchmark::State& state) {
  const std::vector<Graph> graphs = Graph2VecDataset();
  x2vec::SetThreadCount(static_cast<int>(state.range(0)));
  x2vec::Budget unlimited;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::kernel::WlSubtreeKernelMatrix(graphs, 3, unlimited));
  }
  x2vec::SetThreadCount(0);
}
BENCHMARK(BM_WlSubtreeKernelMatrix)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_TwoWlKernelMatrix(benchmark::State& state) {
  x2vec::Rng rng = x2vec::MakeRng(63);
  std::vector<Graph> graphs;
  for (int i = 0; i < 100; ++i) {
    graphs.push_back(
        x2vec::graph::ErdosRenyiGnp(20, i % 2 == 0 ? 0.15 : 0.30, rng));
  }
  x2vec::SetThreadCount(static_cast<int>(state.range(0)));
  x2vec::Budget unlimited;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::kernel::TwoWlKernelMatrix(graphs, 3, unlimited));
  }
  x2vec::SetThreadCount(0);
}
BENCHMARK(BM_TwoWlKernelMatrix)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_KwlCompareCfiK4(benchmark::State& state) {
  const x2vec::wl::CfiPair pair =
      x2vec::wl::BuildCfiPair(Graph::Complete(4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::wl::KwlCompare(pair.untwisted, pair.twisted, 3));
  }
}
BENCHMARK(BM_KwlCompareCfiK4)->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN() plus the bench_meta entries in the benchmark context.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  for (const auto& [key, value] : x2vec::bench::MetaEntries()) {
    benchmark::AddCustomContext(key, value);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
