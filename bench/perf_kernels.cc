// Section 3.5's efficiency claim: the WL subtree kernel is much cheaper
// than the walk/path-based kernels of Section 2.4 while being at least as
// informative. Benchmarks full Gram-matrix computation for each kernel on
// the same dataset: 40 G(n, 2n) graphs at n = 20 and 40. The random-walk
// kernel also runs on the same graphs with three vertex labels, so the
// label-match mask of its recurrence is timed as well as the all-ones one.

#include <vector>

#include <benchmark/benchmark.h>

#include "base/budget.h"
#include "base/rng.h"
#include "bench_meta.h"
#include "graph/generators.h"
#include "hom/embeddings.h"
#include "kernel/graph_kernels.h"
#include "kernel/wl_kernel.h"

namespace {

using x2vec::graph::Graph;

std::vector<Graph> Dataset(int count, int size, int labels = 1) {
  x2vec::Rng rng = x2vec::MakeRng(35);
  std::vector<Graph> graphs;
  graphs.reserve(count);
  for (int i = 0; i < count; ++i) {
    graphs.push_back(x2vec::graph::ErdosRenyiGnm(size, 2 * size, rng));
  }
  for (Graph& g : graphs) {
    for (int v = 0; labels > 1 && v < g.NumVertices(); ++v) {
      g.SetVertexLabel(v, static_cast<int>(rng() % labels));
    }
  }
  return graphs;
}

void BM_WlSubtreeKernel(benchmark::State& state) {
  const auto graphs = Dataset(40, static_cast<int>(state.range(0)));
  x2vec::Budget unlimited;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::kernel::WlSubtreeKernelMatrix(graphs, 5, unlimited));
  }
}
BENCHMARK(BM_WlSubtreeKernel)->Arg(20)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_ShortestPathKernel(benchmark::State& state) {
  const auto graphs = Dataset(40, static_cast<int>(state.range(0)));
  x2vec::Budget unlimited;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::kernel::ShortestPathKernelMatrix(graphs, unlimited));
  }
}
BENCHMARK(BM_ShortestPathKernel)
    ->Arg(20)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_RandomWalkKernel(benchmark::State& state) {
  const auto graphs = Dataset(40, static_cast<int>(state.range(0)));
  x2vec::Budget unlimited;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::kernel::RandomWalkKernelMatrix(graphs, 0.1, 6, unlimited));
  }
}
BENCHMARK(BM_RandomWalkKernel)
    ->Arg(20)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_RandomWalkKernelLabelled(benchmark::State& state) {
  const auto graphs = Dataset(40, static_cast<int>(state.range(0)), 3);
  x2vec::Budget unlimited;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::kernel::RandomWalkKernelMatrix(graphs, 0.1, 6, unlimited));
  }
}
BENCHMARK(BM_RandomWalkKernelLabelled)
    ->Arg(20)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_GraphletKernel(benchmark::State& state) {
  const auto graphs = Dataset(40, static_cast<int>(state.range(0)));
  x2vec::Budget unlimited;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::kernel::GraphletKernelMatrix(graphs, unlimited));
  }
}
BENCHMARK(BM_GraphletKernel)->Arg(20)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_HomVectorKernel(benchmark::State& state) {
  const auto graphs = Dataset(40, static_cast<int>(state.range(0)));
  const auto family = x2vec::hom::DefaultPatternFamily(20);
  x2vec::Budget unlimited;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::kernel::HomVectorKernelMatrix(graphs, family, unlimited));
  }
}
BENCHMARK(BM_HomVectorKernel)
    ->Arg(20)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond);

}  // namespace

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
