// Thread-scaling of the base/parallel runtime: the same Gram-matrix and
// walk-corpus workloads at 1 / 2 / 4 / 8 logical threads. Because results
// are bit-identical at every thread count (the determinism contract of
// base/parallel), the only thing that may change across rows is the wall
// clock. Run with --benchmark_format=json for the usual perf_* JSON shape;
// the context block carries machine/compiler/flags metadata (bench_meta.h)
// so runs stay comparable across machines and PRs.

#include <benchmark/benchmark.h>

#include "base/parallel.h"
#include "bench_meta.h"
#include "base/rng.h"
#include "embed/sgns.h"
#include "embed/stream.h"
#include "embed/walks.h"
#include "graph/generators.h"
#include "kernel/wl_kernel.h"

namespace {

using x2vec::graph::Graph;
using x2vec::graph::GraphView;

std::vector<Graph> Dataset(int count, int size) {
  x2vec::Rng rng = x2vec::MakeRng(35);
  std::vector<Graph> graphs;
  graphs.reserve(count);
  for (int i = 0; i < count; ++i) {
    graphs.push_back(x2vec::graph::ErdosRenyiGnm(size, 2 * size, rng));
  }
  return graphs;
}

void BM_WlSubtreeGramThreads(benchmark::State& state) {
  const auto graphs = Dataset(60, 30);
  x2vec::SetThreadCount(static_cast<int>(state.range(0)));
  x2vec::Budget unlimited;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::kernel::WlSubtreeKernelMatrix(graphs, 5, unlimited));
  }
  x2vec::SetThreadCount(0);
}
BENCHMARK(BM_WlSubtreeGramThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_WalkCorpusThreads(benchmark::State& state) {
  x2vec::Rng rng = x2vec::MakeRng(36);
  const Graph g = x2vec::graph::ConnectedGnp(300, 0.05, rng);
  x2vec::embed::WalkOptions options;
  options.walks_per_node = 10;
  options.walk_length = 40;
  x2vec::SetThreadCount(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::embed::GenerateWalksParallel(GraphView(g), options, 99));
  }
  x2vec::SetThreadCount(0);
}
BENCHMARK(BM_WalkCorpusThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Second-order node2vec walks (p, q != 1) exercise the biased step, which
// draws by cumulative-weight roulette — no per-step allocation or alias
// table. Compare against BM_WalkCorpusThreads (uniform fast path) to see
// the cost of the bias itself rather than of the sampling machinery.
void BM_BiasedWalkCorpusThreads(benchmark::State& state) {
  x2vec::Rng rng = x2vec::MakeRng(36);
  const Graph g = x2vec::graph::ConnectedGnp(300, 0.05, rng);
  x2vec::embed::WalkOptions options;
  options.walks_per_node = 10;
  options.walk_length = 40;
  options.p = 0.25;
  options.q = 4.0;
  x2vec::SetThreadCount(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::embed::GenerateWalksParallel(GraphView(g), options, 99));
  }
  x2vec::SetThreadCount(0);
}
BENCHMARK(BM_BiasedWalkCorpusThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ShardedPvDbowThreads(benchmark::State& state) {
  std::vector<std::vector<int>> documents;
  for (int d = 0; d < 200; ++d) {
    std::vector<int> doc;
    for (int t = 0; t < 40; ++t) doc.push_back((d * 13 + t * 7) % 100);
    documents.push_back(std::move(doc));
  }
  x2vec::embed::SgnsOptions options;
  options.dimension = 32;
  options.epochs = 2;
  x2vec::SetThreadCount(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    x2vec::Budget unlimited;
    x2vec::embed::CorpusSource source(documents);
    benchmark::DoNotOptimize(*x2vec::embed::TrainPvDbowShardedStreaming(
        source, 100, options, 7, unlimited));
  }
  x2vec::SetThreadCount(0);
}
BENCHMARK(BM_ShardedPvDbowThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Hand-rolled main instead of BENCHMARK_MAIN(): identical flow, plus the
// bench_meta entries injected into the benchmark context (they appear
// under "context" in --benchmark_format=json output).
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
