// Section 4.3's complexity landscape: hom(F, G) is polynomial-time exactly
// for bounded-treewidth pattern classes [Dalmau-Jonsson]. Benchmarks the
// three counting engines — tree DP (width 1), variable elimination
// (width w), and brute force (exponential) — as the pattern grows, making
// the tractability frontier visible in wall-clock time. The brute-force
// cases (homomorphisms, embeddings, and the isomorphism tests on CFI
// pairs) all run the one map search of graph/map_search.h.

#include <benchmark/benchmark.h>

#include "base/rng.h"
#include "bench_meta.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "hom/brute_force.h"
#include "hom/path_cycle.h"
#include "hom/tree_hom.h"
#include "hom/treewidth.h"
#include "wl/cfi.h"

namespace {

using x2vec::graph::Graph;

Graph Host(int n) {
  x2vec::Rng rng = x2vec::MakeRng(43);
  return x2vec::graph::ErdosRenyiGnm(n, 3 * n, rng);
}

void BM_TreeDp(benchmark::State& state) {
  const Graph host = Host(200);
  x2vec::Rng rng = x2vec::MakeRng(1);
  const Graph tree = x2vec::graph::RandomTree(
      static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x2vec::hom::CountTreeHomsDouble(tree, host));
  }
}
BENCHMARK(BM_TreeDp)->Arg(5)->Arg(10)->Arg(20)->Unit(benchmark::kMicrosecond);

void BM_CycleViaTrace(benchmark::State& state) {
  const Graph host = Host(60);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(x2vec::hom::CountCycleHoms(k, host));
  }
}
BENCHMARK(BM_CycleViaTrace)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_EliminationCycle(benchmark::State& state) {
  // Treewidth-2 pattern via bucket elimination: n_G^3 per step.
  const Graph host = Host(24);
  const Graph cycle = Graph::Cycle(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(x2vec::hom::CountHoms(cycle, host));
  }
}
BENCHMARK(BM_EliminationCycle)
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_EliminationClique(benchmark::State& state) {
  // Treewidth k-1: the exponential wall of Section 4.3.
  const Graph host = Host(16);
  const Graph clique = Graph::Complete(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(x2vec::hom::CountHoms(clique, host));
  }
}
BENCHMARK(BM_EliminationClique)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

void BM_BruteForcePath(benchmark::State& state) {
  // Brute force on the same width-1 patterns the DP solves instantly.
  const Graph host = Host(24);
  const Graph path = Graph::Path(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::hom::CountHomomorphismsBruteForce(path, host));
  }
}
BENCHMARK(BM_BruteForcePath)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_BruteForceEmbeddingsPath(benchmark::State& state) {
  // Injective maps only: the search also tracks which images are used.
  const Graph host = Host(24);
  const Graph path = Graph::Path(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::hom::CountEmbeddingsBruteForce(path, host));
  }
}
BENCHMARK(BM_BruteForceEmbeddingsPath)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

// CFI pairs (Section 3.3) over K5 (arg 0) and the 3x3 grid (arg 1):
// vertex-labelled, 1-WL-equivalent and non-isomorphic, so the isomorphism
// test must exhaust its search.
x2vec::wl::CfiPair CfiPairFor(int64_t base) {
  return x2vec::wl::BuildCfiPair(base == 0 ? Graph::Complete(5)
                                           : Graph::Grid(3, 3));
}

void BM_AreIsomorphicCfi(benchmark::State& state) {
  const x2vec::wl::CfiPair pair = CfiPairFor(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::graph::AreIsomorphic(pair.untwisted, pair.twisted));
  }
}
BENCHMARK(BM_AreIsomorphicCfi)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_CountAutomorphismsCfi(benchmark::State& state) {
  const x2vec::wl::CfiPair pair = CfiPairFor(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        x2vec::graph::CountAutomorphisms(pair.untwisted));
  }
}
BENCHMARK(BM_CountAutomorphismsCfi)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

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
