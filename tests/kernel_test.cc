#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/suite.h"
#include "base/budget.h"
#include "base/rng.h"
#include "base/status.h"
#include "core/registry.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "hom/embeddings.h"
#include "kernel/graph_kernels.h"
#include "kernel/wl_kernel.h"
#include "wl/color_refinement.h"

namespace x2vec::kernel {
namespace {

using graph::DisjointUnion;
using graph::Graph;

std::vector<Graph> TestDataset(int count, uint64_t seed) {
  Rng rng = MakeRng(seed);
  std::vector<Graph> graphs;
  for (int i = 0; i < count; ++i) {
    graphs.push_back(graph::ErdosRenyiGnp(6 + i % 4, 0.4, rng));
  }
  return graphs;
}

TEST(SparseVectorTest, DotProduct) {
  SparseVector a{{{1, 2.0}, {3, 1.0}, {7, 4.0}}};
  SparseVector b{{{1, 1.0}, {2, 5.0}, {7, 2.0}}};
  EXPECT_DOUBLE_EQ(a.Dot(b), 2.0 + 8.0);
  EXPECT_DOUBLE_EQ(a.NormSquared(), 4.0 + 1.0 + 16.0);
}

TEST(WlKernelTest, HandComputedOnTinyPair) {
  Budget unlimited;
  // P2 (one edge) and P3 at t = 0: every vertex has the same initial colour,
  // so K(G, H) = |G| * |H|.
  const std::vector<Graph> graphs = {Graph::Path(2), Graph::Path(3)};
  const linalg::Matrix k0 = WlSubtreeKernelMatrix(graphs, 0, unlimited).value();
  EXPECT_DOUBLE_EQ(k0(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(k0(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(k0(1, 1), 9.0);
  // Round 1 adds degree colours: P2 = {d1: 2}, P3 = {d1: 2, d2: 1}.
  const linalg::Matrix k1 = WlSubtreeKernelMatrix(graphs, 1, unlimited).value();
  EXPECT_DOUBLE_EQ(k1(0, 1), 6.0 + 2.0 * 2.0);
  EXPECT_DOUBLE_EQ(k1(0, 0), 4.0 + 4.0);
  EXPECT_DOUBLE_EQ(k1(1, 1), 9.0 + 4.0 + 1.0);
}

TEST(WlKernelTest, GramIsSymmetricPsd) {
  Budget unlimited;
  const std::vector<Graph> graphs = TestDataset(8, 71);
  const linalg::Matrix k = WlSubtreeKernelMatrix(graphs, 3, unlimited).value();
  for (int i = 0; i < k.rows(); ++i) {
    for (int j = 0; j < k.cols(); ++j) {
      EXPECT_DOUBLE_EQ(k(i, j), k(j, i));
    }
  }
  EXPECT_TRUE(IsPositiveSemidefinite(k));
}

TEST(WlKernelTest, IsomorphicGraphsHaveEqualRows) {
  Budget unlimited;
  Rng rng = MakeRng(72);
  Graph g = graph::ErdosRenyiGnp(7, 0.5, rng);
  Graph p = graph::Permuted(g, RandomPermutation(7, rng));
  const std::vector<Graph> graphs = {g, p, Graph::Cycle(7)};
  const linalg::Matrix k = WlSubtreeKernelMatrix(graphs, 4, unlimited).value();
  EXPECT_DOUBLE_EQ(k(0, 0), k(1, 1));
  EXPECT_DOUBLE_EQ(k(0, 0), k(0, 1));  // Full self-similarity.
  EXPECT_DOUBLE_EQ(k(0, 2), k(1, 2));
}

TEST(WlKernelTest, WlIndistinguishablePairLooksIdentical) {
  Budget unlimited;
  // C6 vs 2xC3: the WL kernel cannot separate them at any round.
  const std::vector<Graph> graphs = {
      Graph::Cycle(6), DisjointUnion(Graph::Cycle(3), Graph::Cycle(3))};
  const linalg::Matrix k =
      NormalizeKernel(WlSubtreeKernelMatrix(graphs, 5, unlimited).value());
  EXPECT_NEAR(k(0, 1), 1.0, 1e-12);
}

TEST(WlKernelTest, FeatureDimensionGrowsWithRounds) {
  Budget unlimited;
  const std::vector<Graph> graphs = TestDataset(4, 73);
  const WlFeatureSet f0 = WlSubtreeFeatures(graphs, 0, unlimited).value();
  const WlFeatureSet f2 = WlSubtreeFeatures(graphs, 2, unlimited).value();
  EXPECT_GT(f2.dimension, f0.dimension);
  EXPECT_EQ(f0.features.size(), graphs.size());
}

TEST(WlKernelTest, DiscountedKernelPsd) {
  Budget unlimited;
  const std::vector<Graph> graphs = TestDataset(6, 74);
  EXPECT_TRUE(IsPositiveSemidefinite(
      DiscountedWlKernelMatrix(graphs, 6, unlimited).value()));
}

TEST(WlKernelTest, ShortestPathVariantPsd) {
  Budget unlimited;
  const std::vector<Graph> graphs = TestDataset(6, 75);
  EXPECT_TRUE(IsPositiveSemidefinite(
      WlShortestPathKernelMatrix(graphs, 2, unlimited).value()));
}

uint64_t Digest(const linalg::Matrix& m) {
  // FNV-1a over the raw bytes of every entry, as in kernels_test.
  uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(m.data().data());
  for (size_t i = 0; i < m.data().size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// The digest of a Gram computed without limits, which must succeed.
uint64_t Digest(const StatusOr<linalg::Matrix>& gram) {
  return Digest(gram.value());
}

// Vertex labels, edge labels (negative ones too), a 1-vertex graph and an
// edgeless graph: every input a joint WL colouring has to line up across.
std::vector<Graph> LabelledDataset() {
  Rng rng = MakeRng(74);
  std::vector<Graph> graphs;
  for (int i = 0; i < 5; ++i) {
    const Graph shape = graph::ErdosRenyiGnp(5 + i, 0.45, rng);
    Graph g(shape.NumVertices());
    for (int v = 0; v < g.NumVertices(); ++v) {
      g.SetVertexLabel(v, (v + i) % 3);
    }
    for (const graph::Edge& e : shape.Edges()) {
      g.AddEdge(e.u, e.v, 1.0, (e.u + e.v) % 3 - 1);
    }
    graphs.push_back(std::move(g));
  }
  Graph single(1);
  single.SetVertexLabel(0, 2);
  graphs.push_back(std::move(single));
  Graph edgeless(4);
  edgeless.SetVertexLabel(1, 1);
  graphs.push_back(std::move(edgeless));
  graphs.push_back(Graph::Cycle(6));
  return graphs;
}

TEST(WlKernelTest, LabelledDatasetGramsArePinned) {
  Budget unlimited;
  // Captured before the dataset refinement stopped building the disjoint
  // union; the joint colour ids, and so every entry, must not move.
  const std::vector<Graph> graphs = LabelledDataset();
  EXPECT_EQ(Digest(WlSubtreeKernelMatrix(graphs, 3, unlimited)),
            8060041855713182602ull);
  EXPECT_EQ(Digest(DiscountedWlKernelMatrix(graphs, 3, unlimited)),
            4700007788846284159ull);
  EXPECT_EQ(Digest(WlShortestPathKernelMatrix(graphs, 2, unlimited)),
            13634039831283152666ull);
}

TEST(WlKernelTest, EmptyDatasetGivesEmptyResults) {
  Budget unlimited;
  const std::vector<Graph> none;
  const WlFeatureSet features = WlSubtreeFeatures(none, 2, unlimited).value();
  EXPECT_TRUE(features.features.empty());
  EXPECT_EQ(features.dimension, 0);
  for (const linalg::Matrix& k :
       {WlSubtreeKernelMatrix(none, 2, unlimited).value(),
        DiscountedWlKernelMatrix(none, 2, unlimited).value(),
        WlShortestPathKernelMatrix(none, 2, unlimited).value(),
        TwoWlKernelMatrix(none, 2, unlimited).value()}) {
    EXPECT_EQ(k.rows(), 0);
    EXPECT_EQ(k.cols(), 0);
  }
}

TEST(TwoWlKernelTest, SeparatesWhatOneWlCannot) {
  Budget unlimited;
  const std::vector<Graph> graphs = {
      Graph::Cycle(6), DisjointUnion(Graph::Cycle(3), Graph::Cycle(3))};
  // 1-WL subtree kernel: identical rows (cosine 1).
  const linalg::Matrix one_wl =
      NormalizeKernel(WlSubtreeKernelMatrix(graphs, 4, unlimited).value());
  EXPECT_NEAR(one_wl(0, 1), 1.0, 1e-12);
  // 2-WL kernel: strictly below 1.
  const linalg::Matrix two_wl =
      NormalizeKernel(TwoWlKernelMatrix(graphs, 3, unlimited).value());
  EXPECT_LT(two_wl(0, 1), 1.0 - 1e-6);
}

TEST(TwoWlKernelTest, PsdAndPermutationInvariant) {
  Budget unlimited;
  Rng rng = MakeRng(127);
  Graph g = graph::ErdosRenyiGnp(7, 0.4, rng);
  Graph p = graph::Permuted(g, RandomPermutation(7, rng));
  const std::vector<Graph> graphs = {g, p, Graph::Cycle(7)};
  const linalg::Matrix k = TwoWlKernelMatrix(graphs, 2, unlimited).value();
  EXPECT_TRUE(IsPositiveSemidefinite(k));
  EXPECT_DOUBLE_EQ(k(0, 0), k(1, 1));
  EXPECT_DOUBLE_EQ(k(0, 0), k(0, 1));  // Isomorphic: identical features.
}

TEST(TwoWlKernelTest, LabelledDatasetGramIsPinned) {
  Budget unlimited;
  // Captured from the kernel's own folklore engine before it moved onto
  // the shared k-WL pass: only the joint partitions matter, and the
  // integer counts make every sum exact.
  EXPECT_EQ(Digest(TwoWlKernelMatrix(LabelledDataset(), 3, unlimited).value()),
            12222943699210141462ull);
}

TEST(TwoWlKernelTest, DigraphsSeeBothEdgeDirections) {
  Budget unlimited;
  // A 2-cycle and a directed path have the same number of ordered pairs
  // u -> v, but only the 2-cycle has pairs with arcs both ways: round 0
  // already separates them.
  Graph two_cycle(3, /*directed=*/true);
  two_cycle.AddEdge(0, 1);
  two_cycle.AddEdge(1, 0);
  Graph path(3, /*directed=*/true);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  const linalg::Matrix k =
      NormalizeKernel(*TwoWlKernelMatrix({two_cycle, path}, 0, unlimited));
  EXPECT_LT(k(0, 1), 1.0 - 1e-6);
}

TEST(TwoWlKernelTest, DatasetPastThePassLimitIsATypedError) {
  Budget unlimited;
  // 4 * 812^3 + 4 * 130^3 row entries a round, just past 2^31 - 1, from
  // isolated vertices: kInvalidArgument before anything tuple-sized is
  // allocated, also through the method suite.
  const std::vector<Graph> graphs = {Graph(812), Graph(130)};
  const StatusOr<linalg::Matrix> gram = TwoWlKernelMatrix(graphs, 3, unlimited);
  ASSERT_FALSE(gram.ok());
  EXPECT_EQ(gram.status().code(), StatusCode::kInvalidArgument);
  int suite_methods = 0;
  for (const core::GraphKernelMethod& method : api::DefaultMethodSuite()) {
    if (method.name != "wl2-folklore-t3") continue;
    Rng rng = MakeRng(1);
    const StatusOr<linalg::Matrix> suite_gram =
        method.gram_budgeted(graphs, rng, unlimited);
    ASSERT_FALSE(suite_gram.ok());
    EXPECT_EQ(suite_gram.status().code(), StatusCode::kInvalidArgument);
    ++suite_methods;
  }
  EXPECT_EQ(suite_methods, 1);
}

TEST(ShortestPathKernelTest, HandComputed) {
  Budget unlimited;
  // P3 has distances {1,1,2}; P2 has {1}. Unlabelled: features (0,0,d).
  const std::vector<Graph> graphs = {Graph::Path(3), Graph::Path(2)};
  const linalg::Matrix k = ShortestPathKernelMatrix(graphs, unlimited).value();
  EXPECT_DOUBLE_EQ(k(0, 0), 4.0 + 1.0);  // 2 dist-1 pairs, 1 dist-2 pair.
  EXPECT_DOUBLE_EQ(k(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(k(1, 1), 1.0);
}

TEST(RandomWalkKernelTest, ProductGraphCounts) {
  Budget unlimited;
  // K(P2, P2): product is 2 disjoint edges; walks of length k from 4
  // vertices: 4 for every k. lambda = 0.5, max 2: 4 + 0.5*4 + 0.25*4 = 7.
  const std::vector<Graph> graphs = {Graph::Path(2)};
  const linalg::Matrix k = *RandomWalkKernelMatrix(graphs, 0.5, 2, unlimited);
  EXPECT_DOUBLE_EQ(k(0, 0), 7.0);
}

TEST(RandomWalkKernelTest, SymmetricPsdOnDataset) {
  Budget unlimited;
  const std::vector<Graph> graphs = TestDataset(5, 76);
  const linalg::Matrix k = *RandomWalkKernelMatrix(graphs, 0.1, 4, unlimited);
  for (int i = 0; i < k.rows(); ++i) {
    for (int j = 0; j < k.cols(); ++j) {
      EXPECT_DOUBLE_EQ(k(i, j), k(j, i));
    }
  }
}

// The random-walk sum on the direct product graph, as the kernel computed
// it before it stopped building that graph: the product's vertices are the
// label-matching pairs (u, x), (u, x) ~ (v, y) iff u ~ v in g and x ~ y in
// h, and K(g, h) = sum_{k <= max_length} lambda^k 1^T A^k 1.
double ProductGraphWalkSum(const Graph& g, const Graph& h, double lambda,
                           int max_length) {
  std::vector<std::pair<int, int>> pairs;
  for (int u = 0; u < g.NumVertices(); ++u) {
    for (int x = 0; x < h.NumVertices(); ++x) {
      if (g.VertexLabel(u) == h.VertexLabel(x)) pairs.emplace_back(u, x);
    }
  }
  const int np = static_cast<int>(pairs.size());
  linalg::Matrix a(np, np);
  for (int p = 0; p < np; ++p) {
    for (int q = 0; q < np; ++q) {
      if (g.HasEdge(pairs[p].first, pairs[q].first) &&
          h.HasEdge(pairs[p].second, pairs[q].second)) {
        a(p, q) = 1.0;
      }
    }
  }
  std::vector<double> current(np, 1.0);
  double total = np;  // k = 0 term.
  double weight = 1.0;
  for (int step = 1; step <= max_length; ++step) {
    current = a.Apply(current);
    weight *= lambda;
    double sum = 0.0;
    for (double x : current) sum += x;
    total += weight * sum;
  }
  return total;
}

// Random graphs with `labels` vertex labels (1: unlabelled).
std::vector<Graph> RandomLabelledDataset(int count, int labels,
                                         uint64_t seed) {
  Rng rng = MakeRng(seed);
  std::vector<Graph> graphs;
  for (int i = 0; i < count; ++i) {
    Graph g = graph::ErdosRenyiGnp(4 + i % 7, 0.35 + 0.05 * (i % 4), rng);
    for (int v = 0; v < g.NumVertices(); ++v) {
      g.SetVertexLabel(v, static_cast<int>(rng() % labels));
    }
    graphs.push_back(std::move(g));
  }
  return graphs;
}

TEST(RandomWalkKernelTest, MatchesTheProductGraphSumExactly) {
  Budget unlimited;
  const std::pair<double, int> settings[] = {{0.1, 6}, {0.5, 3}, {1.0, 0}};
  for (const int labels : {1, 2, 3}) {
    const std::vector<Graph> graphs =
        RandomLabelledDataset(12, labels, 300 + labels);
    for (const auto& [lambda, length] : settings) {
      const linalg::Matrix k =
          *RandomWalkKernelMatrix(graphs, lambda, length, unlimited);
      for (size_t i = 0; i < graphs.size(); ++i) {
        for (size_t j = 0; j < graphs.size(); ++j) {
          EXPECT_EQ(k(i, j), ProductGraphWalkSum(graphs[i], graphs[j], lambda,
                                                 length))
              << labels << " labels, lambda " << lambda << ", length "
              << length << ", entry " << i << "," << j;
        }
      }
    }
  }
}

TEST(GraphKernelPinTest, ShortestPathAndRandomWalkGramsArePinned) {
  Budget unlimited;
  // Captured while every kernel still ran its own Gram loop and the random
  // walk built a product graph per pair: exact integer sums, so no entry
  // may move.
  const std::vector<Graph> labelled = LabelledDataset();
  const std::vector<Graph> unlabelled = TestDataset(10, 91);
  EXPECT_EQ(Digest(ShortestPathKernelMatrix(labelled, unlimited)),
            7222126725437203662ull);
  EXPECT_EQ(Digest(ShortestPathKernelMatrix(unlabelled, unlimited)),
            862829817019914385ull);
  EXPECT_EQ(Digest(RandomWalkKernelMatrix(labelled, 0.1, 6, unlimited)),
            9902397724384988674ull);
  EXPECT_EQ(Digest(RandomWalkKernelMatrix(labelled, 0.5, 3, unlimited)),
            3689212100142624389ull);
  EXPECT_EQ(Digest(RandomWalkKernelMatrix(unlabelled, 0.1, 6, unlimited)),
            1480792845295228127ull);
  EXPECT_EQ(Digest(RandomWalkKernelMatrix(unlabelled, 0.5, 3, unlimited)),
            9082380041892252602ull);
}

TEST(GraphKernelPinTest, HomGramsArePinned) {
  Budget unlimited;
  // Captured with the dense Gram loop of the same era: each entry is one
  // linalg::Dot of two feature rows.
  const std::vector<hom::Pattern> family = hom::DefaultPatternFamily(12);
  const std::vector<Graph> labelled = LabelledDataset();
  const std::vector<Graph> unlabelled = TestDataset(10, 91);
  EXPECT_EQ(Digest(HomVectorKernelMatrix(labelled, family, unlimited)),
            2652513415263549985ull);
  EXPECT_EQ(Digest(HomVectorKernelMatrix(unlabelled, family, unlimited)),
            1941975474802445705ull);
  EXPECT_EQ(Digest(ScaledHomKernelMatrix(labelled, family, unlimited)),
            14495850494772472213ull);
  EXPECT_EQ(Digest(ScaledHomKernelMatrix(unlabelled, family, unlimited)),
            10630653595353569416ull);
}

TEST(GraphKernelPinTest, MethodSuiteGramsArePinned) {
  // Every default method's Gram through RunMethodSuite, the graph2vec and
  // GIN feature rows included, on an unlabelled and a labelled dataset.
  const std::pair<std::vector<Graph>, std::vector<uint64_t>> cases[] = {
      {TestDataset(10, 91),
       {9288570520315065203ull, 17072278768719844127ull,
        4672950816301059893ull, 13724878980576062677ull,
        862829817019914385ull, 1480792845295228127ull,
        8628217715491934564ull, 4579041920982689013ull}},
      {LabelledDataset(),
       {8060041855713182602ull, 12222943699210141462ull,
        10742062810292458309ull, 10908621087501135836ull,
        7222126725437203662ull, 9902397724384988674ull,
        3366866416726195867ull, 16042466704927158020ull}},
  };
  for (const auto& [graphs, digests] : cases) {
    const std::vector<core::MethodOutcome> outcomes = core::RunMethodSuite(
        api::DefaultMethodSuite(), graphs, /*seed=*/7, BudgetSpec{});
    ASSERT_EQ(outcomes.size(), digests.size());
    for (size_t m = 0; m < outcomes.size(); ++m) {
      ASSERT_TRUE(outcomes[m].status.ok()) << outcomes[m].name;
      EXPECT_EQ(Digest(outcomes[m].matrix), digests[m]) << outcomes[m].name;
    }
  }
}

// Directed paths and cycles on 3..8 vertices.
std::vector<Graph> DirectedDataset() {
  std::vector<Graph> graphs;
  for (int n = 3; n <= 8; ++n) {
    Graph path(n, /*directed=*/true);
    Graph cycle(n, /*directed=*/true);
    for (int v = 0; v + 1 < n; ++v) {
      path.AddEdge(v, v + 1);
      cycle.AddEdge(v, v + 1);
    }
    cycle.AddEdge(n - 1, 0);
    graphs.push_back(std::move(path));
    graphs.push_back(std::move(cycle));
  }
  return graphs;
}

// Every Gram entry point on `graphs`, by name, with the given budget.
std::vector<std::pair<std::string, StatusOr<linalg::Matrix>>> EveryGram(
    const std::vector<Graph>& graphs, Budget& budget) {
  const std::vector<hom::Pattern> family = hom::DefaultPatternFamily(12);
  std::vector<std::pair<std::string, StatusOr<linalg::Matrix>>> grams;
  grams.emplace_back("WlSubtree", WlSubtreeKernelMatrix(graphs, 3, budget));
  grams.emplace_back("DiscountedWl",
                     DiscountedWlKernelMatrix(graphs, 3, budget));
  grams.emplace_back("TwoWl", TwoWlKernelMatrix(graphs, 2, budget));
  grams.emplace_back("WlShortestPath",
                     WlShortestPathKernelMatrix(graphs, 2, budget));
  grams.emplace_back("ShortestPath", ShortestPathKernelMatrix(graphs, budget));
  grams.emplace_back("RandomWalk",
                     RandomWalkKernelMatrix(graphs, 0.1, 6, budget));
  grams.emplace_back("Graphlet", GraphletKernelMatrix(graphs, budget));
  grams.emplace_back("HomVector",
                     HomVectorKernelMatrix(graphs, family, budget));
  grams.emplace_back("ScaledHom",
                     ScaledHomKernelMatrix(graphs, family, budget));
  return grams;
}

TEST(KernelInputTest, DirectedAndMixedDatasetsAreOkOrInvalidArgument) {
  // Directed datasets suit the WL, 2-WL and shortest-path kernels; the
  // random-walk, graphlet and hom kernels need undirected graphs. Adding
  // an undirected C5 mixes directedness, which only 2-WL accepts. Every
  // refusal comes before any work, so even a spent budget gives
  // kInvalidArgument.
  const std::vector<Graph> directed = DirectedDataset();
  std::vector<Graph> mixed = directed;
  mixed.push_back(Graph::Cycle(5));
  const std::set<std::string> directed_ok = {"WlSubtree", "DiscountedWl",
                                             "TwoWl", "WlShortestPath",
                                             "ShortestPath"};
  for (const bool is_mixed : {false, true}) {
    const std::vector<Graph>& graphs = is_mixed ? mixed : directed;
    Budget unlimited;
    EXPECT_EQ(WlSubtreeFeatures(graphs, 3, unlimited).status().code(),
              is_mixed ? StatusCode::kInvalidArgument : StatusCode::kOk);
    for (const auto& [name, gram] : EveryGram(graphs, unlimited)) {
      const bool ok =
          is_mixed ? name == "TwoWl" : directed_ok.count(name) > 0;
      EXPECT_EQ(gram.status().code(),
                ok ? StatusCode::kOk : StatusCode::kInvalidArgument)
          << name << (is_mixed ? " on mixed" : " on directed") << ": "
          << gram.status().ToString();
      if (ok) {
        EXPECT_TRUE(gram->AllFinite()) << name;
      }
    }
    Budget spent = Budget::WorkUnits(0);
    for (const auto& [name, gram] : EveryGram(graphs, spent)) {
      const bool ok =
          is_mixed ? name == "TwoWl" : directed_ok.count(name) > 0;
      EXPECT_EQ(gram.status().code(), ok ? StatusCode::kResourceExhausted
                                         : StatusCode::kInvalidArgument)
          << name << (is_mixed ? " on mixed" : " on directed");
    }
    // The suite: graph2vec and the GIN readout take digraphs, and graph2vec
    // refuses mixed datasets.
    const std::set<std::string> suite_directed_ok = {
        "wl-subtree-t5", "wl2-folklore-t3", "shortest-path", "graph2vec",
        "gin-random"};
    const std::set<std::string> suite_mixed_ok = {"wl2-folklore-t3",
                                                  "gin-random"};
    for (const core::MethodOutcome& outcome :
         core::RunMethodSuite(api::DefaultMethodSuite(), graphs, /*seed=*/7,
                              BudgetSpec{})) {
      const bool ok = (is_mixed ? suite_mixed_ok : suite_directed_ok)
                          .count(outcome.name) > 0;
      EXPECT_EQ(outcome.status.code(),
                ok ? StatusCode::kOk : StatusCode::kInvalidArgument)
          << outcome.name << (is_mixed ? " on mixed" : " on directed") << ": "
          << outcome.status.ToString();
    }
  }
}

TEST(KernelInputTest, BadParametersAreInvalidArgument) {
  // Each used to abort (a CHECK, std::length_error) or, at rounds = -1,
  // give an all-zero or stable-colouring Gram. Parameters, directed hom
  // patterns included, are checked before the budget.
  const std::vector<Graph> graphs = TestDataset(4, 92);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const bool spent : {false, true}) {
    Budget budget = spent ? Budget::WorkUnits(0) : Budget();
    std::vector<std::pair<std::string, Status>> results;
    for (const int rounds : {-1, -5}) {
      const std::string at = "(" + std::to_string(rounds) + ")";
      results.emplace_back("WlSubtreeFeatures" + at,
                           WlSubtreeFeatures(graphs, rounds, budget).status());
      results.emplace_back(
          "WlSubtree" + at,
          WlSubtreeKernelMatrix(graphs, rounds, budget).status());
      results.emplace_back(
          "DiscountedWl" + at,
          DiscountedWlKernelMatrix(graphs, rounds, budget).status());
      results.emplace_back("TwoWl" + at,
                           TwoWlKernelMatrix(graphs, rounds, budget).status());
      results.emplace_back(
          "WlShortestPath" + at,
          WlShortestPathKernelMatrix(graphs, rounds, budget).status());
    }
    for (const double lambda : {nan, inf, -inf, 0.0, -0.5}) {
      results.emplace_back(
          "RandomWalk lambda " + std::to_string(lambda),
          RandomWalkKernelMatrix(graphs, lambda, 6, budget).status());
    }
    results.emplace_back(
        "RandomWalk max_length -1",
        RandomWalkKernelMatrix(graphs, 0.1, -1, budget).status());
    Graph arc(2, /*directed=*/true);
    arc.AddEdge(0, 1);
    const std::vector<hom::Pattern> directed = {{Graph::Path(3), "P3"},
                                                {arc, "arc"}};
    results.emplace_back(
        "HomVector directed pattern",
        HomVectorKernelMatrix(graphs, directed, budget).status());
    results.emplace_back(
        "ScaledHom directed pattern",
        ScaledHomKernelMatrix(graphs, directed, budget).status());
    for (const auto& [name, status] : results) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << name << (spent ? " under a spent budget" : "") << ": "
          << status.ToString();
    }
  }
}

TEST(KernelInputTest, ZeroBudgetExhaustsEveryGram) {
  Budget spent = Budget::WorkUnits(0);
  for (const auto& [name, gram] : EveryGram(TestDataset(4, 93), spent)) {
    EXPECT_EQ(gram.status().code(), StatusCode::kResourceExhausted) << name;
  }
}

TEST(KernelInputTest, GinChargesEachGraphBeforeItsReadout) {
  // One unit per graph before the serial readout, one per Gram entry
  // before the fill: n + n(n + 1) / 2 units are enough, one fewer is not.
  const std::vector<Graph> graphs = TestDataset(6, 94);
  const int64_t n = static_cast<int64_t>(graphs.size());
  const int64_t enough = n + n * (n + 1) / 2;
  int checked = 0;
  for (const core::GraphKernelMethod& method : api::DefaultMethodSuite()) {
    if (method.name != "gin-random") continue;
    ++checked;
    for (const int64_t units : {enough, enough - 1}) {
      Rng rng = MakeRng(5);
      Budget budget = Budget::WorkUnits(units);
      const StatusOr<linalg::Matrix> gram =
          method.gram_budgeted(graphs, rng, budget);
      EXPECT_EQ(gram.ok(), units == enough) << units << " units";
    }
  }
  EXPECT_EQ(checked, 1);
}

TEST(GraphletTest, TriangleCounts) {
  const std::vector<double> counts = ThreeGraphletCounts(Graph::Complete(4));
  EXPECT_DOUBLE_EQ(counts[3], 4.0);  // All 4 triples are triangles.
  EXPECT_DOUBLE_EQ(counts[0], 0.0);
  const std::vector<double> path = ThreeGraphletCounts(Graph::Path(3));
  EXPECT_DOUBLE_EQ(path[2], 1.0);  // The single wedge.
}

TEST(GraphletTest, CountsSumToTriples) {
  Rng rng = MakeRng(77);
  const Graph g = graph::ErdosRenyiGnp(8, 0.5, rng);
  const std::vector<double> counts = ThreeGraphletCounts(g);
  EXPECT_DOUBLE_EQ(counts[0] + counts[1] + counts[2] + counts[3],
                   8.0 * 7 * 6 / 6);
}

TEST(GraphletTest, KernelPsd) {
  Budget unlimited;
  EXPECT_TRUE(IsPositiveSemidefinite(
      GraphletKernelMatrix(TestDataset(6, 78), unlimited).value()));
}

TEST(HomKernelTest, PsdAndInvariant) {
  Budget unlimited;
  Rng rng = MakeRng(79);
  Graph g = graph::ErdosRenyiGnp(8, 0.4, rng);
  Graph p = graph::Permuted(g, RandomPermutation(8, rng));
  const std::vector<Graph> graphs = {g, p, Graph::Cycle(8)};
  const std::vector<hom::Pattern> family = hom::DefaultPatternFamily(12);
  const linalg::Matrix k = *HomVectorKernelMatrix(graphs, family, unlimited);
  EXPECT_TRUE(IsPositiveSemidefinite(k));
  EXPECT_NEAR(k(0, 2), k(1, 2), 1e-9);
  const linalg::Matrix scaled =
      *ScaledHomKernelMatrix(graphs, family, unlimited);
  EXPECT_TRUE(IsPositiveSemidefinite(scaled));
}

TEST(KernelUtilsTest, NormalizeUnitDiagonal) {
  Budget unlimited;
  const std::vector<Graph> graphs = TestDataset(5, 80);
  const linalg::Matrix k =
      NormalizeKernel(*WlSubtreeKernelMatrix(graphs, 2, unlimited));
  for (int i = 0; i < k.rows(); ++i) {
    EXPECT_NEAR(k(i, i), 1.0, 1e-12);
    for (int j = 0; j < k.cols(); ++j) {
      EXPECT_LE(k(i, j), 1.0 + 1e-12);
    }
  }
}

TEST(KernelUtilsTest, CenteringZeroesRowSums) {
  Budget unlimited;
  const linalg::Matrix k =
      *WlSubtreeKernelMatrix(TestDataset(5, 81), 2, unlimited);
  const linalg::Matrix c = linalg::DoubleCentered(k);
  for (int i = 0; i < c.rows(); ++i) {
    double row = 0.0;
    for (int j = 0; j < c.cols(); ++j) row += c(i, j);
    EXPECT_NEAR(row, 0.0, 1e-9);
  }
}

TEST(KernelUtilsTest, PsdDetection) {
  EXPECT_TRUE(IsPositiveSemidefinite(linalg::Matrix{{2, 1}, {1, 2}}));
  EXPECT_FALSE(IsPositiveSemidefinite(linalg::Matrix{{0, 1}, {1, 0}}));
}

}  // namespace
}  // namespace x2vec::kernel
