#include <cstdint>
#include <utility>
#include <vector>

#include "api/suite.h"
#include "base/budget.h"
#include "base/rng.h"
#include "base/status.h"
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
  // P2 (one edge) and P3 at t = 0: every vertex has the same initial colour,
  // so K(G, H) = |G| * |H|.
  const std::vector<Graph> graphs = {Graph::Path(2), Graph::Path(3)};
  const linalg::Matrix k0 = WlSubtreeKernelMatrix(graphs, 0);
  EXPECT_DOUBLE_EQ(k0(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(k0(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(k0(1, 1), 9.0);
  // Round 1 adds degree colours: P2 = {d1: 2}, P3 = {d1: 2, d2: 1}.
  const linalg::Matrix k1 = WlSubtreeKernelMatrix(graphs, 1);
  EXPECT_DOUBLE_EQ(k1(0, 1), 6.0 + 2.0 * 2.0);
  EXPECT_DOUBLE_EQ(k1(0, 0), 4.0 + 4.0);
  EXPECT_DOUBLE_EQ(k1(1, 1), 9.0 + 4.0 + 1.0);
}

TEST(WlKernelTest, GramIsSymmetricPsd) {
  const std::vector<Graph> graphs = TestDataset(8, 71);
  const linalg::Matrix k = WlSubtreeKernelMatrix(graphs, 3);
  for (int i = 0; i < k.rows(); ++i) {
    for (int j = 0; j < k.cols(); ++j) {
      EXPECT_DOUBLE_EQ(k(i, j), k(j, i));
    }
  }
  EXPECT_TRUE(IsPositiveSemidefinite(k));
}

TEST(WlKernelTest, IsomorphicGraphsHaveEqualRows) {
  Rng rng = MakeRng(72);
  Graph g = graph::ErdosRenyiGnp(7, 0.5, rng);
  Graph p = graph::Permuted(g, RandomPermutation(7, rng));
  const std::vector<Graph> graphs = {g, p, Graph::Cycle(7)};
  const linalg::Matrix k = WlSubtreeKernelMatrix(graphs, 4);
  EXPECT_DOUBLE_EQ(k(0, 0), k(1, 1));
  EXPECT_DOUBLE_EQ(k(0, 0), k(0, 1));  // Full self-similarity.
  EXPECT_DOUBLE_EQ(k(0, 2), k(1, 2));
}

TEST(WlKernelTest, WlIndistinguishablePairLooksIdentical) {
  // C6 vs 2xC3: the WL kernel cannot separate them at any round.
  const std::vector<Graph> graphs = {
      Graph::Cycle(6), DisjointUnion(Graph::Cycle(3), Graph::Cycle(3))};
  const linalg::Matrix k = NormalizeKernel(WlSubtreeKernelMatrix(graphs, 5));
  EXPECT_NEAR(k(0, 1), 1.0, 1e-12);
}

TEST(WlKernelTest, FeatureDimensionGrowsWithRounds) {
  const std::vector<Graph> graphs = TestDataset(4, 73);
  const WlFeatureSet f0 = WlSubtreeFeatures(graphs, 0);
  const WlFeatureSet f2 = WlSubtreeFeatures(graphs, 2);
  EXPECT_GT(f2.dimension, f0.dimension);
  EXPECT_EQ(f0.features.size(), graphs.size());
}

TEST(WlKernelTest, DiscountedKernelPsd) {
  const std::vector<Graph> graphs = TestDataset(6, 74);
  EXPECT_TRUE(IsPositiveSemidefinite(DiscountedWlKernelMatrix(graphs, 6)));
}

TEST(WlKernelTest, ShortestPathVariantPsd) {
  const std::vector<Graph> graphs = TestDataset(6, 75);
  EXPECT_TRUE(IsPositiveSemidefinite(WlShortestPathKernelMatrix(graphs, 2)));
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
  // Captured before the dataset refinement stopped building the disjoint
  // union; the joint colour ids, and so every entry, must not move.
  const std::vector<Graph> graphs = LabelledDataset();
  EXPECT_EQ(Digest(WlSubtreeKernelMatrix(graphs, 3)), 8060041855713182602ull);
  EXPECT_EQ(Digest(DiscountedWlKernelMatrix(graphs, 3)), 4700007788846284159ull);
  EXPECT_EQ(Digest(WlShortestPathKernelMatrix(graphs, 2)), 13634039831283152666ull);
}

TEST(WlKernelTest, EmptyDatasetGivesEmptyResults) {
  const std::vector<Graph> none;
  const WlFeatureSet features = WlSubtreeFeatures(none, 2);
  EXPECT_TRUE(features.features.empty());
  EXPECT_EQ(features.dimension, 0);
  for (const linalg::Matrix& k :
       {WlSubtreeKernelMatrix(none, 2), DiscountedWlKernelMatrix(none, 2),
        WlShortestPathKernelMatrix(none, 2),
        TwoWlKernelMatrix(none, 2).value()}) {
    EXPECT_EQ(k.rows(), 0);
    EXPECT_EQ(k.cols(), 0);
  }
}

TEST(TwoWlKernelTest, SeparatesWhatOneWlCannot) {
  const std::vector<Graph> graphs = {
      Graph::Cycle(6), DisjointUnion(Graph::Cycle(3), Graph::Cycle(3))};
  // 1-WL subtree kernel: identical rows (cosine 1).
  const linalg::Matrix one_wl =
      NormalizeKernel(WlSubtreeKernelMatrix(graphs, 4));
  EXPECT_NEAR(one_wl(0, 1), 1.0, 1e-12);
  // 2-WL kernel: strictly below 1.
  const linalg::Matrix two_wl =
      NormalizeKernel(TwoWlKernelMatrix(graphs, 3).value());
  EXPECT_LT(two_wl(0, 1), 1.0 - 1e-6);
}

TEST(TwoWlKernelTest, PsdAndPermutationInvariant) {
  Rng rng = MakeRng(127);
  Graph g = graph::ErdosRenyiGnp(7, 0.4, rng);
  Graph p = graph::Permuted(g, RandomPermutation(7, rng));
  const std::vector<Graph> graphs = {g, p, Graph::Cycle(7)};
  const linalg::Matrix k = TwoWlKernelMatrix(graphs, 2).value();
  EXPECT_TRUE(IsPositiveSemidefinite(k));
  EXPECT_DOUBLE_EQ(k(0, 0), k(1, 1));
  EXPECT_DOUBLE_EQ(k(0, 0), k(0, 1));  // Isomorphic: identical features.
}

TEST(TwoWlKernelTest, LabelledDatasetGramIsPinned) {
  // Captured from the kernel's own folklore engine before it moved onto
  // the shared k-WL pass: only the joint partitions matter, and the
  // integer counts make every sum exact.
  EXPECT_EQ(Digest(TwoWlKernelMatrix(LabelledDataset(), 3).value()),
            12222943699210141462ull);
}

TEST(TwoWlKernelTest, DigraphsSeeBothEdgeDirections) {
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
      NormalizeKernel(TwoWlKernelMatrix({two_cycle, path}, 0).value());
  EXPECT_LT(k(0, 1), 1.0 - 1e-6);
}

TEST(TwoWlKernelTest, DatasetPastThePassLimitIsATypedError) {
  // 4 * 812^3 + 4 * 130^3 row entries a round, just past 2^31 - 1, from
  // isolated vertices: kInvalidArgument before anything tuple-sized is
  // allocated, also through the method suite.
  const std::vector<Graph> graphs = {Graph(812), Graph(130)};
  const StatusOr<linalg::Matrix> gram = TwoWlKernelMatrix(graphs, 3);
  ASSERT_FALSE(gram.ok());
  EXPECT_EQ(gram.status().code(), StatusCode::kInvalidArgument);
  int suite_methods = 0;
  for (const core::GraphKernelMethod& method : api::DefaultMethodSuite()) {
    if (method.name != "wl2-folklore-t3") continue;
    Rng rng = MakeRng(1);
    Budget unlimited;
    const StatusOr<linalg::Matrix> suite_gram =
        method.gram_budgeted(graphs, rng, unlimited);
    ASSERT_FALSE(suite_gram.ok());
    EXPECT_EQ(suite_gram.status().code(), StatusCode::kInvalidArgument);
    ++suite_methods;
  }
  EXPECT_EQ(suite_methods, 1);
}

TEST(ShortestPathKernelTest, HandComputed) {
  // P3 has distances {1,1,2}; P2 has {1}. Unlabelled: features (0,0,d).
  const std::vector<Graph> graphs = {Graph::Path(3), Graph::Path(2)};
  const linalg::Matrix k = ShortestPathKernelMatrix(graphs);
  EXPECT_DOUBLE_EQ(k(0, 0), 4.0 + 1.0);  // 2 dist-1 pairs, 1 dist-2 pair.
  EXPECT_DOUBLE_EQ(k(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(k(1, 1), 1.0);
}

TEST(RandomWalkKernelTest, ProductGraphCounts) {
  // K(P2, P2): product is 2 disjoint edges; walks of length k from 4
  // vertices: 4 for every k. lambda = 0.5, max 2: 4 + 0.5*4 + 0.25*4 = 7.
  const std::vector<Graph> graphs = {Graph::Path(2)};
  const linalg::Matrix k = RandomWalkKernelMatrix(graphs, 0.5, 2);
  EXPECT_DOUBLE_EQ(k(0, 0), 7.0);
}

TEST(RandomWalkKernelTest, SymmetricPsdOnDataset) {
  const std::vector<Graph> graphs = TestDataset(5, 76);
  const linalg::Matrix k = RandomWalkKernelMatrix(graphs, 0.1, 4);
  for (int i = 0; i < k.rows(); ++i) {
    for (int j = 0; j < k.cols(); ++j) {
      EXPECT_DOUBLE_EQ(k(i, j), k(j, i));
    }
  }
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
  EXPECT_TRUE(IsPositiveSemidefinite(GraphletKernelMatrix(TestDataset(6, 78))));
}

TEST(HomKernelTest, PsdAndInvariant) {
  Rng rng = MakeRng(79);
  Graph g = graph::ErdosRenyiGnp(8, 0.4, rng);
  Graph p = graph::Permuted(g, RandomPermutation(8, rng));
  const std::vector<Graph> graphs = {g, p, Graph::Cycle(8)};
  const std::vector<hom::Pattern> family = hom::DefaultPatternFamily(12);
  const linalg::Matrix k = HomVectorKernelMatrix(graphs, family);
  EXPECT_TRUE(IsPositiveSemidefinite(k));
  EXPECT_NEAR(k(0, 2), k(1, 2), 1e-9);
  const linalg::Matrix scaled = ScaledHomKernelMatrix(graphs, family);
  EXPECT_TRUE(IsPositiveSemidefinite(scaled));
}

TEST(KernelUtilsTest, NormalizeUnitDiagonal) {
  const std::vector<Graph> graphs = TestDataset(5, 80);
  const linalg::Matrix k = NormalizeKernel(WlSubtreeKernelMatrix(graphs, 2));
  for (int i = 0; i < k.rows(); ++i) {
    EXPECT_NEAR(k(i, i), 1.0, 1e-12);
    for (int j = 0; j < k.cols(); ++j) {
      EXPECT_LE(k(i, j), 1.0 + 1e-12);
    }
  }
}

TEST(KernelUtilsTest, CenteringZeroesRowSums) {
  const linalg::Matrix k = WlSubtreeKernelMatrix(TestDataset(5, 81), 2);
  const linalg::Matrix c = CenterKernel(k);
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
