#include <string>

#include "base/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph6.h"
#include "graph/isomorphism.h"
#include "gtest/gtest.h"
#include "hom/tree_depth.h"
#include "hom/treewidth.h"
#include "kernel/graph_kernels.h"
#include "kernel/node_kernels.h"
#include "linalg/eigen.h"

namespace x2vec {
namespace {

using graph::Graph;

TEST(Graph6Test, RoundTripKnownGraphs) {
  for (const Graph& g : {Graph::Path(5), Graph::Cycle(6), Graph::Complete(4),
                         Graph::Star(3), Graph(1), Graph(7)}) {
    const std::string encoded = graph::ToGraph6(g);
    const StatusOr<Graph> decoded = graph::FromGraph6(encoded);
    ASSERT_TRUE(decoded.ok()) << encoded;
    EXPECT_TRUE(graph::AreIsomorphic(g, *decoded));
    EXPECT_EQ(decoded->NumVertices(), g.NumVertices());
    EXPECT_EQ(decoded->NumEdges(), g.NumEdges());
  }
}

TEST(Graph6Test, RoundTripPreservesExactAdjacency) {
  Rng rng = MakeRng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::ErdosRenyiGnp(10, 0.4, rng);
    const StatusOr<Graph> decoded = graph::FromGraph6(graph::ToGraph6(g));
    ASSERT_TRUE(decoded.ok());
    for (int u = 0; u < 10; ++u) {
      for (int v = 0; v < 10; ++v) {
        if (u != v) {
          EXPECT_EQ(g.HasEdge(u, v), decoded->HasEdge(u, v));
        }
      }
    }
  }
}

TEST(Graph6Test, KnownEncodings) {
  // K3 in graph6 is "Bw" (n=2+... ): verify against the nauty convention:
  // n=3 -> 'B', bits 11 1 -> 111000 -> 'w'.
  EXPECT_EQ(graph::ToGraph6(Graph::Complete(3)), "Bw");
  // P3 (edges 0-1, 1-2): bits (0,1)=1,(0,2)=0,(1,2)=1 -> 101000 = 40+63='g'.
  EXPECT_EQ(graph::ToGraph6(Graph::Path(3)), "Bg");
}

TEST(Graph6Test, RejectsMalformed) {
  EXPECT_FALSE(graph::FromGraph6("").ok());
  EXPECT_FALSE(graph::FromGraph6("D").ok());    // Truncated bits.
  EXPECT_FALSE(graph::FromGraph6("Bww").ok());  // Too long.
}

TEST(Graph6Test, ListParsing) {
  const auto graphs = graph::FromGraph6List("Bw Bg\nBw");
  ASSERT_TRUE(graphs.ok());
  EXPECT_EQ(graphs->size(), 3u);
  EXPECT_EQ((*graphs)[1].NumEdges(), 2);
}

TEST(NodeKernelTest, LaplacianRowSumsZero) {
  Rng rng = MakeRng(102);
  const Graph g = graph::ErdosRenyiGnp(8, 0.4, rng);
  const linalg::Matrix l = kernel::Laplacian(g);
  for (int i = 0; i < 8; ++i) {
    double row = 0.0;
    for (int j = 0; j < 8; ++j) row += l(i, j);
    EXPECT_NEAR(row, 0.0, 1e-12);
  }
}

TEST(NodeKernelTest, DiffusionKernelIsPsdAndLocal) {
  const Graph path = Graph::Path(5);
  const linalg::Matrix k = kernel::DiffusionKernel(path, 0.5);
  EXPECT_TRUE(kernel::IsPositiveSemidefinite(k));
  // Similarity decays with graph distance from vertex 0.
  EXPECT_GT(k(0, 1), k(0, 2));
  EXPECT_GT(k(0, 2), k(0, 4));
}

TEST(NodeKernelTest, DiffusionRespectsComponents) {
  const Graph two = graph::DisjointUnion(Graph::Path(3), Graph::Path(3));
  const linalg::Matrix k = kernel::DiffusionKernel(two, 1.0);
  EXPECT_NEAR(k(0, 4), 0.0, 1e-9);  // No diffusion across components.
  EXPECT_GT(k(0, 1), 0.01);
}

TEST(TreeDepthTest, KnownValues) {
  EXPECT_EQ(hom::TreeDepth(Graph(0)), 0);
  EXPECT_EQ(hom::TreeDepth(Graph(1)), 1);
  EXPECT_EQ(hom::TreeDepth(Graph::Path(2)), 2);
  EXPECT_EQ(hom::TreeDepth(Graph::Star(4)), 2);
  // td(P_n) = ceil(log2(n+1)).
  EXPECT_EQ(hom::TreeDepth(Graph::Path(3)), 2);
  EXPECT_EQ(hom::TreeDepth(Graph::Path(4)), 3);
  EXPECT_EQ(hom::TreeDepth(Graph::Path(7)), 3);
  EXPECT_EQ(hom::TreeDepth(Graph::Path(8)), 4);
  // td(K_n) = n; td(C_n) = 1 + td(P_{n-1}).
  EXPECT_EQ(hom::TreeDepth(Graph::Complete(4)), 4);
  EXPECT_EQ(hom::TreeDepth(Graph::Cycle(4)), 3);
  EXPECT_EQ(hom::TreeDepth(Graph::Cycle(7)), 4);
}

TEST(TreeDepthTest, DisconnectedTakesMax) {
  const Graph g = graph::DisjointUnion(Graph::Path(4), Graph(1));
  EXPECT_EQ(hom::TreeDepth(g), 3);
}

TEST(TreeDepthTest, BoundsAgainstTreewidth) {
  // tw(G) <= td(G) - 1 always.
  Rng rng = MakeRng(105);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::ErdosRenyiGnp(7, 0.4, rng);
    EXPECT_LE(hom::ExactTreewidth(g, nullptr), hom::TreeDepth(g) - 1 +
                                                   (g.NumEdges() == 0 ? 1 : 0))
        << "trial " << trial;
  }
}

TEST(TreeDepthTest, FamilyFilter) {
  EXPECT_TRUE(hom::HasTreeDepthAtMost(Graph::Star(5), 2));
  EXPECT_FALSE(hom::HasTreeDepthAtMost(Graph::Path(4), 2));
}

}  // namespace
}  // namespace x2vec
