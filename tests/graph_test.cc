#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "base/rng.h"
#include "graph/algorithms.h"
#include "graph/enumeration.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "gtest/gtest.h"
#include "wl/cfi.h"

namespace x2vec::graph {
namespace {

TEST(GraphTest, BuildersHaveExpectedShape) {
  EXPECT_EQ(Graph::Path(5).NumEdges(), 4);
  EXPECT_EQ(Graph::Cycle(5).NumEdges(), 5);
  EXPECT_EQ(Graph::Complete(5).NumEdges(), 10);
  EXPECT_EQ(Graph::Star(4).NumEdges(), 4);
  EXPECT_EQ(Graph::CompleteBipartite(2, 3).NumEdges(), 6);
  EXPECT_EQ(Graph::Grid(3, 4).NumEdges(), 17);  // 3*3 + 2*4.
}

TEST(GraphTest, UndirectedAdjacencyIsSymmetric) {
  Graph g = Graph::Cycle(4);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(0), 2);
}

TEST(GraphTest, DirectedEdgesAreOneWay) {
  Graph g(3, /*directed=*/true);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.Degree(1), 1);
  EXPECT_EQ(g.InDegree(1), 1);
  EXPECT_EQ(g.InNeighbors(2).size(), 1u);
}

TEST(GraphTest, EdgeWeightDefaultsAndLookups) {
  Graph g(3);
  g.AddEdge(0, 1, 2.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 0), 2.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 2), 0.0);
  EXPECT_TRUE(g.IsWeighted());
  EXPECT_FALSE(Graph::Path(3).IsWeighted());
}

TEST(GraphTest, AdjacencyMatrixMatches) {
  Graph g = Graph::Path(3);
  linalg::Matrix a = g.AdjacencyMatrix();
  EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(a(0, 2), 0.0);
}

TEST(GraphTest, CirculantMatchesCycle) {
  Graph c5 = Graph::Circulant(5, {1});
  EXPECT_TRUE(AreIsomorphic(c5, Graph::Cycle(5)));
  Graph petersen_outer = Graph::Circulant(5, {1, 2});  // K5 actually.
  EXPECT_EQ(petersen_outer.NumEdges(), 10);
}

TEST(GraphOpsTest, DisjointUnionCounts) {
  Graph u = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  EXPECT_EQ(u.NumVertices(), 6);
  EXPECT_EQ(u.NumEdges(), 6);
  EXPECT_EQ(ConnectedComponents(u).size(), 2u);
}

TEST(GraphOpsTest, ComplementOfCompleteIsEmpty) {
  Graph c = Complement(Graph::Complete(4));
  EXPECT_EQ(c.NumEdges(), 0);
  EXPECT_EQ(Complement(c).NumEdges(), 6);
}

TEST(GraphOpsTest, InducedSubgraphKeepsEdges) {
  Graph g = Graph::Cycle(5);
  Graph sub = InducedSubgraph(g, {0, 1, 2});
  EXPECT_EQ(sub.NumVertices(), 3);
  EXPECT_EQ(sub.NumEdges(), 2);  // Path 0-1-2.
}

TEST(GraphOpsTest, PermutedIsIsomorphic) {
  Rng rng = MakeRng(9);
  Graph g = ErdosRenyiGnp(8, 0.4, rng);
  std::vector<int> perm = RandomPermutation(8, rng);
  Graph p = Permuted(g, perm);
  EXPECT_TRUE(AreIsomorphic(g, p));
}

TEST(GraphOpsTest, BlowUpSizes) {
  Graph b = BlowUp(Graph::Path(2), 3);
  EXPECT_EQ(b.NumVertices(), 6);
  EXPECT_EQ(b.NumEdges(), 9);  // Complete bipartite bundle.
}

TEST(GraphOpsTest, TreeDetection) {
  EXPECT_TRUE(IsTree(Graph::Path(6)));
  EXPECT_TRUE(IsTree(Graph::Star(5)));
  EXPECT_FALSE(IsTree(Graph::Cycle(4)));
  EXPECT_FALSE(IsTree(DisjointUnion(Graph::Path(2), Graph::Path(2))));
}

TEST(AlgorithmsTest, BfsDistancesOnPath) {
  const std::vector<int> d = BfsDistances(Graph::Path(5), 0);
  EXPECT_EQ(d, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(AlgorithmsTest, UnreachableIsMinusOne) {
  Graph g = DisjointUnion(Graph::Path(2), Graph::Path(2));
  const std::vector<int> d = BfsDistances(g, 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], -1);
  EXPECT_EQ(d[3], -1);
}

TEST(AlgorithmsTest, DiameterOfCycle) {
  EXPECT_EQ(Diameter(Graph::Cycle(6)), 3);
  EXPECT_EQ(Diameter(Graph::Complete(5)), 1);
}

TEST(AlgorithmsTest, ExpSimilarityDecays) {
  linalg::Matrix s = ExpDistanceSimilarity(Graph::Path(3), 1.0);
  EXPECT_DOUBLE_EQ(s(0, 0), 1.0);
  EXPECT_NEAR(s(0, 1), std::exp(-1.0), 1e-12);
  EXPECT_NEAR(s(0, 2), std::exp(-2.0), 1e-12);
}

TEST(AlgorithmsTest, TriangleCounts) {
  EXPECT_EQ(CountTriangles(Graph::Complete(4)), 4);
  EXPECT_EQ(CountTriangles(Graph::Cycle(5)), 0);
  EXPECT_EQ(CountTriangles(Graph::Cycle(3)), 1);
}

TEST(AlgorithmsTest, GirthValues) {
  EXPECT_EQ(Girth(Graph::Cycle(7)), 7);
  EXPECT_EQ(Girth(Graph::Complete(4)), 3);
  EXPECT_EQ(Girth(Graph::Path(5)), -1);
  EXPECT_EQ(Girth(Graph::CompleteBipartite(2, 3)), 4);
}

TEST(GeneratorsTest, GnpExtremes) {
  Rng rng = MakeRng(10);
  EXPECT_EQ(ErdosRenyiGnp(6, 0.0, rng).NumEdges(), 0);
  EXPECT_EQ(ErdosRenyiGnp(6, 1.0, rng).NumEdges(), 15);
}

TEST(GeneratorsTest, GnmExactEdgeCount) {
  Rng rng = MakeRng(11);
  for (int m : {0, 5, 10, 21}) {
    EXPECT_EQ(ErdosRenyiGnm(7, m, rng).NumEdges(), m);
  }
}

TEST(GeneratorsTest, RandomRegularDegrees) {
  Rng rng = MakeRng(12);
  Graph g = RandomRegular(10, 3, rng);
  for (int v = 0; v < 10; ++v) EXPECT_EQ(g.Degree(v), 3);
}

TEST(GeneratorsTest, RandomTreeIsTree) {
  Rng rng = MakeRng(13);
  for (int n : {1, 2, 3, 8, 20}) {
    EXPECT_TRUE(IsTree(RandomTree(n, rng))) << "n=" << n;
  }
}

TEST(GeneratorsTest, BoundedDegreeTreeRespectsBound) {
  Rng rng = MakeRng(14);
  Graph t = RandomTreeBoundedDegree(30, 3, rng);
  EXPECT_TRUE(IsTree(t));
  for (int v = 0; v < 30; ++v) EXPECT_LE(t.Degree(v), 3);
}

TEST(GeneratorsTest, SbmBlockAssignment) {
  Rng rng = MakeRng(15);
  linalg::Matrix probs = {{1.0, 0.0}, {0.0, 1.0}};
  std::vector<int> block;
  Graph g = StochasticBlockModel({3, 4}, probs, rng, &block);
  EXPECT_EQ(g.NumVertices(), 7);
  EXPECT_EQ(g.NumEdges(), 3 + 6);  // Two cliques.
  EXPECT_EQ(block, (std::vector<int>{0, 0, 0, 1, 1, 1, 1}));
}

TEST(GeneratorsTest, PerturbFlipsExactly) {
  Rng rng = MakeRng(16);
  Graph g = Graph::Cycle(8);
  Graph h = PerturbEdges(g, 3, rng);
  // Symmetric difference of edge sets is exactly 3.
  int diff = 0;
  for (int u = 0; u < 8; ++u) {
    for (int v = u + 1; v < 8; ++v) {
      if (g.HasEdge(u, v) != h.HasEdge(u, v)) ++diff;
    }
  }
  EXPECT_EQ(diff, 3);
}

TEST(IsomorphismTest, CycleIsomorphicToPermutedCycle) {
  Graph c = Graph::Cycle(6);
  EXPECT_TRUE(AreIsomorphic(c, Permuted(c, {3, 1, 4, 0, 5, 2})));
}

TEST(IsomorphismTest, DistinguishesPathsFromStars) {
  EXPECT_FALSE(AreIsomorphic(Graph::Path(4), Graph::Star(3)));
}

TEST(IsomorphismTest, C6VersusTwoTriangles) {
  Graph c6 = Graph::Cycle(6);
  Graph two_triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  EXPECT_FALSE(AreIsomorphic(c6, two_triangles));
}

TEST(IsomorphismTest, RespectsVertexLabels) {
  Graph a = Graph::Path(2);
  Graph b = Graph::Path(2);
  a.SetVertexLabel(0, 1);
  EXPECT_FALSE(AreIsomorphic(a, b));
  b.SetVertexLabel(1, 1);
  EXPECT_TRUE(AreIsomorphic(a, b));
}

TEST(IsomorphismTest, RespectsEdgeWeights) {
  Graph a(2);
  a.AddEdge(0, 1, 2.0);
  Graph b(2);
  b.AddEdge(0, 1, 1.0);
  EXPECT_FALSE(AreIsomorphic(a, b));
}

TEST(IsomorphismTest, FindIsomorphismWitnessIsValid) {
  Rng rng = MakeRng(17);
  Graph g = ErdosRenyiGnp(7, 0.5, rng);
  std::vector<int> perm = RandomPermutation(7, rng);
  Graph h = Permuted(g, perm);
  auto mapping = FindIsomorphism(g, h);
  ASSERT_TRUE(mapping.has_value());
  for (const Edge& e : g.Edges()) {
    EXPECT_TRUE(h.HasEdge((*mapping)[e.u], (*mapping)[e.v]));
  }
}

TEST(IsomorphismTest, AutomorphismCounts) {
  EXPECT_EQ(CountAutomorphisms(Graph::Complete(4)), 24);
  EXPECT_EQ(CountAutomorphisms(Graph::Cycle(5)), 10);  // Dihedral group.
  EXPECT_EQ(CountAutomorphisms(Graph::Path(3)), 2);
  EXPECT_EQ(CountAutomorphisms(Graph::Star(4)), 24);  // S_4 on leaves.
}

TEST(IsomorphismTest, CountIsomorphismsBetweenCopies) {
  Graph c4 = Graph::Cycle(4);
  EXPECT_EQ(CountIsomorphisms(c4, Permuted(c4, {2, 0, 3, 1})), 8);
}

TEST(IsomorphismTest, CfiAutomorphismCountsArePinned) {
  // With gadget vertices labelled by their base vertex, aut(CFI(G)) =
  // 2^{|E| - |V| + 1} for a connected base G, twisted or not, and the two
  // copies are not isomorphic. C8(1, 2) is the largest search here, about
  // 23M candidate trials a count.
  struct Case {
    const char* name;
    Graph base;
    int64_t automorphisms;
  };
  const Case cases[] = {{"K4", Graph::Complete(4), 8},
                        {"K5", Graph::Complete(5), 64},
                        {"C6", Graph::Cycle(6), 2},
                        {"3x3 grid", Graph::Grid(3, 3), 16},
                        {"C8(1, 2)", Graph::Circulant(8, {1, 2}), 512}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(int64_t{1} << (c.base.NumEdges() - c.base.NumVertices() + 1),
              c.automorphisms);
    const wl::CfiPair pair = wl::BuildCfiPair(c.base);
    EXPECT_EQ(CountAutomorphisms(pair.untwisted), c.automorphisms);
    EXPECT_EQ(CountAutomorphisms(pair.twisted), c.automorphisms);
    EXPECT_FALSE(AreIsomorphic(pair.untwisted, pair.twisted));
  }
}

TEST(EnumerationTest, GraphCountsMatchOeis) {
  // OEIS A000088: 1, 2, 4, 11, 34, 156 non-isomorphic graphs on 1..6 nodes.
  EXPECT_EQ(AllGraphs(1).size(), 1u);
  EXPECT_EQ(AllGraphs(2).size(), 2u);
  EXPECT_EQ(AllGraphs(3).size(), 4u);
  EXPECT_EQ(AllGraphs(4).size(), 11u);
  EXPECT_EQ(AllGraphs(5).size(), 34u);
}

TEST(EnumerationTest, ConnectedGraphCountsMatchOeis) {
  // OEIS A001349: 1, 1, 2, 6, 21 connected graphs on 1..5 nodes.
  EXPECT_EQ(AllConnectedGraphs(3).size(), 2u);
  EXPECT_EQ(AllConnectedGraphs(4).size(), 6u);
  EXPECT_EQ(AllConnectedGraphs(5).size(), 21u);
}

TEST(EnumerationTest, TreeCountsMatchOeis) {
  // OEIS A000055: trees on 1..8 nodes: 1,1,1,2,3,6,11,23.
  EXPECT_EQ(AllTrees(4).size(), 2u);
  EXPECT_EQ(AllTrees(5).size(), 3u);
  EXPECT_EQ(AllTrees(6).size(), 6u);
  EXPECT_EQ(AllTrees(7).size(), 11u);
  EXPECT_EQ(AllTrees(8).size(), 23u);
}

TEST(EnumerationTest, EnumeratedGraphsArePairwiseNonIsomorphic) {
  const std::vector<Graph> graphs = AllGraphs(4);
  for (size_t i = 0; i < graphs.size(); ++i) {
    for (size_t j = i + 1; j < graphs.size(); ++j) {
      EXPECT_FALSE(AreIsomorphic(graphs[i], graphs[j]));
    }
  }
}

TEST(EnumerationTest, PatternFamilies) {
  EXPECT_EQ(PathsUpTo(4).size(), 4u);
  EXPECT_EQ(CyclesUpTo(6).size(), 4u);
  const std::vector<Graph> trees = TreesUpTo(5);
  EXPECT_EQ(trees.size(), 1u + 1 + 1 + 2 + 3);
  for (const Graph& t : trees) EXPECT_TRUE(IsTree(t));
}

TEST(EnumerationTest, TreeCanonicalStringDecidesTreeIsomorphism) {
  Rng rng = MakeRng(19);
  // Isomorphic trees agree; the canonical string separates the AllTrees
  // list pairwise.
  const Graph t = RandomTree(9, rng);
  const Graph p = Permuted(t, RandomPermutation(9, rng));
  EXPECT_EQ(TreeCanonicalString(t), TreeCanonicalString(p));
  const std::vector<Graph> trees = AllTrees(7);
  for (size_t i = 0; i < trees.size(); ++i) {
    for (size_t j = i + 1; j < trees.size(); ++j) {
      EXPECT_NE(TreeCanonicalString(trees[i]), TreeCanonicalString(trees[j]));
    }
  }
}

TEST(EnumerationTest, CanonicalKeyInvariantUnderPermutation) {
  Rng rng = MakeRng(18);
  Graph g = ErdosRenyiGnp(6, 0.5, rng);
  for (int trial = 0; trial < 5; ++trial) {
    Graph p = Permuted(g, RandomPermutation(6, rng));
    EXPECT_EQ(CanonicalKey(g), CanonicalKey(p));
  }
}

}  // namespace
}  // namespace x2vec::graph
