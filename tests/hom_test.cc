#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "base/rng.h"
#include "graph/enumeration.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "gtest/gtest.h"
#include "hom/brute_force.h"
#include "hom/embeddings.h"
#include "hom/indistinguishability.h"
#include "hom/path_cycle.h"
#include "hom/tree_hom.h"
#include "hom/treewidth.h"
#include "wl/color_refinement.h"

namespace x2vec::hom {
namespace {

using graph::DisjointUnion;
using graph::Graph;

int64_t ToInt64(__int128 x) { return static_cast<int64_t>(x); }

TEST(BruteForceTest, EdgeIntoCompleteGraph) {
  // hom(K2, K_n) = n(n-1).
  EXPECT_EQ(CountHomomorphismsBruteForce(Graph::Path(2), Graph::Complete(4)),
            12);
}

TEST(BruteForceTest, StarFormula) {
  // Example 4.1: hom(S_k, G) = sum_v deg(v)^k.
  Rng rng = MakeRng(51);
  const Graph g = graph::ErdosRenyiGnp(7, 0.5, rng);
  for (int k = 1; k <= 3; ++k) {
    int64_t expected = 0;
    for (int v = 0; v < 7; ++v) {
      int64_t power = 1;
      for (int i = 0; i < k; ++i) power *= g.Degree(v);
      expected += power;
    }
    EXPECT_EQ(CountHomomorphismsBruteForce(Graph::Star(k), g), expected)
        << "k=" << k;
  }
}

TEST(BruteForceTest, OddCycleIntoBipartiteIsZero) {
  EXPECT_EQ(CountHomomorphismsBruteForce(Graph::Cycle(3),
                                         Graph::CompleteBipartite(2, 3)),
            0);
}

TEST(BruteForceTest, RootedCountsSumToTotal) {
  Rng rng = MakeRng(52);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  const Graph f = Graph::Path(4);
  Budget unlimited;
  int64_t total = 0;
  for (int v = 0; v < 6; ++v) {
    total +=
        CountRootedHomomorphismsBruteForceBudgeted(f, 0, g, v, unlimited)
            .value();
  }
  EXPECT_EQ(total, CountHomomorphismsBruteForce(f, g));
}

TEST(BruteForceTest, EmbeddingsOfPathIntoTriangle) {
  // Injective maps of P3 into K3: 3! = 6.
  EXPECT_EQ(CountEmbeddingsBruteForce(Graph::Path(3), Graph::Complete(3)), 6);
  // But homomorphisms include the folding walks: 2 edges * ... = 12.
  EXPECT_EQ(CountHomomorphismsBruteForce(Graph::Path(3), Graph::Complete(3)),
            12);
}

TEST(BruteForceTest, EpimorphismDecomposition) {
  // Theorem 4.2's identity hom(F, F') = sum_{F''} epi(F, F'') *
  // emb(F'', F') / aut(F'') — spot check: hom(P3, P2).
  const Graph p3 = Graph::Path(3);
  const Graph p2 = Graph::Path(2);
  // P3 -> P2 maps fold the path onto the edge: hom = 2.
  EXPECT_EQ(CountHomomorphismsBruteForce(p3, p2), 2);
  EXPECT_EQ(CountEpimorphismsBruteForce(p3, p2), 2);
  // Images of P3 in P2 can only be P2 itself.
  EXPECT_EQ(CountEmbeddingsBruteForce(p2, p2), 2);
  EXPECT_EQ(graph::CountAutomorphisms(p2), 2);
  // hom = epi(P3,P2) * emb(P2,P2) / aut(P2) = 2 * 2 / 2 = 2.
}

TEST(BruteForceTest, LabelsRestrictHoms) {
  Graph f = Graph::Path(2);
  f.SetVertexLabel(0, 1);
  Graph g = Graph::Path(3);
  g.SetVertexLabel(1, 1);
  // Only maps sending f's labelled end to g's centre: 2 homs.
  EXPECT_EQ(CountHomomorphismsBruteForce(f, g), 2);
}

// ---------------------------------------------------------------------------
// Exhaustive reference for every map count of Theorem 4.2: enumerate all
// n_G^{n_F} maps V(F) -> V(G) and classify each one from the definitions,
// then compare with every brute-force counter and isomorphism function.

// The arc a -> b of g (the edge ab when g is undirected), or nullptr.
const graph::Neighbor* FindArc(const Graph& g, int a, int b) {
  for (const graph::Neighbor& nb : g.Neighbors(a)) {
    if (nb.to == b) return &nb;
  }
  return nullptr;
}

struct MapClass {
  bool hom = true;      // Keeps vertex labels, edges, edge labels, direction.
  bool injective = true;
  bool onto = true;     // Covers every vertex and every edge of G.
  bool keeps_weights = true;
  double weight = 1.0;  // Product of G's weights over the image edges.
};

MapClass Classify(const Graph& f, const Graph& g, const std::vector<int>& h) {
  MapClass c;
  std::vector<bool> vertex_hit(g.NumVertices(), false);
  for (int u = 0; u < f.NumVertices(); ++u) {
    if (f.VertexLabel(u) != g.VertexLabel(h[u])) c.hom = false;
    if (vertex_hit[h[u]]) c.injective = false;
    vertex_hit[h[u]] = true;
  }
  std::set<std::pair<int, int>> edges_hit;
  for (const graph::Edge& e : f.Edges()) {
    const graph::Neighbor* arc = FindArc(g, h[e.u], h[e.v]);
    if (arc == nullptr || arc->label != e.label) {
      c.hom = false;
      continue;
    }
    c.weight *= arc->weight;
    if (arc->weight != e.weight) c.keeps_weights = false;
    int a = h[e.u];
    int b = h[e.v];
    if (!g.directed() && a > b) std::swap(a, b);
    edges_hit.insert({a, b});
  }
  c.onto = std::count(vertex_hit.begin(), vertex_hit.end(), true) ==
               g.NumVertices() &&
           static_cast<int>(edges_hit.size()) == g.NumEdges();
  return c;
}

bool IsIsomorphism(const Graph& f, const Graph& g, const MapClass& c) {
  return c.hom && c.injective && c.onto && c.keeps_weights &&
         f.directed() == g.directed();
}

struct ReferenceCounts {
  int64_t hom = 0;
  int64_t emb = 0;
  int64_t epi = 0;
  int64_t iso = 0;
  double weighted = 0.0;
  std::vector<std::vector<int64_t>> rooted;  // [root of F][image in G].
};

ReferenceCounts EnumerateMaps(const Graph& f, const Graph& g) {
  const int nf = f.NumVertices();
  const int ng = g.NumVertices();
  ReferenceCounts out;
  out.rooted.assign(nf, std::vector<int64_t>(ng, 0));
  std::vector<int> h(nf, 0);
  while (true) {
    const MapClass c = Classify(f, g, h);
    if (c.hom) {
      ++out.hom;
      out.weighted += c.weight;
      out.emb += c.injective ? 1 : 0;
      out.epi += c.onto ? 1 : 0;
      out.iso += IsIsomorphism(f, g, c) ? 1 : 0;
      for (int r = 0; r < nf; ++r) ++out.rooted[r][h[r]];
    }
    int i = 0;
    while (i < nf && ++h[i] == ng) h[i++] = 0;
    if (i == nf) return out;
  }
}

void ExpectCountsMatchReference(const Graph& f, const Graph& g) {
  const ReferenceCounts ref = EnumerateMaps(f, g);
  Budget unlimited;
  EXPECT_EQ(CountHomomorphismsBruteForce(f, g), ref.hom);
  EXPECT_NEAR(WeightedHomomorphismBruteForceBudgeted(f, g, unlimited).value(),
              ref.weighted, 1e-12 * (1.0 + ref.weighted));
  EXPECT_EQ(CountEmbeddingsBruteForce(f, g), ref.emb);
  EXPECT_EQ(CountEpimorphismsBruteForce(f, g), ref.epi);
  for (int r = 0; r < f.NumVertices(); ++r) {
    for (int v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ(
          CountRootedHomomorphismsBruteForceBudgeted(f, r, g, v, unlimited)
              .value(),
          ref.rooted[r][v])
          << "root " << r << " -> " << v;
    }
  }
  EXPECT_EQ(graph::CountIsomorphisms(f, g), ref.iso);
  EXPECT_EQ(graph::AreIsomorphic(f, g), ref.iso > 0);
  const std::optional<std::vector<int>> witness = graph::FindIsomorphism(f, g);
  ASSERT_EQ(witness.has_value(), ref.iso > 0);
  if (witness.has_value()) {
    EXPECT_TRUE(IsIsomorphism(f, g, Classify(f, g, *witness)));
  }
}

std::vector<Graph> GraphsUpToFourVertices() {
  std::vector<Graph> out;
  for (int n = 1; n <= 4; ++n) {
    for (Graph& g : graph::AllGraphs(n)) out.push_back(std::move(g));
  }
  return out;
}

// A copy of g with vertex labels, edge labels and edge weights that are
// fixed functions of the endpoints, so copies share some isomorphisms.
Graph Decorated(const Graph& g) {
  Graph out(g.NumVertices());
  for (int v = 0; v < g.NumVertices(); ++v) out.SetVertexLabel(v, v % 2);
  for (const graph::Edge& e : g.Edges()) {
    out.AddEdge(e.u, e.v, 1.0 + 0.5 * ((e.u + e.v) % 3), (e.u * e.v) % 2);
  }
  return out;
}

TEST(MapCountReferenceTest, AllGraphPairsUpToFourVertices) {
  const std::vector<Graph> graphs = GraphsUpToFourVertices();
  ASSERT_EQ(graphs.size(), 18u);
  for (size_t i = 0; i < graphs.size(); ++i) {
    for (size_t j = 0; j < graphs.size(); ++j) {
      SCOPED_TRACE("pair " + std::to_string(i) + ", " + std::to_string(j));
      ExpectCountsMatchReference(graphs[i], graphs[j]);
    }
  }
}

TEST(MapCountReferenceTest, LabelledWeightedPairsUpToFourVertices) {
  const std::vector<Graph> graphs = GraphsUpToFourVertices();
  for (size_t i = 0; i < graphs.size(); ++i) {
    for (size_t j = 0; j < graphs.size(); ++j) {
      SCOPED_TRACE("pair " + std::to_string(i) + ", " + std::to_string(j));
      ExpectCountsMatchReference(Decorated(graphs[i]), Decorated(graphs[j]));
    }
  }
}

TEST(MapCountReferenceTest, AllDigraphPairsOnThreeVertices) {
  // The 64 digraphs on {0, 1, 2}, one per subset of the 6 arcs.
  std::vector<Graph> digraphs;
  for (int mask = 0; mask < 64; ++mask) {
    Graph d(3, /*directed=*/true);
    int bit = 0;
    for (int u = 0; u < 3; ++u) {
      for (int v = 0; v < 3; ++v) {
        if (u != v && ((mask >> bit++) & 1) != 0) d.AddEdge(u, v);
      }
    }
    digraphs.push_back(std::move(d));
  }
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 64; ++j) {
      SCOPED_TRACE("masks " + std::to_string(i) + ", " + std::to_string(j));
      ExpectCountsMatchReference(digraphs[i], digraphs[j]);
    }
  }
}

TEST(MapCountReferenceTest, DirectedEpimorphismChecksEveryArc) {
  // F = {0 -> 1, 1 -> 0} plus an isolated vertex has no homomorphism onto
  // G = {0 -> 1} plus an isolated vertex: the arc 1 -> 0 has no image.
  Graph f(3, /*directed=*/true);
  f.AddEdge(0, 1);
  f.AddEdge(1, 0);
  Graph g(3, /*directed=*/true);
  g.AddEdge(0, 1);
  EXPECT_EQ(CountEpimorphismsBruteForce(f, g), 0);
  EXPECT_EQ(CountHomomorphismsBruteForce(f, g), 0);
}

TEST(TreeHomTest, MatchesBruteForceOnRandomTrees) {
  Rng rng = MakeRng(53);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph tree = graph::RandomTree(2 + trial % 5, rng);
    const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
    EXPECT_EQ(ToInt64(CountTreeHoms(tree, g)),
              CountHomomorphismsBruteForce(tree, g))
        << "trial " << trial;
  }
}

TEST(TreeHomTest, RootedVectorMatchesBruteForce) {
  Rng rng = MakeRng(54);
  const Graph tree = graph::RandomTree(5, rng);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  const std::vector<__int128> rooted = RootedTreeHomVector(tree, 2, g);
  Budget unlimited;
  for (int v = 0; v < 6; ++v) {
    EXPECT_EQ(ToInt64(rooted[v]),
              CountRootedHomomorphismsBruteForceBudgeted(tree, 2, g, v,
                                                         unlimited)
                  .value());
  }
}

TEST(TreeHomTest, DoubleVariantAgrees) {
  Rng rng = MakeRng(55);
  const Graph tree = graph::RandomTree(6, rng);
  const Graph g = graph::ErdosRenyiGnp(7, 0.5, rng);
  EXPECT_DOUBLE_EQ(CountTreeHomsDouble(tree, g),
                   static_cast<double>(ToInt64(CountTreeHoms(tree, g))));
}

TEST(TreeHomTest, WeightedReducesToCountOnUnitWeights) {
  Rng rng = MakeRng(56);
  const Graph tree = graph::RandomTree(4, rng);
  const Graph g = graph::ErdosRenyiGnp(6, 0.6, rng);
  EXPECT_DOUBLE_EQ(WeightedTreeHom(tree, g),
                   static_cast<double>(ToInt64(CountTreeHoms(tree, g))));
}

TEST(TreeHomTest, WeightedMatchesBruteForce) {
  Rng rng = MakeRng(57);
  Graph g(5);
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) {
      if (Coin(rng, 0.6)) {
        g.AddEdge(u, v, static_cast<double>(UniformInt(rng, 1, 3)));
      }
    }
  }
  const Graph tree = Graph::Path(4);
  Budget unlimited;
  EXPECT_NEAR(
      WeightedTreeHom(tree, g),
      WeightedHomomorphismBruteForceBudgeted(tree, g, unlimited).value(), 1e-9);
}

TEST(TreeHomTest, ForestMultiplicativity) {
  Rng rng = MakeRng(58);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  const Graph forest = DisjointUnion(Graph::Path(3), Graph::Star(2));
  EXPECT_EQ(ToInt64(CountForestHoms(forest, g)),
            ToInt64(CountTreeHoms(Graph::Path(3), g)) *
                ToInt64(CountTreeHoms(Graph::Star(2), g)));
  EXPECT_EQ(ToInt64(CountForestHoms(forest, g)),
            CountHomomorphismsBruteForce(forest, g));
}

TEST(PathCycleTest, PathHomsMatchBruteForce) {
  Rng rng = MakeRng(59);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  for (int k = 1; k <= 5; ++k) {
    EXPECT_EQ(ToInt64(CountPathHoms(k, g)),
              CountHomomorphismsBruteForce(Graph::Path(k), g))
        << "k=" << k;
  }
}

TEST(PathCycleTest, CycleHomsMatchBruteForce) {
  Rng rng = MakeRng(60);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  for (int k = 3; k <= 6; ++k) {
    EXPECT_EQ(ToInt64(CountCycleHoms(k, g)),
              CountHomomorphismsBruteForce(Graph::Cycle(k), g))
        << "k=" << k;
  }
}

TEST(PathCycleTest, VectorsMatchScalars) {
  Rng rng = MakeRng(61);
  const Graph g = graph::ErdosRenyiGnp(7, 0.4, rng);
  const std::vector<__int128> paths = PathHomVector(g, 6);
  for (int k = 1; k <= 6; ++k) {
    EXPECT_EQ(ToInt64(paths[k - 1]), ToInt64(CountPathHoms(k, g)));
  }
  const std::vector<__int128> cycles = CycleHomVector(g, 6);
  for (int k = 3; k <= 6; ++k) {
    EXPECT_EQ(ToInt64(cycles[k - 3]), ToInt64(CountCycleHoms(k, g)));
  }
}

TEST(TreewidthTest, KnownWidths) {
  EXPECT_EQ(ExactTreewidth(Graph::Path(6), nullptr), 1);
  EXPECT_EQ(ExactTreewidth(Graph::Star(5), nullptr), 1);
  EXPECT_EQ(ExactTreewidth(Graph::Cycle(6), nullptr), 2);
  EXPECT_EQ(ExactTreewidth(Graph::Complete(4), nullptr), 3);
  EXPECT_EQ(ExactTreewidth(Graph::Grid(2, 3), nullptr), 2);
  EXPECT_EQ(ExactTreewidth(Graph::CompleteBipartite(3, 3), nullptr), 3);
}

TEST(TreewidthTest, MinFillIsOptimalOnEasyPatterns) {
  for (const Graph& f :
       {Graph::Path(5), Graph::Cycle(5), Graph::Complete(4)}) {
    const std::vector<int> order = MinFillEliminationOrder(f);
    EXPECT_EQ(WidthOfEliminationOrder(f, order),
              ExactTreewidth(f, nullptr));
  }
}

TEST(EliminationTest, MatchesBruteForceOnPatternZoo) {
  Rng rng = MakeRng(62);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  const std::vector<Graph> patterns = {
      Graph::Path(4),  Graph::Cycle(4),          Graph::Cycle(5),
      Graph::Star(3),  Graph::Complete(3),       Graph::Complete(4),
      Graph::Grid(2, 2), Graph::CompleteBipartite(2, 2),
  };
  for (const Graph& f : patterns) {
    EXPECT_EQ(ToInt64(CountHoms(f, g)), CountHomomorphismsBruteForce(f, g))
        << f.ToString();
  }
}

TEST(EliminationTest, DisconnectedPatternsMultiply) {
  Rng rng = MakeRng(63);
  const Graph g = graph::ErdosRenyiGnp(5, 0.6, rng);
  const Graph f = DisjointUnion(Graph::Cycle(3), Graph::Path(2));
  EXPECT_EQ(ToInt64(CountHoms(f, g)),
            ToInt64(CountHoms(Graph::Cycle(3), g)) *
                ToInt64(CountHoms(Graph::Path(2), g)));
}

TEST(EliminationTest, RespectsVertexLabels) {
  Graph f = Graph::Path(2);
  f.SetVertexLabel(0, 1);
  Graph g = Graph::Path(3);
  g.SetVertexLabel(1, 1);
  EXPECT_EQ(ToInt64(CountHoms(f, g)), 2);
}

TEST(EliminationTest, DoubleVariantAgrees) {
  Rng rng = MakeRng(64);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  const Graph f = Graph::Cycle(5);
  EXPECT_DOUBLE_EQ(CountHomsDouble(f, g),
                   static_cast<double>(ToInt64(CountHoms(f, g))));
}

// --- The indistinguishability ladder on the paper's key pairs. ---

TEST(IndistinguishabilityTest, CospectralPairOfFigure6) {
  // Figure 6 / Example 4.7: K_{1,4} and C_4 + K_1 are co-spectral but
  // hom(P_3, .) = 20 vs 16.
  const Graph star = Graph::Star(4);
  const Graph cycle_plus = DisjointUnion(Graph::Cycle(4), Graph(1));
  EXPECT_EQ(ToInt64(CountPathHoms(3, star)), 20);
  EXPECT_EQ(ToInt64(CountPathHoms(3, cycle_plus)), 16);
  EXPECT_TRUE(HomIndistinguishableCycles(star, cycle_plus));
  EXPECT_FALSE(HomIndistinguishablePaths(star, cycle_plus));
  EXPECT_FALSE(HomIndistinguishableTrees(star, cycle_plus));
  EXPECT_FALSE(graph::AreIsomorphic(star, cycle_plus));
}

TEST(IndistinguishabilityTest, C6VersusTrianglesLadder) {
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  EXPECT_TRUE(HomIndistinguishableTrees(c6, triangles));
  EXPECT_TRUE(HomIndistinguishablePaths(c6, triangles));
  EXPECT_FALSE(HomIndistinguishableCycles(c6, triangles));
  EXPECT_FALSE(graph::AreIsomorphic(c6, triangles));
}

TEST(IndistinguishabilityTest, TheoremFourFourOnSmallGraphs) {
  // Hom_T equality (trees up to 6 vertices) coincides with 1-WL on all
  // pairs of 5-vertex graphs.
  const std::vector<Graph> graphs = graph::AllGraphs(5);
  int checked = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    for (size_t j = i + 1; j < graphs.size(); ++j) {
      const bool wl = wl::WlIndistinguishable(graphs[i], graphs[j]);
      const bool trees = TreeHomVectorsEqual(graphs[i], graphs[j], 6);
      EXPECT_EQ(wl, trees) << "pair " << i << "," << j;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 34 * 33 / 2);
}

TEST(IndistinguishabilityTest, TheoremFourSixOnRandomPairs) {
  // The exact path decider agrees with truncated path-hom vectors at
  // length n + m (sufficient by Cayley–Hamilton).
  Rng rng = MakeRng(65);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::ErdosRenyiGnp(5, 0.5, rng);
    const Graph h = graph::ErdosRenyiGnp(5, 0.5, rng);
    EXPECT_EQ(HomIndistinguishablePaths(g, h),
              PathHomVectorsEqual(g, h, 10))
        << "trial " << trial;
  }
}

TEST(IndistinguishabilityTest, IsomorphicPairsPassEverything) {
  Rng rng = MakeRng(66);
  const Graph g = graph::ErdosRenyiGnp(7, 0.5, rng);
  const Graph h = graph::Permuted(g, RandomPermutation(7, rng));
  EXPECT_TRUE(HomIndistinguishableTrees(g, h));
  EXPECT_TRUE(HomIndistinguishablePaths(g, h));
  EXPECT_TRUE(HomIndistinguishableCycles(g, h));
  EXPECT_TRUE(graph::AreIsomorphic(g, h));
}

TEST(IndistinguishabilityTest, WeightedTreeVectorsOnIsomorphicWeighted) {
  Rng rng = MakeRng(67);
  Graph g(6);
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) {
      if (Coin(rng, 0.5)) {
        g.AddEdge(u, v, static_cast<double>(UniformInt(rng, 1, 4)));
      }
    }
  }
  const Graph h = graph::Permuted(g, RandomPermutation(6, rng));
  EXPECT_TRUE(WeightedTreeHomVectorsEqual(g, h, 5));
  // Change one weight: some tree partition function must move.
  Graph damaged = g;
  // Rebuild with one modified weight.
  Graph modified(6);
  bool changed = false;
  for (const graph::Edge& e : g.Edges()) {
    double w = e.weight;
    if (!changed) {
      w += 1.0;
      changed = true;
    }
    modified.AddEdge(e.u, e.v, w);
  }
  ASSERT_TRUE(changed);
  EXPECT_FALSE(WeightedTreeHomVectorsEqual(g, modified, 5));
}

TEST(EmbeddingsTest, DefaultFamilyShape) {
  const std::vector<Pattern> family = DefaultPatternFamily(20);
  EXPECT_EQ(family.size(), 20u);
  int trees = 0;
  int cycles = 0;
  for (const Pattern& p : family) {
    if (graph::IsTree(p.graph)) {
      ++trees;
    } else {
      ++cycles;
    }
  }
  EXPECT_GT(trees, 5);
  EXPECT_GT(cycles, 5);
}

TEST(EmbeddingsTest, LogScaledVectorIsFiniteAndInvariant) {
  Rng rng = MakeRng(68);
  const Graph g = graph::ErdosRenyiGnp(10, 0.4, rng);
  const Graph p = graph::Permuted(g, RandomPermutation(10, rng));
  const std::vector<Pattern> family = DefaultPatternFamily(20);
  const std::vector<double> vg = LogScaledHomVector(g, family);
  const std::vector<double> vp = LogScaledHomVector(p, family);
  ASSERT_EQ(vg.size(), 20u);
  for (size_t i = 0; i < vg.size(); ++i) {
    EXPECT_TRUE(std::isfinite(vg[i]));
    EXPECT_NEAR(vg[i], vp[i], 1e-9);
  }
}

TEST(EmbeddingsTest, RootedTreesDeduplicateRootOrbits) {
  // P3 has 2 root orbits (end, centre); P2 has 1; single vertex has 1.
  const std::vector<RootedPattern> patterns = RootedTreesUpTo(3);
  EXPECT_EQ(patterns.size(), 1u + 1u + 2u);
}

TEST(EmbeddingsTest, NodeKernelIsPsdWithWlBlockStructure) {
  const Graph p5 = Graph::Path(5);
  const linalg::Matrix k = RootedHomNodeKernel(p5, RootedTreesUpTo(4));
  // PSD (Gram of explicit features) and WL-equal vertices give equal rows.
  EXPECT_TRUE(k.AllClose(k.Transposed(), 1e-12));
  EXPECT_DOUBLE_EQ(k(0, 0), k(4, 4));
  EXPECT_DOUBLE_EQ(k(0, 2), k(4, 2));
  EXPECT_NE(k(0, 0), k(2, 2));
}

TEST(EmbeddingsTest, NodeEmbeddingSeparatesWlClasses) {
  // Theorem 4.14 in action on P5: rows agree exactly for vertices with the
  // same stable WL colour and differ otherwise.
  const Graph p5 = Graph::Path(5);
  const linalg::Matrix emb =
      RootedHomNodeEmbedding(p5, RootedTreesUpTo(5));
  const std::vector<int> colors =
      wl::ColorRefinement(p5).StableColors();
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) {
      const double diff =
          linalg::Distance2(emb.Row(u), emb.Row(v));
      if (colors[u] == colors[v]) {
        EXPECT_NEAR(diff, 0.0, 1e-12) << u << "," << v;
      } else {
        EXPECT_GT(diff, 1e-9) << u << "," << v;
      }
    }
  }
}

}  // namespace
}  // namespace x2vec::hom
