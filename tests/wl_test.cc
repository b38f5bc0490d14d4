#include <algorithm>
#include <compare>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "base/rng.h"
#include "base/status.h"
#include "goldens.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "gtest/gtest.h"
#include "wl/cfi.h"
#include "wl/color_refinement.h"
#include "wl/fractional.h"
#include "wl/kwl.h"
#include "wl/unfolding_tree.h"
#include "wl/weighted_wl.h"
#include "wl/wl_hash.h"

namespace x2vec::wl {
namespace {

using graph::DisjointUnion;
using graph::Graph;

TEST(ColorRefinementTest, PathStableClasses) {
  // P5 refines to 3 classes: endpoints, their neighbours, the centre.
  const RefinementResult r = ColorRefinement(Graph::Path(5));
  EXPECT_EQ(r.NumStableColors(), 3);
  const std::vector<int>& c = r.StableColors();
  EXPECT_EQ(c[0], c[4]);
  EXPECT_EQ(c[1], c[3]);
  EXPECT_NE(c[0], c[1]);
  EXPECT_NE(c[1], c[2]);
}

TEST(ColorRefinementTest, RegularGraphStaysMonochromatic) {
  const RefinementResult r = ColorRefinement(Graph::Cycle(7));
  EXPECT_EQ(r.NumStableColors(), 1);
  EXPECT_EQ(r.stable_round, 1);  // One confirming round.
}

TEST(ColorRefinementTest, RoundProgressionOnPath) {
  const RefinementResult r = ColorRefinement(Graph::Path(5));
  // Round 0: 1 colour; round 1: degree split (2); round 2: centre splits (3).
  EXPECT_EQ(r.colors_per_round[0], 1);
  EXPECT_EQ(r.colors_per_round[1], 2);
  EXPECT_EQ(r.colors_per_round[2], 3);
}

TEST(ColorRefinementTest, VertexLabelsSeedInitialColoring) {
  Graph g = Graph::Cycle(4);
  g.SetVertexLabel(0, 5);
  const RefinementResult r = ColorRefinement(g);
  EXPECT_GT(r.colors_per_round[0], 1);
  EXPECT_EQ(r.NumStableColors(), 3);  // {0}, {1,3}, {2}.
}

TEST(ColorRefinementTest, C6VersusTwoTrianglesIndistinguishable) {
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  EXPECT_FALSE(graph::AreIsomorphic(c6, triangles));
  EXPECT_TRUE(WlIndistinguishable(c6, triangles));
}

TEST(ColorRefinementTest, PathVersusStarDistinguished) {
  const JointRefinementResult joint =
      RefineTogether(Graph::Path(4), Graph::Star(3));
  EXPECT_TRUE(joint.distinguishes);
  EXPECT_EQ(joint.distinguishing_round, 1);  // Degrees differ already.
}

TEST(ColorRefinementTest, MaxRoundsCutsOffEarly) {
  RefinementOptions options;
  options.max_rounds = 1;
  const RefinementResult r = ColorRefinement(Graph::Path(6), options);
  // Initial + exactly one refinement round.
  EXPECT_EQ(r.round_colors.size(), 2u);
  EXPECT_EQ(r.colors_per_round[1], 2);  // Degree split only.
}

TEST(ColorRefinementTest, InvariantUnderPermutation) {
  Rng rng = MakeRng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::ErdosRenyiGnp(9, 0.4, rng);
    const Graph p = graph::Permuted(g, RandomPermutation(9, rng));
    EXPECT_TRUE(WlIndistinguishable(g, p));
  }
}

TEST(ColorRefinementTest, EdgeLabelsRefine) {
  // Two 4-cycles with different edge-label arrangements.
  Graph a = Graph(4);
  a.AddEdge(0, 1, 1.0, /*label=*/1);
  a.AddEdge(1, 2, 1.0, 1);
  a.AddEdge(2, 3, 1.0, 0);
  a.AddEdge(3, 0, 1.0, 0);
  Graph b = Graph(4);
  b.AddEdge(0, 1, 1.0, 1);
  b.AddEdge(1, 2, 1.0, 0);
  b.AddEdge(2, 3, 1.0, 1);
  b.AddEdge(3, 0, 1.0, 0);
  EXPECT_FALSE(WlIndistinguishable(a, b));
  RefinementOptions ignore_edges;
  ignore_edges.use_edge_labels = false;
  EXPECT_TRUE(WlIndistinguishable(a, b, ignore_edges));
}

TEST(ColorRefinementTest, DirectedOrientationMatters) {
  Graph a(3, /*directed=*/true);  // Directed path 0->1->2.
  a.AddEdge(0, 1);
  a.AddEdge(1, 2);
  Graph b(3, /*directed=*/true);  // Out-star 0->1, 0->2.
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  EXPECT_FALSE(WlIndistinguishable(a, b));
}

// ---- RefineDataset against the union reference -----------------------------

// The map-based refinement round that RefineDataset replaced, kept as an
// independent reference and run on the chained DisjointUnion: ids are the
// ranks of the per-vertex signatures in one std::map per round.
struct ReferenceSignature {
  int old_color = 0;
  std::vector<std::pair<int, int>> out_neighbors;
  std::vector<std::pair<int, int>> in_neighbors;

  auto operator<=>(const ReferenceSignature&) const = default;
};

int ReferenceCount(const std::vector<int>& colors) {
  return colors.empty() ? 0 : *std::max_element(colors.begin(), colors.end()) + 1;
}

RefinementResult ReferenceRefinement(const Graph& g,
                                     const RefinementOptions& options) {
  const int n = g.NumVertices();
  std::vector<int> initial(n, 0);
  if (options.use_vertex_labels) {
    std::map<int, int> label_to_color;
    for (int v = 0; v < n; ++v) label_to_color.emplace(g.VertexLabel(v), 0);
    int next = 0;
    for (auto& [label, color] : label_to_color) color = next++;
    for (int v = 0; v < n; ++v) initial[v] = label_to_color.at(g.VertexLabel(v));
  }
  RefinementResult result;
  result.round_colors.push_back(initial);
  result.colors_per_round.push_back(ReferenceCount(initial));
  const int max_rounds = options.max_rounds < 0 ? n : options.max_rounds;
  for (int round = 0; round < max_rounds; ++round) {
    const std::vector<int>& current = result.round_colors.back();
    const auto pairs = [&](const std::vector<graph::Neighbor>& neighbors) {
      std::vector<std::pair<int, int>> out;
      for (const graph::Neighbor& nb : neighbors) {
        out.emplace_back(options.use_edge_labels ? nb.label : 0, current[nb.to]);
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    std::vector<ReferenceSignature> signatures(n);
    for (int v = 0; v < n; ++v) {
      signatures[v].old_color = current[v];
      signatures[v].out_neighbors = pairs(g.Neighbors(v));
      if (g.directed()) signatures[v].in_neighbors = pairs(g.InNeighbors(v));
    }
    std::map<ReferenceSignature, int> signature_to_color;
    for (const ReferenceSignature& sig : signatures) {
      signature_to_color.emplace(sig, 0);
    }
    int next = 0;
    for (auto& [sig, color] : signature_to_color) color = next++;
    std::vector<int> refined(n);
    for (int v = 0; v < n; ++v) refined[v] = signature_to_color.at(signatures[v]);
    const int count = ReferenceCount(refined);
    const bool stable = count == result.colors_per_round.back();
    result.round_colors.push_back(std::move(refined));
    result.colors_per_round.push_back(count);
    if (stable) {
      result.stable_round = round + 1;
      return result;
    }
  }
  result.stable_round = static_cast<int>(result.round_colors.size()) - 1;
  return result;
}

Graph ChainedUnion(const std::vector<Graph>& graphs, bool directed) {
  Graph joint(0, directed);
  for (const Graph& g : graphs) joint = DisjointUnion(joint, g);
  return joint;
}

// Graphs on 0..max_n vertices with labelled vertices and edges (negative
// labels too); for small max_n, 0- and 1-vertex graphs come up often.
Graph RandomLabelledGraph(Rng& rng, bool directed, int max_n) {
  const int n = static_cast<int>(UniformInt(rng, 0, max_n));
  Graph g(n, directed);
  const bool labelled = Coin(rng, 0.5);
  for (int v = 0; v < n; ++v) {
    if (labelled) g.SetVertexLabel(v, static_cast<int>(UniformInt(rng, -2, 2)));
  }
  const double p = UniformReal(rng, 0.1, 0.6);
  for (int u = 0; u < n; ++u) {
    for (int v = directed ? 0 : u + 1; v < n; ++v) {
      if (u == v || !Coin(rng, p)) continue;
      g.AddEdge(u, v, 1.0, static_cast<int>(UniformInt(rng, -1, 2)));
    }
  }
  return g;
}

void ExpectSameRefinement(const RefinementResult& actual,
                          const RefinementResult& expected,
                          const std::string& context) {
  EXPECT_EQ(actual.round_colors, expected.round_colors) << context;
  EXPECT_EQ(actual.colors_per_round, expected.colors_per_round) << context;
  EXPECT_EQ(actual.stable_round, expected.stable_round) << context;
}

TEST(RefineDatasetTest, MatchesMapRefinementOnTheChainedUnion) {
  Rng rng = MakeRng(4711);
  for (int trial = 0; trial < 64; ++trial) {
    const bool directed = trial % 2 == 1;
    // The last trials are large enough to build signatures on the pool.
    const bool large = trial >= 60;
    std::vector<Graph> graphs(large ? 120 : UniformInt(rng, 1, 7));
    for (Graph& g : graphs) {
      g = RandomLabelledGraph(rng, directed, large ? 30 : 8);
    }
    const Graph joint = ChainedUnion(graphs, directed);
    for (const int max_rounds : {-1, 0, 1, 3}) {
      RefinementOptions options;
      options.max_rounds = max_rounds;
      options.use_vertex_labels = trial % 3 != 0;
      options.use_edge_labels = trial % 5 != 0;
      const RefinementResult expected = ReferenceRefinement(joint, options);
      const std::string context = "trial " + std::to_string(trial) +
                                  ", max_rounds " + std::to_string(max_rounds);
      ExpectSameRefinement(RefineDataset(graphs, options), expected, context);
      ExpectSameRefinement(ColorRefinement(joint, options), expected, context);
      if (graphs.size() == 2) {
        ExpectSameRefinement(
            RefineTogether(graphs[0], graphs[1], options).combined, expected,
            context);
      }
    }
  }
}

TEST(RefineDatasetTest, DegenerateDatasetsMatchTheUnion) {
  const std::vector<std::vector<Graph>> datasets = {
      {}, {Graph(0)}, {Graph(0), Graph(0, false)}, {Graph(1)},
      {Graph(0), Graph(1), Graph(0)}, {Graph(0, true), Graph(2, true)}};
  for (size_t d = 0; d < datasets.size(); ++d) {
    const bool directed = !datasets[d].empty() && datasets[d][0].directed();
    for (const int max_rounds : {-1, 0, 1, 3}) {
      RefinementOptions options;
      options.max_rounds = max_rounds;
      ExpectSameRefinement(
          RefineDataset(datasets[d], options),
          ReferenceRefinement(ChainedUnion(datasets[d], directed), options),
          "dataset " + std::to_string(d) + ", max_rounds " +
              std::to_string(max_rounds));
    }
  }
}

TEST(RefineDatasetTest, MixedDirectednessIsFatal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<Graph> mixed = {Graph::Path(3), Graph(3, /*directed=*/true)};
  EXPECT_DEATH(RefineDataset(mixed), "share directedness");
}

TEST(StableColoringFastTest, MatchesHashRefinementPartition) {
  Rng rng = MakeRng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = graph::ErdosRenyiGnp(12, 0.3, rng);
    RefinementOptions plain;
    plain.use_vertex_labels = false;
    const std::vector<int> slow = ColorRefinement(g, plain).StableColors();
    const std::vector<int> fast = StableColoringFast(g);
    // Same partition up to renaming: the colour-pair maps are bijective.
    std::map<int, int> fwd;
    std::map<int, int> bwd;
    for (int v = 0; v < 12; ++v) {
      auto [it1, ins1] = fwd.emplace(slow[v], fast[v]);
      EXPECT_EQ(it1->second, fast[v]);
      auto [it2, ins2] = bwd.emplace(fast[v], slow[v]);
      EXPECT_EQ(it2->second, slow[v]);
    }
  }
}

TEST(StableColoringFastTest, PathClasses) {
  const std::vector<int> colors = StableColoringFast(Graph::Path(5));
  EXPECT_EQ(colors[0], colors[4]);
  EXPECT_EQ(colors[1], colors[3]);
  EXPECT_NE(colors[0], colors[1]);
  EXPECT_NE(colors[1], colors[2]);
}

TEST(ColorUtilsTest, ClassesAndHistogram) {
  const std::vector<int> colors = {0, 1, 0, 2, 1};
  const auto classes = ColorClasses(colors);
  EXPECT_EQ(classes.size(), 3u);
  EXPECT_EQ(classes[0], (std::vector<int>{0, 2}));
  EXPECT_EQ(ColorHistogram(colors), (std::vector<int>{2, 2, 1}));
}

TEST(WlHashTest, InvariantUnderPermutation) {
  Rng rng = MakeRng(115);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = graph::ErdosRenyiGnp(9, 0.4, rng);
    const Graph p = graph::Permuted(g, RandomPermutation(9, rng));
    EXPECT_EQ(WlHash(g), WlHash(p));
    EXPECT_EQ(WlCertificate(g), WlCertificate(p));
  }
}

TEST(WlHashTest, CertificateEqualityMatchesIndistinguishability) {
  Rng rng = MakeRng(116);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Graph g = graph::ErdosRenyiGnp(7, 0.45, rng);
    const Graph h = trial % 4 == 0
                        ? graph::Permuted(g, RandomPermutation(7, rng))
                        : graph::ErdosRenyiGnp(7, 0.45, rng);
    const bool certificates_equal = WlCertificate(g) == WlCertificate(h);
    EXPECT_EQ(certificates_equal, WlIndistinguishable(g, h))
        << "trial " << trial;
    ++checked;
  }
  EXPECT_EQ(checked, 40);
  // Pairs 1-WL tells apart by what it ranks besides out-neighbour colours:
  // a vertex label, an edge label, in-neighbours.
  Graph five(1);
  five.SetVertexLabel(0, 5);
  Graph seven(1);
  seven.SetVertexLabel(0, 7);
  Graph edge_label_1(2);
  edge_label_1.AddEdge(0, 1, 1.0, /*label=*/1);
  Graph edge_label_2(2);
  edge_label_2.AddEdge(0, 1, 1.0, /*label=*/2);
  Graph into_one_sink(4, /*directed=*/true);
  into_one_sink.AddEdge(0, 2);
  into_one_sink.AddEdge(1, 2);
  Graph into_two_sinks(4, /*directed=*/true);
  into_two_sinks.AddEdge(0, 2);
  into_two_sinks.AddEdge(1, 3);
  for (const auto& [g, h] : std::vector<std::pair<Graph, Graph>>{
           {five, seven},
           {edge_label_1, edge_label_2},
           {into_one_sink, into_two_sinks}}) {
    EXPECT_FALSE(WlIndistinguishable(g, h)) << g.ToString();
    EXPECT_NE(WlCertificate(g), WlCertificate(h)) << g.ToString();
    EXPECT_NE(WlHash(g), WlHash(h)) << g.ToString();
  }
}

TEST(WlHashTest, ClassicBlindSpotCollides) {
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  EXPECT_EQ(WlHash(c6), WlHash(triangles));
  EXPECT_NE(WlHash(c6), WlHash(Graph::Path(6)));
}

TEST(WeightedWlTest, WeightsSplitWhereCountsDoNot) {
  // Two weighted 4-cycles with equal degree structure but different weight
  // sums around each vertex.
  Graph a(4);
  a.AddEdge(0, 1, 2.0);
  a.AddEdge(1, 2, 2.0);
  a.AddEdge(2, 3, 1.0);
  a.AddEdge(3, 0, 1.0);
  Graph b(4);
  b.AddEdge(0, 1, 2.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(2, 3, 2.0);
  b.AddEdge(3, 0, 1.0);
  EXPECT_TRUE(WeightedWlDistinguishes(a, b));
}

TEST(WeightedWlTest, AgreesWithUnweightedOnPlainGraphs) {
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  EXPECT_FALSE(WeightedWlDistinguishes(c6, triangles));
  EXPECT_TRUE(WeightedWlDistinguishes(Graph::Path(4), Graph::Star(3)));
}

TEST(WeightedWlTest, RefinementOnWeightedStar) {
  Graph g = Graph::Star(3);
  // Give one spoke a different weight: that leaf must split off.
  Graph h(4);
  h.AddEdge(0, 1, 5.0);
  h.AddEdge(0, 2, 1.0);
  h.AddEdge(0, 3, 1.0);
  const RefinementResult r = WeightedColorRefinement(h);
  EXPECT_EQ(r.NumStableColors(), 3);  // Centre, heavy leaf, light leaves.
  const RefinementResult plain = WeightedColorRefinement(g);
  EXPECT_EQ(plain.NumStableColors(), 2);
}

// A refinement trace as its goldens digest it: every round's size and
// colours, the per-round counts and the stable round, as 64-bit values.
std::vector<int64_t> RefinementTrace(const RefinementResult& r) {
  std::vector<int64_t> trace;
  for (const std::vector<int>& round : r.round_colors) {
    trace.push_back(static_cast<int64_t>(round.size()));
    trace.insert(trace.end(), round.begin(), round.end());
  }
  trace.insert(trace.end(), r.colors_per_round.begin(),
               r.colors_per_round.end());
  trace.push_back(r.stable_round);
  return trace;
}

// The centres' sums 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in their
// last bit, so only a sum in adjacency order gives the pinned ids.
Graph NonDyadicStars() {
  Graph g(8);
  g.AddEdge(0, 1, 0.1);
  g.AddEdge(0, 2, 0.2);
  g.AddEdge(0, 3, 0.3);
  g.AddEdge(4, 5, 0.3);
  g.AddEdge(4, 6, 0.2);
  g.AddEdge(4, 7, 0.1);
  return g;
}

// Vertex 0's weights +1 and -1 into one class sum to zero, which is
// dropped: it looks like the isolated vertex 3.
Graph CancellingWeights() {
  Graph g(6);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, -1.0);
  g.AddEdge(4, 5, 1.0);
  return g;
}

// Out-neighbours only; vertex labels seed round 0, edge labels are
// ignored.
Graph DirectedWeighted() {
  Graph g(5, /*directed=*/true);
  g.SetVertexLabel(4, 2);
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(1, 2, 0.5, /*label=*/3);
  g.AddEdge(2, 0, 1.5);
  g.AddEdge(3, 1, 2.0);
  g.AddEdge(4, 3, 0.5);
  g.AddEdge(2, 4, 1.5, /*label=*/1);
  return g;
}

TEST(WeightedWlTest, RoundColorsArePinned) {
  // Captured from the std::map engine the dataset pass replaced.
  const RefinementResult stars = WeightedColorRefinement(NonDyadicStars());
  ExpectGolden("wl/weighted-non-dyadic-stars",
               Digest(RefinementTrace(stars)));
  EXPECT_NE(stars.round_colors[1][0], stars.round_colors[1][4]);
  const RefinementResult cancelling =
      WeightedColorRefinement(CancellingWeights());
  ExpectGolden("wl/weighted-cancelling", Digest(RefinementTrace(cancelling)));
  EXPECT_EQ(cancelling.round_colors[1][0], cancelling.round_colors[1][3]);
  ExpectGolden(
      "wl/weighted-directed",
      Digest(RefinementTrace(WeightedColorRefinement(DirectedWeighted()))));
}

Graph RandomWeighted(int n, double p, Rng& rng) {
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (Coin(rng, p)) {
        g.AddEdge(u, v, static_cast<double>(UniformInt(rng, 1, 3)));
      }
    }
  }
  return g;
}

TEST(WeightedWlTest, TheoremAndFigurePairsArePinned) {
  // The four named pairs of bench/thm413_weighted.
  Rng rng = MakeRng(413);
  const Graph base = RandomWeighted(6, 0.5, rng);
  EXPECT_FALSE(WeightedWlDistinguishes(
      base, graph::Permuted(base, RandomPermutation(6, rng))));
  Graph wc6(6);
  for (int i = 0; i < 6; ++i) wc6.AddEdge(i, (i + 1) % 6, 1.0);
  Graph wtri(6);
  Graph wtri_heavy(6);
  for (int block = 0; block < 2; ++block) {
    const int o = 3 * block;
    for (int i = 0; i < 3; ++i) {
      wtri.AddEdge(o + i, o + (i + 1) % 3, 1.0);
      wtri_heavy.AddEdge(o + i, o + (i + 1) % 3, o + i == 0 ? 2.0 : 1.0);
    }
  }
  EXPECT_FALSE(WeightedWlDistinguishes(wc6, wtri));
  EXPECT_TRUE(WeightedWlDistinguishes(wc6, wtri_heavy));
  Graph c8w(8);
  for (int i = 0; i < 8; ++i) c8w.AddEdge(i, (i + 1) % 8, 2.0);
  Graph c44w(8);
  for (int block = 0; block < 2; ++block) {
    const int o = 4 * block;
    for (int i = 0; i < 4; ++i) c44w.AddEdge(o + i, o + (i + 1) % 4, 2.0);
  }
  EXPECT_FALSE(WeightedWlDistinguishes(c8w, c44w));

  // Figure 4's matrix (bench/fig4_matrix_wl).
  const MatrixWlResult r = MatrixWl(linalg::Matrix{
      {2, 2, 0, 0, 1, 1},
      {2, 2, 0, 0, 1, 1},
      {0, 0, 3, 3, 1, 1},
      {0, 0, 3, 3, 1, 1},
      {5, 5, 5, 5, 0, 0},
  });
  EXPECT_EQ(r.row_colors, (std::vector<int>{0, 0, 1, 1, 2}));
  EXPECT_EQ(r.col_colors, (std::vector<int>{0, 0, 1, 1, 2, 2}));
  EXPECT_EQ(r.num_row_colors, 3);
  EXPECT_EQ(r.num_col_colors, 3);
  EXPECT_EQ(r.rounds, 2);
}

TEST(MatrixWlTest, CirculantMatrixCollapsesToOneClass) {
  linalg::Matrix a = {{1, 1, 0}, {0, 1, 1}, {1, 0, 1}};
  const MatrixWlResult r = MatrixWl(a);
  EXPECT_EQ(r.num_row_colors, 1);
  EXPECT_EQ(r.num_col_colors, 1);
  const linalg::Matrix reduced = ReduceMatrixByWl(a, r);
  EXPECT_EQ(reduced.rows(), 1);
  EXPECT_DOUBLE_EQ(reduced(0, 0), 2.0);  // Row sum.
}

TEST(MatrixWlTest, BlockStructureIsRecovered) {
  // Two row blocks with different totals into two column blocks.
  linalg::Matrix a = {
      {3, 3, 0, 0},
      {3, 3, 0, 0},
      {0, 0, 7, 7},
      {0, 0, 7, 7},
  };
  const MatrixWlResult r = MatrixWl(a);
  EXPECT_EQ(r.num_row_colors, 2);
  EXPECT_EQ(r.num_col_colors, 2);
  EXPECT_EQ(r.row_colors[0], r.row_colors[1]);
  EXPECT_NE(r.row_colors[0], r.row_colors[2]);
  const linalg::Matrix reduced = ReduceMatrixByWl(a, r);
  EXPECT_EQ(reduced.rows(), 2);
  // One block contributes 6 per row, the other 14.
  std::multiset<double> totals = {reduced(0, 0) + reduced(0, 1),
                                  reduced(1, 0) + reduced(1, 1)};
  EXPECT_EQ(totals, (std::multiset<double>{6.0, 14.0}));
}

TEST(KwlTest, DimensionOneMatchesColorRefinement) {
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  EXPECT_FALSE(KwlDistinguishes(c6, triangles, 1));
  EXPECT_TRUE(KwlDistinguishes(Graph::Path(4), Graph::Star(3), 1));
}

TEST(KwlTest, DimensionTwoSeparatesC6FromTriangles) {
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  EXPECT_TRUE(KwlDistinguishes(c6, triangles, 2));
}

TEST(KwlTest, InvariantUnderPermutation) {
  Rng rng = MakeRng(43);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  const Graph p = graph::Permuted(g, RandomPermutation(6, rng));
  EXPECT_FALSE(KwlDistinguishes(g, p, 2));
}

TEST(KwlTest, DifferentOrdersAreDistinguished) {
  EXPECT_TRUE(KwlDistinguishes(Graph::Path(3), Graph::Path(4), 2));
}

TEST(KwlTest, ResultsArePinned) {
  // Captured from the std::map engine the tuple pass replaced.
  struct Pinned {
    int pair;
    int k;
    KwlResult expected;
  };
  Rng rng = MakeRng(48);
  const Graph g8 = graph::ErdosRenyiGnp(8, 0.4, rng);
  const CfiPair cfi_c3 = BuildCfiPair(Graph::Cycle(3));
  const CfiPair cfi_k4 = BuildCfiPair(Graph::Complete(4));
  const std::vector<std::pair<Graph, Graph>> pairs = {
      {Graph::Cycle(6), DisjointUnion(Graph::Cycle(3), Graph::Cycle(3))},
      {Graph::Path(4), Graph::Star(3)},
      {cfi_c3.untwisted, cfi_c3.twisted},
      {cfi_k4.untwisted, cfi_k4.twisted},
      {g8, graph::Permuted(g8, RandomPermutation(8, rng))},
      {Graph::Path(3), Graph::Path(4)},
  };
  const std::vector<Pinned> pinned = {
      {0, 1, {false, -1, 1, 1}},  {0, 2, {true, 1, 0, 5}},
      {0, 3, {true, 0, 0, 15}},   {1, 1, {true, 1, 0, 3}},
      {1, 2, {true, 1, 0, 12}},   {1, 3, {true, 0, 0, 14}},
      {2, 1, {false, -1, 1, 3}},  {2, 2, {true, 1, 0, 30}},
      {2, 3, {true, 0, 0, 132}},  {3, 1, {false, -1, 1, 4}},
      {3, 2, {false, -1, 2, 40}}, {3, 3, {true, 1, 0, 736}},
      {4, 1, {false, -1, 3, 8}},  {4, 2, {false, -1, 3, 64}},
      {4, 3, {false, -1, 3, 512}}, {5, 1, {true, 0, 0, 0}},
      {5, 2, {true, 0, 0, 0}},    {5, 3, {true, 0, 0, 0}},
  };
  for (const Pinned& p : pinned) {
    const KwlResult r = KwlCompare(pairs[p.pair].first, pairs[p.pair].second,
                                   p.k);
    const std::string context =
        "pair " + std::to_string(p.pair) + ", k " + std::to_string(p.k);
    EXPECT_EQ(r.distinguishes, p.expected.distinguishes) << context;
    EXPECT_EQ(r.distinguishing_round, p.expected.distinguishing_round)
        << context;
    EXPECT_EQ(r.rounds_to_stable, p.expected.rounds_to_stable) << context;
    EXPECT_EQ(r.num_colors, p.expected.num_colors) << context;
  }
}

// ---- KwlRefineDataset against the map reference ----------------------------

// The std::map folklore round that the tuple pass replaced (it ran inside
// KwlCompare on one pair of graphs), kept as an independent reference and
// run on whole datasets: round 0 ranks atomic-type vectors, every later
// round (old colour, sorted rows) signatures, each through one std::map.
std::vector<int> ReferenceTuple(int64_t index, int n, int k) {
  std::vector<int> tuple(k);
  for (int i = k - 1; i >= 0; --i) {
    tuple[i] = static_cast<int>(index % n);
    index /= n;
  }
  return tuple;
}

std::vector<int> ReferenceAtomicType(const Graph& g,
                                     const std::vector<int>& tuple) {
  const int k = static_cast<int>(tuple.size());
  std::vector<int> type;
  for (int i = 0; i < k; ++i) type.push_back(g.VertexLabel(tuple[i]));
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (i == j) continue;
      type.push_back(tuple[i] == tuple[j]             ? 2
                     : g.HasEdge(tuple[i], tuple[j]) ? 1
                                                     : 0);
    }
  }
  return type;
}

std::vector<std::vector<int>> ReferenceRows(const Graph& g, const int* colors,
                                            int64_t index, int k) {
  const int n = g.NumVertices();
  const std::vector<int> tuple = ReferenceTuple(index, n, k);
  std::vector<int64_t> stride(k, 1);
  for (int i = k - 2; i >= 0; --i) stride[i] = stride[i + 1] * n;
  std::vector<std::vector<int>> rows;
  for (int w = 0; w < n; ++w) {
    std::vector<int> row(2 * k);
    for (int i = 0; i < k; ++i) {
      row[i] = colors[index + (w - tuple[i]) * stride[i]];
      row[k + i] = w == tuple[i] ? 2 : g.HasEdge(w, tuple[i]) ? 1 : 0;
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

RefinementResult ReferenceKwl(const std::vector<Graph>& graphs, int k,
                              int max_rounds) {
  std::vector<int64_t> first = {0};
  for (const Graph& g : graphs) {
    int64_t tuples = 1;
    for (int i = 0; i < k; ++i) tuples *= g.NumVertices();
    first.push_back(first.back() + tuples);
  }
  const int64_t total = first.back();
  std::map<std::vector<int>, int> type_to_color;
  std::vector<std::vector<int>> types(total);
  for (size_t i = 0; i < graphs.size(); ++i) {
    for (int64_t t = first[i]; t < first[i + 1]; ++t) {
      types[t] = ReferenceAtomicType(
          graphs[i], ReferenceTuple(t - first[i], graphs[i].NumVertices(), k));
      type_to_color.emplace(types[t], 0);
    }
  }
  int next = 0;
  for (auto& [type, color] : type_to_color) color = next++;
  RefinementResult result;
  result.round_colors.emplace_back(total);
  for (int64_t t = 0; t < total; ++t) {
    result.round_colors[0][t] = type_to_color.at(types[t]);
  }
  result.colors_per_round.push_back(next);

  using Signature = std::pair<int, std::vector<std::vector<int>>>;
  const int rounds = max_rounds < 0 ? static_cast<int>(total) : max_rounds;
  for (int round = 0; round < rounds; ++round) {
    const std::vector<int>& current = result.round_colors.back();
    std::map<Signature, int> signature_to_color;
    std::vector<Signature> signatures(total);
    for (size_t i = 0; i < graphs.size(); ++i) {
      for (int64_t t = first[i]; t < first[i + 1]; ++t) {
        signatures[t] = {current[t], ReferenceRows(graphs[i],
                                                   current.data() + first[i],
                                                   t - first[i], k)};
        signature_to_color.emplace(signatures[t], 0);
      }
    }
    next = 0;
    for (auto& [signature, color] : signature_to_color) color = next++;
    std::vector<int> refined(total);
    for (int64_t t = 0; t < total; ++t) {
      refined[t] = signature_to_color.at(signatures[t]);
    }
    const bool stable = next == result.colors_per_round.back();
    result.round_colors.push_back(std::move(refined));
    result.colors_per_round.push_back(next);
    if (stable) break;
  }
  result.stable_round = static_cast<int>(result.round_colors.size()) - 1;
  return result;
}

TEST(KwlDatasetTest, MatchesMapRefinement) {
  Rng rng = MakeRng(4713);
  for (int trial = 0; trial < 40; ++trial) {
    const int k = 1 + trial % 3;
    // Every fourth dataset is directed; the last ones are large enough to
    // build their rows on the pool.
    const bool directed = trial % 4 == 3;
    const bool large = trial >= 36;
    constexpr int kSmallN[] = {7, 6, 4};
    constexpr int kLargeN[] = {60, 14, 8};
    const int max_n = (large ? kLargeN : kSmallN)[k - 1];
    std::vector<Graph> graphs(large ? 12 : UniformInt(rng, 1, 4));
    for (Graph& g : graphs) g = RandomLabelledGraph(rng, directed, max_n);
    for (const int max_rounds : {-1, 0, 1, 3}) {
      Budget unlimited;
      const StatusOr<RefinementResult> actual =
          KwlRefineDataset(graphs, k, max_rounds, unlimited);
      const std::string context = "trial " + std::to_string(trial) +
                                  ", max_rounds " + std::to_string(max_rounds);
      ASSERT_TRUE(actual.ok()) << context << ": " << actual.status().ToString();
      ExpectSameRefinement(*actual, ReferenceKwl(graphs, k, max_rounds),
                           context);
    }
  }
}

TEST(KwlDatasetTest, DegenerateDatasetsMatchTheReference) {
  const std::vector<std::vector<Graph>> datasets = {
      {}, {Graph(0)}, {Graph(1)}, {Graph(0), Graph(2), Graph(0)}};
  for (size_t d = 0; d < datasets.size(); ++d) {
    for (int k = 1; k <= 3; ++k) {
      for (const int max_rounds : {-1, 0, 2}) {
        Budget unlimited;
        const StatusOr<RefinementResult> actual =
            KwlRefineDataset(datasets[d], k, max_rounds, unlimited);
        ASSERT_TRUE(actual.ok());
        ExpectSameRefinement(*actual, ReferenceKwl(datasets[d], k, max_rounds),
                             "dataset " + std::to_string(d) + ", k " +
                                 std::to_string(k));
      }
    }
  }
}

TEST(CfiTest, TrianglePairSeparatedAtDimensionTwo) {
  const CfiPair pair = BuildCfiPair(Graph::Cycle(3));
  EXPECT_EQ(pair.untwisted.NumVertices(), 6);
  EXPECT_EQ(pair.twisted.NumVertices(), 6);
  EXPECT_FALSE(graph::AreIsomorphic(pair.untwisted, pair.twisted));
  EXPECT_TRUE(WlIndistinguishable(pair.untwisted, pair.twisted));
  EXPECT_TRUE(KwlDistinguishes(pair.untwisted, pair.twisted, 2));
}

TEST(CfiTest, GadgetSizesMatchEvenSubsetCounts) {
  const CfiPair pair = BuildCfiPair(graph::Graph::Complete(4));
  // Each K4 vertex has degree 3: 4 even subsets -> 16 gadget vertices.
  EXPECT_EQ(pair.untwisted.NumVertices(), 16);
  EXPECT_EQ(pair.untwisted.NumEdges(), 48);
  EXPECT_FALSE(graph::AreIsomorphic(pair.untwisted, pair.twisted));
}

TEST(UnfoldingTreeTest, SizesOnPath) {
  const Graph p3 = Graph::Path(3);
  const RootedGraph t0 = UnfoldingTree(p3, 1, 0);
  EXPECT_EQ(t0.graph.NumVertices(), 1);
  const RootedGraph t1 = UnfoldingTree(p3, 1, 1);
  EXPECT_EQ(t1.graph.NumVertices(), 3);
  // Depth 2 from the centre: each endpoint child walks back to the centre.
  const RootedGraph t2 = UnfoldingTree(p3, 1, 2);
  EXPECT_EQ(t2.graph.NumVertices(), 5);
  EXPECT_TRUE(graph::IsTree(t2.graph));
}

TEST(UnfoldingTreeTest, StringMatchesWlColorEquality) {
  Rng rng = MakeRng(44);
  const Graph g = graph::ErdosRenyiGnp(8, 0.4, rng);
  RefinementOptions plain;
  plain.use_vertex_labels = false;
  const RefinementResult r = ColorRefinement(g, plain);
  for (int depth = 0; depth < static_cast<int>(r.round_colors.size());
       ++depth) {
    for (int u = 0; u < 8; ++u) {
      for (int v = 0; v < 8; ++v) {
        const bool same_color =
            r.round_colors[depth][u] == r.round_colors[depth][v];
        const bool same_tree = UnfoldingTreeString(g, u, depth) ==
                               UnfoldingTreeString(g, v, depth);
        EXPECT_EQ(same_color, same_tree)
            << "depth " << depth << " u " << u << " v " << v;
      }
    }
  }
}

TEST(FractionalTest, WitnessIsDoublyStochasticAndCommutes) {
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  const auto x = FractionalIsomorphism(c6, triangles);
  ASSERT_TRUE(x.has_value());
  for (int i = 0; i < 6; ++i) {
    double row = 0.0;
    double col = 0.0;
    for (int j = 0; j < 6; ++j) {
      row += (*x)(i, j);
      col += (*x)(j, i);
      EXPECT_GE((*x)(i, j), 0.0);
    }
    EXPECT_NEAR(row, 1.0, 1e-12);
    EXPECT_NEAR(col, 1.0, 1e-12);
  }
  EXPECT_NEAR(FractionalResidual(c6, triangles, *x), 0.0, 1e-12);
}

TEST(FractionalTest, DistinguishablePairsHaveNoWitness) {
  EXPECT_FALSE(FractionalIsomorphism(Graph::Path(4), Graph::Star(3)).has_value());
  EXPECT_FALSE(AreFractionallyIsomorphic(Graph::Path(3), Graph::Path(4)));
}

TEST(FractionalTest, IsomorphicGraphsAreFractionallyIsomorphic) {
  Rng rng = MakeRng(45);
  const Graph g = graph::ErdosRenyiGnp(7, 0.5, rng);
  const Graph p = graph::Permuted(g, RandomPermutation(7, rng));
  EXPECT_TRUE(AreFractionallyIsomorphic(g, p));
  const auto x = FractionalIsomorphism(g, p);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR(FractionalResidual(g, p, *x), 0.0, 1e-12);
}

}  // namespace
}  // namespace x2vec::wl
