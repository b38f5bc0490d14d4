// Reproduces Figure 2: three node embeddings of one graph into R^2 —
// (a) SVD factorisation of the adjacency matrix, (b) SVD factorisation of
// the similarity matrix S_vw = exp(-2 dist(v,w)), (c) NODE2VEC — and
// reports how well each preserves the graph's neighbourhood structure.
//
// The paper's figure is qualitative (scatter plots); we print the 2D
// coordinates (ready to plot) plus a quantitative proxy: mean embedding
// distance of adjacent vs non-adjacent vertex pairs.

#include <cstdio>

#include "api/x2vec.h"

namespace {

using x2vec::graph::Graph;
using x2vec::linalg::Matrix;

void Report(const char* name, const Graph& g, const Matrix& x) {
  std::printf("\n(%s)\n", name);
  for (int v = 0; v < g.NumVertices(); ++v) {
    std::printf("  v%-2d  (%8.4f, %8.4f)\n", v, x(v, 0), x(v, 1));
  }
  double adjacent = 0.0;
  double apart = 0.0;
  int na = 0;
  int nn = 0;
  for (int u = 0; u < g.NumVertices(); ++u) {
    for (int v = u + 1; v < g.NumVertices(); ++v) {
      const double d = x2vec::linalg::Distance2(x.Row(u), x.Row(v));
      if (g.HasEdge(u, v)) {
        adjacent += d;
        ++na;
      } else {
        apart += d;
        ++nn;
      }
    }
  }
  std::printf("  mean dist: adjacent %.4f  |  non-adjacent %.4f  (ratio %.2f)\n",
              adjacent / na, apart / nn, (apart / nn) / (adjacent / na));
}

}  // namespace

int main() {
  using namespace x2vec;
  std::printf("=== Figure 2: three node embeddings of one graph ===\n");

  // A barbell-ish 10-vertex graph: two K4s joined by a 2-path bridge —
  // communities plus a bottleneck, like the figure's example.
  Graph g(10);
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) g.AddEdge(u, v);
  }
  for (int u = 6; u < 10; ++u) {
    for (int v = u + 1; v < 10; ++v) g.AddEdge(u, v);
  }
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 6);
  std::printf("graph: %s (two K4 communities + bridge)\n",
              g.ToString().c_str());

  Report("a: SVD of adjacency matrix", g,
         embed::SpectralAdjacencyEmbedding(g, 2));
  Report("b: SVD of exp(-2 dist) similarity", g,
         embed::SpectralSimilarityEmbedding(g, 2, 2.0));

  Rng rng = MakeRng(2);
  embed::Node2VecOptions options;
  options.walks.p = 1.0;
  options.walks.q = 0.5;
  options.walks.walk_length = 10;
  options.walks.walks_per_node = 20;
  options.sgns.dimension = 2;
  options.sgns.epochs = 10;
  Budget unlimited;
  Report("c: node2vec (p=1, q=0.5)", g,
         *embed::Node2VecEmbeddingBudgeted(graph::GraphView(g), options, rng,
                                           unlimited));

  std::printf(
      "\npaper-shape check: all three embeddings place adjacent pairs\n"
      "closer than non-adjacent pairs (ratio > 1), with (b) emphasising\n"
      "global distance structure the most.\n");
  return 0;
}
