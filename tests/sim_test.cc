#include <cmath>
#include <vector>

#include "base/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "gtest/gtest.h"
#include "sim/graph_distance.h"
#include "sim/matrix_norms.h"
#include "wl/color_refinement.h"

namespace x2vec::sim {
namespace {

using graph::DisjointUnion;
using graph::Graph;

TEST(CutNormTest, HandComputed) {
  // All-positive matrix: cut norm = total sum.
  linalg::Matrix m = {{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(CutNorm(m), 10.0);
  // Mixed signs: best S x T picks the positive block.
  linalg::Matrix mixed = {{5, -1}, {-1, -4}};
  EXPECT_DOUBLE_EQ(CutNorm(mixed), 5.0);
}

TEST(CutNormTest, BoundsFromPaper) {
  // ||M||_cut <= ||M||_1 <= n ||M||_F (Section 5.1).
  Rng rng = MakeRng(41);
  const linalg::Matrix m = linalg::Matrix::Random(6, 6, 2.0, 41);
  EXPECT_LE(CutNorm(m), m.EntrywiseNorm(1.0) + 1e-9);
  EXPECT_LE(m.EntrywiseNorm(1.0), 6.0 * m.FrobeniusNorm() + 1e-9);
}

TEST(MatrixNormTest, SpectralOfIdentityScaled) {
  linalg::Matrix m = linalg::Matrix::Identity(3) * 2.5;
  EXPECT_NEAR(NormValue(m, MatrixNorm::kSpectral), 2.5, 1e-9);
}

TEST(GraphDistanceTest, IsomorphicPairsAtZero) {
  Rng rng = MakeRng(42);
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  const Graph p = graph::Permuted(g, RandomPermutation(6, rng));
  for (MatrixNorm norm : {MatrixNorm::kFrobenius, MatrixNorm::kEntrywiseL1,
                          MatrixNorm::kOperatorInf, MatrixNorm::kCut}) {
    EXPECT_NEAR(GraphDistanceExact(g, p, norm).distance, 0.0, 1e-9);
  }
}

TEST(GraphDistanceTest, EdgeFlipInterpretations) {
  // C4 -> P4 requires exactly one edge deletion.
  EXPECT_EQ(EdgeFlipDistance(Graph::Cycle(4), Graph::Path(4)), 1);
  // K4 -> empty graph: 6 flips.
  EXPECT_EQ(EdgeFlipDistance(Graph::Complete(4), Graph(4)), 6);
  // C6 vs 2xC3: flipping 0-1? They share 6 edges but need rewiring: the
  // distance is small but non-zero; check symmetry instead.
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  EXPECT_EQ(EdgeFlipDistance(c6, triangles),
            EdgeFlipDistance(triangles, c6));
  EXPECT_GT(EdgeFlipDistance(c6, triangles), 0);
}

TEST(GraphDistanceTest, OperatorNormEditInterpretation) {
  // Eq. (5.4): dist_{<1>}(G, H) is the max number of edges at a single
  // vertex that must be flipped under the best alignment. C4 -> P4 removes
  // one edge, touching each endpoint once: dist_{<1>} = 1.
  EXPECT_NEAR(
      GraphDistanceExact(Graph::Cycle(4), Graph::Path(4),
                         MatrixNorm::kOperatorOne)
          .distance,
      1.0, 1e-12);
  // K4 -> empty graph: every vertex loses 3 edges.
  EXPECT_NEAR(GraphDistanceExact(Graph::Complete(4), Graph(4),
                                 MatrixNorm::kOperatorOne)
                  .distance,
              3.0, 1e-12);
}

TEST(GraphDistanceTest, PermutationWitnessIsOptimal) {
  const Graph p4 = Graph::Path(4);
  const Graph star = Graph::Star(3);
  const ExactDistanceResult result =
      GraphDistanceExact(p4, star, MatrixNorm::kFrobenius);
  // The witness permutation must realise the reported distance.
  linalg::Matrix p(4, 4);
  for (int v = 0; v < 4; ++v) p(v, result.permutation[v]) = 1.0;
  const linalg::Matrix residual =
      p4.AdjacencyMatrix() * p - p * star.AdjacencyMatrix();
  EXPECT_NEAR(residual.FrobeniusNorm(), result.distance, 1e-12);
}

TEST(RelaxedDistanceTest, FractionallyIsomorphicPairsReachZero) {
  // Theorem 3.2 via optimisation: C6 vs 2xC3 are fractionally isomorphic,
  // so the Frank-Wolfe relaxation drives ||AX - XB||_F to ~0.
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  const RelaxedDistanceResult result = RelaxedGraphDistance(c6, triangles);
  EXPECT_LT(result.distance, 1e-6);
  // Solution stays doubly stochastic.
  for (int i = 0; i < 6; ++i) {
    double row = 0.0;
    double col = 0.0;
    for (int j = 0; j < 6; ++j) {
      row += result.solution(i, j);
      col += result.solution(j, i);
      EXPECT_GE(result.solution(i, j), -1e-12);
    }
    EXPECT_NEAR(row, 1.0, 1e-9);
    EXPECT_NEAR(col, 1.0, 1e-9);
  }
}

TEST(RelaxedDistanceTest, DistinguishablePairsStayPositive) {
  const RelaxedDistanceResult result =
      RelaxedGraphDistance(Graph::Path(4), Graph::Star(3));
  EXPECT_GT(result.distance, 0.1);
}

TEST(RelaxedDistanceTest, AgreesWithWlOnRandomPairs) {
  Rng rng = MakeRng(43);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
    const Graph h = graph::ErdosRenyiGnp(6, 0.5, rng);
    const bool wl_equal = wl::WlIndistinguishable(g, h);
    const double relaxed = RelaxedGraphDistance(g, h, 400).distance;
    if (wl_equal) {
      EXPECT_LT(relaxed, 1e-5) << "trial " << trial;
    } else {
      EXPECT_GT(relaxed, 1e-4) << "trial " << trial;
    }
  }
}

TEST(BlowUpAlignTest, ReachesLeastCommonOrder) {
  const auto [g, h] = BlowUpAlign(Graph::Path(2), Graph::Cycle(3));
  EXPECT_EQ(g.NumVertices(), 6);
  EXPECT_EQ(h.NumVertices(), 6);
}

TEST(BlowUpAlignTest, BlowUpPreservesFractionalIsomorphismClass) {
  // A graph and its blow-up are 1-WL-equivalent "per capita": the blow-up
  // of C3 by 2 is 1-WL-indistinguishable from the blow-up of C6... not in
  // general; instead check that blowing both sides of an isomorphic pair
  // keeps them isomorphic.
  Rng rng = MakeRng(45);
  const Graph g = graph::ErdosRenyiGnp(4, 0.5, rng);
  const Graph p = graph::Permuted(g, RandomPermutation(4, rng));
  const auto [bg, bp] = BlowUpAlign(g, p);
  EXPECT_TRUE(graph::AreIsomorphic(bg, bp));
}

}  // namespace
}  // namespace x2vec::sim
