#include <cmath>

#include "base/rng.h"
#include "embed/factorization.h"
#include "embed/walks.h"
#include "gnn/higher_order.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "hom/densities.h"
#include "linalg/eigen.h"
#include "wl/color_refinement.h"

namespace x2vec {
namespace {

using graph::Graph;

TEST(FactorizationTest, RecoversLowRankSimilarity) {
  // S = X0 X0^T of rank 3 must be fit almost exactly with d = 3.
  Rng rng = MakeRng(111);
  const linalg::Matrix x0 = linalg::Matrix::Random(10, 3, 1.0, 9);
  const linalg::Matrix s = x0 * x0.Transposed();
  embed::FactorizationOptions options;
  options.dimension = 3;
  options.epochs = 2500;
  options.learning_rate = 0.01;
  options.l2 = 0.0;
  const embed::FactorizationResult result =
      embed::FactorizeSimilarity(s, options, rng);
  EXPECT_LT(result.final_loss, 1e-3);
}

TEST(FactorizationTest, HandlesAsymmetricTargets) {
  // Random-walk one-step transition matrix is asymmetric; the two-matrix
  // model must fit it better than the symmetric one.
  Rng rng = MakeRng(112);
  const Graph g = graph::ConnectedGnp(10, 0.3, rng);
  const linalg::Matrix s = embed::EmpiricalWalkSimilarity(g, 1, 4000, rng);
  embed::FactorizationOptions asymmetric;
  asymmetric.dimension = 6;
  asymmetric.epochs = 1500;
  asymmetric.learning_rate = 0.02;
  Rng rng_a = MakeRng(7);
  const double loss_asym =
      embed::FactorizeSimilarity(s, asymmetric, rng_a).final_loss;
  embed::FactorizationOptions symmetric = asymmetric;
  symmetric.symmetric = true;
  Rng rng_s = MakeRng(7);
  const double loss_sym =
      embed::FactorizeSimilarity(s, symmetric, rng_s).final_loss;
  EXPECT_LT(loss_asym, loss_sym + 1e-9);
  EXPECT_LT(loss_asym, 0.01);
}

TEST(DensityTest, ExactValues) {
  // t(K2, K_n) = (n-1)/n.
  EXPECT_NEAR(hom::HomDensity(Graph::Path(2), Graph::Complete(5)), 4.0 / 5,
              1e-12);
  // t(K3, C5) = 0.
  EXPECT_DOUBLE_EQ(hom::HomDensity(Graph::Cycle(3), Graph::Cycle(5)), 0.0);
}

TEST(DensityTest, SamplingConvergesToExact) {
  Rng rng = MakeRng(113);
  const Graph g = graph::ErdosRenyiGnp(12, 0.5, rng);
  for (const Graph& f : {Graph::Path(3), Graph::Cycle(3), Graph::Cycle(4)}) {
    const double exact = hom::HomDensity(f, g);
    const double sampled = hom::SampledHomDensity(f, g, 200000, rng);
    EXPECT_NEAR(sampled, exact, 0.01) << f.ToString();
  }
}

TEST(DensityTest, ErdosRenyiLimit) {
  // t(F, G(n,p)) ~ p^{|E(F)|} for large n: test at n = 60, generous tol.
  Rng rng = MakeRng(114);
  const double p = 0.3;
  const Graph g = graph::ErdosRenyiGnp(60, p, rng);
  const Graph triangle = Graph::Cycle(3);
  const double limit = hom::ErdosRenyiLimitDensity(triangle, p);
  EXPECT_NEAR(hom::HomDensity(triangle, g), limit, 0.01);
}

TEST(TwoGnnTest, PermutationInvariant) {
  Rng rng = MakeRng(117);
  const Graph g = graph::ErdosRenyiGnp(7, 0.4, rng);
  const Graph p = graph::Permuted(g, RandomPermutation(7, rng));
  const gnn::TwoGnn model = gnn::TwoGnn::Random(2, 8, 0.5, 42);
  EXPECT_FALSE(gnn::TwoGnnDistinguishes(g, p, model));
}

TEST(TwoGnnTest, ExceedsOneWl) {
  // The classic 1-WL blind spot falls to the 2-dimensional GNN.
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles =
      graph::DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  ASSERT_TRUE(wl::WlIndistinguishable(c6, triangles));
  const gnn::TwoGnn model = gnn::TwoGnn::Random(2, 8, 0.5, 43);
  EXPECT_TRUE(gnn::TwoGnnDistinguishes(c6, triangles, model));
}

TEST(TwoGnnTest, SeparatesWhatOneWlSeparates) {
  const gnn::TwoGnn model = gnn::TwoGnn::Random(2, 8, 0.5, 44);
  EXPECT_TRUE(
      gnn::TwoGnnDistinguishes(Graph::Path(4), Graph::Star(3), model));
}

}  // namespace
}  // namespace x2vec
