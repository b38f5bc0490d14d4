#include <cmath>
#include <vector>

#include "base/rng.h"
#include "data/datasets.h"
#include "gnn/gcn.h"
#include "gnn/layers.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "ml/metrics.h"
#include "wl/color_refinement.h"

namespace x2vec::gnn {
namespace {

using graph::DisjointUnion;
using graph::Graph;

TEST(GinStackTest, PermutationInvarianceOfReadout) {
  Rng rng = MakeRng(13);
  const Graph g = graph::ErdosRenyiGnp(9, 0.4, rng);
  const Graph p = graph::Permuted(g, RandomPermutation(9, rng));
  const GinStack stack = GinStack::Random(3, 8, 1.0, 99);
  const std::vector<double> eg = stack.EmbedGraph(g);
  const std::vector<double> ep = stack.EmbedGraph(p);
  for (size_t d = 0; d < eg.size(); ++d) {
    EXPECT_NEAR(eg[d], ep[d], 1e-9 * std::max(1.0, std::abs(eg[d])));
  }
}

TEST(GinStackTest, CannotExceedOneWl) {
  // Section 3.6: constant-initialised GNNs are bounded by 1-WL, so the
  // classic C6 vs 2xC3 pair must look identical to every GIN stack.
  const Graph c6 = Graph::Cycle(6);
  const Graph triangles = DisjointUnion(Graph::Cycle(3), Graph::Cycle(3));
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const GinStack stack = GinStack::Random(3, 8, 1.0, 1000 + seed);
    EXPECT_FALSE(GnnDistinguishes(c6, triangles, stack))
        << "seed " << seed;
  }
}

TEST(GinStackTest, MatchesOneWlOnSmallPairs) {
  // Random-weight GIN should distinguish exactly the 1-WL-distinguishable
  // pairs on a small zoo (injectivity holds generically).
  Rng rng = MakeRng(14);
  const GinStack stack = GinStack::Random(3, 16, 1.0, 4242);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::ErdosRenyiGnp(7, 0.4, rng);
    const Graph h = graph::ErdosRenyiGnp(7, 0.4, rng);
    const bool wl = !wl::WlIndistinguishable(g, h);
    const bool gnn = GnnDistinguishes(g, h, stack);
    EXPECT_EQ(wl, gnn) << "trial " << trial;
  }
}

TEST(ReadoutTest, Sum) {
  linalg::Matrix states = {{1, 2}, {3, 4}};
  EXPECT_EQ(SumReadout(states), (std::vector<double>{4, 6}));
}

TEST(GcnTest, PropagationMatrixRowsNormalised) {
  const Graph g = Graph::Path(3);
  const linalg::Matrix p = GcnPropagationMatrix(g);
  // Symmetric and PSD-scaled: p is symmetric with spectral radius <= 1.
  EXPECT_TRUE(p.AllClose(p.Transposed(), 1e-12));
  EXPECT_GT(p(0, 0), 0.0);
  EXPECT_GT(p(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(p(0, 2), 0.0);
}

TEST(GcnTest, GradientsMatchFiniteDifferences) {
  Rng rng = MakeRng(15);
  const Graph g = graph::ConnectedGnp(6, 0.5, rng);
  const linalg::Matrix features = linalg::Matrix::Random(6, 3, 1.0, 5);
  const std::vector<int> labels = {0, 1, 0, 1, 0, 1};
  const std::vector<bool> mask = {true, true, true, true, false, false};
  const linalg::Matrix propagation = GcnPropagationMatrix(g);

  GcnClassifier model(3, 4, 2, 77);
  const linalg::Matrix w1 = model.w1();
  const linalg::Matrix w2 = model.w2();

  // Loss at given parameters, via a zero-rate "train" step.
  auto loss_at = [&](const linalg::Matrix& a, const linalg::Matrix& b) {
    GcnClassifier probe = model;
    probe.SetWeights(a, b);
    return probe.TrainStep(propagation, features, labels, mask, 0.0);
  };

  // Analytic gradients, recovered from a step of rate `lr`:
  // grad = (w_before - w_after) / lr.
  const double lr = 1e-7;
  GcnClassifier stepped = model;
  stepped.TrainStep(propagation, features, labels, mask, lr);
  const linalg::Matrix grad1 = (w1 - stepped.w1()) * (1.0 / lr);
  const linalg::Matrix grad2 = (w2 - stepped.w2()) * (1.0 / lr);

  // Central finite differences on every coordinate of both matrices.
  const double eps = 1e-5;
  for (int i = 0; i < w1.rows(); ++i) {
    for (int j = 0; j < w1.cols(); ++j) {
      linalg::Matrix plus = w1;
      linalg::Matrix minus = w1;
      plus(i, j) += eps;
      minus(i, j) -= eps;
      const double numeric =
          (loss_at(plus, w2) - loss_at(minus, w2)) / (2 * eps);
      EXPECT_NEAR(grad1(i, j), numeric,
                  1e-4 * std::max(1.0, std::abs(numeric)))
          << "w1(" << i << "," << j << ")";
    }
  }
  for (int i = 0; i < w2.rows(); ++i) {
    for (int j = 0; j < w2.cols(); ++j) {
      linalg::Matrix plus = w2;
      linalg::Matrix minus = w2;
      plus(i, j) += eps;
      minus(i, j) -= eps;
      const double numeric =
          (loss_at(w1, plus) - loss_at(w1, minus)) / (2 * eps);
      EXPECT_NEAR(grad2(i, j), numeric,
                  1e-4 * std::max(1.0, std::abs(numeric)))
          << "w2(" << i << "," << j << ")";
    }
  }
}

TEST(GcnTest, LearnsSbmCommunities) {
  Rng rng = MakeRng(16);
  const data::NodeClassificationDataset dataset =
      data::SbmNodeDataset(2, 12, 0.6, 0.05, rng);
  const int n = dataset.graph.NumVertices();
  // Features: random (the structure carries the signal via propagation).
  const linalg::Matrix features = linalg::Matrix::Random(n, 8, 1.0, 6);
  std::vector<bool> train_mask(n, false);
  for (int v = 0; v < n; v += 2) train_mask[v] = true;  // Half supervised.

  GcnClassifier model(8, 16, 2, 123);
  GcnClassifier::Options options;
  options.epochs = 300;
  options.learning_rate = 0.2;
  model.Fit(dataset.graph, features, dataset.labels, train_mask, options);
  const std::vector<int> predictions =
      model.Predict(dataset.graph, features);
  std::vector<int> test_predictions;
  std::vector<int> test_labels;
  for (int v = 0; v < n; ++v) {
    if (!train_mask[v]) {
      test_predictions.push_back(predictions[v]);
      test_labels.push_back(dataset.labels[v]);
    }
  }
  EXPECT_GT(ml::Accuracy(test_predictions, test_labels), 0.85);
}

TEST(GcnTest, TrainingReducesLoss) {
  Rng rng = MakeRng(17);
  const Graph g = graph::ConnectedGnp(10, 0.4, rng);
  const linalg::Matrix features = linalg::Matrix::Random(10, 4, 1.0, 7);
  std::vector<int> labels(10);
  for (int v = 0; v < 10; ++v) labels[v] = v % 2;
  const std::vector<bool> mask(10, true);
  const linalg::Matrix propagation = GcnPropagationMatrix(g);
  GcnClassifier model(4, 8, 2, 55);
  const double initial = model.TrainStep(propagation, features, labels, mask,
                                         0.1);
  double final_loss = initial;
  for (int step = 0; step < 100; ++step) {
    final_loss = model.TrainStep(propagation, features, labels, mask, 0.1);
  }
  EXPECT_LT(final_loss, initial);
}

}  // namespace
}  // namespace x2vec::gnn
