#include <vector>

#include "api/suite.h"
#include "base/rng.h"
#include "core/compare.h"
#include "core/registry.h"
#include "data/datasets.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "hom/embeddings.h"
#include "kernel/graph_kernels.h"
#include "kernel/wl_kernel.h"
#include "ml/svm.h"
#include "wl/cfi.h"

namespace x2vec::core {
namespace {

using graph::DisjointUnion;
using graph::Graph;

TEST(CompareTest, IsomorphicPairPassesEveryLevel) {
  Rng rng = MakeRng(81);
  const Graph g = graph::ErdosRenyiGnp(7, 0.5, rng);
  const Graph p = graph::Permuted(g, RandomPermutation(7, rng));
  const ComparisonReport report = CompareGraphs(g, p, 3);
  EXPECT_TRUE(report.isomorphic);
  EXPECT_TRUE(report.kwl2_indistinguishable);
  EXPECT_TRUE(report.kwl3_indistinguishable);
  EXPECT_TRUE(report.wl_indistinguishable);
  EXPECT_TRUE(report.path_indistinguishable);
  EXPECT_TRUE(report.cospectral);
}

TEST(CompareTest, C6VersusTrianglesLadder) {
  const ComparisonReport report = CompareGraphs(
      Graph::Cycle(6), DisjointUnion(Graph::Cycle(3), Graph::Cycle(3)), 2);
  EXPECT_FALSE(report.isomorphic);
  EXPECT_FALSE(report.kwl2_indistinguishable);
  EXPECT_TRUE(report.wl_indistinguishable);
  EXPECT_TRUE(report.path_indistinguishable);
  EXPECT_FALSE(report.cospectral);
}

TEST(CompareTest, CospectralPairLadder) {
  // Figure 6: K_{1,4} vs C4 + K1.
  const ComparisonReport report = CompareGraphs(
      Graph::Star(4), DisjointUnion(Graph::Cycle(4), Graph(1)), 0);
  EXPECT_FALSE(report.isomorphic);
  EXPECT_FALSE(report.wl_indistinguishable);
  EXPECT_FALSE(report.path_indistinguishable);
  EXPECT_TRUE(report.cospectral);
}

TEST(CompareTest, CfiPairClimbsTheLadder) {
  const wl::CfiPair pair = wl::BuildCfiPair(Graph::Cycle(3));
  const ComparisonReport report =
      CompareGraphs(pair.untwisted, pair.twisted, 2);
  EXPECT_FALSE(report.isomorphic);
  EXPECT_TRUE(report.wl_indistinguishable);
  EXPECT_FALSE(report.kwl2_indistinguishable);
}

TEST(CompareTest, ToStringMentionsLevels) {
  const ComparisonReport report =
      CompareGraphs(Graph::Path(3), Graph::Path(3), 0);
  const std::string text = report.ToString();
  EXPECT_NE(text.find("isomorphic"), std::string::npos);
  EXPECT_NE(text.find("co-spectral"), std::string::npos);
}

TEST(RegistryTest, MethodSuiteProducesSymmetricGrams) {
  Rng rng = MakeRng(82);
  const data::GraphDataset dataset = data::MotifDataset(3, 10, rng);
  for (const GraphKernelMethod& method : api::DefaultMethodSuite()) {
    Rng method_rng = MakeRng(83);
    const linalg::Matrix gram = method.gram(dataset.graphs, method_rng);
    EXPECT_EQ(gram.rows(), 6) << method.name;
    EXPECT_TRUE(gram.AllClose(gram.Transposed(), 1e-9)) << method.name;
  }
}

TEST(RegistryTest, NodeSuiteShapes) {
  Rng rng = MakeRng(84);
  const Graph g = graph::ConnectedGnp(10, 0.35, rng);
  for (const NodeEmbeddingMethod& method : api::DefaultNodeMethodSuite()) {
    Rng method_rng = MakeRng(85);
    const linalg::Matrix embedding = method.embed(g, method_rng);
    EXPECT_EQ(embedding.rows(), 10) << method.name;
    EXPECT_GT(embedding.cols(), 0) << method.name;
  }
}

TEST(IntegrationTest, WlKernelSeparatesChemLikeClasses) {
  Budget unlimited;
  // End-to-end: dataset -> kernel -> SVM cross-validation. Trees vs
  // ring-closed molecules differ in local WL statistics.
  Rng rng = MakeRng(86);
  const data::GraphDataset dataset = data::ChemLikeDataset(10, 12, rng);
  const linalg::Matrix gram = kernel::NormalizeKernel(
      kernel::WlSubtreeKernelMatrix(dataset.graphs, 3, unlimited).value());
  Rng svm_rng = MakeRng(87);
  ml::SvmOptions svm_options;
  svm_options.c = 10.0;
  const double accuracy = ml::CrossValidatedSvmAccuracy(
      gram, dataset.labels, 4, svm_options, svm_rng);
  EXPECT_GT(accuracy, 0.8);
}

TEST(IntegrationTest, HomVectorsSeeMotifsWlCannotCount) {
  Budget unlimited;
  // Section 4's pitch in miniature: 1-WL statistics barely separate the
  // planted-triangle vs planted-square classes, while a hom-vector kernel
  // whose family contains C3 and C4 separates them well.
  Rng rng = MakeRng(88);
  const data::GraphDataset dataset = data::MotifDataset(10, 14, rng);
  const linalg::Matrix hom_gram =
      kernel::NormalizeKernel(*kernel::HomVectorKernelMatrix(
          dataset.graphs, hom::DefaultPatternFamily(20), unlimited));
  Rng svm_rng = MakeRng(89);
  ml::SvmOptions svm_options;
  svm_options.c = 10.0;
  const double hom_accuracy = ml::CrossValidatedSvmAccuracy(
      hom_gram, dataset.labels, 4, svm_options, svm_rng);
  const double wl_accuracy = ml::CrossValidatedSvmAccuracy(
      kernel::NormalizeKernel(
          kernel::WlSubtreeKernelMatrix(dataset.graphs, 5, unlimited).value()),
      dataset.labels, 4, svm_options, svm_rng);
  EXPECT_GT(hom_accuracy, 0.6);
  EXPECT_GE(hom_accuracy, wl_accuracy - 0.05);
}

}  // namespace
}  // namespace x2vec::core
