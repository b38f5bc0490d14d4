#include <cstdio>
#include <filesystem>

#include "base/rng.h"
#include "data/datasets.h"
#include "data/io.h"
#include "gnn/graphsage.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "hom/brute_force.h"
#include "hom/subgraph_counts.h"
#include "wl/color_refinement.h"

namespace x2vec {
namespace {

using graph::Graph;

TEST(SubgraphCountsTest, EmbeddingsMatchBruteForce) {
  Rng rng = MakeRng(121);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph host = graph::ErdosRenyiGnp(7, 0.5, rng);
    for (const Graph& f : {Graph::Path(3), Graph::Cycle(3), Graph::Cycle(4),
                           Graph::Star(3), Graph::Path(4)}) {
      EXPECT_EQ(static_cast<int64_t>(hom::CountEmbeddingsViaHoms(f, host)),
                hom::CountEmbeddingsBruteForce(f, host))
          << f.ToString() << " trial " << trial;
    }
  }
}

TEST(SubgraphCountsTest, TriangleCopiesMatchDirectCount) {
  Rng rng = MakeRng(122);
  const Graph host = graph::ErdosRenyiGnp(9, 0.5, rng);
  EXPECT_EQ(static_cast<int64_t>(
                hom::CountSubgraphCopies(Graph::Cycle(3), host)),
            graph::CountTriangles(host));
}

TEST(SubgraphCountsTest, EdgeCopiesAreEdgeCount) {
  Rng rng = MakeRng(123);
  const Graph host = graph::ErdosRenyiGnp(8, 0.4, rng);
  EXPECT_EQ(static_cast<int64_t>(
                hom::CountSubgraphCopies(Graph::Path(2), host)),
            host.NumEdges());
}

TEST(DatasetIoTest, RoundTripWithLabels) {
  Rng rng = MakeRng(124);
  const data::GraphDataset dataset = data::ChemLikeDataset(4, 10, rng);
  const StatusOr<std::string> serialized = data::SerializeDataset(dataset);
  ASSERT_TRUE(serialized.ok());
  const StatusOr<data::GraphDataset> parsed = data::ParseDataset(*serialized);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->name, dataset.name);
  ASSERT_EQ(parsed->graphs.size(), dataset.graphs.size());
  EXPECT_EQ(parsed->labels, dataset.labels);
  for (size_t i = 0; i < dataset.graphs.size(); ++i) {
    EXPECT_EQ(parsed->graphs[i].NumEdges(), dataset.graphs[i].NumEdges());
    EXPECT_EQ(parsed->graphs[i].VertexLabels(),
              dataset.graphs[i].VertexLabels());
  }
}

TEST(DatasetIoTest, FileRoundTrip) {
  Rng rng = MakeRng(125);
  const data::GraphDataset dataset = data::MotifDataset(3, 8, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "x2vec_io_test.ds").string();
  ASSERT_TRUE(data::SaveDataset(dataset, path).ok());
  const StatusOr<data::GraphDataset> loaded = data::LoadDataset(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->labels, dataset.labels);
  std::filesystem::remove(path);
}

TEST(DatasetIoTest, RejectsCorruptInput) {
  EXPECT_FALSE(data::ParseDataset("garbage").ok());
  EXPECT_FALSE(data::ParseDataset("x2vec-dataset v1 foo 2\nBw 0\n").ok());
  EXPECT_FALSE(data::LoadDataset("/nonexistent/path").ok());
}

TEST(GraphSageTest, InductiveAcrossGraphs) {
  // Same model embeds two different graphs; dimensions consistent and
  // rows are unit-normalised.
  const gnn::GraphSage model = gnn::GraphSage::Random(2, 12, 0.8, 77);
  Rng rng = MakeRng(126);
  for (const Graph& g : {graph::ConnectedGnp(10, 0.3, rng),
                         graph::ConnectedGnp(15, 0.25, rng)}) {
    const linalg::Matrix embedding = model.EmbedNodes(g);
    EXPECT_EQ(embedding.rows(), g.NumVertices());
    EXPECT_EQ(embedding.cols(), 12);
    for (int v = 0; v < embedding.rows(); ++v) {
      const double norm = linalg::Norm2(embedding.Row(v));
      EXPECT_TRUE(norm < 1e-9 || std::abs(norm - 1.0) < 1e-9);
    }
  }
}

TEST(GraphSageTest, StructurallyIdenticalNodesCoincide) {
  // In a star, all leaves are automorphic: their embeddings must be equal
  // for EVERY parameterisation. The centre/leaf separation depends on the
  // random weights (ReLU + L2 normalisation can collapse it), so we only
  // require it for this fixed seed, chosen to separate.
  const gnn::GraphSage model = gnn::GraphSage::Random(2, 8, 0.8, 79);
  const linalg::Matrix embedding = model.EmbedNodes(Graph::Star(4));
  for (int leaf = 2; leaf <= 4; ++leaf) {
    EXPECT_NEAR(linalg::Distance2(embedding.Row(1), embedding.Row(leaf)), 0.0,
                1e-12);
  }
  EXPECT_GT(linalg::Distance2(embedding.Row(0), embedding.Row(1)), 1e-6);
}

}  // namespace
}  // namespace x2vec
