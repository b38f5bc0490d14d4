#include <cmath>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/rng.h"
#include "corpus_training.h"
#include "data/datasets.h"
#include "embed/corpus.h"
#include "embed/graph2vec.h"
#include "embed/node_embeddings.h"
#include "embed/sgns.h"
#include "embed/walks.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"

namespace x2vec::embed {
namespace {

using graph::Graph;

TEST(VocabularyTest, AddAndLookup) {
  Vocabulary vocab;
  EXPECT_EQ(vocab.Add("cat"), 0);
  EXPECT_EQ(vocab.Add("dog"), 1);
  EXPECT_EQ(vocab.Add("cat"), 0);
  EXPECT_EQ(vocab.size(), 2);
  EXPECT_EQ(vocab.Count(0), 2);
  EXPECT_EQ(vocab.Lookup("dog"), 1);
  EXPECT_EQ(vocab.Lookup("bird"), -1);
}

TEST(VocabularyTest, NoiseDistributionPower) {
  Vocabulary vocab;
  vocab.Add("a");
  for (int i = 0; i < 16; ++i) vocab.Add("b");
  const std::vector<double> noise = vocab.NoiseDistribution(0.75);
  EXPECT_DOUBLE_EQ(noise[0], 1.0);
  EXPECT_DOUBLE_EQ(noise[1], 8.0);  // 16^0.75.
}

TEST(CorpusTest, FromSentences) {
  const Corpus corpus = Corpus::FromSentences({{"a", "b"}, {"b", "c", "a"}});
  EXPECT_EQ(corpus.vocab.size(), 3);
  EXPECT_EQ(corpus.TotalTokens(), 5);
  EXPECT_EQ(corpus.sentences[1][0], corpus.vocab.Lookup("b"));
}

TEST(SgnsTest, TopicCorpusClustersSeparate) {
  Rng rng = MakeRng(91);
  const auto sentences = data::TopicCorpus(3, 5, 400, 8, rng);
  const Corpus corpus = Corpus::FromSentences(sentences);
  SgnsOptions options;
  options.dimension = 16;
  options.epochs = 4;
  Budget unlimited;
  const SgnsModel model = *TrainSgnsOnCorpus(corpus, options, rng, unlimited);

  // Average cosine within topics must beat across topics.
  auto topic_word = [&corpus](int topic, int word) {
    return corpus.vocab.Lookup("t" + std::to_string(topic) + "_w" +
                               std::to_string(word));
  };
  double intra = 0.0;
  int intra_count = 0;
  double inter = 0.0;
  int inter_count = 0;
  for (int t1 = 0; t1 < 3; ++t1) {
    for (int w1 = 0; w1 < 5; ++w1) {
      for (int t2 = 0; t2 < 3; ++t2) {
        for (int w2 = 0; w2 < 5; ++w2) {
          if (t1 == t2 && w1 == w2) continue;
          const int id1 = topic_word(t1, w1);
          const int id2 = topic_word(t2, w2);
          if (id1 < 0 || id2 < 0) continue;
          const double cosine = linalg::CosineSimilarity(
              model.input.Row(id1), model.input.Row(id2));
          if (t1 == t2) {
            intra += cosine;
            ++intra_count;
          } else {
            inter += cosine;
            ++inter_count;
          }
        }
      }
    }
  }
  ASSERT_GT(intra_count, 0);
  ASSERT_GT(inter_count, 0);
  EXPECT_GT(intra / intra_count, inter / inter_count + 0.15);
}

TEST(SgnsTest, DeterministicGivenSeed) {
  const Corpus corpus = Corpus::FromSentences({{"a", "b", "c", "a", "b"}});
  SgnsOptions options;
  options.dimension = 4;
  options.epochs = 2;
  Rng rng1 = MakeRng(7);
  Rng rng2 = MakeRng(7);
  Budget unlimited;
  const SgnsModel m1 = *TrainSgnsOnCorpus(corpus, options, rng1, unlimited);
  const SgnsModel m2 = *TrainSgnsOnCorpus(corpus, options, rng2, unlimited);
  EXPECT_TRUE(m1.input.AllClose(m2.input, 0.0));
}

TEST(WalksTest, WalksFollowEdges) {
  Rng rng = MakeRng(92);
  const Graph g = graph::ConnectedGnp(12, 0.3, rng);
  WalkOptions options;
  options.walks_per_node = 3;
  options.walk_length = 10;
  const auto walks = GenerateWalks(graph::GraphView(g), options, rng);
  EXPECT_EQ(walks.size(), 12u * 3u);
  for (const auto& walk : walks) {
    EXPECT_EQ(walk.size(), 10u);
    for (size_t i = 0; i + 1 < walk.size(); ++i) {
      EXPECT_TRUE(g.HasEdge(walk[i], walk[i + 1]));
    }
  }
}

TEST(WalksTest, IsolatedVertexStops) {
  Graph g(3);
  g.AddEdge(0, 1);
  Rng rng = MakeRng(93);
  WalkOptions options;
  options.walks_per_node = 1;
  options.walk_length = 5;
  const auto walks = GenerateWalks(graph::GraphView(g), options, rng);
  for (const auto& walk : walks) {
    if (walk.front() == 2) {
      EXPECT_EQ(walk.size(), 1u);
    }
  }
}

TEST(WalksTest, ReturnParameterBiasesBacktracking) {
  // On a path, a tiny p forces near-certain backtracking; a huge p forbids
  // it (when an alternative exists).
  const Graph path = Graph::Path(5);
  Rng rng = MakeRng(94);
  WalkOptions returny;
  returny.p = 1e-6;
  returny.q = 1.0;
  returny.walks_per_node = 20;
  returny.walk_length = 4;
  int backtracks = 0;
  int opportunities = 0;
  for (const auto& walk : GenerateWalks(graph::GraphView(path), returny, rng)) {
    for (size_t i = 2; i < walk.size(); ++i) {
      if (path.Degree(walk[i - 1]) > 1) {
        ++opportunities;
        backtracks += walk[i] == walk[i - 2] ? 1 : 0;
      }
    }
  }
  ASSERT_GT(opportunities, 0);
  EXPECT_GT(static_cast<double>(backtracks) / opportunities, 0.95);
}

TEST(WalksTest, EmpiricalSimilarityMatchesOneStepTransition) {
  Rng rng = MakeRng(95);
  const Graph star = Graph::Star(3);
  const linalg::Matrix s = EmpiricalWalkSimilarity(star, 1, 30000, rng);
  // From the centre each leaf has probability 1/3.
  for (int leaf = 1; leaf <= 3; ++leaf) {
    EXPECT_NEAR(s(0, leaf), 1.0 / 3.0, 0.02);
  }
  // From a leaf the walk always returns to the centre.
  EXPECT_NEAR(s(1, 0), 1.0, 1e-12);
}

TEST(SpectralTest, AdjacencyEmbeddingReconstructs) {
  // Full-rank embedding of a PSD-shifted similarity reproduces it; for the
  // adjacency of K3 (eigenvalues 2, -1, -1) the top-1 factor captures the
  // positive part.
  const Graph k3 = Graph::Complete(3);
  const linalg::Matrix x = SpectralAdjacencyEmbedding(k3, 1);
  EXPECT_EQ(x.rows(), 3);
  EXPECT_EQ(x.cols(), 1);
  // Symmetric graph: all three vertices get the same magnitude.
  EXPECT_NEAR(std::abs(x(0, 0)), std::abs(x(1, 0)), 1e-9);
}

TEST(SpectralTest, SimilarityEmbeddingSeparatesComponents) {
  const Graph two = graph::DisjointUnion(Graph::Complete(3),
                                         Graph::Complete(3));
  const linalg::Matrix x = SpectralSimilarityEmbedding(two, 2, 1.0);
  // Vertices in the same component embed closer than across components.
  const double same = linalg::Distance2(x.Row(0), x.Row(1));
  const double across = linalg::Distance2(x.Row(0), x.Row(3));
  EXPECT_LT(same, across);
}

TEST(SpectralTest, IsomapRecoversPathGeometry) {
  // On a path, 1-D Isomap must place vertices in order with ~unit gaps
  // (classical MDS of the line metric is exact).
  const linalg::Matrix x = IsomapEmbedding(Graph::Path(5), 1);
  // Coordinates are ordered monotonically along the path (up to sign).
  const double sign = x(4, 0) > x(0, 0) ? 1.0 : -1.0;
  for (int v = 0; v + 1 < 5; ++v) {
    EXPECT_GT(sign * (x(v + 1, 0) - x(v, 0)), 0.5);
  }
  // Pairwise embedded distances match the path metric exactly.
  for (int u = 0; u < 5; ++u) {
    for (int v = 0; v < 5; ++v) {
      EXPECT_NEAR(std::abs(x(u, 0) - x(v, 0)), std::abs(u - v), 1e-9);
    }
  }
}

TEST(SpectralTest, LaplacianEigenmapSeparatesCommunities) {
  Rng rng = MakeRng(99);
  linalg::Matrix probs = {{0.9, 0.05}, {0.05, 0.9}};
  std::vector<int> blocks;
  const Graph g = graph::StochasticBlockModel({6, 6}, probs, rng, &blocks);
  const linalg::Matrix x = LaplacianEigenmapEmbedding(g, 1);
  // The Fiedler coordinate splits the two blocks by sign (up to polarity).
  int matches = 0;
  for (int v = 0; v < 12; ++v) {
    matches += ((x(v, 0) > 0) == (blocks[v] == 0)) ? 1 : 0;
  }
  EXPECT_GE(std::max(matches, 12 - matches), 10);  // Allow stray vertices.
}

TEST(NodeEmbeddingTest, DeepWalkKeepsCommunitiesTogether) {
  Rng rng = MakeRng(96);
  linalg::Matrix probs = {{0.9, 0.02}, {0.02, 0.9}};
  std::vector<int> blocks;
  const Graph g = graph::StochasticBlockModel({8, 8}, probs, rng, &blocks);
  Node2VecOptions options;
  options.sgns.dimension = 8;
  options.sgns.epochs = 3;
  Budget unlimited;
  const linalg::Matrix x =
      *DeepWalkEmbeddingBudgeted(graph::GraphView(g), options, rng, unlimited);
  double intra = 0.0;
  double inter = 0.0;
  int intra_count = 0;
  int inter_count = 0;
  for (int u = 0; u < 16; ++u) {
    for (int v = u + 1; v < 16; ++v) {
      const double cosine = linalg::CosineSimilarity(x.Row(u), x.Row(v));
      if (blocks[u] == blocks[v]) {
        intra += cosine;
        ++intra_count;
      } else {
        inter += cosine;
        ++inter_count;
      }
    }
  }
  EXPECT_GT(intra / intra_count, inter / inter_count);
}

TEST(ReconstructionTest, PerfectFactorHasZeroError) {
  const linalg::Matrix x = {{1, 0}, {0, 1}, {1, 1}};
  EXPECT_NEAR(ReconstructionError(x, x * x.Transposed()), 0.0, 1e-12);
}

TEST(Graph2VecTest, ShapesAndDeterminism) {
  Rng rng = MakeRng(97);
  std::vector<Graph> graphs;
  for (int i = 0; i < 6; ++i) {
    graphs.push_back(graph::ErdosRenyiGnp(8, 0.3, rng));
  }
  Graph2VecOptions options;
  options.sgns.dimension = 12;
  options.sgns.epochs = 3;
  Rng a = MakeRng(5);
  Rng b = MakeRng(5);
  Budget unlimited;
  const linalg::Matrix e1 =
      *Graph2VecEmbeddingBudgeted(graphs, options, a, unlimited);
  const linalg::Matrix e2 =
      *Graph2VecEmbeddingBudgeted(graphs, options, b, unlimited);
  EXPECT_EQ(e1.rows(), 6);
  EXPECT_EQ(e1.cols(), 12);
  EXPECT_TRUE(e1.AllClose(e2, 0.0));
}

TEST(Graph2VecTest, SeparatesVeryDifferentFamilies) {
  // 5 dense cliques vs 5 sparse paths: graph2vec should cluster by family.
  std::vector<Graph> graphs;
  for (int i = 0; i < 5; ++i) graphs.push_back(Graph::Complete(7 + (i % 2)));
  for (int i = 0; i < 5; ++i) graphs.push_back(Graph::Path(7 + (i % 2)));
  Graph2VecOptions options;
  options.sgns.dimension = 8;
  options.sgns.epochs = 20;
  Rng rng = MakeRng(98);
  Budget unlimited;
  const linalg::Matrix e =
      *Graph2VecEmbeddingBudgeted(graphs, options, rng, unlimited);
  double intra = 0.0;
  double inter = 0.0;
  int intra_count = 0;
  int inter_count = 0;
  for (int i = 0; i < 10; ++i) {
    for (int j = i + 1; j < 10; ++j) {
      const double cosine = linalg::CosineSimilarity(e.Row(i), e.Row(j));
      if ((i < 5) == (j < 5)) {
        intra += cosine;
        ++intra_count;
      } else {
        inter += cosine;
        ++inter_count;
      }
    }
  }
  EXPECT_GT(intra / intra_count, inter / inter_count);
}

}  // namespace
}  // namespace x2vec::embed
