// Parallel-vs-serial equivalence sweep (ctest label: parallel).
//
// The determinism contract of base/parallel: every parallelized path must
// produce bit-identical results at any thread count, with the 1-thread run
// as the serial reference. Each test below computes the same artifact at
// thread counts {1, 2, 4, hardware} and requires exact equality — matrices
// via AllClose with tolerance 0.0, integer structures via operator== —
// across Gram matrices, WL feature vectors, walk corpora, the empirical
// walk-similarity estimator, the sharded SGNS / PV-DBOW trainers, the
// end-to-end parallel embedding pipelines built on them, and k-means with
// the cluster-pruned serving index built on it.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "corpus_training.h"
#include "embed/corpus.h"
#include "embed/graph2vec.h"
#include "embed/node_embeddings.h"
#include "embed/sgns.h"
#include "embed/walks.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "hom/embeddings.h"
#include "kernel/graph_kernels.h"
#include "kernel/node_kernels.h"
#include "kernel/wl_kernel.h"
#include "linalg/matrix.h"
#include "ml/neighbors.h"
#include "serve/index.h"
#include "wl/color_refinement.h"
#include "wl/kwl.h"

namespace x2vec {
namespace {

using graph::Graph;
using graph::GraphView;
using linalg::Matrix;

std::vector<int> SweepThreadCounts() {
  return {1, 2, 4, HardwareThreads()};
}

// Runs `compute` at every sweep thread count and checks each result is
// bit-identical to the 1-thread reference via `equal`.
template <typename Compute, typename Equal>
void ExpectThreadCountInvariant(Compute&& compute, Equal&& equal) {
  SetThreadCount(1);
  const auto reference = compute();
  for (int threads : SweepThreadCounts()) {
    SetThreadCount(threads);
    const auto result = compute();
    EXPECT_TRUE(equal(reference, result)) << "diverged at " << threads
                                          << " threads";
  }
  SetThreadCount(0);
}

template <typename Compute>
void ExpectMatrixInvariant(Compute&& compute) {
  ExpectThreadCountInvariant(std::forward<Compute>(compute),
                             [](const Matrix& a, const Matrix& b) {
                               return a.rows() == b.rows() &&
                                      a.cols() == b.cols() &&
                                      a.AllClose(b, 0.0);
                             });
}

std::vector<Graph> SmallDataset() {
  Rng rng = MakeRng(1234);
  std::vector<Graph> graphs = {Graph::Complete(4), Graph::Path(6),
                               Graph::Cycle(5),    Graph::Star(4),
                               Graph::CompleteBipartite(2, 3)};
  for (int i = 0; i < 5; ++i) {
    graphs.push_back(graph::ConnectedGnp(7, 0.4, rng));
  }
  return graphs;
}

// Gram entry points take a Budget. Every thread count runs them unlimited
// and under a generous deadline, read before every chunk of the feature
// pass and the fill; all must match the 1-thread unlimited run bit for bit.
template <typename Gram>
void ExpectGramInvariant(Gram&& gram) {
  SetThreadCount(1);
  Budget unlimited;
  const Matrix reference = gram(unlimited).value();
  for (int threads : SweepThreadCounts()) {
    SetThreadCount(threads);
    Budget deadline = Budget::Deadline(3600);
    for (Budget* budget : {&unlimited, &deadline}) {
      const Matrix result = gram(*budget).value();
      EXPECT_TRUE(result.rows() == reference.rows() &&
                  result.AllClose(reference, 0.0))
          << "diverged at " << threads << " threads"
          << (budget->limited() ? " under a deadline" : "");
    }
  }
  SetThreadCount(0);
}

TEST(GramDeterminismTest, WlSubtreeKernel) {
  const std::vector<Graph> graphs = SmallDataset();
  ExpectGramInvariant([&](Budget& budget) {
    return kernel::WlSubtreeKernelMatrix(graphs, 3, budget);
  });
}

TEST(GramDeterminismTest, WlSubtreeKernelOnALargeDataset) {
  // 400 graphs: 80200 Gram entries, so the fill's chunks are capped at
  // Budget::kClockCheckStride entries rather than split 64 ways.
  Rng rng = MakeRng(99);
  std::vector<Graph> graphs;
  for (int i = 0; i < 400; ++i) {
    graphs.push_back(graph::ConnectedGnp(5 + i % 4, 0.5, rng));
  }
  ExpectGramInvariant([&](Budget& budget) {
    return kernel::WlSubtreeKernelMatrix(graphs, 2, budget);
  });
}

TEST(GramDeterminismTest, DiscountedWlKernel) {
  const std::vector<Graph> graphs = SmallDataset();
  ExpectGramInvariant([&](Budget& budget) {
    return kernel::DiscountedWlKernelMatrix(graphs, 3, budget);
  });
}

TEST(GramDeterminismTest, WlShortestPathKernel) {
  const std::vector<Graph> graphs = SmallDataset();
  ExpectGramInvariant([&](Budget& budget) {
    return kernel::WlShortestPathKernelMatrix(graphs, 2, budget);
  });
}

TEST(GramDeterminismTest, TwoWlKernel) {
  const std::vector<Graph> graphs = SmallDataset();
  ExpectGramInvariant([&](Budget& budget) {
    return kernel::TwoWlKernelMatrix(graphs, 2, budget);
  });
}

TEST(GramDeterminismTest, ShortestPathKernel) {
  const std::vector<Graph> graphs = SmallDataset();
  ExpectGramInvariant([&](Budget& budget) {
    return kernel::ShortestPathKernelMatrix(graphs, budget);
  });
}

TEST(GramDeterminismTest, RandomWalkKernel) {
  const std::vector<Graph> graphs = SmallDataset();
  ExpectGramInvariant([&](Budget& budget) {
    return kernel::RandomWalkKernelMatrix(graphs, 0.1, 4, budget);
  });
}

TEST(GramDeterminismTest, RandomWalkKernelOnLabelledGraphs) {
  // Vertex labels make the label-match mask of every pair non-trivial.
  std::vector<Graph> graphs = SmallDataset();
  for (size_t i = 0; i < graphs.size(); ++i) {
    for (int v = 0; v < graphs[i].NumVertices(); ++v) {
      graphs[i].SetVertexLabel(v, static_cast<int>((v + i) % 3));
    }
  }
  ExpectGramInvariant([&](Budget& budget) {
    return kernel::RandomWalkKernelMatrix(graphs, 0.5, 3, budget);
  });
}

TEST(GramDeterminismTest, HomVectorKernel) {
  const std::vector<Graph> graphs = SmallDataset();
  const std::vector<hom::Pattern> family = hom::DefaultPatternFamily(12);
  ExpectGramInvariant([&](Budget& budget) {
    return kernel::HomVectorKernelMatrix(graphs, family, budget);
  });
}

TEST(GramDeterminismTest, ScaledHomKernel) {
  const std::vector<Graph> graphs = SmallDataset();
  const std::vector<hom::Pattern> family = hom::DefaultPatternFamily(12);
  ExpectGramInvariant([&](Budget& budget) {
    return kernel::ScaledHomKernelMatrix(graphs, family, budget);
  });
}

TEST(GramDeterminismTest, GraphletKernel) {
  const std::vector<Graph> graphs = SmallDataset();
  ExpectGramInvariant([&](Budget& budget) {
    return kernel::GraphletKernelMatrix(graphs, budget);
  });
}

TEST(GramDeterminismTest, DiffusionNodeKernel) {
  const Graph g = Graph::Cycle(9);
  ExpectMatrixInvariant([&] { return kernel::DiffusionKernel(g, 0.5); });
}

TEST(WlFeatureDeterminismTest, SubtreeFeatureVectors) {
  const std::vector<Graph> graphs = SmallDataset();
  ExpectThreadCountInvariant(
      [&] {
        Budget unlimited;
        return kernel::WlSubtreeFeatures(graphs, 3, unlimited).value();
      },
      [](const kernel::WlFeatureSet& a, const kernel::WlFeatureSet& b) {
        if (a.features.size() != b.features.size()) return false;
        for (size_t i = 0; i < a.features.size(); ++i) {
          if (a.features[i].entries != b.features[i].entries) return false;
        }
        return a.dimension == b.dimension;
      });
}

TEST(WlFeatureDeterminismTest, DatasetRefinementAtOneToEightThreads) {
  // graph2vec_wl's shape at half size: enough adjacency entries that
  // RefineDataset builds its signatures on the pool.
  Rng rng = MakeRng(4242);
  std::vector<Graph> graphs;
  for (int i = 0; i < 200; ++i) {
    graphs.push_back(graph::ErdosRenyiGnp(30, i % 2 == 0 ? 0.10 : 0.25, rng));
  }
  wl::RefinementOptions options;
  options.max_rounds = 3;
  SetThreadCount(1);
  const wl::RefinementResult reference = wl::RefineDataset(graphs, options);
  for (int threads : {1, 2, 4, 8}) {
    SetThreadCount(threads);
    const wl::RefinementResult result = wl::RefineDataset(graphs, options);
    EXPECT_EQ(result.round_colors, reference.round_colors) << threads;
    EXPECT_EQ(result.colors_per_round, reference.colors_per_round) << threads;
    EXPECT_EQ(result.stable_round, reference.stable_round) << threads;
  }
  SetThreadCount(0);
}

TEST(WlFeatureDeterminismTest, TupleRefinementAtOneToEightThreads) {
  // Enough row entries that KwlRefineDataset builds its rows on the pool,
  // in chunks of at most 1024 tuples that each read the deadline first.
  Rng rng = MakeRng(4343);
  for (const int k : {2, 3}) {
    std::vector<Graph> graphs;
    for (int i = 0; i < (k == 2 ? 40 : 10); ++i) {
      graphs.push_back(graph::ErdosRenyiGnp(k == 2 ? 12 : 8,
                                            i % 2 == 0 ? 0.2 : 0.4, rng));
    }
    SetThreadCount(1);
    Budget unlimited;
    const StatusOr<wl::RefinementResult> reference =
        wl::KwlRefineDataset(graphs, k, 3, unlimited);
    ASSERT_TRUE(reference.ok());
    for (int threads : {1, 2, 4, 8}) {
      SetThreadCount(threads);
      for (Budget budget : {Budget(), Budget::Deadline(3600.0)}) {
        const StatusOr<wl::RefinementResult> result =
            wl::KwlRefineDataset(graphs, k, 3, budget);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result->round_colors, reference->round_colors) << threads;
        EXPECT_EQ(result->colors_per_round, reference->colors_per_round)
            << threads;
        EXPECT_EQ(result->stable_round, reference->stable_round) << threads;
      }
    }
  }
  SetThreadCount(0);
}

TEST(WalkDeterminismTest, ParallelCorpusBitIdentical) {
  Rng rng = MakeRng(77);
  const Graph g = graph::ConnectedGnp(20, 0.25, rng);
  embed::WalkOptions options;
  options.walks_per_node = 4;
  options.walk_length = 12;
  ExpectThreadCountInvariant(
      [&] { return embed::GenerateWalksParallel(GraphView(g), options, 99); },
      [](const std::vector<std::vector<int>>& a,
         const std::vector<std::vector<int>>& b) { return a == b; });
}

TEST(WalkDeterminismTest, BiasedParallelCorpusBitIdentical) {
  Rng rng = MakeRng(78);
  const Graph g = graph::ConnectedGnp(15, 0.3, rng);
  embed::WalkOptions options;
  options.walks_per_node = 3;
  options.walk_length = 8;
  options.p = 0.5;
  options.q = 2.0;
  ExpectThreadCountInvariant(
      [&] { return embed::GenerateWalksParallel(GraphView(g), options, 1); },
      [](const std::vector<std::vector<int>>& a,
         const std::vector<std::vector<int>>& b) { return a == b; });
}

TEST(WalkDeterminismTest, EmpiricalSimilarityBitIdentical) {
  Rng dataset_rng = MakeRng(79);
  const Graph g = graph::ConnectedGnp(12, 0.3, dataset_rng);
  ExpectMatrixInvariant([&] {
    Rng rng = MakeRng(5);  // Fresh generator per run: same base draw.
    return embed::EmpiricalWalkSimilarity(g, 2, 200, rng);
  });
}

embed::Corpus ToyCorpus() {
  // A deterministic token corpus with a skewed unigram distribution.
  std::vector<std::vector<std::string>> sentences;
  for (int s = 0; s < 40; ++s) {
    std::vector<std::string> sentence;
    for (int t = 0; t < 12; ++t) {
      sentence.push_back("w" + std::to_string((s * 7 + t * t) % 20));
    }
    sentences.push_back(std::move(sentence));
  }
  return embed::Corpus::FromSentences(sentences);
}

TEST(TrainerDeterminismTest, ShardedSgnsBitIdentical) {
  const embed::Corpus corpus = ToyCorpus();
  embed::SgnsOptions options;
  options.dimension = 8;
  options.epochs = 3;
  ExpectThreadCountInvariant(
      [&] {
        Budget unlimited;
        return *TrainSgnsShardedOnCorpus(corpus, options, 321, unlimited);
      },
      [](const embed::SgnsModel& a, const embed::SgnsModel& b) {
        return a.input.AllClose(b.input, 0.0) &&
               a.output.AllClose(b.output, 0.0);
      });
}

TEST(TrainerDeterminismTest, ShardedPvDbowBitIdentical) {
  std::vector<std::vector<int>> documents;
  for (int d = 0; d < 50; ++d) {
    std::vector<int> doc;
    for (int t = 0; t < 15; ++t) doc.push_back((d * 5 + t * 3) % 30);
    documents.push_back(std::move(doc));
  }
  embed::SgnsOptions options;
  options.dimension = 8;
  options.epochs = 3;
  ExpectThreadCountInvariant(
      [&] {
        Budget unlimited;
        return *TrainPvDbowShardedOnDocuments(documents, 30, options, 7,
                                              unlimited);
      },
      [](const embed::SgnsModel& a, const embed::SgnsModel& b) {
        return a.input.AllClose(b.input, 0.0) &&
               a.output.AllClose(b.output, 0.0);
      });
}

TEST(TrainerDeterminismTest, ShardedSgnsRespectsBudget) {
  const embed::Corpus corpus = ToyCorpus();
  embed::SgnsOptions options;
  options.dimension = 8;
  options.epochs = 2;
  for (int threads : SweepThreadCounts()) {
    SetThreadCount(threads);
    Budget tiny = Budget::WorkUnits(25);
    const StatusOr<embed::SgnsModel> model =
        TrainSgnsShardedOnCorpus(corpus, options, 321, tiny);
    ASSERT_FALSE(model.ok()) << threads << " threads";
    EXPECT_EQ(model.status().code(), StatusCode::kResourceExhausted);
  }
  SetThreadCount(0);
}

TEST(PipelineDeterminismTest, DeepWalkStreamingBitIdentical) {
  Rng rng = MakeRng(80);
  const Graph g = graph::ConnectedGnp(14, 0.3, rng);
  embed::Node2VecOptions options;
  options.walks.walks_per_node = 3;
  options.walks.walk_length = 8;
  options.sgns.dimension = 8;
  options.sgns.epochs = 2;
  ExpectMatrixInvariant([&] {
    Budget unlimited;
    return *embed::DeepWalkEmbeddingStreaming(GraphView(g), options, 55,
                                              unlimited);
  });
}

TEST(PipelineDeterminismTest, Node2VecStreamingBitIdentical) {
  Rng rng = MakeRng(81);
  const Graph g = graph::ConnectedGnp(14, 0.3, rng);
  embed::Node2VecOptions options;
  options.walks.walks_per_node = 3;
  options.walks.walk_length = 8;
  options.walks.p = 0.5;
  options.walks.q = 2.0;
  options.sgns.dimension = 8;
  options.sgns.epochs = 2;
  ExpectMatrixInvariant([&] {
    Budget unlimited;
    return *embed::Node2VecEmbeddingStreaming(GraphView(g), options, 56,
                                              unlimited);
  });
}

TEST(PipelineDeterminismTest, Graph2VecParallelBitIdentical) {
  const std::vector<Graph> graphs = SmallDataset();
  embed::Graph2VecOptions options;
  options.wl_rounds = 2;
  options.sgns.dimension = 8;
  options.sgns.epochs = 2;
  ExpectMatrixInvariant([&] {
    Budget unlimited;
    return *embed::Graph2VecEmbeddingParallel(graphs, options, 91, unlimited);
  });
}

TEST(SharedClassifierDeterminismTest, ConcurrentKnnPredictBitIdentical) {
  // Regression for the shared mutable scratch_ race: Predict was const but
  // wrote a classifier-owned buffer, so two threads sharing one fitted
  // KnnClassifier raced silently. Predict now takes per-call (here:
  // per-work-item) scratch, so one instance serves concurrent queries —
  // this test runs under -L parallel and therefore under the tsan gate.
  Rng rng = MakeRng(77);
  const int kRows = 64;
  const int kQueries = 256;
  linalg::Matrix features(kRows, 8);
  std::vector<int> labels(kRows);
  for (int i = 0; i < kRows; ++i) {
    labels[i] = i % 3;
    for (int j = 0; j < 8; ++j) features(i, j) = Gaussian(rng);
  }
  linalg::Matrix queries(kQueries, 8);
  for (int i = 0; i < kQueries; ++i) {
    for (int j = 0; j < 8; ++j) queries(i, j) = Gaussian(rng);
  }
  ml::KnnClassifier knn(5);
  knn.Fit(features, labels);
  ExpectThreadCountInvariant(
      [&] {
        return ParallelMap(kQueries, [&](int64_t q) {
          ml::KnnClassifier::Scratch scratch;
          return knn.Predict(queries.ConstRowSpan(static_cast<int>(q)),
                             scratch);
        });
      },
      [](const std::vector<int>& a, const std::vector<int>& b) {
        return a == b;
      });
}

// 4096 rows scattered around 64 centres: every k-means stage splits into
// the 64 chunks of the automatic grain.
Matrix ClusteredRows() {
  const Matrix centers = Matrix::Random(64, 8, 10.0, /*seed=*/61);
  Rng rng = MakeRng(62);
  Matrix rows(4096, 8);
  for (int i = 0; i < rows.rows(); ++i) {
    const int c = static_cast<int>(UniformInt(rng, 0, centers.rows() - 1));
    for (int j = 0; j < rows.cols(); ++j) {
      rows(i, j) = centers(c, j) + Gaussian(rng);
    }
  }
  return rows;
}

TEST(KMeansDeterminismTest, ClusteringBitIdentical) {
  const Matrix rows = ClusteredRows();
  ExpectThreadCountInvariant(
      [&] {
        Rng rng = MakeRng(63);
        return ml::KMeans(rows, 64, rng, /*max_iterations=*/25);
      },
      [](const ml::KMeansResult& a, const ml::KMeansResult& b) {
        return a.centroids.AllClose(b.centroids, 0.0) &&
               a.assignment == b.assignment && a.inertia == b.inertia &&
               a.iterations == b.iterations;
      });
}

TEST(KMeansDeterminismTest, PrunedIndexAnswersBitIdentical) {
  // The index is rebuilt at each thread count; its answers to one query
  // batch must match the 1-thread build's, scores and ties included.
  const Matrix rows = ClusteredRows();
  Rng rng = MakeRng(64);
  Matrix queries(256, rows.cols());
  for (int q = 0; q < queries.rows(); ++q) {
    for (int j = 0; j < rows.cols(); ++j) {
      queries(q, j) = rows((q * 31) % rows.rows(), j) + Gaussian(rng);
    }
  }
  serve::IndexOptions options;
  options.kind = serve::IndexKind::kClusterPruned;
  options.clusters = 64;
  options.probes = 4;
  ExpectThreadCountInvariant(
      [&] {
        const auto index =
            serve::BuildIndex(rows, serve::IndexMetric::kL2, options).value();
        std::vector<std::vector<serve::Neighbor>> answers;
        for (int q = 0; q < queries.rows(); ++q) {
          Budget unlimited;
          answers.push_back(
              index->TopK(queries.ConstRowSpan(q), 10, unlimited).value());
        }
        return answers;
      },
      [](const auto& a, const auto& b) { return a == b; });
}

TEST(PipelineDeterminismTest, SequentialEmbeddersThreadCountInvariant) {
  // The Budgeted paths stream their walks from per-walk forked streams;
  // the embedding must not depend on the thread count.
  Rng dataset_rng = MakeRng(82);
  const Graph g = graph::ConnectedGnp(12, 0.35, dataset_rng);
  embed::Node2VecOptions options;
  options.walks.walks_per_node = 2;
  options.walks.walk_length = 6;
  options.sgns.dimension = 8;
  options.sgns.epochs = 2;
  ExpectMatrixInvariant([&] {
    Rng rng = MakeRng(9);
    Budget unlimited;
    return *embed::DeepWalkEmbeddingBudgeted(GraphView(g), options, rng,
                                             unlimited);
  });
}

}  // namespace
}  // namespace x2vec
