#include "embed/node_embeddings.h"

#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "base/validation.h"
#include "embed/stream.h"
#include "graph/algorithms.h"
#include "linalg/eigen.h"

namespace x2vec::embed {

linalg::Matrix SpectralAdjacencyEmbedding(const graph::Graph& g, int d) {
  return linalg::SvdEmbedding(g.AdjacencyMatrix(), d);
}

linalg::Matrix SpectralSimilarityEmbedding(const graph::Graph& g, int d,
                                           double c) {
  return linalg::SvdEmbedding(graph::ExpDistanceSimilarity(g, c), d);
}

linalg::Matrix LaplacianEigenmapEmbedding(const graph::Graph& g, int d) {
  const int n = g.NumVertices();
  X2VEC_CHECK(d >= 1 && d < n);
  // Combinatorial Laplacian L = D - A.
  linalg::Matrix laplacian(n, n);
  for (const graph::Edge& e : g.Edges()) {
    laplacian(e.u, e.v) -= e.weight;
    laplacian(e.v, e.u) -= e.weight;
    laplacian(e.u, e.u) += e.weight;
    laplacian(e.v, e.v) += e.weight;
  }
  const linalg::EigenDecomposition eig = linalg::SymmetricEigen(laplacian);
  // Eigenvalues are sorted descending; take the d smallest with
  // eigenvalue above the zero tolerance (skipping component indicators).
  std::vector<int> kept;
  for (int j = n - 1; j >= 0 && static_cast<int>(kept.size()) < d; --j) {
    if (eig.values[j] < 1e-9) continue;  // Trivial/zero modes.
    kept.push_back(j);
  }
  // Row-major fill over row views: each vertex's coordinates are gathered
  // from its eigenvector row in one pass.
  linalg::Matrix embedding(n, d);
  for (int v = 0; v < n; ++v) {
    const std::span<const double> vectors_row = eig.vectors.ConstRowSpan(v);
    const std::span<double> out = embedding.RowSpan(v);
    for (size_t p = 0; p < kept.size(); ++p) out[p] = vectors_row[kept[p]];
  }
  // Graphs with many components may not have d non-zero modes; the
  // remaining coordinates stay zero (component indicators carry no
  // geometry anyway).
  return embedding;
}

linalg::Matrix IsomapEmbedding(const graph::Graph& g, int d) {
  const int n = g.NumVertices();
  X2VEC_CHECK(d >= 1 && d <= n);
  const auto dist = graph::AllPairsShortestPaths(g);
  // Disconnected pairs get (max finite distance + 1), the usual Isomap
  // convention for multi-component graphs.
  int max_finite = 0;
  for (const auto& row : dist) {
    for (int value : row) max_finite = std::max(max_finite, value);
  }
  linalg::Matrix squared(n, n);
  for (int u = 0; u < n; ++u) {
    const std::span<double> row = squared.RowSpan(u);
    for (int v = 0; v < n; ++v) {
      const double distance =
          dist[u][v] >= 0 ? dist[u][v] : max_finite + 1.0;
      row[v] = distance * distance;
    }
  }
  // Classical MDS: B = -1/2 J D^2 J, embed along top eigenvectors of B.
  linalg::Matrix centering = linalg::Matrix::Identity(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) centering(i, j) -= 1.0 / n;
  }
  const linalg::Matrix b = centering * squared * centering * (-0.5);
  const linalg::EigenDecomposition eig = linalg::SymmetricEigen(b);
  std::vector<double> scale(d);
  for (int j = 0; j < d; ++j) {
    scale[j] = eig.values[j] > 1e-12 ? std::sqrt(eig.values[j]) : 0.0;
  }
  // Row-major fill over row views, one pass per vertex.
  linalg::Matrix embedding(n, d);
  for (int v = 0; v < n; ++v) {
    const std::span<const double> vectors_row = eig.vectors.ConstRowSpan(v);
    const std::span<double> out = embedding.RowSpan(v);
    for (int j = 0; j < d; ++j) out[j] = vectors_row[j] * scale[j];
  }
  return embedding;
}

namespace {

// The one walk + skip-gram body: validate, WalkSource -> CountStream ->
// NoiseFromCounts(base_count 1) -> `train`, which consumes the walk stream
// with its counts and noise table and returns the trained model.
template <class TrainFn>
StatusOr<linalg::Matrix> WalkSkipGram(const graph::GraphView& g,
                                      const WalkOptions& walk_options,
                                      const SgnsOptions& sgns,
                                      uint64_t walk_seed, Budget& budget,
                                      TrainFn&& train) {
  if (budget.Exhausted()) {
    return budget.ExhaustedError("walk + skip-gram embedding");
  }
  const int n = g.NumVertices();
  if (n == 0) {
    return Status::InvalidArgument(
        "SGNS training needs a non-empty vocabulary");
  }
  if (Status status = ValidateOptions({
          {"walks_per_node", static_cast<double>(walk_options.walks_per_node),
           OptionCheck::Rule::kNonNegative},
          {"walk_length", static_cast<double>(walk_options.walk_length),
           OptionCheck::Rule::kPositive},
          {"p", walk_options.p, OptionCheck::Rule::kPositiveFinite},
          {"q", walk_options.q, OptionCheck::Rule::kPositiveFinite},
      });
      !status.ok()) {
    return status;
  }
  WalkSource walks(g, walk_options, walk_seed);
  if (!budget.Spend(walks.NumSentences())) {
    return budget.ExhaustedError("walk + skip-gram embedding");
  }
  const StreamStats stats =
      CountStream(walks, sgns.window, /*skipgram_window=*/true, n);
  const std::vector<double> noise = NoiseFromCounts(
      stats.token_counts, n, sgns.noise_power, /*base_count=*/1);
  StatusOr<SgnsModel> model = train(walks, stats, noise);
  if (!model.ok()) return model.status();
  return std::move(model->input);
}

WalkOptions Uniform(WalkOptions walks) {
  walks.p = 1.0;
  walks.q = 1.0;
  return walks;
}

StatusOr<linalg::Matrix> EmbedSequential(const graph::GraphView& g,
                                         const WalkOptions& walks,
                                         const SgnsOptions& sgns, Rng& rng,
                                         Budget& budget) {
  return WalkSkipGram(g, walks, sgns, rng(), budget,
                      [&](SentenceSource& source, const StreamStats& stats,
                          const std::vector<double>& noise) {
                        return TrainSgnsStreaming(source, stats, noise, sgns,
                                                  rng, budget);
                      });
}

StatusOr<linalg::Matrix> EmbedSharded(const graph::GraphView& g,
                                      const WalkOptions& walks,
                                      const SgnsOptions& sgns, uint64_t seed,
                                      Budget& budget) {
  return WalkSkipGram(g, walks, sgns, MixSeed(seed, 0), budget,
                      [&](SentenceSource& source, const StreamStats& stats,
                          const std::vector<double>& noise) {
                        return TrainSgnsShardedStreaming(
                            source, stats, noise, sgns, MixSeed(seed, 1),
                            budget);
                      });
}

}  // namespace

StatusOr<linalg::Matrix> DeepWalkEmbeddingBudgeted(
    const graph::GraphView& g, const Node2VecOptions& options, Rng& rng,
    Budget& budget) {
  return EmbedSequential(g, Uniform(options.walks), options.sgns, rng, budget);
}

StatusOr<linalg::Matrix> Node2VecEmbeddingBudgeted(
    const graph::GraphView& g, const Node2VecOptions& options, Rng& rng,
    Budget& budget) {
  return EmbedSequential(g, options.walks, options.sgns, rng, budget);
}

StatusOr<linalg::Matrix> DeepWalkEmbeddingStreaming(
    const graph::GraphView& g, const Node2VecOptions& options, uint64_t seed,
    Budget& budget) {
  return EmbedSharded(g, Uniform(options.walks), options.sgns, seed, budget);
}

StatusOr<linalg::Matrix> Node2VecEmbeddingStreaming(
    const graph::GraphView& g, const Node2VecOptions& options, uint64_t seed,
    Budget& budget) {
  return EmbedSharded(g, options.walks, options.sgns, seed, budget);
}

double ReconstructionError(const linalg::Matrix& embedding,
                           const linalg::Matrix& similarity) {
  return (embedding * embedding.Transposed() - similarity).FrobeniusNorm();
}

}  // namespace x2vec::embed
