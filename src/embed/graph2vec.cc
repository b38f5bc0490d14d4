#include "embed/graph2vec.h"

#include <utility>

#include "wl/color_refinement.h"

namespace x2vec::embed {
namespace {

struct WlDocuments {
  std::vector<std::vector<int>> documents;
  int vocab_size = 0;
};

// Jointly refines the dataset (shared colour ids) and turns each graph
// into its bag of (round, colour) words — the shared front half of every
// graph2vec path.
WlDocuments BuildWlDocuments(const std::vector<graph::Graph>& graphs,
                             int wl_rounds) {
  wl::RefinementOptions wl_options;
  wl_options.max_rounds = wl_rounds;
  const wl::RefinementResult refinement =
      wl::RefineDataset(graphs, wl_options);

  // Word id = (round, colour) flattened with a per-round offset.
  const int rounds = static_cast<int>(refinement.round_colors.size());
  std::vector<int> round_offset(rounds, 0);
  WlDocuments out;
  for (int r = 0; r < rounds; ++r) {
    round_offset[r] = out.vocab_size;
    out.vocab_size += refinement.colors_per_round[r];
  }

  out.documents.resize(graphs.size());
  int first = 0;  // Graph g's vertices follow those of graphs 0..g-1.
  for (size_t g = 0; g < graphs.size(); ++g) {
    const int n = graphs[g].NumVertices();
    out.documents[g].reserve(static_cast<size_t>(n) * rounds);
    for (int v = first; v < first + n; ++v) {
      for (int r = 0; r < rounds; ++r) {
        out.documents[g].push_back(round_offset[r] +
                                   refinement.round_colors[r][v]);
      }
    }
    first += n;
  }
  return out;
}

// The one graph2vec body: WL documents through a CorpusSource into
// `train`, which returns the PV-DBOW model for (source, vocab size).
template <class TrainFn>
StatusOr<linalg::Matrix> Graph2Vec(const std::vector<graph::Graph>& graphs,
                                   const Graph2VecOptions& options,
                                   Budget& budget, TrainFn&& train) {
  if (graphs.empty()) {
    return Status::InvalidArgument(
        "graph2vec needs at least one input graph");
  }
  if (Status valid = wl::CheckDirectedness(graphs, "graph2vec");
      !valid.ok()) {
    return valid;
  }
  if (budget.Exhausted()) {
    return budget.ExhaustedError("graph2vec embedding");
  }
  const WlDocuments wl = BuildWlDocuments(graphs, options.wl_rounds);
  CorpusSource source(wl.documents);
  StatusOr<SgnsModel> model = train(source, wl.vocab_size);
  if (!model.ok()) return model.status();
  return std::move(model->input);
}

}  // namespace

StatusOr<linalg::Matrix> Graph2VecEmbeddingBudgeted(
    const std::vector<graph::Graph>& graphs, const Graph2VecOptions& options,
    Rng& rng, Budget& budget) {
  return Graph2Vec(graphs, options, budget,
                   [&](SentenceSource& source, int vocab_size) {
                     return TrainPvDbowStreaming(source, vocab_size,
                                                 options.sgns, rng, budget);
                   });
}

StatusOr<linalg::Matrix> Graph2VecEmbeddingParallel(
    const std::vector<graph::Graph>& graphs, const Graph2VecOptions& options,
    uint64_t seed, Budget& budget) {
  return Graph2Vec(graphs, options, budget,
                   [&](SentenceSource& source, int vocab_size) {
                     return TrainPvDbowShardedStreaming(
                         source, vocab_size, options.sgns, seed, budget);
                   });
}

}  // namespace x2vec::embed
