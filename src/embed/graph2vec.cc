#include "embed/graph2vec.h"

#include <algorithm>
#include <utility>

#include "wl/color_refinement.h"

namespace x2vec::embed {
namespace {

struct WlDocuments {
  std::vector<std::vector<int>> documents;
  int vocab_size = 0;
};

// Jointly refines the dataset and turns each graph into its bag of
// (round, colour) words — the shared front half of every graph2vec path.
WlDocuments BuildWlDocuments(const std::vector<graph::Graph>& graphs,
                             int wl_rounds) {
  // Joint refinement for shared colour ids.
  graph::Graph joint = graphs[0];
  std::vector<int> offsets = {0};
  for (size_t i = 1; i < graphs.size(); ++i) {
    offsets.push_back(joint.NumVertices());
    joint = graph::DisjointUnion(joint, graphs[i]);
  }
  wl::RefinementOptions wl_options;
  wl_options.max_rounds = wl_rounds;
  const wl::RefinementResult refinement =
      wl::ColorRefinement(joint, wl_options);

  // Word id = (round, colour) flattened with a per-round offset.
  const int rounds = static_cast<int>(refinement.round_colors.size());
  std::vector<int> round_offset(rounds, 0);
  WlDocuments out;
  for (int r = 0; r < rounds; ++r) {
    round_offset[r] = out.vocab_size;
    out.vocab_size += refinement.colors_per_round[r];
  }

  out.documents.resize(graphs.size());
  for (size_t g = 0; g < graphs.size(); ++g) {
    for (int v = 0; v < graphs[g].NumVertices(); ++v) {
      for (int r = 0; r < rounds; ++r) {
        out.documents[g].push_back(
            round_offset[r] + refinement.round_colors[r][offsets[g] + v]);
      }
    }
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
