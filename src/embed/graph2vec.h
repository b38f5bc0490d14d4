#pragma once

#include <vector>

#include "base/rng.h"
#include "embed/sgns.h"
#include "graph/graph.h"
#include "linalg/matrix.h"

namespace x2vec::embed {

/// GRAPH2VEC options (Section 2.5 [Narayanan et al.]): each graph is a
/// "document" whose "words" are the WL colours (rooted-subgraph names) of
/// its vertices across refinement rounds 0..wl_rounds, trained with
/// PV-DBOW.
struct Graph2VecOptions {
  int wl_rounds = 3;
  /// PV-DBOW training knobs. Crash-safe checkpointing rides here too: set
  /// sgns.checkpoint.dir and the trainer snapshots at epoch barriers and
  /// resumes on the next call — the WL document build is a pure function
  /// of (graphs, wl_rounds), so a restarted process reconstructs the same
  /// corpus and the checkpoint fingerprint matches.
  SgnsOptions sgns;
};

/// Transductive whole-graph embedding: one row per input graph. Graphs are
/// refined jointly (wl::RefineDataset: the same colour ids as on their
/// disjoint union) so colour-words are shared across the dataset; the
/// embedding exists only for graphs present at training time (the
/// "transductive" caveat Section 2.5 raises). Both variants build the same
/// WL documents and feed them to PV-DBOW through a CorpusSource: the
/// Budgeted one with the sequential trainer (TrainPvDbowStreaming, drawing
/// from `rng`), the Parallel one with the sharded trainer
/// (TrainPvDbowShardedStreaming), bit-identical at any thread count for a
/// fixed seed. Budget semantics are the trainer's (one work unit per
/// positive document-word pair). kInvalidArgument for an empty dataset, a
/// dataset mixing directed and undirected graphs, or bad options;
/// otherwise kResourceExhausted / kInternal as the trainer returns them.
[[nodiscard]] StatusOr<linalg::Matrix> Graph2VecEmbeddingBudgeted(
    const std::vector<graph::Graph>& graphs, const Graph2VecOptions& options,
    Rng& rng, Budget& budget);

[[nodiscard]] StatusOr<linalg::Matrix> Graph2VecEmbeddingParallel(
    const std::vector<graph::Graph>& graphs, const Graph2VecOptions& options,
    uint64_t seed, Budget& budget);

}  // namespace x2vec::embed
