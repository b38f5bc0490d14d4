#pragma once

#include <vector>

#include "base/budget.h"
#include "base/recovery.h"
#include "base/rng.h"
#include "base/status.h"
#include "embed/checkpoint.h"
#include "kg/knowledge_graph.h"
#include "linalg/matrix.h"

namespace x2vec::kg {

/// TransE (Section 2.3 [Bordes et al.]): embeds entities and relations so
/// that x_head + t_relation ≈ x_tail; trained with margin ranking loss over
/// corrupted triples. Entity vectors are renormalised to the unit sphere
/// each epoch, as in the original algorithm.
struct TransEOptions {
  int dimension = 24;
  int epochs = 200;
  double learning_rate = 0.02;
  double margin = 1.0;
  /// Numeric-health guardrails: step clipping plus NaN/Inf detection with
  /// LR-backoff retries. The defaults never engage on a healthy run.
  RecoveryPolicy recovery;
  /// Opt-in crash-safe persistence (see embed/checkpoint.h): snapshots at
  /// epoch barriers, resume from the newest intact checkpoint, final model
  /// bit-identical to an uninterrupted run.
  embed::CheckpointOptions checkpoint;
};

struct TransEModel {
  linalg::Matrix entities;   ///< One row per entity.
  linalg::Matrix relations;  ///< One row per relation (the translations t).

  /// L2 dissimilarity ||x_h + t_r - x_t|| — lower means more plausible.
  double Score(int head, int relation, int tail) const;

  /// Rank of the true tail among all entities when (head, relation, ?) is
  /// scored, filtered to ignore other known-true tails.
  int TailRank(const KnowledgeGraph& kg, const Triple& triple) const;
};

/// kInvalidArgument naming the first bad field (non-positive dimension,
/// negative epochs, non-finite or non-positive learning rate, negative
/// margin), OK otherwise. Zero epochs requests the untrained baseline.
[[nodiscard]] Status ValidateTransEOptions(const TransEOptions& options);

/// Trains TransE. One work unit = one training triple in one epoch. The
/// epochs run through the shared epoch loop of embed/epochs.h: after every
/// epoch the embeddings and accumulated positive energy are checked for
/// NaN/Inf and runaway magnitudes; on failure the loop backs off the
/// learning rate, tightens the step clip, reseeds the offending rows and
/// retries the epoch, giving up with kInternal after
/// `options.recovery.max_retries` cumulative retries. Returns
/// kResourceExhausted when the budget runs out and kInvalidArgument for bad
/// options or a degenerate knowledge graph, never an abort. Pass an
/// unlimited Budget for an unbounded run.
[[nodiscard]] StatusOr<TransEModel> TrainTransEBudgeted(const KnowledgeGraph& kg,
                                          const TransEOptions& options,
                                          Rng& rng, Budget& budget);

/// Link-prediction evaluation: filtered tail ranks for every test triple.
std::vector<int> TailRanks(const TransEModel& model, const KnowledgeGraph& kg,
                           const std::vector<Triple>& test);

}  // namespace x2vec::kg
