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

/// RESCAL (Section 2.3 [Nickel et al.]): one bilinear form B_R per relation
/// with scores x_h^T B_R x_t ≈ [ (h,R,t) holds ]. Trained here by gradient
/// descent on the squared reconstruction error
/// sum_R || X B_R X^T - A_R ||_F^2 (the multi-relational matrix
/// factorisation view the paper describes).
struct RescalOptions {
  int dimension = 16;
  int epochs = 300;
  double learning_rate = 0.05;
  double l2 = 1e-3;
  /// Numeric-health guardrails: NaN/Inf detection with LR-backoff retries.
  /// The defaults never engage on a healthy run.
  RecoveryPolicy recovery;
  /// Opt-in crash-safe persistence (see embed/checkpoint.h): snapshots at
  /// epoch barriers, resume from the newest intact checkpoint, final model
  /// bit-identical to an uninterrupted run.
  embed::CheckpointOptions checkpoint;
};

struct RescalModel {
  linalg::Matrix entities;                ///< n x d embedding matrix X.
  std::vector<linalg::Matrix> relations;  ///< d x d matrices B_R.

  /// Bilinear plausibility score x_h^T B_R x_t.
  double Score(int head, int relation, int tail) const;

  /// Total squared reconstruction error over all relations.
  double ReconstructionError(const KnowledgeGraph& kg) const;
};

/// kInvalidArgument naming the first bad field (non-positive dimension,
/// negative epochs, non-finite or non-positive learning rate, negative
/// l2), OK otherwise. Zero epochs requests the untrained baseline.
[[nodiscard]] Status ValidateRescalOptions(const RescalOptions& options);

/// Trains RESCAL. One work unit = one relation processed in one
/// full-batch epoch. The epochs run through the shared epoch loop of
/// embed/epochs.h: after every epoch the factor matrices and the
/// accumulated residual Frobenius loss are checked for NaN/Inf and runaway
/// magnitudes; on failure the loop backs off the learning rate (and the
/// clip, which RESCAL never reads), reseeds the offending rows and retries
/// the epoch, giving up with kInternal after `options.recovery.max_retries`
/// cumulative retries. Returns kResourceExhausted when the budget runs out
/// and kInvalidArgument for bad options or a degenerate knowledge graph,
/// never an abort. Pass an unlimited Budget for an unbounded run.
[[nodiscard]] StatusOr<RescalModel> TrainRescalBudgeted(const KnowledgeGraph& kg,
                                          const RescalOptions& options,
                                          Rng& rng, Budget& budget);

}  // namespace x2vec::kg
