#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "base/budget.h"
#include "base/recovery.h"
#include "base/rng.h"
#include "base/status.h"
#include "embed/checkpoint.h"
#include "linalg/matrix.h"

namespace x2vec::embed {

/// The one epoch loop behind every iterative trainer: skip-gram and
/// PV-DBOW on both schedules (embed/sgns.cc), TransE and RESCAL (kg/). A
/// trainer supplies its parameter matrices, its fingerprint, its fresh-start
/// initialisation and one epoch pass; RunEpochs does the rest the same way
/// for all of them. Every checkpoint has a "model" section with the
/// parameters in EpochLoop::params order, and a "trainer" section with the
/// next epoch, the schedule position (epoch attempts times position_unit),
/// the LR scale, the clip, the retries and the engine state of `rng`.

/// Where a run stands at an epoch barrier: with the parameters and the
/// generator, all a resumed run needs to finish bit-identically.
struct EpochState {
  int next_epoch = 0;
  int64_t attempt = 0;    ///< Epoch passes so far, retries included.
  double lr_scale = 1.0;  ///< Backed off on each numeric recovery.
  double clip = 0.0;      ///< Starts at RecoveryPolicy::clip_norm.
  int retries = 0;
};

/// One parameter matrix and the shape this run gives it.
struct EpochParam {
  linalg::Matrix* matrix;
  int rows;
  int cols;
};

/// One trainer's run as RunEpochs sees it.
struct EpochLoop {
  CheckpointKind kind;
  std::string_view operation;   ///< Names the run in budget/divergence errors.
  std::string_view span;        ///< Trace span around the epoch loop.
  std::string_view epoch_span;  ///< Trace span around each epoch.
  int64_t work_per_epoch;       ///< Work each epoch adds to both spans.
  int epochs;
  const RecoveryPolicy& recovery;
  const CheckpointOptions& checkpoint;
  std::vector<EpochParam> params;
  double init;  ///< Recovery reseeds unhealthy rows in [-init, init].
  Rng& rng;     ///< Checkpointed with the run; recovery reseeds from it.
  /// Binds checkpoints to this exact run; called only when checkpointing.
  std::function<uint64_t()> fingerprint;
  /// Fills the zeroed parameters on a fresh start (not on a resume). When
  /// unset, every entry is drawn uniformly in [-init, init] from `rng`, in
  /// `params` order.
  std::function<void()> initialize = nullptr;
  /// One pass over the data at `state`; returns the epoch loss.
  std::function<StatusOr<double>(const EpochState&, Budget&)> epoch;
  /// Checkpointed schedule position per epoch attempt.
  int64_t position_unit = 1;
};

/// Checks the CheckpointOptions and the budget, resumes from the newest
/// matching checkpoint (or allocates and initialises), then runs each epoch
/// pass followed by the numeric-health check of the loss and every
/// parameter, with LR and clip backoff, reseed and retry (base/recovery.h),
/// and a checkpoint at every every_n_epochs-th healthy barrier. Leaves the
/// trained parameters in `loop.params`. kInvalidArgument for bad
/// CheckpointOptions, kResourceExhausted when `budget` runs out, kInternal
/// naming `operation` once recovery.max_retries are used up, and the
/// checkpoint layer's error when a resume fails to decode or a save fails.
[[nodiscard]] Status RunEpochs(const EpochLoop& loop, Budget& budget);

}  // namespace x2vec::embed
