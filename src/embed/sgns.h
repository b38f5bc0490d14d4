#pragma once

#include <cstdint>
#include <vector>

#include "base/budget.h"
#include "base/recovery.h"
#include "base/rng.h"
#include "base/status.h"
#include "embed/checkpoint.h"
#include "embed/stream.h"
#include "linalg/matrix.h"

namespace x2vec::embed {

/// Hyperparameters for skip-gram with negative sampling (the WORD2VEC
/// objective of Section 2.1 [Mikolov et al.]) and for PV-DBOW (the
/// document-embedding objective behind GRAPH2VEC).
struct SgnsOptions {
  int dimension = 32;
  int window = 4;           ///< Symmetric context window (skip-gram only).
  int negatives = 5;        ///< Negative samples per positive pair.
  int epochs = 5;
  double learning_rate = 0.05;  ///< Linearly decayed to 1e-4 of itself.
  double noise_power = 0.75;    ///< Exponent of the unigram noise table.
  /// Numeric-health guardrails: gradient clipping plus NaN/Inf detection
  /// with LR-backoff retries. The defaults never engage on a healthy run.
  RecoveryPolicy recovery;
  /// Opt-in crash-safe persistence: with a non-empty dir the trainer saves
  /// a checksummed snapshot (model, RNG engine state, schedule position)
  /// at every every_n_epochs-th epoch barrier and, on the next run with
  /// the same options/data/seed, resumes from the newest intact one. A
  /// resumed run finishes bit-identical to an uninterrupted one; corrupt
  /// or stale files are skipped, never trusted.
  CheckpointOptions checkpoint;
};

/// Trained embedding: `input` holds the vectors normally used downstream
/// (one row per token / document), `output` the context-side vectors.
struct SgnsModel {
  linalg::Matrix input;
  linalg::Matrix output;
};

/// kInvalidArgument naming the first bad field (non-positive dimension /
/// window / negatives, negative epochs, non-finite or non-positive
/// learning rate), OK otherwise. Zero epochs is valid: it requests the
/// untrained (randomly initialised) baseline.
[[nodiscard]] Status ValidateSgnsOptions(const SgnsOptions& options);

/// ---- The four trainers: skip-gram (TrainSgns*: each token predicts its
/// window-clipped context) and PV-DBOW (TrainPvDbow*: each sentence is a
/// document predicting its tokens; `input` holds the document vectors),
/// each on two schedules. Sequential (Rng&): plain SGD in stream order.
/// Sharded (seed): batches of 32 sequences trained in parallel against
/// batch-start parameters, one Rng::Fork stream per (epoch attempt,
/// sequence), applied in sequence order — bit-identical at any thread
/// count, numerically different from sequential. Both share negative
/// sampling, the exact linear LR decay, the per-epoch health check with
/// LR-backoff recovery (kInternal once exhausted) and checkpointing.
/// Budget: one unit per positive pair (charged per sequence up front when
/// sharded); kResourceExhausted when it runs out.
///
/// Skip-gram takes the caller's CountStream `stats` (this window) and
/// noise table, whose size is the vocabulary; PV-DBOW counts the source
/// itself. Every later pass must replay the counted stream. kInvalidArgument
/// for a token outside the model or an extra sentence, bad options, an
/// empty noise table or counted tokens beyond it, and for PV-DBOW a
/// non-positive vocab_size or no tokens.

[[nodiscard]] StatusOr<SgnsModel> TrainSgnsStreaming(
    SentenceSource& source, const StreamStats& stats,
    const std::vector<double>& noise_weights, const SgnsOptions& options,
    Rng& rng, Budget& budget);

[[nodiscard]] StatusOr<SgnsModel> TrainSgnsShardedStreaming(
    SentenceSource& source, const StreamStats& stats,
    const std::vector<double>& noise_weights, const SgnsOptions& options,
    uint64_t seed, Budget& budget);

[[nodiscard]] StatusOr<SgnsModel> TrainPvDbowStreaming(
    SentenceSource& source, int vocab_size, const SgnsOptions& options,
    Rng& rng, Budget& budget);

[[nodiscard]] StatusOr<SgnsModel> TrainPvDbowShardedStreaming(
    SentenceSource& source, int vocab_size, const SgnsOptions& options,
    uint64_t seed, Budget& budget);

}  // namespace x2vec::embed
