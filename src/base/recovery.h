#pragma once

namespace x2vec {

/// Numeric self-healing knobs shared by the iterative trainers (SGNS,
/// PV-DBOW, TransE, RESCAL), all applied by the one epoch loop of
/// embed/epochs.h. After every epoch it checks that the trainer's
/// parameters and epoch loss are numerically healthy: all entries finite
/// and below max_abs, loss finite. On a violation it
///   1. halves (scales by lr_backoff) the effective learning rate,
///   2. reseeds the offending rows with fresh small random values,
///   3. tightens the gradient-clip threshold by clip_backoff, and
///   4. retries the failed epoch,
/// up to max_retries times in total before giving up with kInternal.
///
/// The defaults are calibrated so a healthy run is bit-identical to an
/// unguarded one: the clip threshold and max_abs bound are orders of
/// magnitude above anything a converging run produces, so neither the clip
/// nor the reseed ever engages unless training has actually diverged.
struct RecoveryPolicy {
  int max_retries = 3;      ///< K: total NaN/Inf recoveries before kInternal.
  double lr_backoff = 0.5;  ///< Learning-rate multiplier per recovery.
  /// L2 gradient-norm clip (SGNS centre updates, TransE steps; RESCAL
  /// never reads it). Healthy gradients are O(learning_rate), far below
  /// this.
  double clip_norm = 100.0;
  double clip_backoff = 0.5;  ///< Clip-threshold multiplier per recovery.
  /// Entries with magnitude above this count as divergence even when
  /// finite (runaway-but-not-yet-Inf parameters poison downstream Grams).
  double max_abs = 1e8;
};

}  // namespace x2vec
