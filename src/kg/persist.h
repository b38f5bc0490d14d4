#pragma once

#include <cstdint>
#include <string>

#include "base/fs.h"
#include "base/recovery.h"
#include "base/rng.h"
#include "base/status.h"
#include "embed/checkpoint.h"
#include "kg/knowledge_graph.h"
#include "kg/rescal.h"
#include "kg/transe.h"

namespace x2vec::kg {

/// Persistence for the knowledge-graph models, built on the same
/// checksummed container as embed/checkpoint.h (kg links embed; embed
/// never links kg, which is why these functions live here rather than
/// next to the generic format).

/// Binds a TransE or RESCAL checkpoint (`kind`) to one exact run, so that
/// one from other options, data or seed is skipped, not resumed: the shared
/// options (`penalty` is TransE's margin or RESCAL's l2), the recovery
/// policy, every triple of `kg` and `rng`'s starting state (the seed).
[[nodiscard]] uint64_t TrainerFingerprint(embed::CheckpointKind kind,
                                          int dimension, int epochs,
                                          double learning_rate, double penalty,
                                          const RecoveryPolicy& recovery,
                                          const KnowledgeGraph& kg,
                                          const Rng& rng);

/// Writes a trained TransE model (entities + relations) atomically.
[[nodiscard]] Status SaveTransEModel(Fs& fs, const std::string& path,
                                     const TransEModel& model);

/// Loads a file written by SaveTransEModel. kCorruptedData on checksum or
/// structure damage, kNotFound / kIoError from the filesystem.
[[nodiscard]] StatusOr<TransEModel> LoadTransEModel(Fs& fs,
                                                    const std::string& path);

/// Writes a trained RESCAL model (entity matrix + per-relation bilinear
/// forms) atomically.
[[nodiscard]] Status SaveRescalModel(Fs& fs, const std::string& path,
                                     const RescalModel& model);

/// Loads a file written by SaveRescalModel.
[[nodiscard]] StatusOr<RescalModel> LoadRescalModel(Fs& fs,
                                                    const std::string& path);

}  // namespace x2vec::kg
