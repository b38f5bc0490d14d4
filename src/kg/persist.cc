#include "kg/persist.h"

#include <cstdint>

namespace x2vec::kg {

using embed::CheckpointKind;
using embed::LoadArtifact;
using embed::PayloadReader;
using embed::PayloadWriter;
using embed::SaveArtifact;

uint64_t TrainerFingerprint(CheckpointKind kind, int dimension, int epochs,
                            double learning_rate, double penalty,
                            const RecoveryPolicy& recovery,
                            const KnowledgeGraph& kg, const Rng& rng) {
  embed::Fnv1a hasher;
  hasher.UpdateU64(static_cast<uint64_t>(kind));
  hasher.UpdateU64(static_cast<uint64_t>(dimension));
  hasher.UpdateU64(static_cast<uint64_t>(epochs));
  hasher.UpdateDouble(learning_rate);
  hasher.UpdateDouble(penalty);
  hasher.UpdateU64(static_cast<uint64_t>(recovery.max_retries));
  hasher.UpdateDouble(recovery.lr_backoff);
  hasher.UpdateDouble(recovery.clip_norm);
  hasher.UpdateDouble(recovery.clip_backoff);
  hasher.UpdateDouble(recovery.max_abs);
  hasher.UpdateU64(static_cast<uint64_t>(kg.NumEntities()));
  hasher.UpdateU64(static_cast<uint64_t>(kg.NumRelations()));
  hasher.UpdateU64(kg.Triples().size());
  for (const Triple& triple : kg.Triples()) {
    hasher.UpdateU64(static_cast<uint64_t>(triple.head));
    hasher.UpdateU64(static_cast<uint64_t>(triple.relation));
    hasher.UpdateU64(static_cast<uint64_t>(triple.tail));
  }
  hasher.Update(rng.SaveEngineState());
  return hasher.digest();
}

Status SaveTransEModel(Fs& fs, const std::string& path,
                       const TransEModel& model) {
  PayloadWriter writer;
  writer.PutMatrix(model.entities);
  writer.PutMatrix(model.relations);
  return SaveArtifact(fs, path, CheckpointKind::kTransEModelArtifact, "model",
                      writer.Take());
}

StatusOr<TransEModel> LoadTransEModel(Fs& fs, const std::string& path) {
  TransEModel model;
  const Status status =
      LoadArtifact(fs, path, CheckpointKind::kTransEModelArtifact, "model",
                   [&](PayloadReader& reader) {
                     model.entities = reader.GetMatrix();
                     model.relations = reader.GetMatrix();
                   });
  if (!status.ok()) return status;
  return model;
}

Status SaveRescalModel(Fs& fs, const std::string& path,
                       const RescalModel& model) {
  PayloadWriter writer;
  writer.PutMatrix(model.entities);
  writer.PutU32(static_cast<uint32_t>(model.relations.size()));
  for (const linalg::Matrix& relation : model.relations) {
    writer.PutMatrix(relation);
  }
  return SaveArtifact(fs, path, CheckpointKind::kRescalModelArtifact, "model",
                      writer.Take());
}

StatusOr<RescalModel> LoadRescalModel(Fs& fs, const std::string& path) {
  RescalModel model;
  const Status status = LoadArtifact(
      fs, path, CheckpointKind::kRescalModelArtifact, "model",
      [&](PayloadReader& reader) {
        model.entities = reader.GetMatrix();
        const uint32_t relation_count = reader.GetU32();
        for (uint32_t r = 0; r < relation_count && reader.status().ok(); ++r) {
          model.relations.push_back(reader.GetMatrix());
        }
      });
  if (!status.ok()) return status;
  return model;
}

}  // namespace x2vec::kg
