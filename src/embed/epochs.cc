#include "embed/epochs.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "base/metrics.h"
#include "base/trace.h"
#include "linalg/health.h"

namespace x2vec::embed {
namespace {

// The trainer-section codec, one layout for every trainer (epochs.h).
CheckpointData EncodeState(const EpochLoop& loop, uint64_t fingerprint,
                           const EpochState& state) {
  PayloadWriter model_writer;
  for (const EpochParam& param : loop.params) {
    model_writer.PutMatrix(*param.matrix);
  }
  PayloadWriter trainer_writer;
  trainer_writer.PutI64(state.next_epoch);
  trainer_writer.PutI64(state.attempt * loop.position_unit);
  trainer_writer.PutDouble(state.lr_scale);
  trainer_writer.PutDouble(state.clip);
  trainer_writer.PutI64(state.retries);
  trainer_writer.PutString(loop.rng.SaveEngineState());
  return CheckpointData{loop.kind, fingerprint,
                        {{"model", model_writer.Take()},
                         {"trainer", trainer_writer.Take()}}};
}

// Inverse of EncodeState, plus the shape check every parameter passes.
Status DecodeState(const CheckpointData& data, const EpochLoop& loop,
                   EpochState& state) {
  const CheckpointSection* model_section = data.Find("model");
  const CheckpointSection* trainer_section = data.Find("trainer");
  if (model_section == nullptr || trainer_section == nullptr) {
    return Status::CorruptedData(
        "checkpoint is missing its 'model' or 'trainer' section");
  }
  PayloadReader model_reader(model_section->payload);
  for (const EpochParam& param : loop.params) {
    *param.matrix = model_reader.GetMatrix();
  }
  model_reader.ExpectEnd();
  if (!model_reader.status().ok()) return model_reader.status();
  PayloadReader trainer_reader(trainer_section->payload);
  state.next_epoch = static_cast<int>(trainer_reader.GetI64());
  state.attempt =
      trainer_reader.GetI64() / std::max<int64_t>(loop.position_unit, 1);
  state.lr_scale = trainer_reader.GetDouble();
  state.clip = trainer_reader.GetDouble();
  state.retries = static_cast<int>(trainer_reader.GetI64());
  const std::string engine = trainer_reader.GetString();
  trainer_reader.ExpectEnd();
  if (!trainer_reader.status().ok()) return trainer_reader.status();
  for (const EpochParam& param : loop.params) {
    if (param.matrix->rows() != param.rows ||
        param.matrix->cols() != param.cols) {
      return Status::CorruptedData(
          "checkpoint parameter shape does not match this run's");
    }
  }
  return loop.rng.LoadEngineState(engine);
}

}  // namespace

Status RunEpochs(const EpochLoop& loop, Budget& budget) {
  const CheckpointOptions& ckpt = loop.checkpoint;
  if (Status valid = ValidateCheckpointOptions(ckpt); !valid.ok()) {
    return valid;
  }
  if (budget.Exhausted()) return budget.ExhaustedError(loop.operation);
  const uint64_t fingerprint = ckpt.enabled() ? loop.fingerprint() : 0;

  EpochState state{.clip = loop.recovery.clip_norm};
  bool resumed = false;
  if (ckpt.enabled()) {
    StatusOr<std::optional<CheckpointData>> loaded =
        LoadLatestCheckpoint(ckpt, loop.kind, fingerprint);
    if (!loaded.ok()) return loaded.status();
    if (loaded->has_value()) {
      if (Status status = DecodeState(**loaded, loop, state); !status.ok()) {
        return status;
      }
      resumed = true;
      X2VEC_METRIC_COUNT("checkpoint.resumes", 1);
    }
  }
  if (!resumed) {
    for (const EpochParam& param : loop.params) {
      *param.matrix = linalg::Matrix(param.rows, param.cols);
      if (loop.initialize) continue;
      for (double& v : param.matrix->mutable_data()) {
        v = UniformReal(loop.rng, -loop.init, loop.init);
      }
    }
    if (loop.initialize) loop.initialize();
  }

  const RecoveryPolicy& recovery = loop.recovery;
  trace::Span train_span(loop.span);
  for (int epoch = state.next_epoch; epoch < loop.epochs; ++epoch) {
    trace::Span epoch_span(loop.epoch_span);
    const StatusOr<double> loss = loop.epoch(state, budget);
    if (!loss.ok()) return loss.status();
    ++state.attempt;
    epoch_span.AddWork(loop.work_per_epoch);
    train_span.AddWork(loop.work_per_epoch);

    // Per-epoch numeric health check with bounded self-healing.
    bool healthy = std::isfinite(*loss);
    for (const EpochParam& param : loop.params) {
      healthy = healthy && linalg::MatrixHealthy(*param.matrix,
                                                 recovery.max_abs);
    }
    if (!healthy) {
      if (++state.retries > recovery.max_retries) {
        return Status::Internal(
            std::string(loop.operation) +
            " diverged (non-finite or runaway parameters) and exhausted " +
            std::to_string(recovery.max_retries) + " recovery retries");
      }
      X2VEC_METRIC_COUNT("train.recovery_retries", 1);
      state.lr_scale *= recovery.lr_backoff;
      state.clip *= recovery.clip_backoff;
      for (const EpochParam& param : loop.params) {
        linalg::ReseedUnhealthyRows(*param.matrix, loop.init,
                                    recovery.max_abs, loop.rng);
      }
      --epoch;  // Retry the failed epoch with the gentler settings.
      continue;
    }

    // Healthy barrier: persist the resume state; a failed save is an error.
    state.next_epoch = epoch + 1;
    if (ckpt.enabled() && state.next_epoch % ckpt.every_n_epochs == 0) {
      if (Status status = SaveCheckpoint(ckpt, state.next_epoch,
                                         EncodeState(loop, fingerprint, state));
          !status.ok()) {
        return status;
      }
    }
  }
  return Status::Ok();
}

}  // namespace x2vec::embed
