#include "kg/rescal.h"

#include <cmath>

#include "base/validation.h"
#include "embed/epochs.h"
#include "kg/persist.h"

namespace x2vec::kg {
namespace {

constexpr std::string_view kOperation = "RESCAL training";

// One full-batch gradient step on sum_R ||X B_R X^T - A_R||^2, charged one
// budget unit per relation.
StatusOr<double> RescalEpoch(const std::vector<linalg::Matrix>& targets,
                             const RescalOptions& options,
                             const embed::EpochState& state,
                             RescalModel& model, Budget& budget) {
  const double lr = options.learning_rate * state.lr_scale;
  double epoch_loss = 0.0;
  linalg::Matrix x_gradient(model.entities.rows(), model.entities.cols());
  for (size_t r = 0; r < targets.size(); ++r) {
    if (!budget.Spend(1)) return budget.ExhaustedError(kOperation);
    const linalg::Matrix& b = model.relations[r];
    const linalg::Matrix xb = model.entities * b;                 // n x d.
    const linalg::Matrix xbt = model.entities * b.Transposed();   // n x d.
    const linalg::Matrix residual =
        xb * model.entities.Transposed() - targets[r];            // n x n.
    const double residual_norm = residual.FrobeniusNorm();
    epoch_loss += residual_norm * residual_norm;
    // dX  += 2 (E X B^T + E^T X B),  dB = 2 X^T E X.
    x_gradient += (residual * xbt + residual.Transposed() * xb) * 2.0;
    const linalg::Matrix b_gradient =
        (model.entities.Transposed() * residual * model.entities) * 2.0;
    model.relations[r] -= (b_gradient + b * (2.0 * options.l2)) * lr;
  }
  x_gradient += model.entities * (2.0 * options.l2);
  model.entities -= x_gradient * lr;
  return epoch_loss;
}

}  // namespace

double RescalModel::Score(int head, int relation, int tail) const {
  const std::vector<double> bt =
      relations[relation].Apply(entities.ConstRowSpan(tail));
  return linalg::Dot(entities.ConstRowSpan(head), bt);
}

double RescalModel::ReconstructionError(const KnowledgeGraph& kg) const {
  double total = 0.0;
  for (int r = 0; r < kg.NumRelations(); ++r) {
    const linalg::Matrix predicted =
        entities * relations[r] * entities.Transposed();
    for (int h = 0; h < kg.NumEntities(); ++h) {
      for (int t = 0; t < kg.NumEntities(); ++t) {
        const double target = kg.HasTriple(h, r, t) ? 1.0 : 0.0;
        const double diff = predicted(h, t) - target;
        total += diff * diff;
      }
    }
  }
  return total;
}

Status ValidateRescalOptions(const RescalOptions& options) {
  return ValidateOptions({
      {"dimension", static_cast<double>(options.dimension),
       OptionCheck::Rule::kPositive},
      // Zero epochs is a valid "untrained baseline" request.
      {"epochs", static_cast<double>(options.epochs),
       OptionCheck::Rule::kNonNegative},
      {"learning_rate", options.learning_rate,
       OptionCheck::Rule::kPositiveFinite},
      {"l2", options.l2, OptionCheck::Rule::kNonNegative},
  });
}

StatusOr<RescalModel> TrainRescalBudgeted(const KnowledgeGraph& kg,
                                          const RescalOptions& options,
                                          Rng& rng, Budget& budget) {
  if (Status status = ValidateRescalOptions(options); !status.ok()) {
    return status;
  }
  const int n = kg.NumEntities();
  const int d = options.dimension;
  if (n < 2) {
    return Status::InvalidArgument(
        "RESCAL training needs at least two entities");
  }
  if (kg.NumRelations() < 1) {
    return Status::InvalidArgument(
        "RESCAL training needs at least one relation");
  }
  RescalModel model;
  model.relations.resize(kg.NumRelations());
  std::vector<embed::EpochParam> params = {{&model.entities, n, d}};
  for (linalg::Matrix& relation : model.relations) {
    params.push_back({&relation, d, d});
  }
  // Dense relation adjacency matrices A_R.
  std::vector<linalg::Matrix> targets(kg.NumRelations(), linalg::Matrix(n, n));
  for (const Triple& triple : kg.Triples()) {
    targets[triple.relation](triple.head, triple.tail) = 1.0;
  }
  const Status status = embed::RunEpochs(
      {.kind = embed::CheckpointKind::kRescal,
       .operation = kOperation,
       .span = "rescal.train",
       .epoch_span = "rescal.epoch",
       .work_per_epoch = kg.NumRelations(),
       .epochs = options.epochs,
       .recovery = options.recovery,
       .checkpoint = options.checkpoint,
       .params = params,
       .init = 1.0 / std::sqrt(static_cast<double>(d)),
       .rng = rng,
       .fingerprint =
           [&] {
             return TrainerFingerprint(embed::CheckpointKind::kRescal,
                                       options.dimension, options.epochs,
                                       options.learning_rate, options.l2,
                                       options.recovery, kg, rng);
           },
       .epoch =
           [&](const embed::EpochState& state, Budget& quota) {
             return RescalEpoch(targets, options, state, model, quota);
           }},
      budget);
  if (!status.ok()) return status;
  return model;
}

}  // namespace x2vec::kg
