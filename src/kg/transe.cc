#include "kg/transe.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "base/validation.h"
#include "embed/epochs.h"
#include "kg/persist.h"

namespace x2vec::kg {
namespace {

constexpr std::string_view kOperation = "TransE training";

void NormalizeEntities(linalg::Matrix& entities) {
  for (int e = 0; e < entities.rows(); ++e) {
    const std::span<double> row = entities.RowSpan(e);
    double norm = 0.0;
    for (const double v : row) norm += v * v;
    norm = std::sqrt(norm);
    if (norm > 1e-12) {
      for (double& v : row) v /= norm;
    }
  }
}

// One epoch: renormalise the entities, then one margin-ranking step per
// training triple against a corrupted copy. Checkpoints therefore hold the
// raw (un-normalised) entities: every epoch, resumed or not, renormalises
// on entry, and the trainer renormalises once more at the end.
StatusOr<double> TransEEpoch(const KnowledgeGraph& kg,
                             const TransEOptions& options,
                             const embed::EpochState& state,
                             TransEModel& model, Rng& rng, Budget& budget) {
  NormalizeEntities(model.entities);
  const int dim = options.dimension;
  double epoch_loss = 0.0;
  // The translation step direction (h + t - r)/score has unit L2 norm, so
  // capping the step scale at `clip` clips the per-update step norm. With
  // the default threshold and a sane learning rate this is the plain
  // learning rate, bit for bit.
  const double step_scale =
      std::min(options.learning_rate * state.lr_scale, state.clip);
  for (const Triple& triple : kg.Triples()) {
    if (!budget.Spend(1)) return budget.ExhaustedError(kOperation);
    // Corrupt head or tail uniformly; resample until the corruption is
    // actually false.
    Triple corrupted = triple;
    for (int attempt = 0; attempt < 50; ++attempt) {
      corrupted = triple;
      if (Coin(rng, 0.5)) {
        corrupted.head =
            static_cast<int>(UniformInt(rng, 0, kg.NumEntities() - 1));
      } else {
        corrupted.tail =
            static_cast<int>(UniformInt(rng, 0, kg.NumEntities() - 1));
      }
      if (!kg.HasTriple(corrupted.head, corrupted.relation,
                        corrupted.tail)) {
        break;
      }
    }
    const double positive = model.Score(triple.head, triple.relation,
                                        triple.tail);
    const double negative = model.Score(corrupted.head, corrupted.relation,
                                        corrupted.tail);
    // Track the positive energy before the violation test: a diverged
    // model scores Inf/NaN everywhere and would otherwise skip every
    // update (and so every loss term) while staying silently wedged.
    epoch_loss += positive;
    if (positive + options.margin <= negative) continue;  // No violation.

    // Gradient of ||h + t - r|| w.r.t. each vector (L2 distance), applied
    // to push the positive together and the negative apart.
    // Row views may alias when head == tail (a reflexive triple); the
    // per-dimension read-then-update order below matches the historical
    // element-indexed loop either way.
    auto apply = [&](const Triple& t, double sign, double score) {
      if (score < 1e-9) return;
      const std::span<double> head = model.entities.RowSpan(t.head);
      const std::span<double> rel = model.relations.RowSpan(t.relation);
      const std::span<double> tail = model.entities.RowSpan(t.tail);
      for (int d = 0; d < dim; ++d) {
        const double diff = (head[d] + rel[d] - tail[d]) / score;
        const double step = sign * step_scale * diff;
        head[d] -= step;
        rel[d] -= step;
        tail[d] += step;
      }
    };
    apply(triple, +1.0, positive);
    apply(corrupted, -1.0, negative);
  }
  return epoch_loss;
}

}  // namespace

double TransEModel::Score(int head, int relation, int tail) const {
  const std::span<const double> h = entities.ConstRowSpan(head);
  const std::span<const double> r = relations.ConstRowSpan(relation);
  const std::span<const double> t = entities.ConstRowSpan(tail);
  double total = 0.0;
  for (size_t d = 0; d < h.size(); ++d) {
    const double diff = h[d] + r[d] - t[d];
    total += diff * diff;
  }
  return std::sqrt(total);
}

int TransEModel::TailRank(const KnowledgeGraph& kg,
                          const Triple& triple) const {
  const double true_score = Score(triple.head, triple.relation, triple.tail);
  int rank = 1;
  for (int candidate = 0; candidate < kg.NumEntities(); ++candidate) {
    if (candidate == triple.tail) continue;
    // Filtered protocol: other true tails do not count against the rank.
    if (kg.HasTriple(triple.head, triple.relation, candidate)) continue;
    if (Score(triple.head, triple.relation, candidate) < true_score) ++rank;
  }
  return rank;
}

Status ValidateTransEOptions(const TransEOptions& options) {
  return ValidateOptions({
      {"dimension", static_cast<double>(options.dimension),
       OptionCheck::Rule::kPositive},
      // Zero epochs is a valid "untrained baseline" request.
      {"epochs", static_cast<double>(options.epochs),
       OptionCheck::Rule::kNonNegative},
      {"learning_rate", options.learning_rate,
       OptionCheck::Rule::kPositiveFinite},
      {"margin", options.margin, OptionCheck::Rule::kNonNegative},
  });
}

StatusOr<TransEModel> TrainTransEBudgeted(const KnowledgeGraph& kg,
                                          const TransEOptions& options,
                                          Rng& rng, Budget& budget) {
  if (Status status = ValidateTransEOptions(options); !status.ok()) {
    return status;
  }
  if (kg.NumEntities() < 2) {
    return Status::InvalidArgument(
        "TransE training needs at least two entities");
  }
  if (kg.NumRelations() < 1) {
    return Status::InvalidArgument(
        "TransE training needs at least one relation");
  }
  if (kg.Triples().empty()) {
    return Status::InvalidArgument(
        "TransE training needs at least one triple");
  }
  const int dim = options.dimension;
  TransEModel model;
  const Status status = embed::RunEpochs(
      {.kind = embed::CheckpointKind::kTransE,
       .operation = kOperation,
       .span = "transe.train",
       .epoch_span = "transe.epoch",
       .work_per_epoch = static_cast<int64_t>(kg.Triples().size()),
       .epochs = options.epochs,
       .recovery = options.recovery,
       .checkpoint = options.checkpoint,
       .params = {{&model.entities, kg.NumEntities(), dim},
                  {&model.relations, kg.NumRelations(), dim}},
       .init = 6.0 / std::sqrt(dim),
       .rng = rng,
       .fingerprint =
           [&] {
             return TrainerFingerprint(embed::CheckpointKind::kTransE,
                                       options.dimension, options.epochs,
                                       options.learning_rate, options.margin,
                                       options.recovery, kg, rng);
           },
       .epoch =
           [&](const embed::EpochState& state, Budget& quota) {
             return TransEEpoch(kg, options, state, model, rng, quota);
           }},
      budget);
  if (!status.ok()) return status;
  NormalizeEntities(model.entities);
  return model;
}

std::vector<int> TailRanks(const TransEModel& model, const KnowledgeGraph& kg,
                           const std::vector<Triple>& test) {
  std::vector<int> ranks;
  ranks.reserve(test.size());
  for (const Triple& triple : test) {
    ranks.push_back(model.TailRank(kg, triple));
  }
  return ranks;
}

}  // namespace x2vec::kg
