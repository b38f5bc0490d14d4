#include "embed/sgns.h"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "base/metrics.h"
#include "base/parallel.h"
#include "base/validation.h"
#include "embed/epochs.h"
#include "linalg/health.h"
#include "linalg/kernels.h"
#include "linalg/kernels_backend.h"

namespace x2vec::embed {
namespace {

// One training run as the schedules see it: the stream and its
// counting-pass totals, the noise table, the model shape and the objective.
struct Job {
  SentenceSource& source;
  const StreamStats& stats;
  const std::vector<double>& noise_weights;
  int rows_in;   // The vocabulary (skip-gram) or the documents (PV-DBOW).
  int rows_out;  // The vocabulary: every token indexes an output row.
  bool skipgram_window;  // Skip-gram windows, else PV-DBOW doc -> token.
  const SgnsOptions& options;
};

// ---- The checkpoint fingerprint.

// Binds a checkpoint to one exact run — options (recovery included), data
// shape and content, noise table, seed — so LoadLatestCheckpoint skips any
// file resuming would not reproduce. The sentences are hashed by one extra
// pass over the source, in the field order existing files were written.
uint64_t SgnsFingerprint(CheckpointKind kind, const Job& job, uint64_t seed) {
  const SgnsOptions& options = job.options;
  Fnv1a hasher;
  hasher.UpdateU64(static_cast<uint64_t>(kind));
  hasher.UpdateU64(static_cast<uint64_t>(job.rows_in));
  hasher.UpdateU64(static_cast<uint64_t>(job.rows_out));
  hasher.UpdateU64(job.skipgram_window ? 1 : 0);
  hasher.UpdateU64(static_cast<uint64_t>(options.dimension));
  hasher.UpdateU64(static_cast<uint64_t>(options.window));
  hasher.UpdateU64(static_cast<uint64_t>(options.negatives));
  hasher.UpdateU64(static_cast<uint64_t>(options.epochs));
  hasher.UpdateDouble(options.learning_rate);
  hasher.UpdateDouble(options.noise_power);
  hasher.UpdateU64(static_cast<uint64_t>(options.recovery.max_retries));
  hasher.UpdateDouble(options.recovery.lr_backoff);
  hasher.UpdateDouble(options.recovery.clip_norm);
  hasher.UpdateDouble(options.recovery.clip_backoff);
  hasher.UpdateDouble(options.recovery.max_abs);
  hasher.UpdateU64(seed);
  hasher.UpdateU64(static_cast<uint64_t>(job.stats.num_sentences));
  job.source.Reset();
  std::vector<int> seq;
  while (job.source.Next(seq)) {
    hasher.UpdateU64(seq.size());
    for (int token : seq) hasher.UpdateU64(static_cast<uint64_t>(token));
  }
  hasher.UpdateU64(job.noise_weights.size());
  for (double w : job.noise_weights) hasher.UpdateDouble(w);
  return hasher.digest();
}

// ---- The pair step, shared by both objectives and both schedules.

// What every pair of one epoch shares.
struct Step {
  const AliasTable& noise;
  int negatives;
  int window;
  double clip;
  double lr_base;  // learning_rate times the recovery scale.
  int64_t total_pairs;

  // The linear decay: the rate at schedule position `seen` (pairs trained
  // so far, retried epochs included), floored at 1e-4 of the base rate.
  [[nodiscard]] double Lr(int64_t seen) const {
    return lr_base *
           std::max(1e-4, 1.0 - static_cast<double>(seen) / total_pairs);
  }
};

// Redraw cap for negatives colliding with the context: a collision's odds
// are the token's noise mass, so a dropped negative is vanishingly rare.
constexpr int kNegativeRedraws = 16;

// Where the sharded schedule's pairs land: one sequence's sparse row
// deltas against the frozen batch-start model, applied serially in
// sequence order after the batch. The sequence was charged up front. (The
// sequential schedule trains the live model itself; see Sequential.) Cache
// line aligned, since neighbouring shards are written by different workers.
struct alignas(64) Shard {
  static constexpr bool kLrPerPair = true;

  const SgnsModel* model = nullptr;
  linalg::RowDeltaBuffer input_rows;
  linalg::RowDeltaBuffer output_rows;
  std::vector<double> center_gradient;
  double loss = 0.0;

  bool Charge() { return true; }
  double Update(int center, int context, double label, double lr) {
    return linalg::SgdPairUpdateDelta(
        model->input.ConstRowSpan(center), model->output.ConstRowSpan(context),
        label, lr, center_gradient, output_rows.Accumulator(context));
  }
  std::span<double> CenterRow(int center) {
    return input_rows.Accumulator(center);
  }
};

// The pair step: one SGD step on the positive pair (center -> context) and
// its negatives, maximising log sigma(u_ctx . v_center) and
// log sigma(-u . v). Each term's negative log-likelihood feeds the epoch
// health check; the centre gradient is clipped and applied once, at the
// end. Negatives colliding with the context are redrawn, and skipped if
// they keep colliding (degenerate noise tables only).
template <class Rows>
void PairStep(Rows& rows, const Step& step, int center, int context,
              double lr, Rng& rng) {
  X2VEC_METRIC_COUNT("sgns.pairs", 1);
  std::fill(rows.center_gradient.begin(), rows.center_gradient.end(), 0.0);
  rows.loss += rows.Update(center, context, 1.0, lr);
  for (int k = 0; k < step.negatives; ++k) {
    int negative = step.noise.Sample(rng);
    for (int retry = 0; negative == context && retry < kNegativeRedraws;
         ++retry) {
      X2VEC_METRIC_COUNT("sgns.negative_redraws", 1);
      negative = step.noise.Sample(rng);
    }
    if (negative == context) {
      X2VEC_METRIC_COUNT("sgns.negative_exhausted", 1);
      continue;
    }
    X2VEC_METRIC_COUNT("sgns.negatives", 1);
    rows.loss += rows.Update(center, negative, 0.0, lr);
  }
  linalg::ClipGradient(rows.center_gradient, step.clip);
  linalg::Axpy(1.0, rows.center_gradient, rows.CenterRow(center));
}

// Trains every positive pair of one sentence in order: each token against
// its window-clipped context (skip-gram, doc < 0), or document `doc`
// against each of its tokens (PV-DBOW). `seen` is the schedule position
// and advances per pair. Returns false when the per-pair budget runs out.
template <class Rows>
bool TrainSentence(Rows& rows, const Step& step, const std::vector<int>& seq,
                   int doc, int64_t& seen, Rng& rng) {
  const int len = static_cast<int>(seq.size());
  for (int pos = 0; pos < len; ++pos) {
    // PV-DBOW's "window" is the one (document -> token) pair at pos.
    const bool pv = doc >= 0;
    const int center = pv ? doc : seq[pos];
    const int lo = pv ? pos : std::max(0, pos - step.window);
    const int hi = pv ? pos : std::min(len - 1, pos + step.window);
    const int self = pv ? -1 : pos;
    const double window_lr = Rows::kLrPerPair ? 0.0 : step.Lr(seen);
    for (int other = lo; other <= hi; ++other) {
      if (other == self) continue;
      if (!rows.Charge()) return false;
      const double lr = Rows::kLrPerPair ? step.Lr(seen) : window_lr;
      PairStep(rows, step, center, seq[other], lr, rng);
      ++seen;
    }
  }
  return true;
}

// Whether sentence `index` of a training pass fits the model the counting
// pass sized: tokens below the output rows, index below the counted
// sentences. One compare per token.
Status CheckCounted(const Job& job, const std::vector<int>& seq,
                    int64_t index) {
  const auto rows = static_cast<unsigned>(job.rows_out);
  bool inside = index < job.stats.num_sentences;
  for (const int token : seq) inside &= static_cast<unsigned>(token) < rows;
  if (inside) return Status::Ok();
  return Status::InvalidArgument(
      "sentence " + std::to_string(index) + " of a training pass does not "
      "fit the counted stream: the source must replay it on every Reset()");
}

// ---- The two schedules: each supplies its epoch pass and generators, the
// epoch loop (embed/epochs.h) the rest. Epoch `attempt` (retries
// included) starts at schedule position attempt * pairs_per_epoch.

// Plain SGD in stream order on the live model, one budget unit per pair.
// Every draw comes from the caller's generator, whose engine state the
// checkpoints carry. It prices a whole window at its centre's schedule
// position where the sharded schedule reprices every pair; golden digests
// pin both.
struct Sequential {
  static constexpr CheckpointKind kKind = CheckpointKind::kSgnsSequential;
  static constexpr std::string_view kOperation = "SGNS training";
  static constexpr const char* kSpan = "sgns.train";
  static constexpr bool kLrPerPair = false;

  Rng& rng;
  SgnsModel* model = nullptr;
  Budget* budget = nullptr;
  std::vector<int> seq{};
  std::vector<double> center_gradient{};
  double loss = 0.0;

  [[nodiscard]] uint64_t seed() const { return 0; }  // Fingerprinted.
  Rng& init_rng() { return rng; }
  Rng& state_rng() { return rng; }

  bool Charge() { return budget->Spend(1); }
  double Update(int center, int context, double label, double lr) {
    return linalg::SgdPairUpdate(model->input.ConstRowSpan(center),
                                 model->output.RowSpan(context), label, lr,
                                 center_gradient);
  }
  std::span<double> CenterRow(int center) {
    return model->input.RowSpan(center);
  }

  StatusOr<double> Epoch(const Job& job, SgnsModel& live, const Step& step,
                         int64_t attempt, Budget& quota) {
    model = &live;
    budget = &quota;
    center_gradient.resize(job.options.dimension);
    loss = 0.0;
    int64_t seen = attempt * job.stats.pairs_per_epoch;
    job.source.Reset();
    for (int64_t s = 0; job.source.Next(seq); ++s) {
      const Status counted = CheckCounted(job, seq, s);
      if (!counted.ok()) return counted;
      const int doc = job.skipgram_window ? -1 : static_cast<int>(s);
      if (!TrainSentence(*this, step, seq, doc, seen, rng)) {
        return quota.ExhaustedError(kOperation);
      }
    }
    return loss;
  }
};

// Deterministic mini-batch SGD. Stream 0 of the seed initialises, streams
// of MixSeed(seed, 1 + attempt) draw each epoch attempt's negatives per
// sequence, and the checkpointed ~0 stream reseeds rows on recovery.
class Sharded {
 public:
  static constexpr CheckpointKind kKind = CheckpointKind::kSgnsSharded;
  static constexpr std::string_view kOperation = "sharded SGNS training";
  static constexpr const char* kSpan = "sgns.train_sharded";

  explicit Sharded(uint64_t seed)
      : seed_(seed), init_rng_(Rng::Fork(seed, 0)),
        recovery_rng_(Rng::Fork(seed, ~uint64_t{0})) {}

  [[nodiscard]] uint64_t seed() const { return seed_; }
  Rng& init_rng() { return init_rng_; }
  Rng& state_rng() { return recovery_rng_; }

  StatusOr<double> Epoch(const Job& job, SgnsModel& model, const Step& step,
                         int64_t attempt, Budget& budget) {
    const uint64_t streams = MixSeed(seed_, 1 + static_cast<uint64_t>(attempt));
    int64_t batch_slot = attempt * job.stats.pairs_per_epoch;
    int64_t batch_lo = 0;  // Global index of the batch's first sequence.
    BudgetGate gate(budget);
    double loss = 0.0;
    job.source.Reset();
    for (bool more = true; more;) {
      // Batches are sequences [0, 32), [32, 64), ..., pulled in place.
      int64_t batch_size = 0;
      while (batch_size < kBatchSequences &&
             job.source.Next(batch_[batch_size])) {
        const Status counted =
            CheckCounted(job, batch_[batch_size], batch_lo + batch_size);
        if (!counted.ok()) return counted;
        ++batch_size;
      }
      more = batch_size == kBatchSequences;
      if (batch_size == 0) break;
      // Sequence batch_lo + b starts at schedule slot batch_slot +
      // batch_prefix_[b]: shards agree without a shared counter.
      for (int64_t b = 0; b < batch_size; ++b) {
        batch_prefix_[b + 1] =
            batch_prefix_[b] + SequencePairs(batch_[b], step.window,
                                             job.skipgram_window);
      }
      const Status status = ParallelFor(
          batch_size, 0, [&](int64_t lo, int64_t hi) {
            for (int64_t b = lo; b < hi; ++b) {
              const int64_t s = batch_lo + b;
              const int64_t seq_pairs = batch_prefix_[b + 1] - batch_prefix_[b];
              if (seq_pairs > 0 && !gate.Spend(seq_pairs)) {
                return gate.ExhaustedError(kOperation);
              }
              Shard& shard = shards_[b];
              shard.model = &model;
              shard.input_rows.Reset(job.rows_in, job.options.dimension);
              shard.output_rows.Reset(job.rows_out, job.options.dimension);
              shard.center_gradient.resize(job.options.dimension);
              shard.loss = 0.0;
              Rng rng = Rng::Fork(streams, static_cast<uint64_t>(s));
              int64_t seen = batch_slot + batch_prefix_[b];
              const int doc = job.skipgram_window ? -1 : static_cast<int>(s);
              TrainSentence(shard, step, batch_[b], doc, seen, rng);
            }
            return Status::Ok();
          });
      if (!status.ok()) return status;
      // Serial apply in sequence order, whichever worker made each shard.
      for (int64_t b = 0; b < batch_size; ++b) {
        const Shard& shard = shards_[b];
        loss += shard.loss;
        shard.input_rows.AddTo(model.input);
        shard.output_rows.AddTo(model.output);
      }
      batch_lo += batch_size;
      batch_slot += batch_prefix_[batch_size];
    }
    return loss;
  }

 private:
  // Small enough to keep parameters fresh, large enough to fill workers.
  static constexpr int64_t kBatchSequences = 32;

  uint64_t seed_;
  Rng init_rng_;
  Rng recovery_rng_;
  // The only materialised slice of the stream, reused across batches and
  // epochs: steady-state training allocates nothing.
  std::array<Shard, kBatchSequences> shards_;
  std::array<std::vector<int>, kBatchSequences> batch_;
  std::array<int64_t, kBatchSequences + 1> batch_prefix_{};
};

// ---- The SGNS side of the epoch loop (embed/epochs.h): the two
// matrices, their fresh start and one schedule pass per epoch.
template <class Schedule>
StatusOr<SgnsModel> Train(const Job& job, Schedule schedule, Budget& budget) {
  const SgnsOptions& options = job.options;
  if (Status valid = ValidateSgnsOptions(options); !valid.ok()) return valid;
  X2VEC_METRIC_GAUGE("kernels.backend",
                     static_cast<double>(linalg::ActiveKernelBackend()));
  // Exact pairs per epoch from the counting pass: the unit of the decay and
  // of the sequential schedule's checkpointed position.
  const int64_t pairs_per_epoch = job.stats.pairs_per_epoch;
  const int64_t total_pairs =
      std::max<int64_t>(1, pairs_per_epoch * options.epochs);
  const int dim = options.dimension;
  const double init = 0.5 / dim;
  std::optional<AliasTable> noise;  // Built on first use, after the checks.
  SgnsModel model;
  const Status status = RunEpochs(
      {.kind = Schedule::kKind,
       .operation = Schedule::kOperation,
       .span = Schedule::kSpan,
       .epoch_span = "sgns.epoch",
       .work_per_epoch = pairs_per_epoch,
       .epochs = options.epochs,
       .recovery = options.recovery,
       .checkpoint = options.checkpoint,
       .params = {{&model.input, job.rows_in, dim},
                  {&model.output, job.rows_out, dim}},
       .init = init,
       .rng = schedule.state_rng(),
       .fingerprint =
           [&] { return SgnsFingerprint(Schedule::kKind, job, schedule.seed()); },
       .initialize =
           [&] {  // The output rows start at zero.
             for (double& v : model.input.mutable_data()) {
               v = UniformReal(schedule.init_rng(), -init, init);
             }
           },
       .epoch = [&](const EpochState& state,
                    Budget& quota) -> StatusOr<double> {
         if (!noise) noise.emplace(job.noise_weights);
         const Step step{*noise, options.negatives, options.window, state.clip,
                         options.learning_rate * state.lr_scale, total_pairs};
         StatusOr<double> loss =
             schedule.Epoch(job, model, step, state.attempt, quota);
         // The LR of the next pair; identical for both schedules.
         if (loss.ok()) {
           X2VEC_METRIC_GAUGE("sgns.lr_epoch_end",
                              step.Lr((state.attempt + 1) * pairs_per_epoch));
         }
         return loss;
       },
       .position_unit = Schedule::kKind == CheckpointKind::kSgnsSequential
                            ? pairs_per_epoch
                            : 1},
      budget);
  if (!status.ok()) return status;
  return model;
}

// ---- Input checks and counting in front of the driver.

template <class Schedule>
StatusOr<SgnsModel> TrainSkipGram(SentenceSource& source,
                                  const StreamStats& stats,
                                  const std::vector<double>& noise_weights,
                                  const SgnsOptions& options, Schedule schedule,
                                  Budget& budget) {
  if (noise_weights.empty()) {
    return Status::InvalidArgument(
        "streaming SGNS training needs a non-empty noise table");
  }
  const int rows = static_cast<int>(noise_weights.size());
  if (static_cast<int64_t>(stats.token_counts.size()) > rows) {
    return Status::InvalidArgument(
        "streamed token id exceeds the noise-table size");
  }
  return Train(Job{source, stats, noise_weights, rows, rows,
                   /*skipgram_window=*/true, options},
               std::move(schedule), budget);
}

template <class Schedule>
StatusOr<SgnsModel> TrainPvDbow(SentenceSource& source, int vocab_size,
                                const SgnsOptions& options, Schedule schedule,
                                Budget& budget) {
  if (vocab_size <= 0) {
    return Status::InvalidArgument(
        "PV-DBOW training needs a positive vocab_size");
  }
  const StreamStats stats = CountStream(source, options.window,
                                        /*skipgram_window=*/false, vocab_size);
  if (stats.total_tokens == 0) {
    return Status::InvalidArgument(
        "PV-DBOW training needs at least one document with a token");
  }
  if (static_cast<int64_t>(stats.token_counts.size()) > vocab_size) {
    return Status::InvalidArgument(
        "streamed PV-DBOW token id exceeds vocab_size");
  }
  if (stats.num_sentences > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(
        "PV-DBOW training supports at most INT_MAX documents");
  }
  const std::vector<double> noise =
      NoiseFromCounts(stats.token_counts, vocab_size, options.noise_power);
  return Train(Job{source, stats, noise,
                   static_cast<int>(stats.num_sentences), vocab_size,
                   /*skipgram_window=*/false, options},
               std::move(schedule), budget);
}

}  // namespace

Status ValidateSgnsOptions(const SgnsOptions& options) {
  return ValidateOptions({
      {"dimension", static_cast<double>(options.dimension),
       OptionCheck::Rule::kPositive},
      {"window", static_cast<double>(options.window),
       OptionCheck::Rule::kPositive},
      {"negatives", static_cast<double>(options.negatives),
       OptionCheck::Rule::kPositive},
      // Zero epochs is a valid "untrained baseline" request.
      {"epochs", static_cast<double>(options.epochs),
       OptionCheck::Rule::kNonNegative},
      {"learning_rate", options.learning_rate,
       OptionCheck::Rule::kPositiveFinite},
      {"noise_power", options.noise_power, OptionCheck::Rule::kFinite},
  });
}

StatusOr<SgnsModel> TrainSgnsStreaming(
    SentenceSource& source, const StreamStats& stats,
    const std::vector<double>& noise_weights, const SgnsOptions& options,
    Rng& rng, Budget& budget) {
  return TrainSkipGram(source, stats, noise_weights, options,
                       Sequential{rng}, budget);
}

StatusOr<SgnsModel> TrainSgnsShardedStreaming(
    SentenceSource& source, const StreamStats& stats,
    const std::vector<double>& noise_weights, const SgnsOptions& options,
    uint64_t seed, Budget& budget) {
  return TrainSkipGram(source, stats, noise_weights, options, Sharded(seed),
                       budget);
}

StatusOr<SgnsModel> TrainPvDbowStreaming(
    SentenceSource& source, int vocab_size, const SgnsOptions& options,
    Rng& rng, Budget& budget) {
  return TrainPvDbow(source, vocab_size, options, Sequential{rng}, budget);
}

StatusOr<SgnsModel> TrainPvDbowShardedStreaming(
    SentenceSource& source, int vocab_size, const SgnsOptions& options,
    uint64_t seed, Budget& budget) {
  return TrainPvDbow(source, vocab_size, options, Sharded(seed), budget);
}

}  // namespace x2vec::embed
