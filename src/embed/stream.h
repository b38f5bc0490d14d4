#pragma once

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "embed/walks.h"
#include "graph/csr.h"

namespace x2vec::embed {

/// Pull interface over a corpus of sentences (token-id sequences): the
/// trainer-facing abstraction that decouples SGNS/PV-DBOW from materialised
/// corpora (DESIGN.md §13). A source is an ordered, replayable stream —
/// Reset() rewinds to the first sentence and a second pass yields exactly
/// the same sentences in exactly the same order, which is what lets the
/// trainers run their counting pass, optional fingerprint pass and one pass
/// per epoch against a corpus that never exists in memory at once.
///
/// Sources are single-consumer and not thread-safe; the sharded trainer
/// pulls batches serially and parallelises within the batch.
class SentenceSource {
 public:
  virtual ~SentenceSource() = default;

  /// Rewinds to the first sentence. Every pass after a Reset() replays the
  /// identical sentence stream.
  virtual void Reset() = 0;

  /// Fills `sentence` with the next sentence and returns true, or returns
  /// false at end of stream (leaving `sentence` unspecified).
  virtual bool Next(std::vector<int>& sentence) = 0;
};

/// Adapter over an in-memory sentence list (Corpus::sentences or PV-DBOW
/// documents). Non-owning: the list must outlive the source. Feeding a
/// trainer through this adapter is bit-identical to the historical
/// materialised path — same sentences, same order, same draws.
class CorpusSource final : public SentenceSource {
 public:
  explicit CorpusSource(const std::vector<std::vector<int>>& sentences)
      : sentences_(&sentences) {}

  void Reset() override { next_ = 0; }
  bool Next(std::vector<int>& sentence) override;

 private:
  const std::vector<std::vector<int>>* sentences_;
  size_t next_ = 0;
};

/// Walk-generator source: produces the exact corpus GenerateWalksParallel
/// (embed/walks.h) would materialise — walk t of pass p starts at the p-th
/// shuffled permutation's entry and draws from Rng::Fork(seed, p * n + v),
/// the established per-work-item stream scheme — but one walk at a time,
/// over either graph backend. Memory is one walk plus one start
/// permutation regardless of corpus size; every Reset() replays the
/// identical corpus, so multi-epoch training works with walks recomputed
/// per pass (CPU traded for bounded RSS).
class WalkSource final : public SentenceSource {
 public:
  WalkSource(graph::GraphView graph, const WalkOptions& options,
             uint64_t seed);

  void Reset() override;
  bool Next(std::vector<int>& sentence) override;

  /// Total sentences per pass of the stream: walks_per_node * n.
  [[nodiscard]] int64_t NumSentences() const { return passes_ * n_; }

 private:
  void LoadPass(int64_t pass);

  graph::GraphView graph_;
  WalkOptions options_;
  uint64_t seed_;
  int64_t n_ = 0;
  int64_t passes_ = 0;
  int64_t pass_ = 0;
  int64_t index_ = 0;          // Position within the current pass.
  std::vector<int> starts_;    // Shuffled start order of the current pass.
};

/// Deterministic bounded shuffle-buffer stage: keeps up to `capacity`
/// upstream sentences resident and emits a uniformly drawn one per Next(),
/// refilling from upstream — the streaming analogue of a corpus shuffle,
/// with memory bounded by the capacity instead of the corpus. All draws
/// come from Rng::Fork(seed, 0), re-forked on every Reset(), so the output
/// order depends only on (upstream order, capacity, seed): bit-identical
/// across runs and thread counts, and every epoch replays the same
/// shuffled stream. Capacity 1 degenerates to a pass-through.
class ShuffleBufferSource final : public SentenceSource {
 public:
  /// Non-owning: `upstream` must outlive the source. CHECKs capacity >= 1.
  ShuffleBufferSource(SentenceSource& upstream, int64_t capacity,
                      uint64_t seed);

  void Reset() override;
  bool Next(std::vector<int>& sentence) override;

  /// Sentences currently buffered (for tests and occupancy metrics).
  [[nodiscard]] int64_t occupancy() const {
    return static_cast<int64_t>(buffer_.size());
  }

 private:
  void Fill();

  SentenceSource* upstream_;
  int64_t capacity_;
  uint64_t seed_;
  Rng rng_;
  std::vector<std::vector<int>> buffer_;
  bool upstream_done_ = false;
  bool primed_ = false;
};

/// Positive pairs one sentence contributes per epoch: window-clipped
/// skip-gram pairs when `skipgram_window` is set (position pos of a
/// length-n sentence pairs with [max(0, pos-window), min(n-1, pos+window)]
/// minus itself), one (document, token) pair per token for PV-DBOW
/// otherwise. CountStream sums it into the LR-schedule denominator and the
/// sharded trainer prices each batch with it, so both trainers' learning
/// rates agree at matching (epoch, pair) slots.
[[nodiscard]] int64_t SequencePairs(const std::vector<int>& sentence,
                                    int window, bool skipgram_window);

/// Everything the trainers need from one streaming counting pass, all in
/// int64_t so ≥10M-edge corpora (billions of pairs) cannot overflow int:
/// sentence/token totals, the exact positive-pair count per epoch (the
/// LR-schedule denominator: SequencePairs summed over the stream), and
/// per-token occurrence counts for noise-distribution construction.
struct StreamStats {
  int64_t num_sentences = 0;
  int64_t total_tokens = 0;
  int64_t pairs_per_epoch = 0;
  std::vector<int64_t> token_counts;  ///< Size max(vocab_hint, max id + 1).
};

/// One full pass over `source` (Reset, then drain): counts sentences,
/// tokens and positive pairs — window-clipped skip-gram pairs when
/// `skipgram_window` is set, one pair per token (PV-DBOW) otherwise — and
/// tallies per-token occurrences. Token ids must be non-negative
/// (CHECKed); `vocab_size_hint` pre-sizes the count table. Leaves the
/// source at end of stream.
[[nodiscard]] StreamStats CountStream(SentenceSource& source, int window,
                                      bool skipgram_window,
                                      int vocab_size_hint = 0);

/// Noise table from streaming occurrence counts: pow(count + base_count,
/// power) per token over a table of `vocab_size` entries — the same
/// unigram^power convention as Vocabulary::NoiseDistribution (with
/// base_count 0, a zero-count token keeps weight exactly 0 and is never
/// drawn as a negative). base_count 1 is the walk-corpus convention of
/// embed/node_embeddings.cc, where every vertex counts once before its
/// walk occurrences. CHECKs that no counted token id is >= vocab_size.
[[nodiscard]] std::vector<double> NoiseFromCounts(
    const std::vector<int64_t>& token_counts, int vocab_size, double power,
    int64_t base_count = 0);

}  // namespace x2vec::embed
