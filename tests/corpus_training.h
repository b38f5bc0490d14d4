#pragma once

// In-memory forms of the four streaming trainers (embed/sgns.h), shared by
// the tests: a CorpusSource replays the sentences verbatim. Skip-gram
// takes its noise table from the corpus vocabulary and its totals from
// one CountStream pass; PV-DBOW counts the documents itself.

#include <cstdint>
#include <vector>

#include "base/budget.h"
#include "base/rng.h"
#include "base/status.h"
#include "embed/corpus.h"
#include "embed/sgns.h"
#include "embed/stream.h"

namespace x2vec {

inline StatusOr<embed::SgnsModel> TrainSgnsOnCorpus(
    const embed::Corpus& corpus, const embed::SgnsOptions& options, Rng& rng,
    Budget& budget) {
  embed::CorpusSource source(corpus.sentences);
  const embed::StreamStats stats =
      embed::CountStream(source, options.window, /*skipgram_window=*/true,
                         corpus.vocab.size());
  return embed::TrainSgnsStreaming(
      source, stats, corpus.vocab.NoiseDistribution(options.noise_power),
      options, rng, budget);
}

inline StatusOr<embed::SgnsModel> TrainSgnsShardedOnCorpus(
    const embed::Corpus& corpus, const embed::SgnsOptions& options,
    uint64_t seed, Budget& budget) {
  embed::CorpusSource source(corpus.sentences);
  const embed::StreamStats stats =
      embed::CountStream(source, options.window, /*skipgram_window=*/true,
                         corpus.vocab.size());
  return embed::TrainSgnsShardedStreaming(
      source, stats, corpus.vocab.NoiseDistribution(options.noise_power),
      options, seed, budget);
}

inline StatusOr<embed::SgnsModel> TrainPvDbowOnDocuments(
    const std::vector<std::vector<int>>& documents, int vocab_size,
    const embed::SgnsOptions& options, Rng& rng, Budget& budget) {
  embed::CorpusSource source(documents);
  return embed::TrainPvDbowStreaming(source, vocab_size, options, rng, budget);
}

inline StatusOr<embed::SgnsModel> TrainPvDbowShardedOnDocuments(
    const std::vector<std::vector<int>>& documents, int vocab_size,
    const embed::SgnsOptions& options, uint64_t seed, Budget& budget) {
  embed::CorpusSource source(documents);
  return embed::TrainPvDbowShardedStreaming(source, vocab_size, options, seed,
                                            budget);
}

}  // namespace x2vec
