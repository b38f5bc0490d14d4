#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "base/check.h"

namespace x2vec::embed {

/// Token vocabulary: bidirectional string <-> dense id map with counts.
class Vocabulary {
 public:
  /// Adds (or finds) a token and bumps its count; returns its id.
  int Add(const std::string& token);
  /// Id of a token, or -1 if unknown.
  int Lookup(const std::string& token) const;
  const std::string& Token(int id) const {
    X2VEC_CHECK(id >= 0 && id < size());
    return tokens_[id];
  }
  int64_t Count(int id) const {
    X2VEC_CHECK(id >= 0 && id < size());
    return counts_[id];
  }
  int size() const { return static_cast<int>(tokens_.size()); }

  /// Unigram counts raised to `power` (word2vec uses 0.75) — the negative-
  /// sampling distribution. Convention shared with NoiseFromCounts
  /// (embed/stream.h): weights are pow(count, power) on the *raw* counts, so
  /// a zero-count token keeps weight exactly 0 and is never drawn as a
  /// negative. (Vocabulary counts come from observed tokens and are >= 1;
  /// the zero-count case matters for callers that build tables over a
  /// larger id space.)
  std::vector<double> NoiseDistribution(double power = 0.75) const;

 private:
  std::unordered_map<std::string, int> index_;
  std::vector<std::string> tokens_;
  std::vector<int64_t> counts_;
};

/// A corpus is a list of sentences of token ids.
struct Corpus {
  Vocabulary vocab;
  std::vector<std::vector<int>> sentences;

  /// Builds from tokenised string sentences.
  static Corpus FromSentences(
      const std::vector<std::vector<std::string>>& sentences);

  int64_t TotalTokens() const;
};

}  // namespace x2vec::embed
