#include "embed/stream.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/metrics.h"

namespace x2vec::embed {

bool CorpusSource::Next(std::vector<int>& sentence) {
  if (next_ >= sentences_->size()) return false;
  sentence = (*sentences_)[next_++];
  X2VEC_METRIC_COUNT("stream.sentences", 1);
  return true;
}

WalkSource::WalkSource(graph::GraphView graph, const WalkOptions& options,
                       uint64_t seed)
    : graph_(graph), options_(options), seed_(seed) {
  CheckWalkOptions(options);
  X2VEC_CHECK_GE(options.walks_per_node, 0);
  n_ = graph.NumVertices();
  passes_ = options.walks_per_node;
  Reset();
}

void WalkSource::LoadPass(int64_t pass) {
  // The per-pass shuffle stream of GenerateWalksParallel: only one pass's
  // permutation is ever resident.
  Rng shuffle = Rng::Fork(seed_, passes_ * n_ + pass);
  starts_ = RandomPermutation(static_cast<int>(n_), shuffle);
}

void WalkSource::Reset() {
  pass_ = 0;
  index_ = 0;
  if (n_ > 0 && passes_ > 0) LoadPass(0);
}

bool WalkSource::Next(std::vector<int>& sentence) {
  if (n_ == 0 || pass_ >= passes_) return false;
  const int start = starts_[index_];
  // The walk's own stream, keyed by (pass, start vertex) exactly as in
  // GenerateWalksParallel — the streamed corpus is that corpus, replayed.
  Rng rng = Rng::Fork(seed_, pass_ * n_ + start);
  sentence = GenerateWalk(graph_, start, options_, rng);
  if (++index_ == n_) {
    index_ = 0;
    if (++pass_ < passes_) LoadPass(pass_);
  }
  X2VEC_METRIC_COUNT("stream.sentences", 1);
  X2VEC_METRIC_COUNT("stream.walks", 1);
  return true;
}

ShuffleBufferSource::ShuffleBufferSource(SentenceSource& upstream,
                                         int64_t capacity, uint64_t seed)
    : upstream_(&upstream),
      capacity_(capacity),
      seed_(seed),
      rng_(Rng::Fork(seed, 0)) {
  X2VEC_CHECK_GE(capacity, 1);
}

void ShuffleBufferSource::Reset() {
  upstream_->Reset();
  rng_ = Rng::Fork(seed_, 0);
  buffer_.clear();
  upstream_done_ = false;
  primed_ = false;
}

void ShuffleBufferSource::Fill() {
  std::vector<int> sentence;
  while (static_cast<int64_t>(buffer_.size()) < capacity_ &&
         !upstream_done_) {
    if (upstream_->Next(sentence)) {
      buffer_.push_back(std::move(sentence));
    } else {
      upstream_done_ = true;
      X2VEC_METRIC_COUNT("stream.source_stalls", 1);
    }
  }
}

bool ShuffleBufferSource::Next(std::vector<int>& sentence) {
  if (!primed_) {
    Fill();
    primed_ = true;
  }
  if (buffer_.empty()) return false;
  // One uniform draw per emitted sentence, from the source's own forked
  // stream: the output order is a function of (upstream order, capacity,
  // seed) alone.
  const int64_t j =
      UniformInt(rng_, 0, static_cast<int64_t>(buffer_.size()) - 1);
  sentence = std::move(buffer_[j]);
  std::vector<int> refill;
  if (!upstream_done_ && upstream_->Next(refill)) {
    buffer_[j] = std::move(refill);
  } else {
    if (!upstream_done_) {
      upstream_done_ = true;
      X2VEC_METRIC_COUNT("stream.source_stalls", 1);
    }
    buffer_[j] = std::move(buffer_.back());
    buffer_.pop_back();
  }
  X2VEC_METRIC_OBSERVE("stream.shuffle_occupancy",
                       ({64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0}),
                       static_cast<double>(buffer_.size()));
  return true;
}

int64_t SequencePairs(const std::vector<int>& sentence, int window,
                      bool skipgram_window) {
  const int len = static_cast<int>(sentence.size());
  if (!skipgram_window) return len;
  int64_t pairs = 0;
  for (int pos = 0; pos < len; ++pos) {
    const int lo = std::max(0, pos - window);
    const int hi = std::min(len - 1, pos + window);
    pairs += hi - lo;  // Excludes the centre itself.
  }
  return pairs;
}

StreamStats CountStream(SentenceSource& source, int window,
                        bool skipgram_window, int vocab_size_hint) {
  StreamStats stats;
  if (vocab_size_hint > 0) {
    stats.token_counts.assign(static_cast<size_t>(vocab_size_hint), 0);
  }
  source.Reset();
  std::vector<int> seq;
  while (source.Next(seq)) {
    ++stats.num_sentences;
    stats.total_tokens += static_cast<int64_t>(seq.size());
    stats.pairs_per_epoch += SequencePairs(seq, window, skipgram_window);
    for (const int token : seq) {
      X2VEC_CHECK_GE(token, 0);
      if (token >= static_cast<int>(stats.token_counts.size())) {
        stats.token_counts.resize(static_cast<size_t>(token) + 1, 0);
      }
      ++stats.token_counts[token];
    }
  }
  X2VEC_METRIC_COUNT("stream.count_passes", 1);
  return stats;
}

std::vector<double> NoiseFromCounts(const std::vector<int64_t>& token_counts,
                                    int vocab_size, double power,
                                    int64_t base_count) {
  X2VEC_CHECK_GT(vocab_size, 0);
  X2VEC_CHECK_LE(static_cast<int64_t>(token_counts.size()), vocab_size)
      << "counted token id exceeds vocab_size";
  std::vector<double> weights(static_cast<size_t>(vocab_size));
  for (int i = 0; i < vocab_size; ++i) {
    const int64_t count =
        (i < static_cast<int>(token_counts.size()) ? token_counts[i] : 0) +
        base_count;
    // pow on the raw count — the shared unigram^power convention: count 0
    // stays exactly 0 and is never drawn as a negative.
    weights[i] = std::pow(static_cast<double>(count), power);
  }
  return weights;
}

}  // namespace x2vec::embed
