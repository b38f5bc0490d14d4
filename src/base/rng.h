#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "base/check.h"
#include "base/status.h"

namespace x2vec {

/// SplitMix64 mix of a base seed and a stream id — the seed-derivation
/// function behind Rng::Fork. Statistically decorrelates sibling streams
/// even for consecutive stream ids, and is a pure function of its inputs,
/// so derived streams are stable across platforms, runs and thread counts.
inline uint64_t MixSeed(uint64_t base, uint64_t stream) {
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (stream + 0x632be59bd9b4e019ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// MT19937-64 (Matsumoto and Nishimura), draw for draw the generator
/// std::mt19937_64 is: the same seeding recurrence, twist and tempering,
/// and the same text state. It differs from std in when it does the work.
///
/// - The first block after seeding is twisted lazily, kChunk words at a
///   time. Word k < 156 of that block needs only seed words 0..k+156; word
///   k >= 156 needs seed words k and k+1 and twisted word k-156; word 311
///   needs seed word 311 and twisted words 0 and 155. A stream that takes
///   a handful of draws therefore computes 156 + kChunk of the 312 seed
///   words and twists kChunk words. Rng::Fork streams are mostly that
///   short.
/// - The twist selects its matrix term with a mask, not with a branch that
///   mispredicts on half the words.
///
/// Seed words past the computed prefix stay unset until the chain reaches
/// them, and a copy copies only the words that are set.
class MersenneTwister64 {
 public:
  using result_type = uint64_t;

  /// Words in a block (std::mt19937_64::state_size).
  static constexpr size_t kWords = 312;
  /// std::mt19937_64::default_seed.
  static constexpr uint64_t kDefaultSeed = 5489;

  MersenneTwister64() : MersenneTwister64(kDefaultSeed) {}
  explicit MersenneTwister64(uint64_t seed) { words_[0] = seed; }
  MersenneTwister64(const MersenneTwister64& other) { *this = other; }
  MersenneTwister64& operator=(const MersenneTwister64& other) {
    if (this == &other) return *this;
    std::copy_n(other.words_, other.seeded_, words_);
    pos_ = other.pos_;
    ready_ = other.ready_;
    seeded_ = other.seeded_;
    return *this;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= ready_) [[unlikely]] Refill();
    uint64_t z = words_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// The text std's `operator<<` writes for the same engine: the 312
  /// block words and the position, as decimals separated by spaces. A
  /// freshly seeded engine writes its seed words and position 312; one in
  /// the lazy first block writes that block fully twisted.
  [[nodiscard]] std::string SaveState() const;

  /// Reads text as std's `operator>>` does (312 words, then a position,
  /// with its number parsing) and fails exactly when it fails, leaving the
  /// engine untouched.
  [[nodiscard]] bool LoadState(const std::string& text);

 private:
  /// Words the lazy first block twists per refill.
  static constexpr size_t kChunk = 16;

  /// Twists the next chunk of the first block, or the next whole block.
  void Refill();
  /// Extends the seed chain to words [0, end).
  void Seed(size_t end);
  /// Twists words [begin, end) of the block in place, in std's order.
  void Twist(size_t begin, size_t end);

  uint64_t words_[kWords];
  /// Next word to temper. Like std's position it may exceed kWords after
  /// LoadState; any value >= ready_ twists on the next draw.
  size_t pos_ = 0;
  /// Words [0, ready_) of the current block are twisted: kWords except in
  /// the lazy first block, 0 before its first draw.
  size_t ready_ = 0;
  /// Words [0, seeded_) are set: twisted below ready_, seed words above
  /// it. kWords once the seed chain is complete.
  size_t seeded_ = 1;
};

/// Deterministic random source shared across the library. Every randomised
/// algorithm takes an Rng& (or a seed) explicitly so experiments are
/// reproducible; there is no global generator.
///
/// Rng wraps a MersenneTwister64 behind a virtual raw-draw so the fault-
/// injection harness (tests/robustness_test.cc) can subclass it and feed
/// algorithms scripted or degenerate bit streams. The default path forwards
/// straight to the engine, so draws, and therefore every experiment, are
/// those of std::mt19937_64 seeded alike, and the saved engine state is
/// its text. A fork (seed plus a few draws) costs about 0.4 us, almost all
/// of it the 157-word seeding chain no MT19937-compatible engine can skip.
class Rng {
 public:
  using result_type = MersenneTwister64::result_type;

  Rng() = default;
  explicit Rng(uint64_t seed) : engine_(seed) {}
  virtual ~Rng() = default;

  static constexpr result_type min() { return MersenneTwister64::min(); }
  static constexpr result_type max() { return MersenneTwister64::max(); }

  /// Raw 64-bit draw; the single override point for fault injection.
  virtual result_type operator()() { return engine_(); }

  /// Derives an independent generator for logical stream `stream` of
  /// `base_seed` via MixSeed. Parallel algorithms fork one stream per work
  /// item (a start node, a sequence) — never per thread — so their draws
  /// are bit-identical at any thread count.
  static Rng Fork(uint64_t base_seed, uint64_t stream) {
    return Rng(MixSeed(base_seed, stream));
  }

  /// Serialises the full engine state as whitespace-separated decimal
  /// words (std::mt19937_64's stream format), so a training run can be
  /// checkpointed at an epoch barrier and resumed with the exact same draw
  /// sequence. Subclass state (fault-injection counters) is not captured.
  [[nodiscard]] std::string SaveEngineState() const;

  /// Restores an engine state produced by SaveEngineState. Returns
  /// kCorruptedData when the text does not parse as a full engine state;
  /// the engine is left untouched on failure.
  [[nodiscard]] Status LoadEngineState(const std::string& state);

 protected:
  MersenneTwister64 engine_;
};

/// Creates a generator from a fixed seed.
inline Rng MakeRng(uint64_t seed) { return Rng(seed); }

/// Uniform integer in [lo, hi] inclusive.
inline int64_t UniformInt(Rng& rng, int64_t lo, int64_t hi) {
  X2VEC_CHECK_LE(lo, hi);
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

/// Uniform real in [lo, hi).
inline double UniformReal(Rng& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

/// Standard normal draw.
inline double Gaussian(Rng& rng) {
  return std::normal_distribution<double>(0.0, 1.0)(rng);
}

/// Bernoulli draw with success probability p.
inline bool Coin(Rng& rng, double p) {
  return std::bernoulli_distribution(p)(rng);
}

/// Returns a uniformly shuffled copy of [0, n).
std::vector<int> RandomPermutation(int n, Rng& rng);

/// Samples k distinct indices from [0, n) uniformly (k <= n).
std::vector<int> SampleWithoutReplacement(int n, int k, Rng& rng);

/// Walker alias table for O(1) sampling from a fixed discrete distribution.
/// Used by node2vec transition sampling and SGNS negative sampling.
class AliasTable {
 public:
  /// Builds the table from unnormalised non-negative weights (not all zero).
  explicit AliasTable(const std::vector<double>& weights);

  /// Draws an index with probability proportional to its weight.
  int Sample(Rng& rng) const;

  int size() const { return static_cast<int>(prob_.size()); }

 private:
  std::vector<double> prob_;
  std::vector<int> alias_;
};

}  // namespace x2vec
