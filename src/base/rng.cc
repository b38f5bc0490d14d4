#include "base/rng.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <sstream>

namespace x2vec {

namespace {

// MT19937-64's parameters, as std::mt19937_64 names them.
constexpr size_t kShift = 156;                            // m
constexpr uint64_t kMatrix = 0xb5026f5aa96619e9ULL;       // a
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;       // r = 31
constexpr uint64_t kSeedMultiplier = 6364136223846793005ULL;  // f

// One twisted word: `far` xor the shifted join of `upper`'s high bits and
// `lower`'s low bits, xor the matrix when the join is odd.
inline uint64_t TwistWord(uint64_t upper, uint64_t lower, uint64_t far) {
  const uint64_t y = (upper & kUpperMask) | (lower & ~kUpperMask);
  return far ^ (y >> 1) ^ (-(y & 1) & kMatrix);
}

}  // namespace

void MersenneTwister64::Seed(size_t end) {
  for (size_t i = seeded_; i < end; ++i) {
    const uint64_t x = words_[i - 1];
    words_[i] = kSeedMultiplier * (x ^ (x >> 62)) + i;
  }
  seeded_ = std::max(seeded_, end);
}

void MersenneTwister64::Twist(size_t begin, size_t end) {
  size_t k = begin;
  for (; k < std::min(end, kWords - kShift); ++k) {
    words_[k] = TwistWord(words_[k], words_[k + 1], words_[k + kShift]);
  }
  for (; k < std::min(end, kWords - 1); ++k) {
    words_[k] = TwistWord(words_[k], words_[k + 1], words_[k - kShift]);
  }
  if (k == kWords - 1 && end == kWords) {
    words_[k] = TwistWord(words_[k], words_[0], words_[kShift - 1]);
  }
}

void MersenneTwister64::Refill() {
  if (ready_ == kWords) {
    Twist(0, kWords);
    pos_ = 0;
    return;
  }
  // The first block: seed only as far as the next chunk reads.
  const size_t end = std::min(ready_ + kChunk, kWords);
  Seed(std::min(end + kShift, kWords));
  Twist(ready_, end);
  ready_ = end;
}

std::string MersenneTwister64::SaveState() const {
  MersenneTwister64 full = *this;
  full.Seed(kWords);
  // Before its first draw std holds the seed words at position kWords.
  const size_t pos = ready_ == 0 ? kWords : pos_;
  if (ready_ > 0) full.Twist(ready_, kWords);
  std::string text;
  for (uint64_t word : full.words_) {
    text += std::to_string(word);
    text += ' ';
  }
  text += std::to_string(pos);
  return text;
}

bool MersenneTwister64::LoadState(const std::string& text) {
  std::istringstream in(text);
  uint64_t words[kWords];
  for (uint64_t& word : words) in >> word;
  size_t pos = 0;
  in >> pos;
  if (in.fail()) return false;
  std::copy(std::begin(words), std::end(words), words_);
  pos_ = pos;
  ready_ = kWords;
  seeded_ = kWords;
  return true;
}

std::string Rng::SaveEngineState() const { return engine_.SaveState(); }

Status Rng::LoadEngineState(const std::string& state) {
  if (!engine_.LoadState(state)) {
    return Status::CorruptedData(
        "mt19937_64 engine state does not parse (expected " +
        std::to_string(MersenneTwister64::kWords) +
        " decimal words plus a position)");
  }
  return Status::Ok();
}

std::vector<int> RandomPermutation(int n, Rng& rng) {
  X2VEC_CHECK_GE(n, 0);
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  return perm;
}

std::vector<int> SampleWithoutReplacement(int n, int k, Rng& rng) {
  X2VEC_CHECK_GE(k, 0);
  X2VEC_CHECK_LE(k, n);
  // Partial Fisher-Yates: only the first k positions are materialised.
  std::vector<int> pool(n);
  std::iota(pool.begin(), pool.end(), 0);
  for (int i = 0; i < k; ++i) {
    int j = static_cast<int>(UniformInt(rng, i, n - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

AliasTable::AliasTable(const std::vector<double>& weights) {
  const int n = static_cast<int>(weights.size());
  X2VEC_CHECK_GT(n, 0);
  double total = 0.0;
  for (double w : weights) {
    X2VEC_CHECK_GE(w, 0.0);
    total += w;
  }
  X2VEC_CHECK_GT(total, 0.0) << "alias table needs a positive total weight";

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (int i = 0; i < n; ++i) {
    scaled[i] = weights[i] * n / total;
  }
  std::vector<int> small;
  std::vector<int> large;
  for (int i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    int s = small.back();
    small.pop_back();
    int l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (int i : large) {
    prob_[i] = 1.0;
    alias_[i] = i;
  }
  for (int i : small) {
    // Only reachable through floating-point round-off; treat as full bucket.
    prob_[i] = 1.0;
    alias_[i] = i;
  }
}

int AliasTable::Sample(Rng& rng) const {
  const int n = size();
  int bucket = static_cast<int>(UniformInt(rng, 0, n - 1));
  if (UniformReal(rng, 0.0, 1.0) < prob_[bucket]) {
    return bucket;
  }
  return alias_[bucket];
}

}  // namespace x2vec
