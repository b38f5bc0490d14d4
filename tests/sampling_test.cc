// Sampling-fidelity tests (ctest label: metrics): the exact window-clipped
// positive-pair schedule shared by the sequential and sharded SGNS
// trainers, negative-sampling collision redraws (counted via base/metrics
// rather than silently dropped), and the distribution of the roulette-draw
// node2vec step.

#include "embed/sgns.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/metrics.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "corpus_training.h"
#include "embed/corpus.h"
#include "embed/stream.h"
#include "embed/walks.h"
#include "graph/graph.h"

namespace x2vec {
namespace {

using graph::Graph;
using graph::GraphView;
using metrics::Delta;
using metrics::GlobalSnapshot;
using metrics::Snapshot;

// Reference pair count: enumerate exactly the (center, context) pairs the
// sequential trainer's loop visits.
int64_t BruteForcePairs(const std::vector<std::vector<int>>& sequences,
                        int window) {
  int64_t pairs = 0;
  for (const std::vector<int>& seq : sequences) {
    const int len = static_cast<int>(seq.size());
    for (int pos = 0; pos < len; ++pos) {
      for (int other = std::max(0, pos - window);
           other <= std::min(len - 1, pos + window); ++other) {
        if (other != pos) ++pairs;
      }
    }
  }
  return pairs;
}

TEST(SequencePairsTest, MatchesBruteForceOnEdgeWindowSequences) {
  // Lengths below, at and above the window, where the old 2*window*|seq|
  // upper bound overcounted the most.
  const std::vector<std::vector<int>> sequences = {
      {0}, {1, 2}, {0, 1, 2}, {3, 1, 4, 1, 5}, {0, 1, 2, 3, 4, 5, 6, 7, 8}};
  for (int window : {1, 2, 4, 10}) {
    for (size_t s = 0; s < sequences.size(); ++s) {
      EXPECT_EQ(embed::SequencePairs(sequences[s], window,
                                     /*skipgram_window=*/true),
                BruteForcePairs({sequences[s]}, window))
          << "window " << window << " seq " << s;
    }
  }
}

TEST(SequencePairsTest, PvDbowCountsOnePairPerToken) {
  const std::vector<std::vector<int>> documents = {{0, 1, 2}, {}, {4, 4}};
  for (const std::vector<int>& document : documents) {
    EXPECT_EQ(embed::SequencePairs(document, /*window=*/4,
                                   /*skipgram_window=*/false),
              static_cast<int64_t>(document.size()));
  }
}

embed::Corpus ShortSentenceCorpus() {
  // Every sentence is shorter than 2*window, so the exact window-clipped
  // count differs from the old upper bound on every single pair.
  std::vector<std::vector<std::string>> sentences;
  for (int s = 0; s < 10; ++s) {
    std::vector<std::string> sentence;
    for (int t = 0; t < 3 + s % 3; ++t) {
      sentence.push_back("w" + std::to_string((s + t * 3) % 7));
    }
    sentences.push_back(std::move(sentence));
  }
  return embed::Corpus::FromSentences(sentences);
}

TEST(ScheduleParityTest, BothTrainersEnumerateTheExactPairCount) {
  const embed::Corpus corpus = ShortSentenceCorpus();
  embed::SgnsOptions options;
  options.dimension = 4;
  options.window = 4;
  metrics::SetEnabled(true);
  for (int epochs : {1, 2, 3}) {
    options.epochs = epochs;
    const int64_t expected =
        epochs * BruteForcePairs(corpus.sentences, options.window);

    Snapshot before = GlobalSnapshot();
    Rng rng = MakeRng(11);
    Budget unlimited;
    ASSERT_TRUE(TrainSgnsOnCorpus(corpus, options, rng, unlimited).ok());
    EXPECT_EQ(Delta(before, GlobalSnapshot()).counter("sgns.pairs"), expected)
        << "sequential, epochs " << epochs;

    before = GlobalSnapshot();
    ASSERT_TRUE(TrainSgnsShardedOnCorpus(corpus, options, 11, unlimited).ok());
    EXPECT_EQ(Delta(before, GlobalSnapshot()).counter("sgns.pairs"), expected)
        << "sharded, epochs " << epochs;
  }
}

TEST(ScheduleParityTest, SequentialDecayReachesTheFloor) {
  // Regression for the 2*window*|seq| upper bound: with short sentences the
  // sequential schedule never came near its 1e-4 floor because total_pairs
  // was overcounted. With exact accounting, `seen` hits total_pairs on the
  // last pair and the end-of-training LR is exactly the floor — the same
  // value the sharded trainer's schedule produces.
  const embed::Corpus corpus = ShortSentenceCorpus();
  embed::SgnsOptions options;
  options.dimension = 4;
  options.window = 4;
  options.epochs = 2;
  metrics::SetEnabled(true);

  Snapshot before = GlobalSnapshot();
  Rng rng = MakeRng(11);
  Budget unlimited;
  ASSERT_TRUE(TrainSgnsOnCorpus(corpus, options, rng, unlimited).ok());
  const double sequential_lr =
      Delta(before, GlobalSnapshot()).gauge("sgns.lr_epoch_end");
  EXPECT_DOUBLE_EQ(sequential_lr, options.learning_rate * 1e-4);

  before = GlobalSnapshot();
  ASSERT_TRUE(TrainSgnsShardedOnCorpus(corpus, options, 11, unlimited).ok());
  const double sharded_lr =
      Delta(before, GlobalSnapshot()).gauge("sgns.lr_epoch_end");
  EXPECT_EQ(sequential_lr, sharded_lr);
}

TEST(NegativeSamplingTest, EveryPairTrainsAgainstAllNegatives) {
  // Redraw-on-collision means the usable-negative count is exactly
  // pairs * options.negatives whenever no draw exhausts its retries —
  // previously collisions silently dropped negatives.
  const embed::Corpus corpus = ShortSentenceCorpus();
  embed::SgnsOptions options;
  options.dimension = 4;
  options.window = 2;
  options.epochs = 2;
  options.negatives = 5;
  metrics::SetEnabled(true);

  const Snapshot before = GlobalSnapshot();
  Rng rng = MakeRng(3);
  Budget unlimited;
  ASSERT_TRUE(TrainSgnsOnCorpus(corpus, options, rng, unlimited).ok());
  const Snapshot delta = Delta(before, GlobalSnapshot());
  EXPECT_EQ(delta.counter("sgns.negative_exhausted"), 0);
  EXPECT_EQ(delta.counter("sgns.negatives"),
            delta.counter("sgns.pairs") * options.negatives);
  // The skewed unigram table collides sometimes, so the redraw path is
  // actually exercised (deterministic under the fixed seed).
  EXPECT_GT(delta.counter("sgns.negative_redraws"), 0);
}

TEST(NegativeSamplingTest, DegenerateNoiseTableGivesUpAfterBoundedRetries) {
  // A single-token vocabulary makes every draw collide with the positive:
  // the trainer must terminate, draw zero usable negatives and count every
  // slot as exhausted.
  const std::vector<std::vector<int>> documents = {{0, 0, 0}, {0}};
  embed::SgnsOptions options;
  options.dimension = 4;
  options.epochs = 1;
  options.negatives = 3;
  metrics::SetEnabled(true);

  const Snapshot before = GlobalSnapshot();
  Rng rng = MakeRng(4);
  Budget unlimited;
  ASSERT_TRUE(TrainPvDbowOnDocuments(documents, /*vocab_size=*/1, options, rng,
                                     unlimited)
                  .ok());
  const Snapshot delta = Delta(before, GlobalSnapshot());
  EXPECT_EQ(delta.counter("sgns.pairs"), 4);
  EXPECT_EQ(delta.counter("sgns.negatives"), 0);
  EXPECT_EQ(delta.counter("sgns.negative_exhausted"),
            delta.counter("sgns.pairs") * options.negatives);
}

TEST(Node2VecStepTest, DeadEndReturnsMinusOne) {
  Graph g(3);
  g.AddEdge(0, 1);  // Vertex 2 is isolated.
  embed::WalkOptions options;
  Rng rng = MakeRng(1);
  EXPECT_EQ(embed::Node2VecStep(GraphView(g), -1, 2, options, rng), -1);
}

TEST(Node2VecStepTest, RouletteMatchesTheNode2VecDistribution) {
  // Star-with-a-chord geometry around current = 1, previous = 0:
  //   neighbor 0: the return edge, weight 1/p
  //   neighbor 2: adjacent to previous (edge 0-2), weight 1
  //   neighbors 3, 4: outward, weight 1/q each
  Graph g(5);
  g.AddEdge(1, 0);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(1, 4);
  g.AddEdge(0, 2);
  embed::WalkOptions options;
  options.p = 0.25;  // Return weight 4.
  options.q = 4.0;   // Outward weight 0.25.
  const double total = 4.0 + 1.0 + 0.25 + 0.25;
  const std::vector<double> expected_probability = {
      4.0 / total, 1.0 / total, 0.25 / total, 0.25 / total};

  constexpr int kDraws = 20000;
  std::vector<int> observed(5, 0);
  Rng rng = MakeRng(99);
  for (int i = 0; i < kDraws; ++i) {
    const int next = embed::Node2VecStep(GraphView(g), /*previous=*/0,
                                         /*current=*/1, options, rng);
    ASSERT_GE(next, 0);
    ASSERT_NE(next, 1);
    ++observed[next];
  }
  EXPECT_EQ(observed[1], 0);

  // Chi-square against the exact probabilities; 3 degrees of freedom, so
  // 16.27 is the p = 0.001 cutoff. Deterministic under the fixed seed.
  const std::vector<int> targets = {0, 2, 3, 4};
  double chi_square = 0.0;
  for (size_t i = 0; i < targets.size(); ++i) {
    const double expected = expected_probability[i] * kDraws;
    const double diff = observed[targets[i]] - expected;
    chi_square += diff * diff / expected;
  }
  EXPECT_LT(chi_square, 16.27) << "chi-square " << chi_square;
}

// The PV-DBOW trainers' noise table: one counting pass, then unigram^power.
std::vector<double> DocumentNoise(
    const std::vector<std::vector<int>>& documents, int vocab_size,
    double noise_power) {
  embed::CorpusSource source(documents);
  const embed::StreamStats stats = embed::CountStream(
      source, /*window=*/1, /*skipgram_window=*/false, vocab_size);
  return embed::NoiseFromCounts(stats.token_counts, vocab_size, noise_power);
}

TEST(NoiseDistributionTest, ZeroCountTokensAreNeverDrawn) {
  // Regression: PV-DBOW's noise table used to clamp counts to
  // max(c, 1e-9) before pow, giving never-observed tokens nonzero
  // negative-sampling probability — diverging from the SGNS path, which
  // leaves them at exactly 0. Both paths now share the un-clamped
  // unigram^power convention.
  const int kVocab = 10;
  // Tokens 5..9 never occur.
  const std::vector<std::vector<int>> documents = {
      {0, 1, 2, 0, 3}, {4, 4, 1}, {2, 0}};
  const std::vector<double> weights =
      DocumentNoise(documents, kVocab, /*noise_power=*/0.75);
  ASSERT_EQ(weights.size(), static_cast<size_t>(kVocab));
  for (int token = 5; token < kVocab; ++token) {
    EXPECT_EQ(weights[token], 0.0) << token;
  }
  const AliasTable noise(weights);
  Rng rng = MakeRng(17);
  std::vector<int> observed(kVocab, 0);
  for (int draw = 0; draw < 20000; ++draw) ++observed[noise.Sample(rng)];
  for (int token = 0; token < 5; ++token) {
    EXPECT_GT(observed[token], 0) << token;
  }
  for (int token = 5; token < kVocab; ++token) {
    EXPECT_EQ(observed[token], 0) << "zero-count token drawn: " << token;
  }
}

TEST(NoiseDistributionTest, PvDbowMatchesVocabularyConvention) {
  // The same token counts must give the same noise weights through both
  // entry points (SGNS builds from Vocabulary counts, PV-DBOW from raw
  // token-id documents).
  const std::vector<std::vector<std::string>> sentences = {
      {"a", "b", "a"}, {"c", "a", "b"}};
  const embed::Corpus corpus = embed::Corpus::FromSentences(sentences);
  std::vector<std::vector<int>> documents(sentences.size());
  for (size_t s = 0; s < sentences.size(); ++s) {
    for (const std::string& token : sentences[s]) {
      documents[s].push_back(corpus.vocab.Lookup(token));
    }
  }
  const std::vector<double> from_vocab =
      corpus.vocab.NoiseDistribution(/*power=*/0.75);
  EXPECT_EQ(from_vocab, DocumentNoise(documents, corpus.vocab.size(),
                                      /*noise_power=*/0.75));
}

TEST(NoiseDistributionTest, AllEmptyDocumentsAreAnExplicitError) {
  // The degenerate all-zero table is rejected up front (it cannot be
  // sampled from), instead of being silently clamped into a uniform one.
  embed::SgnsOptions options;
  options.dimension = 4;
  options.epochs = 1;
  Rng rng = MakeRng(3);
  Budget unlimited;
  const StatusOr<embed::SgnsModel> model = TrainPvDbowOnDocuments(
      {{}, {}}, /*vocab_size=*/4, options, rng, unlimited);
  EXPECT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
}

TEST(Node2VecStepTest, UniformFastPathCoversAllNeighbors) {
  // p = q = 1 (and the first step of any walk) takes the single-UniformInt
  // path; every neighbor must stay reachable with roughly equal mass.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  embed::WalkOptions options;
  std::vector<int> observed(4, 0);
  Rng rng = MakeRng(7);
  constexpr int kDraws = 6000;
  for (int i = 0; i < kDraws; ++i) {
    ++observed[embed::Node2VecStep(GraphView(g), -1, 0, options, rng)];
  }
  EXPECT_EQ(observed[0], 0);
  for (int v = 1; v < 4; ++v) {
    EXPECT_GT(observed[v], kDraws / 3 - 300) << v;
    EXPECT_LT(observed[v], kDraws / 3 + 300) << v;
  }
}

TEST(Node2VecStepTest, DegenerateWeightsStillReturnANeighbor) {
  // Extreme p pushes nearly all mass onto the return edge; the roulette
  // must still return a valid neighbor (floating-point slack lands on the
  // last one, never out of range).
  Graph g(3);
  g.AddEdge(1, 0);
  g.AddEdge(1, 2);
  embed::WalkOptions options;
  options.p = 1e-12;
  options.q = 1e12;
  Rng rng = MakeRng(13);
  for (int i = 0; i < 200; ++i) {
    const int next = embed::Node2VecStep(GraphView(g), 0, 1, options, rng);
    EXPECT_TRUE(next == 0 || next == 2);
  }
}

}  // namespace
}  // namespace x2vec
