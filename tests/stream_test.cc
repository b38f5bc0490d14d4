// Streaming walk-corpus pipeline (`ctest -L stream`): SentenceSource
// adapters, the walk-generator source against the materialised parallel
// corpus, the deterministic bounded shuffle buffer, the streaming counting
// pass, and end-to-end bit-identity of the streaming trainers with the
// in-memory paths over both graph backends.

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "embed/corpus.h"
#include "embed/node_embeddings.h"
#include "embed/sgns.h"
#include "embed/stream.h"
#include "embed/walks.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"

namespace x2vec::embed {
namespace {

using graph::CsrGraph;
using graph::Graph;
using graph::GraphView;

std::vector<std::vector<int>> Drain(SentenceSource& source) {
  std::vector<std::vector<int>> out;
  std::vector<int> sentence;
  source.Reset();
  while (source.Next(sentence)) out.push_back(sentence);
  return out;
}

TEST(StreamTest, CorpusSourceReplaysSentencesInOrder) {
  const std::vector<std::vector<int>> sentences = {{1, 2, 3}, {}, {4}, {5, 6}};
  CorpusSource source(sentences);
  EXPECT_EQ(Drain(source), sentences);
  // A second pass after Reset() replays the identical stream.
  EXPECT_EQ(Drain(source), sentences);
}

TEST(StreamTest, WalkSourceReplaysGenerateWalksParallelCorpus) {
  Rng rng = MakeRng(21);
  const Graph g = graph::ErdosRenyiGnp(30, 0.2, rng);
  WalkOptions options;
  options.walks_per_node = 3;
  options.walk_length = 8;
  const uint64_t seed = 99;
  const std::vector<std::vector<int>> materialized =
      GenerateWalksParallel(GraphView(g), options, seed);

  WalkSource source(GraphView(g), options, seed);
  EXPECT_EQ(source.NumSentences(),
            static_cast<int64_t>(materialized.size()));
  EXPECT_EQ(Drain(source), materialized);
  EXPECT_EQ(Drain(source), materialized);  // Replay after Reset().
}

TEST(StreamTest, CsrAndAdjacencyListWalksAreIdentical) {
  // Property: same seed => identical walks over either backend, for both
  // uniform (DeepWalk) and biased (node2vec) stepping, across several
  // random graphs.
  Rng graph_rng = MakeRng(5);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = graph::ErdosRenyiGnp(25, 0.1 + 0.15 * trial, graph_rng);
    const CsrGraph csr = CsrGraph::FromGraph(g);
    WalkOptions options;
    options.walks_per_node = 2;
    options.walk_length = 10;
    options.p = trial % 2 == 0 ? 1.0 : 0.5;
    options.q = trial % 2 == 0 ? 1.0 : 2.0;
    const uint64_t seed = 1000 + trial;
    EXPECT_EQ(GenerateWalksParallel(GraphView(csr), options, seed),
              GenerateWalksParallel(GraphView(g), options, seed))
        << "trial " << trial;
  }
}

TEST(StreamTest, WalksTerminateAtCsrDeadEndsAndIsolatedVertices) {
  // Vertex 3 is isolated; the directed chain 0 -> 1 -> 2 dead-ends at 2.
  const CsrGraph csr =
      CsrGraph::FromEdges(4, {{0, 1}, {1, 2}}, /*directed=*/true);
  const GraphView view(csr);
  WalkOptions options;
  options.walks_per_node = 1;
  options.walk_length = 10;

  Rng rng = MakeRng(1);
  EXPECT_EQ(Node2VecStep(view, /*previous=*/-1, /*current=*/3, options, rng),
            -1);
  EXPECT_EQ(Node2VecStep(view, /*previous=*/1, /*current=*/2, options, rng),
            -1);

  // Walks stop early instead of looping or crashing; every start vertex
  // still yields exactly one sentence.
  EXPECT_EQ(GenerateWalk(view, 3, options, rng), std::vector<int>{3});
  EXPECT_EQ(GenerateWalk(view, 0, options, rng),
            (std::vector<int>{0, 1, 2}));
  WalkSource source(view, options, /*seed=*/7);
  const std::vector<std::vector<int>> walks = Drain(source);
  ASSERT_EQ(walks.size(), 4u);
  std::multiset<int> starts;
  for (const std::vector<int>& walk : walks) {
    ASSERT_FALSE(walk.empty());
    starts.insert(walk.front());
  }
  EXPECT_EQ(starts, (std::multiset<int>{0, 1, 2, 3}));
}

TEST(StreamTest, ShuffleBufferYieldsAPermutationAndReplays) {
  std::vector<std::vector<int>> sentences;
  for (int i = 0; i < 100; ++i) sentences.push_back({i});
  CorpusSource upstream(sentences);
  ShuffleBufferSource shuffled(upstream, /*capacity=*/16, /*seed=*/3);

  const std::vector<std::vector<int>> first = Drain(shuffled);
  ASSERT_EQ(first.size(), sentences.size());
  std::vector<std::vector<int>> sorted = first;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, sentences);      // A permutation: nothing lost or duped.
  EXPECT_NE(first, sentences);       // And actually shuffled at capacity 16.
  EXPECT_EQ(Drain(shuffled), first);  // Reset() replays the same order.
}

TEST(StreamTest, ShuffleBufferCapacityOneIsPassThrough) {
  const std::vector<std::vector<int>> sentences = {{1}, {2}, {3}, {4}};
  CorpusSource upstream(sentences);
  ShuffleBufferSource shuffled(upstream, /*capacity=*/1, /*seed=*/3);
  EXPECT_EQ(Drain(shuffled), sentences);
}

TEST(StreamTest, CountStreamSumsSequencePairs) {
  const std::vector<std::vector<int>> sentences = {
      {0, 1, 2, 3, 4}, {2, 2}, {}, {5, 0, 1}};
  for (const bool skipgram : {true, false}) {
    CorpusSource source(sentences);
    const StreamStats stats =
        CountStream(source, /*window=*/2, skipgram, /*vocab_size_hint=*/6);
    EXPECT_EQ(stats.num_sentences, 4);
    EXPECT_EQ(stats.total_tokens, 10);
    int64_t pairs = 0;
    for (const std::vector<int>& sentence : sentences) {
      pairs += SequencePairs(sentence, 2, skipgram);
    }
    EXPECT_EQ(stats.pairs_per_epoch, pairs);
    ASSERT_EQ(stats.token_counts.size(), 6u);
    EXPECT_EQ(stats.token_counts[0], 2);
    EXPECT_EQ(stats.token_counts[2], 3);
    EXPECT_EQ(stats.token_counts[5], 1);
  }
}

TEST(StreamTest, NoiseFromCountsMatchesTheWalkCorpusVocabulary) {
  // base_count 1 is the walk-corpus convention: a Vocabulary that adds
  // every vertex once and then every walk occurrence gives the same table,
  // bit for bit.
  const std::vector<std::vector<int>> walks = {{0, 1, 1, 3}, {3, 3, 0}};
  CorpusSource source(walks);
  const StreamStats stats =
      CountStream(source, /*window=*/1, /*skipgram_window=*/true, 5);
  Vocabulary vocab;
  for (int v = 0; v < 5; ++v) vocab.Add("n" + std::to_string(v));
  for (const std::vector<int>& walk : walks) {
    for (const int v : walk) vocab.Add("n" + std::to_string(v));
  }
  EXPECT_EQ(NoiseFromCounts(stats.token_counts, 5, 0.75, /*base_count=*/1),
            vocab.NoiseDistribution(0.75));
}

TEST(StreamTest, StreamingTrainerMatchesInMemoryOnCorpusSource) {
  // The walk stream must train bit for bit like the materialised corpus
  // replayed through the adapter: same walks, same counting, same noise
  // table, same streams.
  Rng rng = MakeRng(13);
  const Graph g = graph::ErdosRenyiGnp(20, 0.3, rng);
  Node2VecOptions options;
  options.walks.walks_per_node = 2;
  options.walks.walk_length = 6;
  options.sgns.dimension = 8;
  options.sgns.epochs = 2;
  options.sgns.window = 2;
  options.sgns.negatives = 2;

  const std::vector<std::vector<int>> walks =
      GenerateWalksParallel(GraphView(g), options.walks, MixSeed(42, 0));
  CorpusSource corpus(walks);
  const int n = g.NumVertices();
  const StreamStats stats = CountStream(corpus, options.sgns.window,
                                        /*skipgram_window=*/true, n);
  Budget unlimited;
  StatusOr<SgnsModel> in_memory = TrainSgnsShardedStreaming(
      corpus, stats,
      NoiseFromCounts(stats.token_counts, n, options.sgns.noise_power,
                      /*base_count=*/1),
      options.sgns, MixSeed(42, 1), unlimited);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

  Budget unlimited2;
  StatusOr<linalg::Matrix> streaming = DeepWalkEmbeddingStreaming(
      GraphView(g), options, /*seed=*/42, unlimited2);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
  EXPECT_EQ(*streaming, in_memory->input);
}

TEST(StreamTest, StreamingNode2VecOverCsrMatchesAdjacencyList) {
  Rng rng = MakeRng(29);
  const Graph g = graph::ConnectedGnp(18, 0.25, rng);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  Node2VecOptions options;
  options.walks.walks_per_node = 2;
  options.walks.walk_length = 6;
  options.walks.p = 0.5;
  options.walks.q = 2.0;
  options.sgns.dimension = 8;
  options.sgns.epochs = 1;
  options.sgns.window = 2;
  options.sgns.negatives = 2;

  Budget a;
  StatusOr<linalg::Matrix> reference =
      Node2VecEmbeddingStreaming(GraphView(g), options, /*seed=*/4, a);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  Budget b;
  StatusOr<linalg::Matrix> streamed =
      Node2VecEmbeddingStreaming(GraphView(csr), options, /*seed=*/4, b);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(*streamed, *reference);
}

TEST(StreamTest, ShuffledStreamingIsBitIdenticalAcrossThreadCounts) {
  Rng rng = MakeRng(31);
  const Graph g = graph::ErdosRenyiGnp(24, 0.25, rng);
  Node2VecOptions options;
  options.walks.walks_per_node = 2;
  options.walks.walk_length = 6;
  options.sgns.dimension = 8;
  options.sgns.epochs = 2;
  options.sgns.window = 2;
  options.sgns.negatives = 2;

  // The composed pipeline with a bounded shuffle stage between the walks
  // and the trainer, seeded like DeepWalkEmbeddingStreaming's streams.
  const auto shuffled_embedding = [&] {
    const int n = g.NumVertices();
    WalkSource walks(GraphView(g), options.walks, MixSeed(77, 0));
    const StreamStats stats = CountStream(walks, options.sgns.window,
                                          /*skipgram_window=*/true, n);
    ShuffleBufferSource shuffled(walks, /*capacity=*/8, MixSeed(77, 2));
    Budget budget;
    return TrainSgnsShardedStreaming(
        shuffled, stats,
        NoiseFromCounts(stats.token_counts, n, options.sgns.noise_power,
                        /*base_count=*/1),
        options.sgns, MixSeed(77, 1), budget);
  };
  linalg::Matrix reference;
  for (const int threads : {1, 2, 4, 8}) {
    SetThreadCount(threads);
    StatusOr<SgnsModel> model = shuffled_embedding();
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    if (threads == 1) {
      reference = std::move(model->input);
    } else {
      EXPECT_EQ(model->input, reference) << "threads=" << threads;
    }
  }
  SetThreadCount(0);  // Restore the default for other tests.

  // And the shuffled run really differs from the unshuffled one (the
  // shuffle stage changed the sentence order, not just replayed it).
  Budget budget;
  StatusOr<linalg::Matrix> unshuffled =
      DeepWalkEmbeddingStreaming(GraphView(g), options, /*seed=*/77, budget);
  ASSERT_TRUE(unshuffled.ok());
  EXPECT_NE(*unshuffled, reference);
}

TEST(StreamTest, StreamingBudgetChargesWalksUpFront) {
  Rng rng = MakeRng(17);
  const Graph g = graph::ErdosRenyiGnp(12, 0.3, rng);
  Node2VecOptions options;
  options.walks.walks_per_node = 1;
  options.walks.walk_length = 4;
  options.sgns.dimension = 4;
  options.sgns.epochs = 1;

  // Fewer units than walks: exhausted before training starts.
  Budget tiny = Budget::WorkUnits(3);
  StatusOr<linalg::Matrix> result =
      DeepWalkEmbeddingStreaming(GraphView(g), options, /*seed=*/1, tiny);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace x2vec::embed
