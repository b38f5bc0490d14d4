// Section 2.1's starting point: WORD2VEC geometry on a synthetic corpus.
// Reports intra- vs inter-topic cosine similarity (the "similar words map
// to nearby vectors" requirement) and a nearest-neighbour retrieval score,
// as a function of embedding dimension — the substrate on which node2vec
// and graph2vec are built (see DESIGN.md's substitution table).

#include <cstdio>
#include <cstring>
#include <string>

#include "base/metrics.h"
#include "base/trace.h"
#include "api/x2vec.h"

namespace {

/// Value of "--checkpoint-dir=DIR" / "--checkpoint-dir DIR", or "" when
/// absent. With a directory set, each trainer in the sweep snapshots into
/// its own subdirectory and a re-run after a kill resumes mid-sweep.
std::string CheckpointDirFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--checkpoint-dir=", 17) == 0) {
      return std::string(argv[i] + 17);
    }
    if (std::strcmp(argv[i], "--checkpoint-dir") == 0 && i + 1 < argc) {
      return std::string(argv[i + 1]);
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace x2vec;
  trace::SetEnabled(true);
  const std::string checkpoint_dir = CheckpointDirFlag(argc, argv);
  std::printf("=== Section 2.1: word2vec (SGNS) on a topic corpus ===\n\n");
  if (!checkpoint_dir.empty()) {
    std::printf("checkpointing to %s (resume-safe per-dimension runs)\n\n",
                checkpoint_dir.c_str());
  }

  Rng corpus_rng = MakeRng(21);
  const int kTopics = 5;
  const int kWordsPerTopic = 8;
  const auto sentences =
      data::TopicCorpus(kTopics, kWordsPerTopic, 1500, 10, corpus_rng);
  const embed::Corpus corpus = embed::Corpus::FromSentences(sentences);
  std::printf("corpus: %zu sentences, vocabulary %d, %lld tokens\n\n",
              sentences.size(), corpus.vocab.size(),
              static_cast<long long>(corpus.TotalTokens()));

  std::printf("%-6s  %-12s  %-12s  %-10s  %s\n", "dim", "intra-cos",
              "inter-cos", "margin", "NN retrieval (same topic)");
  for (int dim : {4, 16, 64}) {
    embed::SgnsOptions options;
    options.dimension = dim;
    options.epochs = 5;
    if (!checkpoint_dir.empty()) {
      // One subdirectory per sweep stage: keep-last GC is per directory,
      // so stages never collect each other's files.
      options.checkpoint.dir =
          checkpoint_dir + "/sgns_d" + std::to_string(dim);
    }
    Rng train_rng = MakeRng(22);
    embed::CorpusSource source(corpus.sentences);
    const embed::StreamStats stats = embed::CountStream(
        source, options.window, /*skipgram_window=*/true, corpus.vocab.size());
    Budget unlimited;
    const embed::SgnsModel model = *embed::TrainSgnsStreaming(
        source, stats, corpus.vocab.NoiseDistribution(options.noise_power),
        options, train_rng, unlimited);

    auto word_id = [&corpus](int topic, int word) {
      return corpus.vocab.Lookup("t" + std::to_string(topic) + "_w" +
                                 std::to_string(word));
    };
    double intra = 0.0;
    int intra_count = 0;
    double inter = 0.0;
    int inter_count = 0;
    int retrieved = 0;
    int retrieval_total = 0;
    for (int t1 = 0; t1 < kTopics; ++t1) {
      for (int w1 = 0; w1 < kWordsPerTopic; ++w1) {
        const int id1 = word_id(t1, w1);
        if (id1 < 0) continue;
        // Nearest neighbour among all topic words.
        double best = -2.0;
        int best_topic = -1;
        for (int t2 = 0; t2 < kTopics; ++t2) {
          for (int w2 = 0; w2 < kWordsPerTopic; ++w2) {
            if (t1 == t2 && w1 == w2) continue;
            const int id2 = word_id(t2, w2);
            if (id2 < 0) continue;
            const double cosine = linalg::CosineSimilarity(
                model.input.Row(id1), model.input.Row(id2));
            if (t1 == t2) {
              intra += cosine;
              ++intra_count;
            } else {
              inter += cosine;
              ++inter_count;
            }
            if (cosine > best) {
              best = cosine;
              best_topic = t2;
            }
          }
        }
        ++retrieval_total;
        retrieved += best_topic == t1 ? 1 : 0;
      }
    }
    const double intra_mean = intra / intra_count;
    const double inter_mean = inter / inter_count;
    std::printf("%-6d  %-12.3f  %-12.3f  %-10.3f  %d/%d\n", dim, intra_mean,
                inter_mean, intra_mean - inter_mean, retrieved,
                retrieval_total);
  }
  std::printf(
      "\npaper-shape check: positive margin at every dimension — words that\n"
      "co-occur embed nearby, the property node2vec transfers to graphs by\n"
      "treating random walks as sentences (Section 2.1).\n");

  if (!checkpoint_dir.empty()) {
    const metrics::Snapshot snapshot = metrics::GlobalSnapshot();
    std::printf("\ncheckpoints: %lld saved, %lld resumed, %lld corrupt "
                "skipped\n",
                static_cast<long long>(snapshot.counter("checkpoint.saves")),
                static_cast<long long>(snapshot.counter("checkpoint.resumes")),
                static_cast<long long>(
                    snapshot.counter("checkpoint.corrupt_skipped")));
  }

  const Status report = trace::WriteRunReport("run_report.json");
  if (report.ok()) {
    std::printf("\nwrote run_report.json (metrics + spans, incl. "
                "checkpoint.* counters)\n");
  } else {
    std::printf("\nrun report not written: %s\n", report.ToString().c_str());
  }
  return 0;
}
