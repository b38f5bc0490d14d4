// Embedding serving (DESIGN.md §12): load a trained model once, index it,
// and answer nearest-neighbour / analogy queries from a concurrent batch.
// Reports exact-scan vs cluster-pruned throughput and recall@10, the
// admission-control rejection path, and the serve.* metrics — all of which
// land in run_report.json for the observability pipeline.
//
// The harness exercises the full serving path end to end: train a small
// SGNS model on the topic corpus, persist it with embed::SaveSgnsModel,
// reload it through serve::QueryEngine::LoadSgnsModel, and replay one
// request batch through both index backends at several thread counts. The
// replay is deterministic: every thread count returns bit-identical
// answers (tests/serve_test.cc pins this; here it is re-checked and
// reported).

#include <cstdio>
#include <string>
#include <vector>

#include "api/x2vec.h"
#include "base/metrics.h"
#include "base/trace.h"

namespace {

using namespace x2vec;

/// Nearest + analogy requests over the whole vocabulary, k=10.
std::vector<serve::ServeRequest> MakeBatch(int rows) {
  std::vector<serve::ServeRequest> requests;
  for (int i = 0; i < rows; ++i) {
    serve::ServeRequest nearest;
    nearest.kind = serve::ServeRequest::Kind::kNearest;
    nearest.a = i;
    nearest.k = 10;
    requests.push_back(nearest);
    serve::ServeRequest analogy;
    analogy.kind = serve::ServeRequest::Kind::kAnalogy;
    analogy.a = i;
    analogy.b = (i * 7 + 1) % rows;
    analogy.c = (i * 13 + 2) % rows;
    analogy.k = 10;
    requests.push_back(analogy);
  }
  return requests;
}

bool SameAnswers(const std::vector<serve::ServeOutcome>& a,
                 const std::vector<serve::ServeOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].status.code() != b[i].status.code()) return false;
    if (a[i].neighbors != b[i].neighbors) return false;
  }
  return true;
}

}  // namespace

int main() {
  trace::SetEnabled(true);
  metrics::SetEnabled(true);
  std::printf("=== Embedding serving: query engine over a trained model "
              "===\n\n");

  // Train once, persist, and serve from the loaded artifact — the
  // load-once shape the serving layer is built around.
  Rng corpus_rng = MakeRng(21);
  const embed::Corpus corpus = embed::Corpus::FromSentences(
      data::TopicCorpus(5, 8, 1200, 10, corpus_rng));
  embed::SgnsOptions options;
  options.dimension = 32;
  options.epochs = 5;
  Rng train_rng = MakeRng(22);
  embed::CorpusSource source(corpus.sentences);
  const embed::StreamStats stats = embed::CountStream(
      source, options.window, /*skipgram_window=*/true, corpus.vocab.size());
  Budget unlimited;
  const embed::SgnsModel model = *embed::TrainSgnsStreaming(
      source, stats, corpus.vocab.NoiseDistribution(options.noise_power),
      options, train_rng, unlimited);

  const std::string artifact = "tab_serving_model.x2v";
  Fs& fs = DefaultFs();
  if (Status saved = embed::SaveSgnsModel(fs, artifact, model); !saved.ok()) {
    std::printf("model save failed: %s\n", saved.ToString().c_str());
    return 1;
  }

  serve::ServeOptions exact_options;  // Default: exact scan, no quota.
  StatusOr<serve::QueryEngine> exact =
      serve::QueryEngine::LoadSgnsModel(fs, artifact, exact_options);
  serve::ServeOptions pruned_options;
  pruned_options.index.kind = serve::IndexKind::kClusterPruned;
  pruned_options.index.probes = 3;
  StatusOr<serve::QueryEngine> pruned =
      serve::QueryEngine::LoadSgnsModel(fs, artifact, pruned_options);
  (void)fs.Remove(artifact);
  if (!exact.ok() || !pruned.ok()) {
    std::printf("engine load failed\n");
    return 1;
  }
  std::printf("model: %d vectors of dim %d, loaded once and indexed "
              "(exact + cluster-pruned)\n\n",
              exact->rows(), exact->dim());

  const std::vector<serve::ServeRequest> requests = MakeBatch(exact->rows());

  // Exact batch at 1 thread is the ground truth for everything below.
  SetThreadCount(1);
  const std::vector<serve::ServeOutcome> truth = exact->ServeAll(requests);

  std::printf("%-10s  %-8s  %-12s  %-10s  %s\n", "backend", "threads",
              "queries/sec", "recall@10", "replay");
  for (const int threads : {1, 2, 4}) {
    for (const bool use_pruned : {false, true}) {
      const serve::QueryEngine& engine = use_pruned ? *pruned : *exact;
      SetThreadCount(threads);
      const trace::StopWatch watch;
      const std::vector<serve::ServeOutcome> outcomes =
          engine.ServeAll(requests);
      const double seconds = watch.Seconds();
      double recall = 0.0;
      int scored = 0;
      for (size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].status.ok() || !truth[i].status.ok()) continue;
        recall += serve::RecallAgainstExact(truth[i].neighbors,
                                            outcomes[i].neighbors);
        ++scored;
      }
      // Replay contract: same backend, any thread count -> bit-identical.
      const bool identical =
          use_pruned
              ? SameAnswers(outcomes, pruned->ServeAll(requests))
              : SameAnswers(outcomes, truth);
      std::printf("%-10s  %-8d  %-12.0f  %-10.3f  %s\n",
                  use_pruned ? "pruned" : "exact", threads,
                  static_cast<double>(requests.size()) / seconds,
                  recall / scored, identical ? "bit-identical" : "DIVERGED");
    }
  }
  SetThreadCount(0);

  // Admission control: a quota below the scan cost rejects cleanly with
  // kResourceExhausted instead of wedging the worker.
  serve::ServeOptions strict = exact_options;
  strict.admission.work_units = exact->rows() / 2;
  StatusOr<serve::QueryEngine> gated =
      serve::QueryEngine::Build(model.input, strict);
  int rejected = 0;
  if (gated.ok()) {
    const std::vector<serve::ServeOutcome> outcomes =
        gated->ServeAll(requests);
    for (const serve::ServeOutcome& outcome : outcomes) {
      rejected += outcome.status.code() == StatusCode::kResourceExhausted;
    }
    std::printf("\nadmission control: quota %lld work units/request -> "
                "%d/%zu rejected (kResourceExhausted)\n",
                static_cast<long long>(*strict.admission.work_units),
                rejected, outcomes.size());
  }

  const metrics::Snapshot snapshot = metrics::GlobalSnapshot();
  std::printf("\nserve.* metrics: %lld queries, %lld rejected, qps gauge "
              "%.0f, probes counted %lld\n",
              static_cast<long long>(snapshot.counter("serve.queries")),
              static_cast<long long>(snapshot.counter("serve.rejected")),
              snapshot.gauge("serve.qps"),
              static_cast<long long>(snapshot.counter("serve.probes")));

  std::printf(
      "\npaper-shape check: the pruned index answers from a fraction of\n"
      "the rows at recall@10 near 1.0 — the similarity queries of Section\n"
      "2.1 served at scale from one immutable model snapshot.\n");

  const Status report = trace::WriteRunReport("run_report.json");
  if (report.ok()) {
    std::printf("\nwrote run_report.json (metrics + spans, incl. serve.* "
                "counters)\n");
  } else {
    std::printf("\nrun report not written: %s\n", report.ToString().c_str());
  }
  return 0;
}
