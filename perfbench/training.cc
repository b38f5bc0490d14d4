// The three training workloads: streaming DeepWalk, checkpointed node2vec
// and graph2vec. Untraced runs time the public embedding calls; traced runs
// rebuild the same pipelines from the modules' public pieces, time each
// piece from outside, and check that the composed pipeline gives the
// bit-identical embedding.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "base/fs.h"
#include "base/metrics.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "embed/graph2vec.h"
#include "embed/node_embeddings.h"
#include "embed/sgns.h"
#include "embed/stream.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "linalg/kernels.h"
#include "wl/color_refinement.h"
#include "workloads.h"

namespace perfbench {
namespace {

using x2vec::Budget;
using x2vec::MixSeed;
using x2vec::Rng;
using x2vec::Status;
using x2vec::StatusOr;
using x2vec::embed::SentenceSource;
using x2vec::graph::CsrGraph;
using x2vec::graph::GraphView;
using x2vec::linalg::Matrix;

constexpr double kMiB = 1024.0 * 1024.0;

// splitmix64 finalizer, salted per seed below.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The perf_stream generator — a ring edge plus degree-1 hashed edges per
// vertex, so every vertex has degree >= 2 and no walk dead-ends — with
// planted communities: a hashed edge stays inside its vertex's residue
// class modulo n / community, so each community of `community` vertices
// is spread over the whole id range (walks still touch memory at random)
// while giving the embedding a structure to recover. The hash is salted
// with the seed, so each seed is a different graph of the same shape.
CsrGraph RingHashGraph(int64_t n, int degree, int64_t community,
                       uint64_t seed) {
  const int64_t stride = n / community;  // Number of communities.
  const uint64_t salt = Mix(seed);
  return CsrGraph::FromEdgeGenerator(
      n, n * degree,
      [n, degree, community, stride, salt](int64_t i) -> std::pair<int, int> {
        const int64_t v = i / degree;
        if (i % degree == 0) {
          return {static_cast<int>(v), static_cast<int>((v + 1) % n)};
        }
        const int64_t step =
            1 + static_cast<int64_t>(Mix(static_cast<uint64_t>(i) ^ salt) %
                                     static_cast<uint64_t>(community - 1));
        return {static_cast<int>(v),
                static_cast<int>((v + stride * step) % n)};
      });
}

double CsrMb(const CsrGraph& g) {
  return static_cast<double>((g.NumVertices() + 1) * 8 + g.NumEntries() * 4) /
         kMiB;
}

// Times every pull the trainer makes from its source.
class TimedSource final : public SentenceSource {
 public:
  explicit TimedSource(SentenceSource& inner) : inner_(inner) {}

  void Reset() override {
    const double t0 = Now();
    inner_.Reset();
    seconds_ += Now() - t0;
  }

  bool Next(std::vector<int>& sentence) override {
    const double t0 = Now();
    const bool more = inner_.Next(sentence);
    seconds_ += Now() - t0;
    if (more) tokens_ += static_cast<int64_t>(sentence.size());
    return more;
  }

  [[nodiscard]] double seconds() const { return seconds_; }
  [[nodiscard]] int64_t tokens() const { return tokens_; }

 private:
  SentenceSource& inner_;
  double seconds_ = 0.0;
  int64_t tokens_ = 0;
};

// Runs `fn`, adding its wall time to `seconds`.
template <typename Fn>
auto Timed(double& seconds, Fn&& fn) {
  const double t0 = Now();
  auto result = fn();
  seconds += Now() - t0;
  return result;
}

// Times every filesystem call the checkpoint layer makes and tallies the
// bytes it writes.
class TimingFs final : public x2vec::Fs {
 public:
  explicit TimingFs(x2vec::Fs& delegate) : delegate_(delegate) {}

  StatusOr<std::string> ReadFile(const std::string& path,
                                 int64_t max_bytes) override {
    return Timed(seconds_, [&] { return delegate_.ReadFile(path, max_bytes); });
  }
  Status WriteFileAtomic(const std::string& path,
                         std::string_view content) override {
    ++writes_;
    bytes_written_ += static_cast<int64_t>(content.size());
    return Timed(seconds_, [&] { return delegate_.WriteFileAtomic(path, content); });
  }
  Status Remove(const std::string& path) override {
    return Timed(seconds_, [&] { return delegate_.Remove(path); });
  }
  StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override {
    return Timed(seconds_, [&] { return delegate_.ListDir(dir); });
  }
  Status CreateDirs(const std::string& dir) override {
    return Timed(seconds_, [&] { return delegate_.CreateDirs(dir); });
  }
  Status RemoveTree(const std::string& path) override {
    return Timed(seconds_, [&] { return delegate_.RemoveTree(path); });
  }
  bool Exists(const std::string& path) override {
    return Timed(seconds_, [&] { return delegate_.Exists(path); });
  }

  void Clear() {
    seconds_ = 0.0;
    writes_ = 0;
    bytes_written_ = 0;
  }
  [[nodiscard]] double seconds() const { return seconds_; }
  [[nodiscard]] int64_t writes() const { return writes_; }
  [[nodiscard]] int64_t bytes_written() const { return bytes_written_; }

 private:
  x2vec::Fs& delegate_;
  double seconds_ = 0.0;
  int64_t writes_ = 0;
  int64_t bytes_written_ = 0;
};

// Counter traffic of the sharded trainer between two points.
struct TrainerCounters {
  int64_t pairs = 0;
  int64_t negatives = 0;
  int64_t redraws = 0;
};

TrainerCounters CountersSince(const x2vec::metrics::Snapshot& before) {
  const x2vec::metrics::Snapshot delta =
      x2vec::metrics::Delta(before, x2vec::metrics::GlobalSnapshot());
  return {delta.counter("sgns.pairs"), delta.counter("sgns.negatives"),
          delta.counter("sgns.negative_redraws")};
}

// Wall time of each piece of one traced pipeline run.
struct LayerTimes {
  double wall_s = 0.0;
  double count_s = 0.0;   // CountStream + NoiseFromCounts.
  double union_s = 0.0;   // graph2vec: DisjointUnion chain.
  double refine_s = 0.0;  // graph2vec: ColorRefinement.
  double docs_s = 0.0;    // graph2vec: WL documents from the colouring.
  double train_s = 0.0;   // The trainer call, pulls and checkpoints included.
  double pull_s = 0.0;    // Inside train_s: SentenceSource::Next/Reset.
  double ckpt_s = 0.0;    // Inside train_s: checkpoint filesystem calls.
  int64_t tokens_pulled = 0;
  int64_t vocab = 0;
  int64_t doc_tokens = 0;

  // Time the per-layer self times account for: everything but the gaps
  // between the timed calls.
  [[nodiscard]] double covered_s() const {
    return count_s + union_s + refine_s + docs_s + train_s;
  }
};

// The trainer metrics shared by every training workload's traced run.
void RecordTrainerLayers(const LayerTimes& t, const TrainerCounters& c,
                         double api_s, double one_thread_s, Report& report) {
  const double self_s = t.train_s - t.pull_s - t.ckpt_s;
  report.Metric("stream.pull_s", t.pull_s, "s");
  report.Metric("stream.pull_share", t.pull_s / t.train_s, "ratio");
  report.Metric("stream.ns_per_token",
                t.tokens_pulled > 0 ? t.pull_s * 1e9 / t.tokens_pulled : 0.0,
                "ns");
  report.Metric("sgns.train_s", t.train_s, "s");
  report.Metric("sgns.self_s", self_s, "s");
  report.Metric("sgns.pairs_per_s",
                self_s > 0.0 ? static_cast<double>(c.pairs) / self_s : 0.0,
                "1/s");
  report.Metric("sgns.negative_redraw_share",
                c.negatives > 0 ? static_cast<double>(c.redraws) /
                                      static_cast<double>(c.negatives)
                                : 0.0,
                "ratio");
  report.Metric("sgns.thread_speedup", one_thread_s / api_s, "x");
  report.Metric("trace.overhead_s", t.wall_s - api_s, "s");
  report.Metric("trace.coverage", t.covered_s() / t.wall_s, "ratio");
  report.Check("trace_coverage", t.covered_s() >= 0.95 * t.wall_s,
               "layer self times cover " +
                   std::to_string(100.0 * t.covered_s() / t.wall_s) +
                   "% of traced wall time");
}

// Checks shared by every training call: OK status and a finite table.
bool EmbeddingOk(const StatusOr<Matrix>& embedding) {
  return embedding.ok() && AllFinite(*embedding);
}

std::string StatusText(const StatusOr<Matrix>& embedding) {
  if (!embedding.ok()) return embedding.status().ToString();
  return AllFinite(*embedding) ? "ok" : "non-finite entries";
}

// Untraced run of a training workload: calls `train` until --seconds are
// spent (at least once), checking each result and its bit-identity with the
// first, and after each call serves the trained table for as long as the
// call took, so training and serving samples both spread over the whole
// run. tokens_per_s is the FastEnd over calls; peak_rss_mb is VmHWM over
// the first call, before any serving. Returns the trained table.
template <typename Train>
Matrix MeasureTrainAndServe(Train&& train, double tokens_per_call,
                            const ServeSpec& spec, const Options& options,
                            Report& report) {
  std::vector<double> rates;
  Matrix table;
  int64_t failed = 0;
  int64_t mismatched = 0;
  std::optional<uint64_t> first_digest;
  std::optional<x2vec::serve::QueryEngine> engine;
  std::optional<ServingMeter> meter;
  ResetPeakRss();
  const double start = Now();
  while (rates.empty() || Now() - start < options.seconds) {
    const double t0 = Now();
    StatusOr<Matrix> embedding = train();
    const double dt = Now() - t0;
    rates.push_back(tokens_per_call / dt);
    if (rates.size() == 1) report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    if (!EmbeddingOk(embedding)) {
      ++failed;
      std::fprintf(stderr, "training call failed: %s\n",
                   StatusText(embedding).c_str());
      continue;
    }
    const uint64_t digest = Digest(*embedding);
    if (!first_digest.has_value()) {
      first_digest = digest;
      table = std::move(embedding).value();
      StatusOr<x2vec::serve::QueryEngine> built =
          BuildEngine(table, spec, options.seed);
      report.Check("engine_built", built.ok(),
                   built.ok() ? "exact-scan index over the trained table"
                              : built.status().ToString());
      if (built.ok()) {
        engine.emplace(std::move(built).value());
        meter.emplace(*engine, spec, options.seed);
      }
    } else if (digest != *first_digest) {
      ++mismatched;
    }
    if (meter.has_value()) meter->Run(dt);
  }
  report.Ops(static_cast<int64_t>(rates.size()), failed);
  report.Check("repeat_bit_identical",
               mismatched == 0 && first_digest.has_value(),
               std::to_string(mismatched) + " of " +
                   std::to_string(rates.size()) +
                   " calls differ from the first");
  report.Metric("tokens_per_s", FastEnd(rates, /*lower_is_better=*/false),
                "1/s");
  report.Meta("train_calls", static_cast<double>(rates.size()));
  report.Meta("tokens_per_call", tokens_per_call);
  if (meter.has_value()) (void)meter->Finish(table, report);
  return table;
}

// ---- Walk workloads: DeepWalk (uniform) and node2vec (biased, with
// per-epoch checkpoints).

struct WalkShape {
  int64_t vertices = 0;  // A multiple of `community`.
  int degree = 10;
  int64_t community = 50;
  bool biased = false;
  bool checkpoint = false;
  double auc_floor = 0.6;
  x2vec::embed::Node2VecOptions options;
  ServeSpec spec;
};

WalkShape DeepWalkShape(bool toy) {
  WalkShape shape;
  shape.vertices = toy ? 2000 : 25000;
  shape.options.walks.walks_per_node = 1;
  shape.options.walks.walk_length = 5;
  shape.options.sgns.dimension = 8;
  shape.options.sgns.window = 2;
  shape.options.sgns.negatives = 2;
  shape.options.sgns.epochs = 1;
  // One epoch over five-vertex walks shows each vertex about five times,
  // and the context rows start at zero: at the default rate the input
  // rows barely leave their random start.
  shape.options.sgns.learning_rate = 1.0;
  shape.auc_floor = 0.58;
  shape.spec.requests = toy ? 256 : 512;
  return shape;
}

WalkShape Node2VecShape(bool toy) {
  WalkShape shape;
  shape.vertices = toy ? 400 : 1000;
  shape.biased = true;
  shape.checkpoint = true;
  shape.options.walks.walks_per_node = 2;
  shape.options.walks.walk_length = 20;
  shape.options.walks.p = 0.5;
  shape.options.walks.q = 2.0;
  shape.options.sgns.dimension = 64;
  shape.options.sgns.window = 5;
  shape.options.sgns.negatives = 5;
  shape.options.sgns.epochs = 2;
  shape.options.sgns.checkpoint.every_n_epochs = 1;
  shape.auc_floor = 0.8;
  shape.spec.requests = toy ? 256 : 2048;
  return shape;
}

// Cosine AUC of edge pairs against uniformly random pairs: the chance a
// random edge scores above a random non-edge-biased pair.
double EdgeAuc(const Matrix& embedding, const CsrGraph& g, uint64_t seed) {
  constexpr int kSamples = 4000;
  Rng rng = x2vec::MakeRng(MixSeed(seed, 0xa0c));
  const int n = g.NumVertices();
  std::vector<double> edge;
  std::vector<double> random;
  for (int s = 0; s < kSamples; ++s) {
    const int u = static_cast<int>(x2vec::UniformInt(rng, 0, n - 1));
    const x2vec::graph::NeighborSpan nbrs = g.Neighbors(u);
    const int v = nbrs.To(x2vec::UniformInt(rng, 0, nbrs.size() - 1));
    edge.push_back(x2vec::linalg::CosineSimilarity(embedding.ConstRowSpan(u),
                                                   embedding.ConstRowSpan(v)));
    const int a = static_cast<int>(x2vec::UniformInt(rng, 0, n - 1));
    const int b = static_cast<int>(x2vec::UniformInt(rng, 0, n - 1));
    random.push_back(x2vec::linalg::CosineSimilarity(
        embedding.ConstRowSpan(a), embedding.ConstRowSpan(b)));
  }
  std::sort(random.begin(), random.end());
  double wins = 0.0;
  for (const double score : edge) {
    const auto lo = std::lower_bound(random.begin(), random.end(), score);
    const auto hi = std::upper_bound(lo, random.end(), score);
    wins += static_cast<double>(lo - random.begin()) +
            0.5 * static_cast<double>(hi - lo);
  }
  return wins / (static_cast<double>(edge.size()) * random.size());
}

// The public API call the workload measures.
StatusOr<Matrix> WalkEmbedding(const WalkShape& shape,
                               const x2vec::embed::Node2VecOptions& options,
                               const CsrGraph& csr, uint64_t seed) {
  Budget budget;
  return shape.biased ? x2vec::embed::Node2VecEmbeddingStreaming(
                            GraphView(csr), options, seed, budget)
                      : x2vec::embed::DeepWalkEmbeddingStreaming(
                            GraphView(csr), options, seed, budget);
}

// The same pipeline composed from public pieces — WalkSource, CountStream,
// NoiseFromCounts, TrainSgnsShardedStreaming — with the seed streams the
// API call derives, each piece timed from outside.
StatusOr<Matrix> ComposedWalkEmbedding(
    const WalkShape& shape, const x2vec::embed::Node2VecOptions& options,
    const CsrGraph& csr, uint64_t seed, const TimingFs& fs, LayerTimes& t) {
  const double start = Now();
  x2vec::embed::WalkOptions walk_options = options.walks;
  if (!shape.biased) walk_options.p = walk_options.q = 1.0;
  const int n = csr.NumVertices();
  x2vec::embed::WalkSource walks(GraphView(csr), walk_options, MixSeed(seed, 0));
  const double count_start = Now();
  const x2vec::embed::StreamStats stats = x2vec::embed::CountStream(
      walks, options.sgns.window, /*skipgram_window=*/true, n);
  const std::vector<double> noise = x2vec::embed::NoiseFromCounts(
      stats.token_counts, n, options.sgns.noise_power, /*base_count=*/1);
  t.count_s = Now() - count_start;
  TimedSource timed(walks);
  const double fs_before = fs.seconds();
  Budget budget;
  const double train_start = Now();
  StatusOr<x2vec::embed::SgnsModel> model =
      x2vec::embed::TrainSgnsShardedStreaming(timed, stats, noise,
                                              options.sgns, MixSeed(seed, 1),
                                              budget);
  t.train_s = Now() - train_start;
  t.pull_s = timed.seconds();
  t.tokens_pulled = timed.tokens();
  t.ckpt_s = fs.seconds() - fs_before;
  t.wall_s = Now() - start;
  if (!model.ok()) return model.status();
  return std::move(model->input);
}

void RunWalkWorkload(const WalkShape& shape, const Options& options,
                     Report& report) {
  const auto& walks = shape.options.walks;
  const auto& sgns = shape.options.sgns;
  report.Meta("vertices", static_cast<double>(shape.vertices));
  report.Meta("edges", static_cast<double>(shape.vertices * shape.degree));
  report.Meta("community", static_cast<double>(shape.community));
  report.Meta("walks_per_node", walks.walks_per_node);
  report.Meta("walk_length", walks.walk_length);
  report.Meta("p", walks.p);
  report.Meta("q", walks.q);
  report.Meta("dimension", sgns.dimension);
  report.Meta("window", sgns.window);
  report.Meta("negatives", sgns.negatives);
  report.Meta("epochs", sgns.epochs);
  report.Meta("learning_rate", sgns.learning_rate);

  CsrGraph csr;
  const std::vector<double> setup = RepeatSetup(
      [&] {
        csr = RingHashGraph(shape.vertices, shape.degree, shape.community,
                            options.seed);
      },
      3, 0.3, 50);

  TimingFs fs(x2vec::DefaultFs());
  const std::string ckpt_dir = options.scratch_dir + "/ckpt-" + options.workload;
  x2vec::embed::Node2VecOptions train = shape.options;
  if (shape.checkpoint) {
    train.sgns.checkpoint.dir = ckpt_dir;
    train.sgns.checkpoint.fs = &fs;
  }
  // Every call starts from an empty checkpoint directory: a leftover final
  // checkpoint would turn the next call into a resume that trains nothing.
  const auto clear_checkpoints = [&] {
    if (shape.checkpoint) (void)x2vec::DefaultFs().RemoveTree(ckpt_dir);
  };
  const auto api_call = [&] {
    clear_checkpoints();
    return WalkEmbedding(shape, train, csr, options.seed);
  };
  // The ring keeps every walk at full length, so the token count is exact.
  const double tokens_per_call = static_cast<double>(shape.vertices) *
                                 walks.walks_per_node * walks.walk_length *
                                 sgns.epochs;

  if (!options.trace) {
    const Matrix embedding = MeasureTrainAndServe(
        api_call, tokens_per_call, shape.spec, options, report);
    const double auc =
        embedding.rows() > 0 ? EdgeAuc(embedding, csr, options.seed) : 0.0;
    report.Check("edge_auc", auc > shape.auc_floor,
                 "cosine AUC of edges vs random pairs " + std::to_string(auc) +
                     " (floor " + std::to_string(shape.auc_floor) + ")");
    report.Metric("setup_s", FastEnd(setup, /*lower_is_better=*/true), "s");
    report.Meta("setup_reps", static_cast<double>(setup.size()));
    report.Meta("edge_auc", auc);
    clear_checkpoints();
    return;
  }

  ZeroPerLayer(report);
  RecordProbes(report, sgns.dimension, sgns.dimension, options.seed);
  report.Metric("csr.build_s", FastEnd(setup, /*lower_is_better=*/true), "s");
  report.Metric("csr.mb", CsrMb(csr), "MB");

  // Untraced reference call at the configured thread count.
  double t0 = Now();
  const StatusOr<Matrix> api = api_call();
  const double api_s = Now() - t0;

  // The traced composition, from an empty checkpoint directory too.
  clear_checkpoints();
  fs.Clear();
  ResetPeakRss();
  const x2vec::metrics::Snapshot before = x2vec::metrics::GlobalSnapshot();
  LayerTimes layers;
  const StatusOr<Matrix> composed =
      ComposedWalkEmbedding(shape, train, csr, options.seed, fs, layers);
  const TrainerCounters counters = CountersSince(before);
  const double peak_mb = PeakRssMb();
  const int64_t ckpt_writes = fs.writes();
  const int64_t ckpt_bytes = fs.bytes_written();

  // One-thread reference: the serial share of the trainer.
  x2vec::SetThreadCount(1);
  t0 = Now();
  const StatusOr<Matrix> serial = api_call();
  const double serial_s = Now() - t0;
  x2vec::SetThreadCount(options.threads);
  clear_checkpoints();

  report.Ops(3, (EmbeddingOk(api) ? 0 : 1) + (EmbeddingOk(composed) ? 0 : 1) +
                    (EmbeddingOk(serial) ? 0 : 1));
  report.Check("api_embedding_ok", EmbeddingOk(api), StatusText(api));
  report.Check("composed_embedding_ok", EmbeddingOk(composed),
               StatusText(composed));
  const bool same = EmbeddingOk(api) && EmbeddingOk(composed) &&
                    Digest(*api) == Digest(*composed);
  report.Check("composed_digest_matches", same,
               "WalkSource -> CountStream -> NoiseFromCounts -> "
               "TrainSgnsShardedStreaming vs the API call");
  report.Check("thread_count_bit_identical",
               EmbeddingOk(api) && EmbeddingOk(serial) &&
                   Digest(*api) == Digest(*serial),
               "1 thread vs " + std::to_string(options.threads));

  report.Metric("stream.count_s", layers.count_s, "s");
  RecordTrainerLayers(layers, counters, api_s, serial_s, report);
  report.Metric("ckpt.save_s", layers.ckpt_s, "s");
  report.Metric("ckpt.saves", static_cast<double>(ckpt_writes), "count");
  report.Metric("ckpt.mb_written", static_cast<double>(ckpt_bytes) / kMiB,
                "MB");
  report.Metric("ckpt.stall_share", layers.ckpt_s / layers.train_s, "ratio");
  const double model_mb = 2.0 * MatrixMb(shape.vertices, sgns.dimension);
  report.Metric("mem.model_mb", model_mb, "MB");
  report.Metric("mem.other_mb", peak_mb - model_mb - CsrMb(csr), "MB");
  if (EmbeddingOk(api)) {
    TraceServing(*api, shape.spec, options.seed,
                 options.seconds / 4, report);
  }
}

// ---- graph2vec over two classes of G(n, p) graphs.

struct G2vShape {
  int graphs = 0;
  int vertices = 30;
  double edge_p[2] = {0.10, 0.25};
  double agreement_floor = 0.9;
  x2vec::embed::Graph2VecOptions options;
  ServeSpec spec;
};

G2vShape Graph2VecShape(bool toy) {
  G2vShape shape;
  shape.graphs = toy ? 100 : 400;
  shape.vertices = toy ? 20 : 30;
  shape.options.wl_rounds = 3;
  shape.options.sgns.dimension = 32;
  shape.options.sgns.negatives = 5;
  shape.options.sgns.epochs = 5;
  shape.spec.requests = toy ? 256 : 8192;
  return shape;
}

// Graph i belongs to class i % 2.
std::vector<x2vec::graph::Graph> MakeGraphs(const G2vShape& shape,
                                            uint64_t seed) {
  Rng rng = x2vec::MakeRng(MixSeed(seed, 0x62));
  std::vector<x2vec::graph::Graph> graphs;
  graphs.reserve(static_cast<size_t>(shape.graphs));
  for (int i = 0; i < shape.graphs; ++i) {
    graphs.push_back(
        x2vec::graph::ErdosRenyiGnp(shape.vertices, shape.edge_p[i % 2], rng));
  }
  return graphs;
}

// Fraction of graphs whose nearest other graph (exact cosine) shares
// their class.
double NearestClassAgreement(const Matrix& embedding) {
  StatusOr<x2vec::serve::QueryEngine> exact =
      x2vec::serve::QueryEngine::Build(embedding, x2vec::serve::ServeOptions{});
  if (!exact.ok()) return 0.0;
  int agree = 0;
  for (int i = 0; i < embedding.rows(); ++i) {
    const auto nearest = exact->Nearest(i, 1);
    if (nearest.ok() && !nearest->empty() && (*nearest)[0].id % 2 == i % 2) {
      ++agree;
    }
  }
  return static_cast<double>(agree) / embedding.rows();
}

// Graph2VecEmbeddingParallel composed from public pieces — DisjointUnion,
// ColorRefinement, TrainPvDbowShardedStreaming — each timed from outside.
// The document build mirrors the library's: word = (round, colour).
StatusOr<Matrix> ComposedGraph2Vec(
    const std::vector<x2vec::graph::Graph>& graphs,
    const x2vec::embed::Graph2VecOptions& options, uint64_t seed,
    LayerTimes& t) {
  const double start = Now();
  x2vec::graph::Graph joint = graphs[0];
  std::vector<int> offsets = {0};
  for (size_t i = 1; i < graphs.size(); ++i) {
    offsets.push_back(joint.NumVertices());
    joint = x2vec::graph::DisjointUnion(joint, graphs[i]);
  }
  t.union_s = Now() - start;

  const double refine_start = Now();
  x2vec::wl::RefinementOptions wl_options;
  wl_options.max_rounds = options.wl_rounds;
  const x2vec::wl::RefinementResult refinement =
      x2vec::wl::ColorRefinement(joint, wl_options);
  t.refine_s = Now() - refine_start;

  const double docs_start = Now();
  const int rounds = static_cast<int>(refinement.round_colors.size());
  std::vector<int> round_offset(static_cast<size_t>(rounds), 0);
  int vocab = 0;
  for (int r = 0; r < rounds; ++r) {
    round_offset[r] = vocab;
    vocab += refinement.colors_per_round[r];
  }
  std::vector<std::vector<int>> documents(graphs.size());
  for (size_t g = 0; g < graphs.size(); ++g) {
    for (int v = 0; v < graphs[g].NumVertices(); ++v) {
      for (int r = 0; r < rounds; ++r) {
        documents[g].push_back(round_offset[r] +
                               refinement.round_colors[r][offsets[g] + v]);
      }
    }
    t.doc_tokens += static_cast<int64_t>(documents[g].size());
  }
  t.vocab = vocab;
  t.docs_s = Now() - docs_start;

  x2vec::embed::CorpusSource corpus(documents);
  TimedSource timed(corpus);
  Budget budget;
  const double train_start = Now();
  StatusOr<x2vec::embed::SgnsModel> model =
      x2vec::embed::TrainPvDbowShardedStreaming(timed, vocab, options.sgns,
                                                seed, budget);
  t.train_s = Now() - train_start;
  t.pull_s = timed.seconds();
  t.tokens_pulled = timed.tokens();
  t.wall_s = Now() - start;
  if (!model.ok()) return model.status();
  return std::move(model->input);
}

}  // namespace

void RunDeepWalkStream(const Options& options, Report& report) {
  RunWalkWorkload(DeepWalkShape(options.toy), options, report);
}

void RunNode2VecCkpt(const Options& options, Report& report) {
  RunWalkWorkload(Node2VecShape(options.toy), options, report);
}

void RunGraph2VecWl(const Options& options, Report& report) {
  const G2vShape shape = Graph2VecShape(options.toy);
  const auto& sgns = shape.options.sgns;
  report.Meta("graphs", shape.graphs);
  report.Meta("vertices_per_graph", shape.vertices);
  report.Meta("edge_p_class0", shape.edge_p[0]);
  report.Meta("edge_p_class1", shape.edge_p[1]);
  report.Meta("wl_rounds", shape.options.wl_rounds);
  report.Meta("dimension", sgns.dimension);
  report.Meta("negatives", sgns.negatives);
  report.Meta("epochs", sgns.epochs);

  std::vector<x2vec::graph::Graph> graphs;
  const std::vector<double> setup = RepeatSetup(
      [&] { graphs = MakeGraphs(shape, options.seed); }, 3, 0.3, 50);
  const auto api_call = [&] {
    Budget budget;
    return x2vec::embed::Graph2VecEmbeddingParallel(graphs, shape.options,
                                                    options.seed, budget);
  };
  // One word per vertex per WL round 0..wl_rounds, per epoch.
  const double tokens_per_call = static_cast<double>(shape.graphs) *
                                 shape.vertices *
                                 (shape.options.wl_rounds + 1) * sgns.epochs;

  if (!options.trace) {
    const Matrix embedding = MeasureTrainAndServe(
        api_call, tokens_per_call, shape.spec, options, report);
    const double agreement =
        embedding.rows() > 0 ? NearestClassAgreement(embedding) : 0.0;
    report.Check("nearest_class_agreement",
                 agreement >= shape.agreement_floor,
                 std::to_string(agreement) + " (floor " +
                     std::to_string(shape.agreement_floor) + ")");
    report.Metric("setup_s", FastEnd(setup, /*lower_is_better=*/true), "s");
    report.Meta("setup_reps", static_cast<double>(setup.size()));
    report.Meta("nearest_class_agreement", agreement);
    return;
  }

  ZeroPerLayer(report);
  RecordProbes(report, sgns.dimension, sgns.dimension, options.seed);
  double t0 = Now();
  const StatusOr<Matrix> api = api_call();
  const double api_s = Now() - t0;

  ResetPeakRss();
  const x2vec::metrics::Snapshot before = x2vec::metrics::GlobalSnapshot();
  LayerTimes layers;
  const StatusOr<Matrix> composed =
      ComposedGraph2Vec(graphs, shape.options, options.seed, layers);
  const TrainerCounters counters = CountersSince(before);
  const double peak_mb = PeakRssMb();

  x2vec::SetThreadCount(1);
  t0 = Now();
  const StatusOr<Matrix> serial = api_call();
  const double serial_s = Now() - t0;
  x2vec::SetThreadCount(options.threads);

  report.Ops(3, (EmbeddingOk(api) ? 0 : 1) + (EmbeddingOk(composed) ? 0 : 1) +
                    (EmbeddingOk(serial) ? 0 : 1));
  report.Check("api_embedding_ok", EmbeddingOk(api), StatusText(api));
  report.Check("composed_embedding_ok", EmbeddingOk(composed),
               StatusText(composed));
  report.Check("composed_digest_matches",
               EmbeddingOk(api) && EmbeddingOk(composed) &&
                   Digest(*api) == Digest(*composed),
               "DisjointUnion -> ColorRefinement -> "
               "TrainPvDbowShardedStreaming vs the API call");
  report.Check("thread_count_bit_identical",
               EmbeddingOk(api) && EmbeddingOk(serial) &&
                   Digest(*api) == Digest(*serial),
               "1 thread vs " + std::to_string(options.threads));
  report.Check("document_tokens",
               static_cast<double>(layers.doc_tokens) * sgns.epochs ==
                   tokens_per_call,
               std::to_string(layers.doc_tokens) +
                   " WL words per epoch, as tokens_per_s assumes");

  report.Metric("g2v.union_s", layers.union_s, "s");
  report.Metric("wl.refine_s", layers.refine_s, "s");
  report.Metric("wl.vocab", static_cast<double>(layers.vocab), "count");
  report.Metric("pvdbow.train_s", layers.train_s, "s");
  RecordTrainerLayers(layers, counters, api_s, serial_s, report);
  const double model_mb = MatrixMb(shape.graphs, sgns.dimension) +
                          MatrixMb(layers.vocab, sgns.dimension);
  report.Metric("mem.model_mb", model_mb, "MB");
  report.Metric("mem.other_mb", peak_mb - model_mb, "MB");
  if (EmbeddingOk(api)) {
    TraceServing(*api, shape.spec, options.seed,
                 options.seconds / 4, report);
  }
}

}  // namespace perfbench
