// The serving side of the benchmark: the measurement every workload runs
// over its embedding table, and the serve_ivf workload, which serves a
// generated clustered table and runs no training code.

#include <optional>
#include <string>
#include <utility>

#include "base/budget.h"
#include "base/rng.h"
#include "linalg/kernels.h"
#include "serve/index.h"
#include "workloads.h"

namespace perfbench {

using x2vec::Budget;
using x2vec::Rng;
using x2vec::linalg::Matrix;
using x2vec::serve::Neighbor;
using x2vec::serve::QueryEngine;
using x2vec::serve::ServeOutcome;
using x2vec::serve::ServeRequest;

x2vec::StatusOr<QueryEngine> BuildEngine(const Matrix& table,
                                         const ServeSpec& spec,
                                         uint64_t seed) {
  x2vec::serve::ServeOptions options;
  options.index.kind = spec.pruned ? x2vec::serve::IndexKind::kClusterPruned
                                   : x2vec::serve::IndexKind::kExactScan;
  options.index.clusters = spec.clusters;
  options.index.probes = spec.probes;
  options.index.kmeans_iterations = spec.kmeans_iterations;
  options.index.seed = x2vec::MixSeed(seed, 0x1f);
  return QueryEngine::Build(table, options);
}

namespace {

// A fixed batch of requests over `rows` rows: nearest and analogy 3:1, each
// asking for spec.k answers, drawn from `seed`.
std::vector<ServeRequest> MakeRequests(int rows, const ServeSpec& spec,
                                       uint64_t seed) {
  Rng rng = x2vec::MakeRng(x2vec::MixSeed(seed, 0x5e));
  std::vector<ServeRequest> requests(static_cast<size_t>(spec.requests));
  for (size_t i = 0; i < requests.size(); ++i) {
    ServeRequest& r = requests[i];
    r.kind = i % 4 == 3 ? ServeRequest::Kind::kAnalogy
                        : ServeRequest::Kind::kNearest;
    r.a = static_cast<int>(x2vec::UniformInt(rng, 0, rows - 1));
    r.b = static_cast<int>(x2vec::UniformInt(rng, 0, rows - 1));
    r.c = static_cast<int>(x2vec::UniformInt(rng, 0, rows - 1));
    r.k = spec.k;
  }
  return requests;
}

}  // namespace

ServingMeter::ServingMeter(const QueryEngine& engine, const ServeSpec& spec,
                           uint64_t seed)
    : engine_(engine), requests_(MakeRequests(engine.rows(), spec, seed)) {}

void ServingMeter::Run(double seconds) {
  const int64_t n = static_cast<int64_t>(requests_.size());
  // Throughput: whole batches through ServeAll at the configured threads.
  double start = Now();
  do {
    const double t0 = Now();
    std::vector<ServeOutcome> outcomes = engine_.ServeAll(requests_);
    const double dt = Now() - t0;
    int64_t answers = 0;
    for (const ServeOutcome& outcome : outcomes) {
      ++attempted_;
      if (!outcome.status.ok()) ++failed_;
      answers += static_cast<int64_t>(outcome.neighbors.size());
    }
    batch_qps_.push_back(static_cast<double>(n) / dt);
    batch_answers_per_s_.push_back(static_cast<double>(answers) / dt);
    if (first_batch_.empty()) first_batch_ = std::move(outcomes);
  } while (Now() - start < seconds / 2);

  // Latency: one caller, closed loop (the next request is sent when the
  // previous answer is back), cycling through the same batch. The caller
  // moves to the next CPU every 50 ms.
  CpuRotation rotation;
  double rotated = 0.0;
  start = Now();
  do {
    if (Now() - rotated > 0.05) {
      rotation.Next();
      rotated = Now();
    }
    const int64_t i = served_++;
    const ServeRequest& request = requests_[static_cast<size_t>(i % n)];
    const double t0 = Now();
    const ServeOutcome outcome = engine_.Serve(request);
    latency_us_.push_back((Now() - t0) * 1e6);
    ++attempted_;
    if (!outcome.status.ok()) ++failed_;
    if (i < n &&
        outcome.neighbors != first_batch_[static_cast<size_t>(i)].neighbors) {
      ++mismatches_;
    }
  } while (Now() - start < seconds / 2);
}

double ServingMeter::Finish(const Matrix& table, Report& report) {
  const int64_t n = static_cast<int64_t>(requests_.size());
  // Every request has been served by both paths at least once.
  while (served_ < n) Run(0.0);
  report.Ops(attempted_, failed_);

  // Recall against the exact-scan oracle, outside every timed region.
  x2vec::StatusOr<QueryEngine> oracle =
      QueryEngine::Build(table, x2vec::serve::ServeOptions{});
  double recall = 0.0;
  if (oracle.ok()) {
    const std::vector<ServeOutcome> truth = oracle->ServeAll(requests_);
    for (int64_t i = 0; i < n; ++i) {
      recall += x2vec::serve::RecallAgainstExact(
          truth[static_cast<size_t>(i)].neighbors,
          first_batch_[static_cast<size_t>(i)].neighbors);
    }
    recall /= static_cast<double>(n);
  }

  report.Check("serve_answers_ok", failed_ == 0,
               std::to_string(failed_) + " of " + std::to_string(attempted_) +
                   " requests failed");
  report.Check("serve_all_equals_serve", mismatches_ == 0,
               std::to_string(mismatches_) + " of " + std::to_string(n) +
                   " batch answers differ from single-caller answers");
  report.Check("oracle_built", oracle.ok(), "exact-scan engine for recall");
  // Windows of 100 samples (tens of ms) are short enough to fall mostly
  // inside one speed of a CPU; a p99 window needs 1000 samples to leave 10
  // beyond it.
  report.Metric("serve_qps", FastEnd(batch_qps_, /*lower_is_better=*/false),
                "1/s");
  report.Metric("serve_p50_us", WindowedQuantile(latency_us_, 0.50, 100),
                "us");
  report.Metric("serve_p99_us", WindowedQuantile(latency_us_, 0.99, 1000),
                "us");
  report.Metric("recall_at_10", recall, "ratio");
  report.Meta("serve_rows", engine_.rows());
  report.Meta("serve_dim", engine_.dim());
  report.Meta("serve_requests", static_cast<double>(n));
  report.Meta("serve_batches", static_cast<double>(batch_qps_.size()));
  report.Meta("serve_latency_samples",
              static_cast<double>(latency_us_.size()));
  report.Meta("serve_clients", 1);
  return FastEnd(batch_answers_per_s_, /*lower_is_better=*/false);
}

void TraceServing(const Matrix& table, const ServeSpec& spec, uint64_t seed,
                  double seconds, Report& report) {
  const double build_start = Now();
  x2vec::StatusOr<QueryEngine> engine = BuildEngine(table, spec, seed);
  report.Metric("index.build_s", Now() - build_start, "s");
  report.Check("index_built", engine.ok(),
               engine.ok() ? "" : engine.status().ToString());
  if (!engine.ok()) return;
  const x2vec::serve::EmbeddingIndex& index = engine->index();
  const std::vector<ServeRequest> requests =
      MakeRequests(engine->rows(), spec, seed);

  // The same queries through the index directly and through the engine,
  // interleaved so both see the same machine state. The query vectors are
  // composed exactly as QueryEngine composes them.
  std::vector<double> topk_us;
  std::vector<double> serve_us;
  int64_t rows_scored = 0;
  int64_t mismatches = 0;
  int64_t failed = 0;
  std::vector<double> query(static_cast<size_t>(index.dim()));
  const double start = Now();
  for (size_t i = 0; i < requests.size() || Now() - start < seconds; ++i) {
    const ServeRequest& r = requests[i % requests.size()];
    int extra = 1;
    x2vec::linalg::Copy(index.StoredRow(r.a), query);
    if (r.kind == ServeRequest::Kind::kAnalogy) {
      x2vec::linalg::Axpy(-1.0, index.StoredRow(r.b), query);
      x2vec::linalg::Axpy(1.0, index.StoredRow(r.c), query);
      extra = 3;
    }
    // Alternate which call goes first: the second one finds the rows it
    // scans already in cache.
    Budget budget = Budget::WorkUnits(int64_t{1} << 40);
    x2vec::StatusOr<std::vector<Neighbor>> top = std::vector<Neighbor>{};
    ServeOutcome outcome;
    const auto time_topk = [&] {
      const double t0 = Now();
      top = index.TopK(query, r.k + extra, budget);
      topk_us.push_back((Now() - t0) * 1e6);
    };
    const auto time_serve = [&] {
      const double t0 = Now();
      outcome = engine->Serve(r);
      serve_us.push_back((Now() - t0) * 1e6);
    };
    if (i % 2 == 0) {
      time_topk();
      time_serve();
    } else {
      time_serve();
      time_topk();
    }
    rows_scored += budget.work_spent();
    if (!top.ok() || !outcome.status.ok()) {
      ++failed;
      continue;
    }
    // A nearest answer is the TopK list minus the query row itself.
    if (i < requests.size() && r.kind == ServeRequest::Kind::kNearest) {
      std::vector<Neighbor> expected;
      for (const Neighbor& nb : *top) {
        if (nb.id != r.a && static_cast<int>(expected.size()) < r.k) {
          expected.push_back(nb);
        }
      }
      if (expected != outcome.neighbors) ++mismatches;
    }
  }
  const double queries = static_cast<double>(topk_us.size());
  double topk_total = 0.0;
  double serve_total = 0.0;
  for (size_t i = 0; i < topk_us.size(); ++i) {
    topk_total += topk_us[i];
    serve_total += serve_us[i];
  }
  report.Ops(static_cast<int64_t>(2 * topk_us.size()), failed);
  report.Check("topk_matches_serve", mismatches == 0,
               std::to_string(mismatches) +
                   " nearest answers differ from the index's own ranking");
  report.Metric("index.topk_p50_us", Quantile(topk_us, 0.50), "us");
  report.Metric("index.topk_p99_us", Quantile(topk_us, 0.99), "us");
  report.Metric("index.rows_scored_per_query",
                static_cast<double>(rows_scored) / queries, "count");
  report.Metric("index.scan_fraction",
                static_cast<double>(rows_scored) / queries /
                    static_cast<double>(index.rows()),
                "ratio");
  report.Metric("engine.self_us", (serve_total - topk_total) / queries, "us");
  report.Meta("index_trace_queries", queries);
}

namespace {

// serve_ivf alternates throughput and latency in slices this long, so
// both sample the whole run.
constexpr double kServeSlice = 0.5;

// A table of `rows` points scattered around `centers` random centres: the
// data shape the cluster-pruned index is built for.
struct IvfShape {
  int rows = 0;
  int dim = 0;
  int centers = 0;
  ServeSpec spec;
};

IvfShape IvfShapeFor(bool toy) {
  IvfShape shape;
  shape.spec.pruned = true;
  if (toy) {
    shape.rows = 2048;
    shape.dim = 16;
    shape.centers = 16;
    shape.spec.clusters = 16;
    shape.spec.probes = 4;
    shape.spec.requests = 256;
  } else {
    // 32768 x 32 doubles = 8 MiB stored, four times a core's 2 MiB L2.
    shape.rows = 32768;
    shape.dim = 32;
    shape.centers = 128;
    shape.spec.clusters = 128;
    shape.spec.probes = 8;
    shape.spec.requests = 2048;
  }
  return shape;
}

Matrix ClusteredTable(const IvfShape& shape, uint64_t seed) {
  const Matrix centers = Matrix::Random(shape.centers, shape.dim, 10.0,
                                        x2vec::MixSeed(seed, 1));
  Rng rng = x2vec::MakeRng(x2vec::MixSeed(seed, 2));
  Matrix rows(shape.rows, shape.dim);
  for (int i = 0; i < shape.rows; ++i) {
    const int c = static_cast<int>(x2vec::UniformInt(rng, 0, shape.centers - 1));
    for (int j = 0; j < shape.dim; ++j) {
      rows(i, j) = centers(c, j) + x2vec::Gaussian(rng);
    }
  }
  return rows;
}

}  // namespace

void RunServeIvf(const Options& options, Report& report) {
  const IvfShape shape = IvfShapeFor(options.toy);
  report.Meta("table_rows", shape.rows);
  report.Meta("table_dim", shape.dim);
  report.Meta("table_mb", MatrixMb(shape.rows, shape.dim));
  report.Meta("index_clusters", shape.spec.clusters);
  report.Meta("index_probes", shape.spec.probes);

  Matrix table;
  std::optional<QueryEngine> engine;
  bool built = true;
  const std::vector<double> setup = RepeatSetup(
      [&] {
        table = ClusteredTable(shape, options.seed);
        x2vec::StatusOr<QueryEngine> made =
            BuildEngine(table, shape.spec, options.seed);
        built = built && made.ok();
        if (made.ok()) engine.emplace(std::move(made).value());
      },
      3, 0.0, 3);
  report.Check("engine_built", built && engine.has_value(),
               "cluster-pruned index over the generated table");
  if (!engine.has_value()) return;

  if (!options.trace) {
    ResetPeakRss();
    ServingMeter meter(*engine, shape.spec, options.seed);
    const double start = Now();
    while (Now() - start < options.seconds) meter.Run(kServeSlice);
    const double answers_per_s = meter.Finish(table, report);
    report.Metric("setup_s", FastEnd(setup, /*lower_is_better=*/true), "s");
    // A serving token is one returned neighbour id.
    report.Metric("tokens_per_s", answers_per_s, "1/s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Meta("setup_reps", static_cast<double>(setup.size()));
    return;
  }

  ZeroPerLayer(report);
  RecordProbes(report, shape.dim, shape.dim, options.seed);
  engine.reset();
  ResetPeakRss();
  TraceServing(table, shape.spec, options.seed, options.seconds, report);
  const double model_mb = MatrixMb(shape.rows, shape.dim);
  report.Metric("mem.model_mb", model_mb, "MB");
  report.Metric("mem.other_mb", PeakRssMb() - model_mb, "MB");
}

}  // namespace perfbench
