// Serving-index throughput: exact batched scan vs cluster-pruned probing
// (DESIGN.md §12). One clustered embedding table (the workload the pruned
// backend is designed for), one batch of k=10 nearest-neighbour requests
// replayed through both backends; the pruned side also reports recall@10
// against the exact answers and the fraction of the table it scanned
// (work-unit accounting from the admission budget). The pruned index is
// built twice, at 1 thread and at ThreadCount(), and both build times are
// reported; the bench exits 1 if the two builds answer any query
// differently (the build is bit-identical at any thread count).
//
// Output is one BENCH-style JSON object on stdout with a trailing "meta"
// block, committed as BENCH_serving.json. The committed numbers are the
// acceptance evidence that pruning buys real throughput at recall@10 >=
// 0.95 — not just fewer work units on paper.

#include <cstdio>
#include <memory>
#include <vector>

#include "base/budget.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/trace.h"
#include "bench_meta.h"
#include "linalg/matrix.h"
#include "serve/index.h"

namespace {

using x2vec::Budget;
using x2vec::linalg::Matrix;

constexpr int kCenters = 64;
constexpr int kPerCenter = 64;  // 4096 rows.
constexpr int kDim = 64;
constexpr int kQueries = 512;
constexpr int kTopK = 10;
constexpr int kReps = 4;

Matrix ClusteredRows() {
  const Matrix centers = Matrix::Random(kCenters, kDim, 10.0, /*seed=*/101);
  x2vec::Rng rng = x2vec::MakeRng(102);
  Matrix rows(kCenters * kPerCenter, kDim);
  for (int i = 0; i < rows.rows(); ++i) {
    const int c = i / kPerCenter;
    for (int j = 0; j < kDim; ++j) {
      rows(i, j) = centers(c, j) + x2vec::Gaussian(rng) * 0.5;
    }
  }
  return rows;
}

struct BackendRun {
  double seconds = 0.0;
  long long work_units = 0;
  std::vector<std::vector<x2vec::serve::Neighbor>> answers;
};

BackendRun RunBatch(const x2vec::serve::EmbeddingIndex& index,
                    const Matrix& rows) {
  BackendRun run;
  run.answers.resize(kQueries);
  const x2vec::trace::StopWatch watch;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int q = 0; q < kQueries; ++q) {
      const int row = (q * 31) % rows.rows();
      Budget budget = Budget::WorkUnits(1 << 24);
      auto top = index.TopK(rows.ConstRowSpan(row), kTopK, budget);
      if (!top.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     top.status().ToString().c_str());
        std::exit(1);
      }
      run.answers[q] = std::move(top).value();
      run.work_units += budget.work_spent();
    }
  }
  run.seconds = watch.Seconds();
  return run;
}

}  // namespace

int main() {
  const Matrix rows = ClusteredRows();

  x2vec::serve::IndexOptions exact_options;
  auto exact = x2vec::serve::BuildIndex(
      rows, x2vec::serve::IndexMetric::kCosine, exact_options);
  x2vec::serve::IndexOptions pruned_options;
  pruned_options.kind = x2vec::serve::IndexKind::kClusterPruned;
  pruned_options.clusters = kCenters;
  pruned_options.probes = 8;
  const int threads = x2vec::ThreadCount();
  const auto build_pruned = [&](int build_threads, double& seconds) {
    x2vec::SetThreadCount(build_threads);
    const x2vec::trace::StopWatch watch;
    auto index = x2vec::serve::BuildIndex(
        rows, x2vec::serve::IndexMetric::kCosine, pruned_options);
    seconds = watch.Seconds();
    return index;
  };
  double serial_build_seconds = 0.0;
  double pruned_build_seconds = 0.0;
  auto serial = build_pruned(1, serial_build_seconds);
  auto pruned = build_pruned(threads, pruned_build_seconds);
  if (!exact.ok() || !serial.ok() || !pruned.ok()) {
    std::fprintf(stderr, "index build failed\n");
    return 1;
  }

  const BackendRun exact_run = RunBatch(**exact, rows);
  const BackendRun pruned_run = RunBatch(**pruned, rows);
  if (RunBatch(**serial, rows).answers != pruned_run.answers) {
    std::fprintf(stderr, "the %d-thread build answers differently\n",
                 threads);
    return 1;
  }

  double recall = 0.0;
  for (int q = 0; q < kQueries; ++q) {
    recall += x2vec::serve::RecallAgainstExact(exact_run.answers[q],
                                               pruned_run.answers[q]);
  }
  recall /= kQueries;

  const double total = static_cast<double>(kQueries) * kReps;
  const double exact_qps = total / exact_run.seconds;
  const double pruned_qps = total / pruned_run.seconds;
  const double scan_fraction =
      static_cast<double>(pruned_run.work_units) /
      static_cast<double>(exact_run.work_units);

  std::printf("{\"bench\": \"perf_serving\",\n");
  std::printf(
      " \"index\": {\"rows\": %d, \"dim\": %d, \"clusters\": %d, "
      "\"probes\": %d, \"top_k\": %d, \"queries\": %d, \"reps\": %d, "
      "\"build_threads\": %d, \"pruned_build_seconds_1_thread\": %.3f, "
      "\"pruned_build_seconds\": %.3f},\n",
      rows.rows(), kDim, pruned_options.clusters, pruned_options.probes,
      kTopK, kQueries, kReps, threads, serial_build_seconds,
      pruned_build_seconds);
  std::printf(" \"exact\": {\"queries_per_sec\": %.1f},\n", exact_qps);
  std::printf(
      " \"pruned\": {\"queries_per_sec\": %.1f, \"speedup\": %.2f, "
      "\"recall_at_10\": %.4f, \"scan_fraction\": %.4f},\n",
      pruned_qps, pruned_qps / exact_qps, recall, scan_fraction);
  std::printf(" \"meta\": %s}\n", x2vec::bench::MetaJson().c_str());
  return 0;
}
