// Copy-path vs span-path throughput for the dense-kernel layer
// (DESIGN.md, "Dense kernels and row views"). Two workloads:
//
//   knn    a brute-force distance scan, queries/sec — Matrix::Row()
//          copies + element loops vs ConstRowSpan() + linalg::Distance2
//   sgns   sharded-SGD delta accumulation, pairs/sec — the historical
//          std::map<int, std::vector<double>> per-sequence delta vs
//          linalg::RowDeltaBuffer + SgdPairUpdateDelta
//
// Both paths of each workload compute bit-identical results (checksummed
// below); only the allocation and access pattern differ.
//
// A third section benchmarks the kernel *backends* (kernels_backend.h)
// against each other: generic vs vectorized ops tables, called directly
// through GetKernelOps so the comparison is free of dispatch state. The
// vectorized backend is tolerance-equal, not bit-equal, to generic (see
// tests/backend_parity_test.cc), so each backend reports its own state
// checksum rather than a bit_identical flag.
//
// Output is one BENCH-style JSON object on stdout, with a trailing "meta"
// block (compiler/flags/ISA) so committed BENCH_kernels.json snapshots
// stay comparable across machines and PRs.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <vector>

#include "base/rng.h"
#include "base/trace.h"
#include "bench_meta.h"
#include "linalg/kernels.h"
#include "linalg/kernels_backend.h"
#include "linalg/matrix.h"

namespace {

using x2vec::linalg::Matrix;

uint64_t Fnv1a(const double* data, size_t count) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < count * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---- Workload 1: brute-force kNN distance scan ------------------------------

constexpr int kPoints = 4000;
constexpr int kDim = 64;
constexpr int kQueries = 200;
constexpr int kKnnReps = 5;

double CopyPathScan(const Matrix& features, const Matrix& queries,
                    std::vector<double>* nearest) {
  const x2vec::trace::StopWatch watch;
  for (int rep = 0; rep < kKnnReps; ++rep) {
    for (int q = 0; q < queries.rows(); ++q) {
      const std::vector<double> query = queries.Row(q);
      double best = 1e300;
      for (int i = 0; i < features.rows(); ++i) {
        // The pre-refactor pattern: one heap allocation per candidate row.
        const std::vector<double> row = features.Row(i);
        double squared = 0.0;
        for (int d = 0; d < kDim; ++d) {
          const double diff = row[d] - query[d];
          squared += diff * diff;
        }
        if (squared < best) best = squared;
      }
      (*nearest)[q] = best;
    }
  }
  return watch.Seconds();
}

double SpanPathScan(const Matrix& features, const Matrix& queries,
                    std::vector<double>* nearest) {
  const x2vec::trace::StopWatch watch;
  for (int rep = 0; rep < kKnnReps; ++rep) {
    for (int q = 0; q < queries.rows(); ++q) {
      const std::span<const double> query = queries.ConstRowSpan(q);
      double best = 1e300;
      for (int i = 0; i < features.rows(); ++i) {
        const double squared =
            x2vec::linalg::SquaredDistance(features.ConstRowSpan(i), query);
        if (squared < best) best = squared;
      }
      (*nearest)[q] = best;
    }
  }
  return watch.Seconds();
}

// ---- Workload 2: sharded-SGD delta accumulation -----------------------------

constexpr int kVocab = 2000;
constexpr int kSgnsDim = 64;
constexpr int kSequences = 400;
constexpr int kPairsPerSequence = 120;
constexpr double kLr = 0.025;

struct PairStream {
  std::vector<int> centers;
  std::vector<int> contexts;
  std::vector<double> labels;
};

PairStream MakePairs() {
  x2vec::Rng rng = x2vec::MakeRng(91);
  PairStream pairs;
  const int total = kSequences * kPairsPerSequence;
  pairs.centers.reserve(total);
  pairs.contexts.reserve(total);
  pairs.labels.reserve(total);
  for (int i = 0; i < total; ++i) {
    pairs.centers.push_back(
        static_cast<int>(x2vec::UniformInt(rng, 0, kVocab - 1)));
    pairs.contexts.push_back(
        static_cast<int>(x2vec::UniformInt(rng, 0, kVocab - 1)));
    pairs.labels.push_back(x2vec::Coin(rng, 0.2) ? 1.0 : 0.0);
  }
  return pairs;
}

// The delta container the sharded trainer used before RowDeltaBuffer: an
// ordered map of row -> freshly allocated dense vector, rebuilt from
// scratch for every sequence.
double MapPathTrain(const PairStream& pairs, Matrix* input, Matrix* output) {
  const x2vec::trace::StopWatch watch;
  std::vector<double> gradient(kSgnsDim);
  for (int s = 0; s < kSequences; ++s) {
    std::map<int, std::vector<double>> input_delta;
    std::map<int, std::vector<double>> output_delta;
    for (int p = s * kPairsPerSequence; p < (s + 1) * kPairsPerSequence; ++p) {
      const int center = pairs.centers[p];
      const int context = pairs.contexts[p];
      std::fill(gradient.begin(), gradient.end(), 0.0);
      auto& context_delta = output_delta[context];
      if (context_delta.empty()) context_delta.assign(kSgnsDim, 0.0);
      x2vec::linalg::SgdPairUpdateDelta(
          input->ConstRowSpan(center), output->ConstRowSpan(context),
          pairs.labels[p], kLr, gradient, context_delta);
      auto& center_delta = input_delta[center];
      if (center_delta.empty()) center_delta.assign(kSgnsDim, 0.0);
      for (int d = 0; d < kSgnsDim; ++d) center_delta[d] += gradient[d];
    }
    for (const auto& [row, delta] : input_delta) {
      x2vec::linalg::Axpy(1.0, delta, input->RowSpan(row));
    }
    for (const auto& [row, delta] : output_delta) {
      x2vec::linalg::Axpy(1.0, delta, output->RowSpan(row));
    }
  }
  return watch.Seconds();
}

double SpanPathTrain(const PairStream& pairs, Matrix* input, Matrix* output) {
  const x2vec::trace::StopWatch watch;
  std::vector<double> gradient(kSgnsDim);
  x2vec::linalg::RowDeltaBuffer input_delta;
  x2vec::linalg::RowDeltaBuffer output_delta;
  for (int s = 0; s < kSequences; ++s) {
    input_delta.Reset(kVocab, kSgnsDim);
    output_delta.Reset(kVocab, kSgnsDim);
    for (int p = s * kPairsPerSequence; p < (s + 1) * kPairsPerSequence; ++p) {
      const int center = pairs.centers[p];
      const int context = pairs.contexts[p];
      std::fill(gradient.begin(), gradient.end(), 0.0);
      x2vec::linalg::SgdPairUpdateDelta(
          input->ConstRowSpan(center), output->ConstRowSpan(context),
          pairs.labels[p], kLr, gradient,
          output_delta.Accumulator(context));
      x2vec::linalg::Axpy(1.0, gradient, input_delta.Accumulator(center));
    }
    input_delta.AddTo(*input);
    output_delta.AddTo(*output);
  }
  return watch.Seconds();
}

// ---- Workload 3: kernel-backend micro-benchmarks ----------------------------

constexpr int kBackendRows = 1024;
constexpr int kBackendDim = 64;
constexpr int kBackendReps = 2000;

struct BackendTimings {
  double dot_seconds = 0.0;
  double sqdist_seconds = 0.0;
  double axpy_seconds = 0.0;
  double sgd_seconds = 0.0;
  uint64_t checksum = 0;  ///< over every mutated row and reduction result
};

// Runs the same row-sweep workload through one backend's ops table. Each
// backend gets fresh copies of the mutable operands, so all three see an
// identical stream of inputs; the checksum folds in the mutated matrices
// and the reduction accumulators, pinning each backend's numerics.
BackendTimings RunBackendBench(const x2vec::linalg::KernelOps& ops,
                               const Matrix& lhs, const Matrix& rhs) {
  BackendTimings timings;
  double dot_acc = 0.0;
  {
    const x2vec::trace::StopWatch watch;
    for (int rep = 0; rep < kBackendReps; ++rep) {
      for (int i = 0; i < lhs.rows(); ++i) {
        dot_acc += ops.dot(lhs.ConstRowSpan(i), rhs.ConstRowSpan(i));
      }
    }
    timings.dot_seconds = watch.Seconds();
  }
  double sqdist_acc = 0.0;
  {
    const x2vec::trace::StopWatch watch;
    for (int rep = 0; rep < kBackendReps; ++rep) {
      for (int i = 0; i < lhs.rows(); ++i) {
        sqdist_acc +=
            ops.squared_distance(lhs.ConstRowSpan(i), rhs.ConstRowSpan(i));
      }
    }
    timings.sqdist_seconds = watch.Seconds();
  }
  Matrix axpy_target = rhs;
  {
    // Small alpha keeps the accumulated target bounded over all reps.
    const x2vec::trace::StopWatch watch;
    for (int rep = 0; rep < kBackendReps; ++rep) {
      for (int i = 0; i < lhs.rows(); ++i) {
        ops.axpy(1e-4, lhs.ConstRowSpan(i), axpy_target.RowSpan(i));
      }
    }
    timings.axpy_seconds = watch.Seconds();
  }
  Matrix context = rhs;
  std::vector<double> gradient(kBackendDim);
  double loss = 0.0;
  {
    const x2vec::trace::StopWatch watch;
    for (int rep = 0; rep < kBackendReps; ++rep) {
      for (int i = 0; i < lhs.rows(); ++i) {
        std::fill(gradient.begin(), gradient.end(), 0.0);
        loss += ops.sgd_pair_update(lhs.ConstRowSpan(i), context.RowSpan(i),
                                    (i & 1) ? 1.0 : 0.0, kLr, gradient);
      }
    }
    timings.sgd_seconds = watch.Seconds();
  }
  const double reductions[3] = {dot_acc, sqdist_acc, loss};
  timings.checksum =
      Fnv1a(axpy_target.data().data(), axpy_target.data().size()) ^
      Fnv1a(context.data().data(), context.data().size()) ^
      Fnv1a(reductions, 3);
  return timings;
}

// One `"<name>": {...}` JSON fragment for a backend, with per-kernel
// calls/sec and speedups relative to the generic baseline.
void PrintBackendJson(const char* name, const BackendTimings& timings,
                      const BackendTimings& baseline, bool trailing_comma) {
  const double calls =
      static_cast<double>(kBackendRows) * static_cast<double>(kBackendReps);
  std::printf(
      "  \"%s\": {\"dot_calls_per_sec\": %.0f, "
      "\"sqdist_calls_per_sec\": %.0f, \"axpy_calls_per_sec\": %.0f, "
      "\"sgd_calls_per_sec\": %.0f, \"dot_speedup\": %.2f, "
      "\"sqdist_speedup\": %.2f, \"axpy_speedup\": %.2f, "
      "\"sgd_speedup\": %.2f, \"checksum\": \"0x%016llx\"}%s\n",
      name, calls / timings.dot_seconds, calls / timings.sqdist_seconds,
      calls / timings.axpy_seconds, calls / timings.sgd_seconds,
      baseline.dot_seconds / timings.dot_seconds,
      baseline.sqdist_seconds / timings.sqdist_seconds,
      baseline.axpy_seconds / timings.axpy_seconds,
      baseline.sgd_seconds / timings.sgd_seconds,
      static_cast<unsigned long long>(timings.checksum),
      trailing_comma ? "," : "");
}

}  // namespace

int main() {
  // kNN scan.
  const Matrix features = Matrix::Random(kPoints, kDim, 1.0, /*seed=*/11);
  const Matrix queries = Matrix::Random(kQueries, kDim, 1.0, /*seed=*/12);
  std::vector<double> nearest_copy(kQueries);
  std::vector<double> nearest_span(kQueries);
  const double copy_seconds = CopyPathScan(features, queries, &nearest_copy);
  const double span_seconds = SpanPathScan(features, queries, &nearest_span);
  const bool knn_identical =
      Fnv1a(nearest_copy.data(), nearest_copy.size()) ==
      Fnv1a(nearest_span.data(), nearest_span.size());
  const double total_queries = static_cast<double>(kQueries) * kKnnReps;
  const double copy_qps = total_queries / copy_seconds;
  const double span_qps = total_queries / span_seconds;

  // SGNS delta accumulation. Both paths start from the same parameters;
  // the map path applies row deltas in ascending-row order, the buffer in
  // first-touch order — distinct rows, so the result is bit-identical.
  const PairStream pairs = MakePairs();
  Matrix input_map = Matrix::Random(kVocab, kSgnsDim, 0.1, /*seed=*/13);
  Matrix output_map(kVocab, kSgnsDim);
  Matrix input_span = input_map;
  Matrix output_span(kVocab, kSgnsDim);
  const double map_seconds = MapPathTrain(pairs, &input_map, &output_map);
  const double buffer_seconds =
      SpanPathTrain(pairs, &input_span, &output_span);
  const bool sgns_identical =
      Fnv1a(input_map.data().data(), input_map.data().size()) ==
          Fnv1a(input_span.data().data(), input_span.data().size()) &&
      Fnv1a(output_map.data().data(), output_map.data().size()) ==
          Fnv1a(output_span.data().data(), output_span.data().size());
  const double total_pairs =
      static_cast<double>(kSequences) * kPairsPerSequence;
  const double map_pps = total_pairs / map_seconds;
  const double buffer_pps = total_pairs / buffer_seconds;

  // Backend-vs-backend kernel sweep. The generic table is the baseline all
  // speedups are relative to; the acceptance bar tracked in
  // BENCH_kernels.json is a vectorized sgd_speedup >= 1.5.
  const Matrix bench_lhs =
      Matrix::Random(kBackendRows, kBackendDim, 1.0, /*seed=*/14);
  const Matrix bench_rhs =
      Matrix::Random(kBackendRows, kBackendDim, 1.0, /*seed=*/15);
  const BackendTimings generic = RunBackendBench(
      x2vec::linalg::GetKernelOps(x2vec::linalg::KernelBackend::kGeneric),
      bench_lhs, bench_rhs);
  const BackendTimings vectorized = RunBackendBench(
      x2vec::linalg::GetKernelOps(x2vec::linalg::KernelBackend::kVectorized),
      bench_lhs, bench_rhs);

  std::printf(
      "{\"bench\": \"perf_dense_kernels\",\n"
      " \"knn\": {\"points\": %d, \"dim\": %d, \"copy_queries_per_sec\": "
      "%.1f, \"span_queries_per_sec\": %.1f, \"speedup\": %.2f, "
      "\"bit_identical\": %s},\n"
      " \"sgns\": {\"vocab\": %d, \"dim\": %d, \"map_pairs_per_sec\": %.1f, "
      "\"buffer_pairs_per_sec\": %.1f, \"speedup\": %.2f, "
      "\"bit_identical\": %s},\n"
      " \"kernels\": {\"rows\": %d, \"dim\": %d, \"reps\": %d,\n",
      kPoints, kDim, copy_qps, span_qps, span_qps / copy_qps,
      knn_identical ? "true" : "false", kVocab, kSgnsDim, map_pps, buffer_pps,
      buffer_pps / map_pps, sgns_identical ? "true" : "false", kBackendRows,
      kBackendDim, kBackendReps);
  PrintBackendJson("generic", generic, generic, /*trailing_comma=*/true);
  PrintBackendJson("vectorized", vectorized, generic,
                   /*trailing_comma=*/false);
  std::printf(" },\n \"meta\": %s}\n", x2vec::bench::MetaJson().c_str());
  return (knn_identical && sgns_identical) ? 0 : 1;
}
