#pragma once

// Internal to src/kernel: the per-graph feature pass and the one Gram fill
// behind every Gram matrix of the module. Work units (DESIGN.md, Budgets):
// one per graph, charged before a per-graph pass, and one per upper-
// triangle entry, charged before the fill.

#include <cstdint>
#include <string_view>

#include "base/budget.h"
#include "base/metrics.h"
#include "base/parallel.h"
#include "base/trace.h"
#include "linalg/matrix.h"

namespace x2vec::kernel::internal {

// Runs fn(g) for g in [0, count) in parallel, reading the deadline before
// each graph, so it overruns a deadline by about one graph's work. Counts
// each graph it ran fn on in kernel.graph_passes.
template <typename Fn>
Status ForEachGraph(int64_t count, Budget& budget, std::string_view operation,
                    const Fn& fn) {
  if (!budget.Spend(count)) return budget.ExhaustedError(operation);
  return ParallelForUntilDeadline(
      count, 1, budget, operation, [&](int64_t lo, int64_t hi) {
        for (int64_t g = lo; g < hi; ++g) fn(g);
        X2VEC_METRIC_COUNT("kernel.graph_passes", hi - lo);
        return Status::Ok();
      });
}

// The symmetric n x n matrix K(i, j) = K(j, i) = entry(i, j), i <= j,
// filled in parallel over the upper triangle with a deadline read at least
// every Budget::kClockCheckStride entries. Each entry is one call, so the
// matrix is bit-identical at any thread count.
template <typename Entry>
StatusOr<linalg::Matrix> FillGram(int n, Budget& budget,
                                  std::string_view operation,
                                  const Entry& entry) {
  const int64_t pairs = static_cast<int64_t>(n) * (n + 1) / 2;
  if (!budget.Spend(pairs)) return budget.ExhaustedError(operation);
  trace::Span span("kernel.gram");
  linalg::Matrix k(n, n);
  const Status status = ParallelForUntilDeadline(
      pairs, 0, budget, operation, [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
          const auto [i, j] = UpperTriangleIndex(t, n);
          k(i, j) = k(j, i) = entry(i, j);
        }
        X2VEC_METRIC_COUNT("kernel.gram_entries", hi - lo);
        return Status::Ok();
      });
  if (!status.ok()) return status;
  span.AddWork(pairs);
  return k;
}

}  // namespace x2vec::kernel::internal
