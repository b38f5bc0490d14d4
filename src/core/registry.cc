#include "core/registry.h"

#include "base/trace.h"

namespace x2vec::core {

using graph::Graph;
using linalg::Matrix;

Matrix GraphKernelMethod::gram(const std::vector<Graph>& graphs,
                               Rng& rng) const {
  Budget unlimited;
  return *gram_budgeted(graphs, rng, unlimited);
}

Matrix NodeEmbeddingMethod::embed(const Graph& g, Rng& rng) const {
  Budget unlimited;
  return *embed_budgeted(g, rng, unlimited);
}

// Each method gets its own budget from `spec`, an Rng seeded with
// seed + its index, a trace span, a stopwatch and a metrics delta.
std::vector<MethodOutcome> RunMethodSuite(
    const std::vector<GraphKernelMethod>& suite,
    const std::vector<Graph>& graphs, uint64_t seed, const BudgetSpec& spec) {
  std::vector<MethodOutcome> outcomes;
  outcomes.reserve(suite.size());
  for (size_t i = 0; i < suite.size(); ++i) {
    Budget budget = spec.MakeBudget();
    Rng rng = MakeRng(seed + i);
    const metrics::Snapshot before = metrics::GlobalSnapshot();
    const trace::StopWatch watch;
    StatusOr<Matrix> result = [&]() -> StatusOr<Matrix> {
      trace::Span span("method." + suite[i].name);
      return suite[i].gram_budgeted(graphs, rng, budget);
    }();
    const double seconds = watch.Seconds();
    metrics::Snapshot delta =
        metrics::Delta(before, metrics::GlobalSnapshot());
    if (result.ok()) {
      outcomes.push_back({suite[i].name, Status::Ok(), std::move(*result),
                          seconds, std::move(delta)});
    } else {
      outcomes.push_back({suite[i].name, result.status(), Matrix(), seconds,
                          std::move(delta)});
    }
  }
  return outcomes;
}

}  // namespace x2vec::core
