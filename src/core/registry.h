#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/metrics.h"
#include "base/rng.h"
#include "base/status.h"
#include "graph/graph.h"
#include "linalg/matrix.h"

namespace x2vec::core {

/// A named whole-graph representation method: given a dataset, produce a
/// Gram matrix over it. Kernel methods produce it directly; embedding
/// methods (graph2vec, hom vectors, GNN readout) produce feature rows and
/// the Gram matrix is their inner-product matrix. This common interface is
/// what lets the classification benches sweep every method the paper
/// surveys with the same downstream pipeline.
struct GraphKernelMethod {
  std::string name;
  /// Budget-aware entry point: returns kResourceExhausted when the budget
  /// runs out. Kernels charge one work unit per graph for a per-graph
  /// feature pass and one per Gram entry, each before the work it pays
  /// for, and read a deadline while they fill (DESIGN.md, Budgets); the
  /// trainer-backed methods charge much finer. Other error codes surface
  /// input validation (kInvalidArgument) and trainer divergence failures.
  std::function<StatusOr<linalg::Matrix>(const std::vector<graph::Graph>&,
                                         Rng&, Budget&)>
      gram_budgeted;

  /// Unlimited-budget convenience wrapper (crashes on non-budget errors).
  linalg::Matrix gram(const std::vector<graph::Graph>& graphs,
                      Rng& rng) const;
};

// The default suites (DefaultMethodSuite / DefaultNodeMethodSuite) live in
// api/suite.h: they construct methods from every layer-4 module, which core
// (layer 3) may not depend on. core keeps only the method *framework*.

/// A named node-embedding method: graph -> one row per vertex.
struct NodeEmbeddingMethod {
  std::string name;
  /// Budget-aware entry point; same contract as
  /// GraphKernelMethod::gram_budgeted with one work unit per vertex floor.
  std::function<StatusOr<linalg::Matrix>(const graph::Graph&, Rng&, Budget&)>
      embed_budgeted;

  /// Unlimited-budget convenience wrapper (crashes on non-budget errors).
  linalg::Matrix embed(const graph::Graph& g, Rng& rng) const;
};

/// One method's result in a budgeted suite sweep: either a Gram/embedding
/// matrix (status OK) or the reason the method was skipped (budget blown,
/// trainer diverged, ...). A blown per-method budget degrades the sweep
/// gracefully instead of hanging or crashing it.
struct MethodOutcome {
  std::string name;
  Status status;
  linalg::Matrix matrix;  ///< Empty (0 x 0) when !status.ok().
  /// Wall-clock time the method spent (steady clock), recorded whether it
  /// succeeded or was skipped — blown budgets still report how long the
  /// method ran before giving up.
  double seconds = 0.0;
  /// Metric traffic attributed to this method: the Delta of the global
  /// snapshot across the method's run (counters/histograms are exact;
  /// gauges carry their value at method end). Empty when metrics are
  /// disabled.
  metrics::Snapshot metrics;
};

/// Runs every method with a fresh per-method budget from `spec` and a
/// per-method Rng seeded with seed + method index. Never throws or hangs:
/// methods that exhaust their budget (or fail validation / diverge) are
/// reported as skipped via their Status.
std::vector<MethodOutcome> RunMethodSuite(
    const std::vector<GraphKernelMethod>& suite,
    const std::vector<graph::Graph>& graphs, uint64_t seed,
    const BudgetSpec& spec);

}  // namespace x2vec::core
