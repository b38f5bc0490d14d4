#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "linalg/matrix.h"

namespace x2vec::gnn {

/// Graph Isomorphism Network layer [Xu et al.], a message-passing layer of
/// the form of eqs. (2.1)-(2.2) with the maximally expressive
/// 1-WL-matching aggregator: x'_v = MLP((1 + eps) x_v + sum_{w~v} x_w)
/// with a 2-layer ReLU MLP.
struct GinLayer {
  double epsilon = 0.0;
  linalg::Matrix w1;  ///< hidden x d.
  linalg::Matrix w2;  ///< out x hidden.

  static GinLayer Random(int in_dim, int hidden_dim, int out_dim,
                         double scale, uint64_t seed);

  linalg::Matrix Forward(const graph::Graph& g,
                         const linalg::Matrix& states) const;
};

/// Constant all-ones initial states (the label-free initialisation whose
/// expressiveness is capped by 1-WL, Section 3.6).
linalg::Matrix ConstantInitialStates(const graph::Graph& g, int dim);

/// Random i.i.d. initial states (the expressiveness-boosting randomised
/// initialisation discussed at the end of Section 3.6).
linalg::Matrix RandomInitialStates(const graph::Graph& g, int dim,
                                   uint64_t seed);

/// Sum-readout graph embedding: column sums of the final node states
/// (Section 2.5's "just aggregate the node embeddings").
std::vector<double> SumReadout(const linalg::Matrix& states);

/// A stack of GIN layers applied in sequence (shared across graphs —
/// the parameter sharing that makes GNNs inductive).
struct GinStack {
  std::vector<GinLayer> layers;

  static GinStack Random(int num_layers, int dim, double scale,
                         uint64_t seed);

  linalg::Matrix Forward(const graph::Graph& g,
                         const linalg::Matrix& initial) const;

  /// Sum-readout embedding of a whole graph from constant initial states.
  std::vector<double> EmbedGraph(const graph::Graph& g) const;
};

/// True if the (random-weight) GIN stack assigns different sum-readouts to
/// g and h — a practical test of GNN distinguishing power (Section 3.6:
/// distinguishes at most what 1-WL distinguishes, and with injective-enough
/// random weights, exactly that).
bool GnnDistinguishes(const graph::Graph& g, const graph::Graph& h,
                      const GinStack& stack, double tol = 1e-6);

}  // namespace x2vec::gnn
