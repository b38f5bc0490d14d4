#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "base/status.h"
#include "graph/graph.h"
#include "linalg/matrix.h"

namespace x2vec::kernel {

/// Sparse feature vector: sorted (feature id, value) pairs. Feature ids are
/// only meaningful relative to the map they came from.
struct SparseVector {
  std::vector<std::pair<int64_t, double>> entries;

  double Dot(const SparseVector& other) const;
  double NormSquared() const { return Dot(*this); }
};

/// Explicit Weisfeiler-Leman subtree features of a *dataset* of graphs
/// (Section 3.5): all graphs are refined jointly (wl::RefineDataset: the
/// same colour ids as on their disjoint union, which is never built), and
/// graph G's feature vector stacks the counts wl(c, G) for every colour c
/// of every round 0..t. Feature ids encode (round, colour). An empty
/// dataset gives no features and dimension 0, and the Gram matrices below
/// are then 0x0.
struct WlFeatureSet {
  std::vector<SparseVector> features;  ///< One per input graph.
  int rounds = 0;
  int64_t dimension = 0;  ///< Total number of (round, colour) features seen.
};

/// Every function below refuses rounds < 0 and, except the 2-WL kernel,
/// graphs of mixed directedness with kInvalidArgument (graph_kernels.h).
StatusOr<WlFeatureSet> WlSubtreeFeatures(
    const std::vector<graph::Graph>& graphs, int rounds, Budget& budget);

/// K^(t)_WL Gram matrix over the dataset: the t-round WL subtree kernel of
/// Section 3.5, K(G,H) = sum_{i<=t} sum_c wl(c,G) wl(c,H).
StatusOr<linalg::Matrix> WlSubtreeKernelMatrix(
    const std::vector<graph::Graph>& graphs, int rounds, Budget& budget);

/// Round-discounted kernel K_WL with weight 2^{-i} for round i (the
/// round-independent variant defined in Section 3.5), truncated at
/// `max_rounds` (colourings are stable long before on these sizes).
StatusOr<linalg::Matrix> DiscountedWlKernelMatrix(
    const std::vector<graph::Graph>& graphs, int max_rounds, Budget& budget);

/// Graph kernel from folklore 2-WL colours (Section 3.5's closing pointer
/// to higher-dimensional WL kernels [Morris et al. 2017]): the dataset's
/// vertex pairs are refined jointly (wl::KwlRefineDataset with k = 2, the
/// pair analogue of RefineDataset), and graph G's features count its pair
/// colours in every round 0..rounds whose partition is new (a final round
/// that splits no class is not counted again). Pair atomic types hold both
/// vertex labels and equality and adjacency in both directions, so on
/// digraphs both edge directions count, and directedness may be mixed.
/// Strictly more expressive than the 1-WL subtree kernel (it separates C6
/// from 2xC3) at O(n^3) per graph per round. A dataset too large for the
/// pass (more than 2^31 - 1 row entries a round) gives kInvalidArgument.
StatusOr<linalg::Matrix> TwoWlKernelMatrix(
    const std::vector<graph::Graph>& graphs, int rounds, Budget& budget);

/// Weisfeiler-Leman shortest-path kernel: features are triples
/// (colour_u at round t, colour_v at round t, dist(u, v)) over connected
/// vertex pairs [Shervashidze et al. 2011 variant].
StatusOr<linalg::Matrix> WlShortestPathKernelMatrix(
    const std::vector<graph::Graph>& graphs, int rounds, Budget& budget);

}  // namespace x2vec::kernel
