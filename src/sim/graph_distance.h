#pragma once

#include <vector>

#include "graph/graph.h"
#include "linalg/matrix.h"
#include "sim/matrix_norms.h"

namespace x2vec::sim {

/// Exact graph distance dist_{||.||}(G, H) = min over permutations P of
/// ||AP - PB|| (Section 5.1, eq. 5.2) with the minimising permutation —
/// brute force over all n! alignments, so graphs up to ~8 vertices.
/// Graphs must have the same order (use BlowUpAlign otherwise).
struct ExactDistanceResult {
  double distance = 0.0;
  std::vector<int> permutation;  ///< g-vertex v maps to h-vertex perm[v].
};

ExactDistanceResult GraphDistanceExact(const graph::Graph& g,
                                       const graph::Graph& h,
                                       MatrixNorm norm);

/// dist_1 / 2 = minimum number of edge flips turning G into a graph
/// isomorphic to H (eq. 5.3's edit-distance interpretation).
int64_t EdgeFlipDistance(const graph::Graph& g, const graph::Graph& h);

/// The relaxed pseudo-distance of eq. (5.5): min over doubly stochastic X
/// of ||AX - XB||_F, solved by Frank–Wolfe with the Hungarian assignment
/// as linear-minimisation oracle and exact line search (the objective is
/// quadratic). Zero iff the graphs are fractionally isomorphic
/// (Theorem 3.2).
struct RelaxedDistanceResult {
  double distance = 0.0;
  linalg::Matrix solution;  ///< The minimising doubly stochastic X.
  int iterations = 0;
};

RelaxedDistanceResult RelaxedGraphDistance(const graph::Graph& g,
                                           const graph::Graph& h,
                                           int max_iterations = 200,
                                           double tolerance = 1e-8);

/// Blows both graphs up to their least common order so same-order distance
/// machinery applies (Section 5.1's final remark). Returns the pair of
/// blown-up graphs.
std::pair<graph::Graph, graph::Graph> BlowUpAlign(const graph::Graph& g,
                                                  const graph::Graph& h);

}  // namespace x2vec::sim
