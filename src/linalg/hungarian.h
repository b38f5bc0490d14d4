#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace x2vec::linalg {

/// Result of a minimum-cost perfect assignment on an n x n cost matrix.
struct AssignmentResult {
  /// assignment[i] = column matched to row i.
  std::vector<int> assignment;
  double cost = 0.0;
};

/// O(n^3) Hungarian algorithm (Jonker–Volgenant style potentials) for the
/// minimum-cost perfect assignment problem. Used as the linear-minimisation
/// oracle of the Frank–Wolfe solver over the Birkhoff polytope (Section 5)
/// and for exact dist_1 alignment of small graphs.
AssignmentResult SolveAssignment(const Matrix& cost);

}  // namespace x2vec::linalg
