#pragma once

#include <vector>

#include "base/budget.h"
#include "base/status.h"
#include "graph/graph.h"
#include "hom/embeddings.h"
#include "linalg/matrix.h"

namespace x2vec::kernel {

/// Every Gram matrix here and in wl_kernel.h comes from one budgeted fill:
/// kInvalidArgument for bad parameters or graphs, before any work;
/// kResourceExhausted once the budget runs out (work units: DESIGN.md,
/// Budgets).

/// Shortest-path kernel (Section 2.4 [Borgwardt–Kriegel]): features are
/// triples (label_u, label_v, dist(u, v)) over connected vertex pairs; the
/// WL shortest-path kernel at round 0, so the graphs share directedness.
StatusOr<linalg::Matrix> ShortestPathKernelMatrix(
    const std::vector<graph::Graph>& graphs, Budget& budget);

/// Geometric random-walk kernel (Section 2.4 [Gärtner et al.]):
/// K(G, H) = sum_{k=0..max_length} lambda^k * (number of length-k walks in
/// the direct product graph, on label-matching vertex pairs), without
/// building it: X_0 = M, X_{k+1} = M o (A_G X_k A_H) with M the n_G x n_H
/// label-match mask [Vishwanathan et al., JMLR 2010]. Exact while the walk
/// counts stay below 2^53; edge weights and labels are ignored. Needs
/// undirected graphs, a finite lambda > 0 and max_length >= 0.
StatusOr<linalg::Matrix> RandomWalkKernelMatrix(
    const std::vector<graph::Graph>& graphs, double lambda, int max_length,
    Budget& budget);

/// Induced 3-vertex graphlet counts of a graph: (empty, one-edge, path,
/// triangle) — the graphlet kernel's feature map (Section 2.4
/// [Shervashidze et al. 2009]).
std::vector<double> ThreeGraphletCounts(const graph::Graph& g);

/// Graphlet kernel Gram matrix from normalised 3-graphlet counts. This and
/// the hom kernels need undirected graphs (and patterns).
StatusOr<linalg::Matrix> GraphletKernelMatrix(
    const std::vector<graph::Graph>& graphs, Budget& budget);

/// Homomorphism-vector kernel: inner products of the log-scaled Hom_F
/// embeddings of Section 4 over the given pattern family.
StatusOr<linalg::Matrix> HomVectorKernelMatrix(
    const std::vector<graph::Graph>& graphs,
    const std::vector<hom::Pattern>& patterns, Budget& budget);

/// The size-scaled homomorphism kernel of eq. (4.1), truncated to the given
/// family: K(G,H) = sum_k (1/|F_k|) sum_{F in F_k} k^{-k} hom(F,G) hom(F,H),
/// where F_k is the set of patterns with k vertices.
StatusOr<linalg::Matrix> ScaledHomKernelMatrix(
    const std::vector<graph::Graph>& graphs,
    const std::vector<hom::Pattern>& patterns, Budget& budget);

/// The linear kernel on feature rows, K(i, j) = linalg::Dot(row i, row j):
/// the Gram of the dense feature maps above and of embedding rows.
StatusOr<linalg::Matrix> LinearKernelMatrix(const linalg::Matrix& rows,
                                            Budget& budget);

// -- Kernel matrix utilities -------------------------------------------------

/// K'_ij = K_ij / sqrt(K_ii K_jj) (cosine normalisation); zero diagonals
/// stay zero.
linalg::Matrix NormalizeKernel(const linalg::Matrix& k);

/// True if the symmetric matrix is positive semidefinite up to `tol`
/// (minimum eigenvalue >= -tol) — the defining property of a kernel
/// (Section 2.4).
bool IsPositiveSemidefinite(const linalg::Matrix& k, double tol = 1e-8);

}  // namespace x2vec::kernel
