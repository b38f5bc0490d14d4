#include "wl/weighted_wl.h"

namespace x2vec::wl {

using graph::Graph;

MatrixWlResult MatrixWl(const linalg::Matrix& a) {
  const int m = a.rows();
  const int n = a.cols();
  // Weighted bipartite graph: rows 0..m-1, columns m..m+n-1, weight A_ij.
  // Zero entries simply contribute no edge (alpha = 0 as in the paper).
  Graph bipartite(m + n);
  for (int i = 0; i < m; ++i) bipartite.SetVertexLabel(i, 0);
  for (int j = 0; j < n; ++j) bipartite.SetVertexLabel(m + j, 1);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      if (a(i, j) != 0.0) bipartite.AddEdge(i, m + j, a(i, j));
    }
  }
  const RefinementResult refinement = WeightedColorRefinement(bipartite);
  const std::vector<int>& stable = refinement.StableColors();

  MatrixWlResult result;
  result.rounds = refinement.stable_round;
  // Renumber row colours and column colours independently from 0, in
  // order of first appearance.
  const auto renumber = [&](int first, int count, std::vector<int>& out) {
    std::vector<int> id(refinement.NumStableColors(), -1);
    int next = 0;
    for (int i = 0; i < count; ++i) {
      int& c = id[stable[first + i]];
      if (c < 0) c = next++;
      out.push_back(c);
    }
    return next;
  };
  result.num_row_colors = renumber(0, m, result.row_colors);
  result.num_col_colors = renumber(m, n, result.col_colors);
  return result;
}

linalg::Matrix ReduceMatrixByWl(const linalg::Matrix& a,
                                const MatrixWlResult& partition) {
  linalg::Matrix reduced(partition.num_row_colors, partition.num_col_colors);
  // Row-class representative: by stability every row of a class has the
  // same total weight into each column class.
  std::vector<int> representative(partition.num_row_colors, -1);
  for (int i = 0; i < a.rows(); ++i) {
    if (representative[partition.row_colors[i]] == -1) {
      representative[partition.row_colors[i]] = i;
    }
  }
  for (int rc = 0; rc < partition.num_row_colors; ++rc) {
    const int i = representative[rc];
    X2VEC_CHECK_GE(i, 0);
    for (int j = 0; j < a.cols(); ++j) {
      reduced(rc, partition.col_colors[j]) += a(i, j);
    }
  }
  return reduced;
}

}  // namespace x2vec::wl
