#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "wl/color_refinement.h"

namespace x2vec::wl {

/// Stable row/column partition of a real matrix under matrix-WL
/// (Section 3.2, Figure 4): weighted 1-WL (WeightedColorRefinement, in
/// wl/color_refinement.h) on the weighted bipartite graph on rows and
/// columns with edge weight A_ij and an initial colouring separating rows
/// from columns.
struct MatrixWlResult {
  std::vector<int> row_colors;  ///< Colours 0..k-1 over rows.
  std::vector<int> col_colors;  ///< Colours (disjoint ids) over columns.
  int num_row_colors = 0;
  int num_col_colors = 0;
  int rounds = 0;
};

MatrixWlResult MatrixWl(const linalg::Matrix& a);

/// Quotient of a matrix by matrix-WL classes: entry (I, J) is the total
/// weight from any row of class I into the columns of class J (well-defined
/// by stability). This is the dimension-reduction of [Grohe et al. 2014]
/// used to shrink symmetric linear programs (Figure 4's application).
linalg::Matrix ReduceMatrixByWl(const linalg::Matrix& a,
                                const MatrixWlResult& partition);

}  // namespace x2vec::wl
