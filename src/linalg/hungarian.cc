#include "linalg/hungarian.h"

#include <limits>

namespace x2vec::linalg {

AssignmentResult SolveAssignment(const Matrix& cost) {
  const int n = cost.rows();
  X2VEC_CHECK_EQ(cost.rows(), cost.cols()) << "assignment needs a square cost";
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // 1-indexed classical O(n^3) formulation with row/column potentials.
  std::vector<double> u(n + 1, 0.0);
  std::vector<double> v(n + 1, 0.0);
  std::vector<int> match_col(n + 1, 0);  // match_col[j] = row matched to col j.
  std::vector<int> way(n + 1, 0);

  for (int i = 1; i <= n; ++i) {
    match_col[0] = i;
    int j0 = 0;
    std::vector<double> minv(n + 1, kInf);
    std::vector<char> used(n + 1, 0);
    do {
      used[j0] = 1;
      const int i0 = match_col[j0];
      double delta = kInf;
      int j1 = 0;
      for (int j = 1; j <= n; ++j) {
        if (used[j]) continue;
        const double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (int j = 0; j <= n; ++j) {
        if (used[j]) {
          u[match_col[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (match_col[j0] != 0);
    // Augment along the alternating path.
    do {
      const int j1 = way[j0];
      match_col[j0] = match_col[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult result;
  result.assignment.assign(n, -1);
  for (int j = 1; j <= n; ++j) {
    result.assignment[match_col[j] - 1] = j - 1;
  }
  for (int i = 0; i < n; ++i) {
    result.cost += cost(i, result.assignment[i]);
  }
  return result;
}

}  // namespace x2vec::linalg
