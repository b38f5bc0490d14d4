#include "hom/indistinguishability.h"

#include <algorithm>
#include <cmath>

#include "graph/enumeration.h"
#include "hom/path_cycle.h"
#include "hom/tree_hom.h"
#include "linalg/charpoly.h"
#include "linalg/linear_system.h"
#include "wl/color_refinement.h"

namespace x2vec::hom {

using graph::Graph;
using linalg::Rational;
using linalg::RationalMatrix;

bool HomIndistinguishableTrees(const Graph& g, const Graph& h) {
  if (g.NumVertices() != h.NumVertices()) return false;
  return wl::WlIndistinguishable(g, h);
}

bool HomIndistinguishablePaths(const Graph& g, const Graph& h) {
  // Theorem 4.6: Hom_P(G) = Hom_P(H) iff the linear system
  //   AX = XB,  row sums = column sums = 1
  // has a rational (not necessarily non-negative) solution. We assemble the
  // system over exact rationals in the nm variables X_vw.
  const int n = g.NumVertices();
  const int m = h.NumVertices();
  if (n != m) return false;  // Row/col sum equations force equal orders.
  if (n == 0) return true;

  const linalg::IntMatrix a = g.IntAdjacencyMatrix();
  const linalg::IntMatrix b = h.IntAdjacencyMatrix();

  const int vars = n * m;
  const int equations = n * m + n + m;
  RationalMatrix system(equations, vars);
  std::vector<Rational> rhs(equations, Rational(0));
  auto var = [m](int v, int w) { return v * m + w; };

  // (3.2): sum_v' A_{vv'} X_{v'w} - sum_w' X_{vw'} B_{w'w} = 0.
  int row = 0;
  for (int v = 0; v < n; ++v) {
    for (int w = 0; w < m; ++w, ++row) {
      for (int vp = 0; vp < n; ++vp) {
        if (a(v, vp) != 0) {
          system(row, var(vp, w)) += Rational(static_cast<int64_t>(a(v, vp)));
        }
      }
      for (int wp = 0; wp < m; ++wp) {
        if (b(wp, w) != 0) {
          system(row, var(v, wp)) -= Rational(static_cast<int64_t>(b(wp, w)));
        }
      }
    }
  }
  // (3.3): row sums and column sums equal 1.
  for (int v = 0; v < n; ++v, ++row) {
    for (int w = 0; w < m; ++w) system(row, var(v, w)) = Rational(1);
    rhs[row] = Rational(1);
  }
  for (int w = 0; w < m; ++w, ++row) {
    for (int v = 0; v < n; ++v) system(row, var(v, w)) = Rational(1);
    rhs[row] = Rational(1);
  }
  X2VEC_CHECK_EQ(row, equations);

  return SolveRational(system, rhs).consistent;
}

bool HomIndistinguishableCycles(const Graph& g, const Graph& h) {
  if (g.NumVertices() != h.NumVertices()) return false;
  const std::vector<__int128> pg =
      linalg::CharacteristicPolynomial(g.IntAdjacencyMatrix());
  const std::vector<__int128> ph =
      linalg::CharacteristicPolynomial(h.IntAdjacencyMatrix());
  return pg == ph;
}

bool TreeHomVectorsEqual(const Graph& g, const Graph& h,
                         int max_pattern_size) {
  for (const Graph& tree : graph::TreesUpTo(max_pattern_size)) {
    if (CountTreeHoms(tree, g) != CountTreeHoms(tree, h)) return false;
  }
  return true;
}

bool PathHomVectorsEqual(const Graph& g, const Graph& h, int max_k) {
  return PathHomVector(g, max_k) == PathHomVector(h, max_k);
}

bool WeightedTreeHomVectorsEqual(const Graph& g, const Graph& h,
                                 int max_pattern_size, double tol) {
  for (const Graph& tree : graph::TreesUpTo(max_pattern_size)) {
    const double a = WeightedTreeHom(tree, g);
    const double b = WeightedTreeHom(tree, h);
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    if (std::abs(a - b) > tol * scale) return false;
  }
  return true;
}

}  // namespace x2vec::hom
