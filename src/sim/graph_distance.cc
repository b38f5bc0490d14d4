#include "sim/graph_distance.h"

#include <algorithm>
#include <numeric>

#include "linalg/hungarian.h"

namespace x2vec::sim {
namespace {

using graph::Graph;
using linalg::Matrix;

// ||A P - P B|| for the permutation perm (g-vertex v -> h-vertex perm[v]).
Matrix AlignmentResidual(const Matrix& a, const Matrix& b,
                         const std::vector<int>& perm) {
  const int n = a.rows();
  Matrix p(n, n);
  for (int v = 0; v < n; ++v) p(v, perm[v]) = 1.0;
  return a * p - p * b;
}

int64_t Gcd64(int64_t a, int64_t b) {
  while (b != 0) {
    const int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace

ExactDistanceResult GraphDistanceExact(const Graph& g, const Graph& h,
                                       MatrixNorm norm) {
  const int n = g.NumVertices();
  X2VEC_CHECK_EQ(n, h.NumVertices())
      << "same order required; use BlowUpAlign first";
  X2VEC_CHECK_LE(n, 9) << "exact distance enumerates n! permutations";
  const Matrix a = g.AdjacencyMatrix();
  const Matrix b = h.AdjacencyMatrix();

  ExactDistanceResult result;
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  bool first = true;
  do {
    const double value = NormValue(AlignmentResidual(a, b, perm), norm);
    if (first || value < result.distance) {
      result.distance = value;
      result.permutation = perm;
      first = false;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return result;
}

int64_t EdgeFlipDistance(const Graph& g, const Graph& h) {
  const ExactDistanceResult result =
      GraphDistanceExact(g, h, MatrixNorm::kEntrywiseL1);
  // ||AP - PB||_1 counts each flipped undirected edge twice; eq. (5.3).
  return static_cast<int64_t>(result.distance / 2.0 + 0.5);
}

RelaxedDistanceResult RelaxedGraphDistance(const Graph& g, const Graph& h,
                                           int max_iterations,
                                           double tolerance) {
  const int n = g.NumVertices();
  X2VEC_CHECK_EQ(n, h.NumVertices());
  const Matrix a = g.AdjacencyMatrix();
  const Matrix b = h.AdjacencyMatrix();

  // Start from the barycentre of the Birkhoff polytope.
  Matrix x(n, n, 1.0 / n);
  auto residual = [&](const Matrix& point) { return a * point - point * b; };

  RelaxedDistanceResult result;
  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    result.iterations = iteration + 1;
    const Matrix r = residual(x);
    // Gradient of f(X) = ||AX - XB||_F^2: 2 (A^T R - R B^T).
    const Matrix gradient =
        (a.Transposed() * r - r * b.Transposed()) * 2.0;
    // LMO over permutation matrices: min <gradient, P>.
    const linalg::AssignmentResult assignment =
        linalg::SolveAssignment(gradient);
    Matrix s(n, n);
    for (int v = 0; v < n; ++v) s(v, assignment.assignment[v]) = 1.0;

    // Exact line search: f(X + t(S - X)) is quadratic in t.
    const Matrix d = s - x;
    const Matrix rd = a * d - d * b;
    double numerator = 0.0;
    double denominator = 0.0;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        numerator -= r(i, j) * rd(i, j);
        denominator += rd(i, j) * rd(i, j);
      }
    }
    if (denominator < 1e-15) break;  // Direction does not change residual.
    const double step = std::clamp(numerator / denominator, 0.0, 1.0);
    if (step < 1e-14) break;  // Stationary.
    x += d * step;
    if (residual(x).FrobeniusNorm() < tolerance) break;
  }
  result.solution = x;
  result.distance = residual(x).FrobeniusNorm();
  return result;
}

std::pair<Graph, Graph> BlowUpAlign(const Graph& g, const Graph& h) {
  const int64_t ng = std::max(1, g.NumVertices());
  const int64_t nh = std::max(1, h.NumVertices());
  const int64_t lcm = ng / Gcd64(ng, nh) * nh;
  return {graph::BlowUp(g, static_cast<int>(lcm / ng)),
          graph::BlowUp(h, static_cast<int>(lcm / nh))};
}

}  // namespace x2vec::sim
