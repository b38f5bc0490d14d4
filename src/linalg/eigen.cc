#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace x2vec::linalg {
namespace {

// Sum of squares of off-diagonal entries.
double OffDiagonalNormSq(const Matrix& a) {
  double s = 0.0;
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      if (i != j) s += a(i, j) * a(i, j);
    }
  }
  return s;
}

}  // namespace

EigenDecomposition SymmetricEigen(const Matrix& input, double symmetry_tol) {
  const int n = input.rows();
  X2VEC_CHECK_EQ(input.rows(), input.cols());
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      X2VEC_CHECK(std::abs(input(i, j) - input(j, i)) <= symmetry_tol)
          << "SymmetricEigen requires a symmetric matrix";
    }
  }

  Matrix a = input;
  Matrix v = Matrix::Identity(n);
  const double tol = 1e-24 * std::max(1.0, a.FrobeniusNorm());
  const int kMaxSweeps = 100;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    if (OffDiagonalNormSq(a) <= tol) break;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) < 1e-300) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        // Smaller-magnitude tangent root for numerical stability.
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply the rotation J(p,q,theta) on both sides: A <- J^T A J.
        for (int k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (int k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (int k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Collect the diagonal and sort descending, permuting eigenvector columns.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&a](int x, int y) { return a(x, x) > a(y, y); });
  EigenDecomposition result;
  result.values.resize(n);
  result.vectors = Matrix(n, n);
  for (int j = 0; j < n; ++j) {
    result.values[j] = a(order[j], order[j]);
    for (int i = 0; i < n; ++i) {
      result.vectors(i, j) = v(i, order[j]);
    }
  }
  return result;
}

std::vector<double> Spectrum(const Matrix& a) {
  return SymmetricEigen(a).values;
}

SvdDecomposition Svd(const Matrix& a) {
  const int m = a.rows();
  const int n = a.cols();
  const int r = std::min(m, n);
  SvdDecomposition out;
  out.values.assign(r, 0.0);

  // Eigendecompose the smaller Gram matrix, then recover the other factor.
  if (m >= n) {
    const EigenDecomposition eig = SymmetricEigen(a.Transposed() * a);
    out.v = Matrix(n, r);
    out.u = Matrix(m, r);
    for (int j = 0; j < r; ++j) {
      const double lambda = std::max(0.0, eig.values[j]);
      const double sigma = std::sqrt(lambda);
      out.values[j] = sigma;
      for (int i = 0; i < n; ++i) out.v(i, j) = eig.vectors(i, j);
      if (sigma > 1e-12) {
        const std::vector<double> av = a.Apply(out.v.Col(j));
        for (int i = 0; i < m; ++i) out.u(i, j) = av[i] / sigma;
      }
    }
  } else {
    const EigenDecomposition eig = SymmetricEigen(a * a.Transposed());
    out.u = Matrix(m, r);
    out.v = Matrix(n, r);
    const Matrix at = a.Transposed();
    for (int j = 0; j < r; ++j) {
      const double lambda = std::max(0.0, eig.values[j]);
      const double sigma = std::sqrt(lambda);
      out.values[j] = sigma;
      for (int i = 0; i < m; ++i) out.u(i, j) = eig.vectors(i, j);
      if (sigma > 1e-12) {
        const std::vector<double> atu = at.Apply(out.u.Col(j));
        for (int i = 0; i < n; ++i) out.v(i, j) = atu[i] / sigma;
      }
    }
  }
  return out;
}

Matrix SvdEmbedding(const Matrix& similarity, int d) {
  X2VEC_CHECK_GT(d, 0);
  X2VEC_CHECK_LE(d, std::min(similarity.rows(), similarity.cols()));
  const SvdDecomposition svd = Svd(similarity);
  Matrix x(similarity.rows(), d);
  for (int j = 0; j < d; ++j) {
    const double scale = std::sqrt(std::max(0.0, svd.values[j]));
    for (int i = 0; i < x.rows(); ++i) {
      x(i, j) = svd.u(i, j) * scale;
    }
  }
  return x;
}

}  // namespace x2vec::linalg
