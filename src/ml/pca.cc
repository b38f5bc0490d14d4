#include "ml/pca.h"

#include <cmath>

#include "base/check.h"
#include "linalg/eigen.h"

namespace x2vec::ml {

PcaResult Pca(const linalg::Matrix& features, int d) {
  const int n = features.rows();
  const int dim = features.cols();
  X2VEC_CHECK_GE(n, 2);
  X2VEC_CHECK(d >= 1 && d <= dim);

  // Mean-centre.
  std::vector<double> mean(dim, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) mean[j] += features(i, j) / n;
  }
  linalg::Matrix centered(n, dim);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) centered(i, j) = features(i, j) - mean[j];
  }
  const linalg::Matrix covariance =
      centered.Transposed() * centered * (1.0 / (n - 1));
  const linalg::EigenDecomposition eig = linalg::SymmetricEigen(covariance);

  PcaResult result;
  result.components = linalg::Matrix(dim, d);
  result.explained_variance.assign(eig.values.begin(), eig.values.begin() + d);
  for (int j = 0; j < d; ++j) {
    for (int i = 0; i < dim; ++i) {
      result.components(i, j) = eig.vectors(i, j);
    }
  }
  result.projected = centered * result.components;
  return result;
}

linalg::Matrix KernelPca(const linalg::Matrix& gram, int d) {
  const int n = gram.rows();
  X2VEC_CHECK_EQ(gram.rows(), gram.cols());
  X2VEC_CHECK(d >= 1 && d <= n);
  const linalg::EigenDecomposition eig =
      linalg::SymmetricEigen(linalg::DoubleCentered(gram));
  linalg::Matrix scores(n, d);
  for (int j = 0; j < d; ++j) {
    const double scale = eig.values[j] > 1e-12 ? std::sqrt(eig.values[j]) : 0.0;
    for (int i = 0; i < n; ++i) {
      scores(i, j) = eig.vectors(i, j) * scale;
    }
  }
  return scores;
}

}  // namespace x2vec::ml
