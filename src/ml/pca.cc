#include "ml/pca.h"

#include <cmath>

#include "base/check.h"
#include "linalg/eigen.h"

namespace x2vec::ml {

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
