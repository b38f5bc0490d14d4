// linalg::DoubleCentered (linalg/matrix.h), alone so that only its callers
// link it: code added to matrix.cc lands in every binary that uses a Matrix
// and moves the code linked after it (see the note in src/CMakeLists.txt).
#include "linalg/matrix.h"

namespace x2vec::linalg {

Matrix DoubleCentered(const Matrix& k) {
  X2VEC_CHECK_EQ(k.rows(), k.cols());
  const int n = k.rows();
  Matrix centering = Matrix::Identity(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) centering(i, j) -= 1.0 / n;
  }
  return centering * k * centering;
}

}  // namespace x2vec::linalg
