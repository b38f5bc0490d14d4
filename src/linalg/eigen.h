#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace x2vec::linalg {

/// Result of a symmetric eigendecomposition A = V diag(values) V^T.
struct EigenDecomposition {
  /// Eigenvalues in descending order.
  std::vector<double> values;
  /// Column j of `vectors` is the unit eigenvector for values[j].
  Matrix vectors;
};

/// Eigendecomposition of a symmetric matrix via the cyclic Jacobi method.
/// Accurate to ~1e-12 relative for the moderate sizes used here. The input
/// must be square and symmetric (checked up to `symmetry_tol`).
EigenDecomposition SymmetricEigen(const Matrix& a,
                                  double symmetry_tol = 1e-9);

/// Sorted eigenvalue spectrum (descending) of a symmetric matrix.
std::vector<double> Spectrum(const Matrix& a);

/// Result of a (thin) singular value decomposition A = U diag(s) V^T.
struct SvdDecomposition {
  Matrix u;                    ///< rows(A) x r, orthonormal columns.
  std::vector<double> values;  ///< r singular values, descending, r=min(m,n).
  Matrix v;                    ///< cols(A) x r, orthonormal columns.
};

/// Thin SVD via symmetric eigendecomposition of A^T A (or A A^T, whichever
/// is smaller). Adequate for embedding-sized matrices.
SvdDecomposition Svd(const Matrix& a);

/// Rank-d truncated SVD embedding: returns the rows*d matrix
/// U_d diag(sqrt(s_d)) — the standard symmetric factor embedding minimising
/// ||X X^T - A||_F for symmetric PSD-ish similarity matrices (Section 2.1).
Matrix SvdEmbedding(const Matrix& similarity, int d);

}  // namespace x2vec::linalg
