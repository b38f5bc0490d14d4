#pragma once

#include "linalg/matrix.h"

namespace x2vec::ml {

/// Kernel PCA (Section 2.4 [Schölkopf et al.]): projects onto the top `d`
/// eigenvectors of the double-centred Gram matrix; returns n x d scores.
/// On the linear Gram X X^T of feature rows X this is plain PCA's scores.
linalg::Matrix KernelPca(const linalg::Matrix& gram, int d);

}  // namespace x2vec::ml
