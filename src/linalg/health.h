#pragma once

#include <cmath>
#include <vector>

#include "base/rng.h"
#include "linalg/matrix.h"

namespace x2vec::linalg {

/// Numeric-health primitives of the self-healing trainers (SGNS, PV-DBOW,
/// TransE, RESCAL). The one epoch loop (embed/epochs.h) checks and
/// reseeds every trainer's parameters with MatrixHealthy and
/// ReseedUnhealthyRows, following the policy of base/recovery.h; the SGNS
/// pair step clips its centre gradient with ClipGradient.

/// True iff any entry of row i is non-finite or exceeds max_abs in
/// magnitude.
inline bool RowUnhealthy(const Matrix& m, int i, double max_abs) {
  for (int j = 0; j < m.cols(); ++j) {
    const double v = m(i, j);
    if (!std::isfinite(v) || std::abs(v) > max_abs) return true;
  }
  return false;
}

/// Reseeds every unhealthy row with fresh uniform values in [-init, init].
inline void ReseedUnhealthyRows(Matrix& m, double init, double max_abs,
                                Rng& rng) {
  for (int i = 0; i < m.rows(); ++i) {
    if (!RowUnhealthy(m, i, max_abs)) continue;
    for (int j = 0; j < m.cols(); ++j) {
      m(i, j) = UniformReal(rng, -init, init);
    }
  }
}

/// Whole-model health predicate: all entries finite and bounded.
inline bool MatrixHealthy(const Matrix& m, double max_abs) {
  return m.AllFinite() && m.MaxAbs() <= max_abs;
}

/// Clips a gradient vector to L2 norm `clip`. The negated comparison also
/// catches a NaN norm (zeroing the step); thresholds far above healthy
/// gradient norms make this a no-op on converging runs.
inline void ClipGradient(std::vector<double>& gradient, double clip) {
  double norm2 = 0.0;
  for (double g : gradient) norm2 += g * g;
  if (!(norm2 <= clip * clip)) {
    const double scale =
        std::isfinite(norm2) && norm2 > 0.0 ? clip / std::sqrt(norm2) : 0.0;
    for (double& g : gradient) g *= scale;
  }
}

}  // namespace x2vec::linalg
