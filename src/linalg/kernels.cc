#include "linalg/kernels.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "linalg/kernels_backend.h"
#include "linalg/matrix.h"

namespace x2vec::linalg {

namespace detail {

double PairLoss(double label, double sig) {
  return label > 0.5 ? -std::log(std::max(sig, 1e-12))
                     : -std::log(std::max(1.0 - sig, 1e-12));
}

}  // namespace detail

namespace {

// The generic backend: the order-exact reference loops the golden digests
// of tests/goldens.h pin. Nothing here may reorder, block, or widen
// the arithmetic — changes to these loops are numeric changes and require
// refreshed goldens.

double GenericDot(std::span<const double> a, std::span<const double> b) {
  X2VEC_DCHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double GenericSquaredDistance(std::span<const double> a,
                              std::span<const double> b) {
  X2VEC_DCHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

void GenericAxpy(double alpha, std::span<const double> x,
                 std::span<double> y) {
  X2VEC_DCHECK(x.size() == y.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void GenericScale(std::span<double> x, double alpha) {
  for (double& v : x) v *= alpha;
}

double GenericSgdPairUpdate(std::span<const double> center,
                            std::span<double> context, double label,
                            double lr, std::span<double> center_gradient) {
  X2VEC_DCHECK(center.size() == context.size());
  X2VEC_DCHECK(center.size() == center_gradient.size());
  double score = 0.0;
  for (size_t d = 0; d < center.size(); ++d) score += center[d] * context[d];
  const double sig = Sigmoid(score);
  const double gradient = (label - sig) * lr;
  // Per-dimension interleave: read context[d] into the center gradient
  // before this iteration overwrites it.
  for (size_t d = 0; d < center.size(); ++d) {
    center_gradient[d] += gradient * context[d];
    context[d] += gradient * center[d];
  }
  return detail::PairLoss(label, sig);
}

double GenericSgdPairUpdateDelta(std::span<const double> center,
                                 std::span<const double> context,
                                 double label, double lr,
                                 std::span<double> center_gradient,
                                 std::span<double> context_delta) {
  X2VEC_DCHECK(center.size() == context.size());
  X2VEC_DCHECK(center.size() == center_gradient.size());
  X2VEC_DCHECK(center.size() == context_delta.size());
  double score = 0.0;
  for (size_t d = 0; d < center.size(); ++d) score += center[d] * context[d];
  const double sig = Sigmoid(score);
  const double gradient = (label - sig) * lr;
  for (size_t d = 0; d < center.size(); ++d) {
    center_gradient[d] += gradient * context[d];
    context_delta[d] += gradient * center[d];
  }
  return detail::PairLoss(label, sig);
}

}  // namespace

const KernelOps& GenericKernelOps() {
  static const KernelOps ops = {
      GenericDot,        GenericSquaredDistance,
      GenericAxpy,       GenericScale,
      GenericSgdPairUpdate, GenericSgdPairUpdateDelta,
  };
  return ops;
}

// Public entry points: one table load, then the backend's loop. The
// derived kernels (Norm2, CosineSimilarity, Distance2) compose dispatched
// primitives; Copy and Sigmoid are backend-invariant.

double Dot(std::span<const double> a, std::span<const double> b) {
  return ActiveKernelOps().dot(a, b);
}

double Norm2(std::span<const double> a) { return std::sqrt(Dot(a, a)); }

double CosineSimilarity(std::span<const double> a, std::span<const double> b) {
  const double na = Norm2(a);
  const double nb = Norm2(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

double SquaredDistance(std::span<const double> a, std::span<const double> b) {
  return ActiveKernelOps().squared_distance(a, b);
}

double Distance2(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(SquaredDistance(a, b));
}

void Axpy(double alpha, std::span<const double> x, std::span<double> y) {
  ActiveKernelOps().axpy(alpha, x, y);
}

void Scale(std::span<double> x, double alpha) {
  ActiveKernelOps().scale(x, alpha);
}

void Copy(std::span<const double> src, std::span<double> dst) {
  X2VEC_DCHECK(src.size() == dst.size());
  std::copy(src.begin(), src.end(), dst.begin());
}

double Sigmoid(double x) {
  if (x > 30.0) return 1.0;
  if (x < -30.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

double SgdPairUpdate(std::span<const double> center, std::span<double> context,
                     double label, double lr,
                     std::span<double> center_gradient) {
  return ActiveKernelOps().sgd_pair_update(center, context, label, lr,
                                           center_gradient);
}

double SgdPairUpdateDelta(std::span<const double> center,
                          std::span<const double> context, double label,
                          double lr, std::span<double> center_gradient,
                          std::span<double> context_delta) {
  return ActiveKernelOps().sgd_pair_update_delta(
      center, context, label, lr, center_gradient, context_delta);
}

void RowDeltaBuffer::Reset(int rows, int dim) {
  X2VEC_DCHECK(rows >= 0 && dim >= 0);
  if (static_cast<int>(slot_of_row_.size()) != rows) {
    slot_of_row_.assign(static_cast<size_t>(rows), -1);
  } else {
    for (const int row : touched_) slot_of_row_[row] = -1;
  }
  touched_.clear();
  values_.clear();
  dim_ = dim;
}

std::span<double> RowDeltaBuffer::Accumulator(int row) {
  X2VEC_DCHECK(row >= 0 && row < static_cast<int>(slot_of_row_.size()));
  int slot = slot_of_row_[row];
  if (slot < 0) {
    slot = static_cast<int>(touched_.size());
    slot_of_row_[row] = slot;
    touched_.push_back(row);
    values_.resize(values_.size() + static_cast<size_t>(dim_), 0.0);
  }
  return {values_.data() + static_cast<size_t>(slot) * dim_,
          static_cast<size_t>(dim_)};
}

void RowDeltaBuffer::AddTo(Matrix& target) const {
  for (size_t t = 0; t < touched_.size(); ++t) {
    Axpy(1.0, Slot(static_cast<int>(t)), target.RowSpan(touched_[t]));
  }
}

}  // namespace x2vec::linalg
