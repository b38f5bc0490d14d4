// Vectorized kernel backend: portable GCC/Clang vector-extension loops with
// an AVX2+FMA intrinsic specialization selected at runtime via CPUID. This
// file is the only place raw SIMD is allowed — the `intrinsics` lint rule
// confines vector extensions and _mm* intrinsics to linalg/kernels_*
// backend files.
//
// Numeric contract: same double precision as generic, different summation
// order (4 independent lane accumulators folded at the end, scalar tail).
// Tolerance-checked against generic by tests/backend_parity_test.cc.

#include <cmath>
#include <cstring>
#include <span>

#include "base/check.h"
#include "linalg/kernels.h"
#include "linalg/kernels_backend.h"

#if defined(__GNUC__) || defined(__clang__)
#define X2VEC_HAVE_VECTOR_EXT 1
#endif

#if defined(X2VEC_HAVE_VECTOR_EXT) && defined(__x86_64__)
#define X2VEC_HAVE_AVX2_TARGET 1
#include <immintrin.h>
#endif

namespace x2vec::linalg {

#if defined(X2VEC_HAVE_VECTOR_EXT)

namespace {

// ---------------------------------------------------------------------------
// Portable lane math: a 32-byte vector of 4 doubles the compiler lowers to
// whatever the baseline ISA offers (SSE2 pairs, NEON, plain scalars).
// ---------------------------------------------------------------------------

using V4 = double __attribute__((vector_size(32)));

V4 LoadV4(const double* p) {
  V4 v;
  std::memcpy(&v, p, sizeof(v));  // unaligned-safe
  return v;
}

void StoreV4(double* p, V4 v) { std::memcpy(p, &v, sizeof(v)); }

V4 SplatV4(double x) { return V4{x, x, x, x}; }

// Fixed lane fold, pairwise then across pairs. Any fixed order would do —
// what matters is that it is deterministic run to run.
double FoldV4(V4 acc) { return (acc[0] + acc[2]) + (acc[1] + acc[3]); }

double VecDot(std::span<const double> a, std::span<const double> b) {
  X2VEC_DCHECK(a.size() == b.size());
  const size_t n = a.size();
  size_t i = 0;
  V4 acc = SplatV4(0.0);
  for (; i + 4 <= n; i += 4) {
    acc += LoadV4(a.data() + i) * LoadV4(b.data() + i);
  }
  double s = FoldV4(acc);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

double VecSquaredDistance(std::span<const double> a,
                          std::span<const double> b) {
  X2VEC_DCHECK(a.size() == b.size());
  const size_t n = a.size();
  size_t i = 0;
  V4 acc = SplatV4(0.0);
  for (; i + 4 <= n; i += 4) {
    const V4 d = LoadV4(a.data() + i) - LoadV4(b.data() + i);
    acc += d * d;
  }
  double s = FoldV4(acc);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

void VecAxpy(double alpha, std::span<const double> x, std::span<double> y) {
  X2VEC_DCHECK(x.size() == y.size());
  const size_t n = x.size();
  size_t i = 0;
  const V4 va = SplatV4(alpha);
  for (; i + 4 <= n; i += 4) {
    StoreV4(y.data() + i, LoadV4(y.data() + i) + va * LoadV4(x.data() + i));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void VecScale(std::span<double> x, double alpha) {
  const size_t n = x.size();
  size_t i = 0;
  const V4 va = SplatV4(alpha);
  for (; i + 4 <= n; i += 4) {
    StoreV4(x.data() + i, LoadV4(x.data() + i) * va);
  }
  for (; i < n; ++i) x[i] *= alpha;
}

// The SGD pair kernels vectorize cleanly because `center`, `context` and
// the gradient/delta buffers never alias (they live in different matrices /
// scratch buffers): each lane reads the pre-update context value for the
// center gradient, exactly like the generic interleave.
double VecSgdPairUpdate(std::span<const double> center,
                        std::span<double> context, double label, double lr,
                        std::span<double> center_gradient) {
  X2VEC_DCHECK(center.size() == context.size());
  X2VEC_DCHECK(center.size() == center_gradient.size());
  const double sig = Sigmoid(VecDot(center, context));
  const double gradient = (label - sig) * lr;
  const size_t n = center.size();
  size_t d = 0;
  const V4 vg = SplatV4(gradient);
  for (; d + 4 <= n; d += 4) {
    const V4 vc = LoadV4(center.data() + d);
    const V4 vctx = LoadV4(context.data() + d);
    StoreV4(center_gradient.data() + d,
            LoadV4(center_gradient.data() + d) + vg * vctx);
    StoreV4(context.data() + d, vctx + vg * vc);
  }
  for (; d < n; ++d) {
    center_gradient[d] += gradient * context[d];
    context[d] += gradient * center[d];
  }
  return detail::PairLoss(label, sig);
}

double VecSgdPairUpdateDelta(std::span<const double> center,
                             std::span<const double> context, double label,
                             double lr, std::span<double> center_gradient,
                             std::span<double> context_delta) {
  X2VEC_DCHECK(center.size() == context.size());
  X2VEC_DCHECK(center.size() == center_gradient.size());
  X2VEC_DCHECK(center.size() == context_delta.size());
  const double sig = Sigmoid(VecDot(center, context));
  const double gradient = (label - sig) * lr;
  const size_t n = center.size();
  size_t d = 0;
  const V4 vg = SplatV4(gradient);
  for (; d + 4 <= n; d += 4) {
    const V4 vc = LoadV4(center.data() + d);
    const V4 vctx = LoadV4(context.data() + d);
    StoreV4(center_gradient.data() + d,
            LoadV4(center_gradient.data() + d) + vg * vctx);
    StoreV4(context_delta.data() + d,
            LoadV4(context_delta.data() + d) + vg * vc);
  }
  for (; d < n; ++d) {
    center_gradient[d] += gradient * context[d];
    context_delta[d] += gradient * center[d];
  }
  return detail::PairLoss(label, sig);
}

#if defined(X2VEC_HAVE_AVX2_TARGET)

// ---------------------------------------------------------------------------
// AVX2+FMA specialization. Compiled for avx2/fma via the target attribute
// regardless of the baseline -march, called only when CPUID confirms both
// features at runtime. FMA contracts each multiply-add into one rounding,
// so results differ from the portable lanes in the last ulps — covered by
// the same parity tolerances.
// ---------------------------------------------------------------------------

__attribute__((target("avx2,fma"))) double FoldM256(__m256d acc) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

__attribute__((target("avx2,fma"))) double Avx2Dot(
    std::span<const double> a, std::span<const double> b) {
  X2VEC_DCHECK(a.size() == b.size());
  const size_t n = a.size();
  size_t i = 0;
  __m256d acc = _mm256_setzero_pd();
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(a.data() + i),
                          _mm256_loadu_pd(b.data() + i), acc);
  }
  double s = FoldM256(acc);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

__attribute__((target("avx2,fma"))) double Avx2SquaredDistance(
    std::span<const double> a, std::span<const double> b) {
  X2VEC_DCHECK(a.size() == b.size());
  const size_t n = a.size();
  size_t i = 0;
  __m256d acc = _mm256_setzero_pd();
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a.data() + i),
                                    _mm256_loadu_pd(b.data() + i));
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  double s = FoldM256(acc);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

__attribute__((target("avx2,fma"))) void Avx2Axpy(double alpha,
                                                  std::span<const double> x,
                                                  std::span<double> y) {
  X2VEC_DCHECK(x.size() == y.size());
  const size_t n = x.size();
  size_t i = 0;
  const __m256d va = _mm256_set1_pd(alpha);
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y.data() + i,
                     _mm256_fmadd_pd(va, _mm256_loadu_pd(x.data() + i),
                                     _mm256_loadu_pd(y.data() + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2,fma"))) void Avx2Scale(std::span<double> x,
                                                   double alpha) {
  const size_t n = x.size();
  size_t i = 0;
  const __m256d va = _mm256_set1_pd(alpha);
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x.data() + i,
                     _mm256_mul_pd(_mm256_loadu_pd(x.data() + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("avx2,fma"))) double Avx2SgdPairUpdate(
    std::span<const double> center, std::span<double> context, double label,
    double lr, std::span<double> center_gradient) {
  X2VEC_DCHECK(center.size() == context.size());
  X2VEC_DCHECK(center.size() == center_gradient.size());
  const double sig = Sigmoid(Avx2Dot(center, context));
  const double gradient = (label - sig) * lr;
  const size_t n = center.size();
  size_t d = 0;
  const __m256d vg = _mm256_set1_pd(gradient);
  for (; d + 4 <= n; d += 4) {
    const __m256d vc = _mm256_loadu_pd(center.data() + d);
    const __m256d vctx = _mm256_loadu_pd(context.data() + d);
    _mm256_storeu_pd(
        center_gradient.data() + d,
        _mm256_fmadd_pd(vg, vctx,
                        _mm256_loadu_pd(center_gradient.data() + d)));
    _mm256_storeu_pd(context.data() + d, _mm256_fmadd_pd(vg, vc, vctx));
  }
  for (; d < n; ++d) {
    center_gradient[d] += gradient * context[d];
    context[d] += gradient * center[d];
  }
  return detail::PairLoss(label, sig);
}

__attribute__((target("avx2,fma"))) double Avx2SgdPairUpdateDelta(
    std::span<const double> center, std::span<const double> context,
    double label, double lr, std::span<double> center_gradient,
    std::span<double> context_delta) {
  X2VEC_DCHECK(center.size() == context.size());
  X2VEC_DCHECK(center.size() == center_gradient.size());
  X2VEC_DCHECK(center.size() == context_delta.size());
  const double sig = Sigmoid(Avx2Dot(center, context));
  const double gradient = (label - sig) * lr;
  const size_t n = center.size();
  size_t d = 0;
  const __m256d vg = _mm256_set1_pd(gradient);
  for (; d + 4 <= n; d += 4) {
    const __m256d vc = _mm256_loadu_pd(center.data() + d);
    const __m256d vctx = _mm256_loadu_pd(context.data() + d);
    _mm256_storeu_pd(
        center_gradient.data() + d,
        _mm256_fmadd_pd(vg, vctx,
                        _mm256_loadu_pd(center_gradient.data() + d)));
    _mm256_storeu_pd(
        context_delta.data() + d,
        _mm256_fmadd_pd(vg, vc, _mm256_loadu_pd(context_delta.data() + d)));
  }
  for (; d < n; ++d) {
    center_gradient[d] += gradient * context[d];
    context_delta[d] += gradient * center[d];
  }
  return detail::PairLoss(label, sig);
}

#endif  // X2VEC_HAVE_AVX2_TARGET

}  // namespace

bool VectorizedUsesAvx2() {
#if defined(X2VEC_HAVE_AVX2_TARGET)
  const CpuFeatures features = DetectCpuFeatures();
  return features.avx2 && features.fma;
#else
  return false;
#endif
}

const KernelOps& VectorizedKernelOps() {
#if defined(X2VEC_HAVE_AVX2_TARGET)
  if (VectorizedUsesAvx2()) {
    static const KernelOps avx2_ops = {
        Avx2Dot,  Avx2SquaredDistance, Avx2Axpy,
        Avx2Scale, Avx2SgdPairUpdate,  Avx2SgdPairUpdateDelta,
    };
    return avx2_ops;
  }
#endif
  static const KernelOps vec_ops = {
      VecDot,   VecSquaredDistance, VecAxpy,
      VecScale, VecSgdPairUpdate,   VecSgdPairUpdateDelta,
  };
  return vec_ops;
}

#else  // !X2VEC_HAVE_VECTOR_EXT

// Toolchains without the vector-extension dialect get the reference loops:
// "vectorized" stays selectable everywhere, it just is not faster here.

bool VectorizedUsesAvx2() { return false; }

const KernelOps& VectorizedKernelOps() { return GenericKernelOps(); }

#endif  // X2VEC_HAVE_VECTOR_EXT

}  // namespace x2vec::linalg
