// Backend-parity suite for the runtime-switchable kernel backends
// (ctest label: parity).
//
// The generic backend is the golden reference: bit-identical to the pinned
// digests of tests/goldens.h, re-asserted here at 1 and 4 threads and after
// backend flips. The fast backend (vectorized) is a *numeric* variant —
// this harness holds it to explicit tolerance contracts instead of bit
// equality, at three levels:
//
//   1. Per-kernel property checks against the generic loop on adversarial
//      inputs (mixed magnitudes, cancellation-heavy sums, denormals, large
//      values, dims exercising every lane/tail split), with ULP-aware
//      bounds: abs_floor + coeff * DBL_EPSILON * sum(|terms|), where
//      abs_floor only matters for pure-denormal inputs.
//   2. End-to-end trained-model parity: SGNS trained under each backend
//      must classify topic words within tolerance of the generic model,
//      and kNN / Gram pipelines must agree with generic downstream.
//   3. A guarantee that generic itself still reproduces the pinned golden
//      digests — including after switching to a fast backend and back.

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "corpus_training.h"
#include "goldens.h"
#include "embed/corpus.h"
#include "embed/sgns.h"
#include "graph/graph.h"
#include "kernel/graph_kernels.h"
#include "linalg/kernels.h"
#include "linalg/kernels_backend.h"
#include "linalg/matrix.h"
#include "ml/neighbors.h"
#include "serve/engine.h"
#include "serve/index.h"

namespace x2vec {
namespace {

using graph::Graph;
using linalg::GenericKernelOps;
using linalg::GetKernelOps;
using linalg::KernelBackend;
using linalg::KernelOps;
using linalg::Matrix;
using linalg::VectorizedKernelOps;

// Restores the golden default no matter how a test exits: nothing
// digest-pinned may ever run under a fast backend by accident.
class BackendGuard {
 public:
  explicit BackendGuard(KernelBackend backend) {
    linalg::SetKernelBackend(backend);
  }
  ~BackendGuard() { linalg::SetKernelBackend(KernelBackend::kGeneric); }
};

const KernelBackend kFastBackends[] = {KernelBackend::kVectorized};

// ---- Tolerance policy -------------------------------------------------------
//
// For a reduction over n terms whose absolute values sum to `scale`: the
// vectorized backend reorders double arithmetic (lane accumulators, FMA),
// so the drift is bounded by a small multiple of n * DBL_EPSILON * scale;
// the absolute floor only matters for pure-denormal inputs.

double ReductionTol(size_t n, double scale) {
  const double dn = static_cast<double>(n);
  return dn * 1e-290 + 4.0 * (dn + 2.0) * DBL_EPSILON * scale;
}

// Per-element bound for map-style kernels (Axpy, Scale, the SGD row
// updates), where `magnitude` sums the absolute values of the operands
// feeding that element.
double ElementTol(double magnitude) {
  return 1e-300 + 4.0 * DBL_EPSILON * magnitude;
}

// ---- Adversarial input generators -------------------------------------------

struct VecPair {
  std::vector<double> a;
  std::vector<double> b;
};

VecPair UniformPair(size_t n, uint64_t seed) {
  Rng rng = MakeRng(seed);
  VecPair p{std::vector<double>(n), std::vector<double>(n)};
  for (size_t i = 0; i < n; ++i) {
    p.a[i] = UniformReal(rng, -1.0, 1.0);
    p.b[i] = UniformReal(rng, -1.0, 1.0);
  }
  return p;
}

VecPair MixedMagnitudePair(size_t n, uint64_t seed) {
  Rng rng = MakeRng(seed);
  VecPair p{std::vector<double>(n), std::vector<double>(n)};
  for (size_t i = 0; i < n; ++i) {
    p.a[i] = UniformReal(rng, -0.5, 0.5) *
             std::pow(10.0, static_cast<double>(UniformInt(rng, 0, 6)));
    p.b[i] = UniformReal(rng, -0.5, 0.5) *
             std::pow(10.0, static_cast<double>(UniformInt(rng, 0, 6)));
  }
  return p;
}

// Alternating-sign terms of near-equal magnitude: partial sums cancel, so
// any summation reorder surfaces in the low bits of a near-zero result.
VecPair CancellationPair(size_t n, uint64_t seed) {
  Rng rng = MakeRng(seed);
  VecPair p{std::vector<double>(n), std::vector<double>(n)};
  for (size_t i = 0; i < n; ++i) {
    const double sign = (i % 2 == 0) ? 1.0 : -1.0;
    p.a[i] = sign * 1e8 * UniformReal(rng, 0.5, 1.5);
    p.b[i] = 1.0 + UniformReal(rng, -1e-6, 1e-6);
  }
  return p;
}

// Double denormals: the absolute floor in the tolerance must absorb their
// reordered sums.
VecPair DenormalPair(size_t n, uint64_t seed) {
  Rng rng = MakeRng(seed);
  VecPair p{std::vector<double>(n), std::vector<double>(n)};
  for (size_t i = 0; i < n; ++i) {
    p.a[i] = UniformReal(rng, -1.0, 1.0) * 1e-310;
    p.b[i] = (i % 3 == 0) ? UniformReal(rng, -1.0, 1.0)
                          : UniformReal(rng, -1.0, 1.0) * 1e-320;
  }
  return p;
}

// Large values (products near 1e30): exercises magnitude handling well
// clear of overflow.
VecPair LargeCappedPair(size_t n, uint64_t seed) {
  Rng rng = MakeRng(seed);
  VecPair p{std::vector<double>(n), std::vector<double>(n)};
  for (size_t i = 0; i < n; ++i) {
    const double sa = (UniformInt(rng, 0, 1) == 0) ? 1.0 : -1.0;
    const double sb = (UniformInt(rng, 0, 1) == 0) ? 1.0 : -1.0;
    p.a[i] = sa * UniformReal(rng, 0.5, 1.0) * 1e15;
    p.b[i] = sb * UniformReal(rng, 0.5, 1.0) * 1e15;
  }
  return p;
}

using Generator = VecPair (*)(size_t, uint64_t);

struct NamedGenerator {
  const char* name;
  Generator make;
};

const NamedGenerator kGenerators[] = {
    {"uniform", UniformPair},         {"mixed", MixedMagnitudePair},
    {"cancellation", CancellationPair}, {"denormal", DenormalPair},
    {"large", LargeCappedPair},
};

// Dims straddling every lane/tail split of the 4-wide vector loops, plus
// large sizes where accumulation-order drift compounds.
const size_t kDims[] = {1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 33, 64, 255, 1024,
                        4097};

std::string CaseName(KernelBackend backend, const char* generator, size_t n) {
  return std::string(linalg::KernelBackendName(backend)) + "/" + generator +
         "/n=" + std::to_string(n);
}

// ---- Per-kernel property checks ---------------------------------------------

TEST(BackendKernelParityTest, DotWithinUlpAwareBounds) {
  const KernelOps& generic = GenericKernelOps();
  for (const KernelBackend backend : kFastBackends) {
    const KernelOps& ops = GetKernelOps(backend);
    for (const NamedGenerator& gen : kGenerators) {
      for (const size_t n : kDims) {
        const VecPair p = gen.make(n, 1000 + n);
        const double expected = generic.dot(p.a, p.b);
        const double got = ops.dot(p.a, p.b);
        double scale = 0.0;
        for (size_t i = 0; i < n; ++i) scale += std::abs(p.a[i] * p.b[i]);
        EXPECT_NEAR(got, expected, ReductionTol(n, scale))
            << CaseName(backend, gen.name, n);
      }
    }
  }
}

TEST(BackendKernelParityTest, SquaredDistanceWithinUlpAwareBounds) {
  const KernelOps& generic = GenericKernelOps();
  for (const KernelBackend backend : kFastBackends) {
    const KernelOps& ops = GetKernelOps(backend);
    for (const NamedGenerator& gen : kGenerators) {
      for (const size_t n : kDims) {
        const VecPair p = gen.make(n, 2000 + n);
        const double expected = generic.squared_distance(p.a, p.b);
        const double got = ops.squared_distance(p.a, p.b);
        double scale = 0.0;
        for (size_t i = 0; i < n; ++i) {
          const double m = std::abs(p.a[i]) + std::abs(p.b[i]);
          scale += m * m;
        }
        EXPECT_NEAR(got, expected, ReductionTol(n, scale))
            << CaseName(backend, gen.name, n);
      }
    }
  }
}

TEST(BackendKernelParityTest, AxpyWithinElementwiseBounds) {
  const KernelOps& generic = GenericKernelOps();
  for (const KernelBackend backend : kFastBackends) {
    const KernelOps& ops = GetKernelOps(backend);
    for (const NamedGenerator& gen : kGenerators) {
      for (const size_t n : kDims) {
        for (const double alpha : {1.0, 0.37, -2.5}) {
          const VecPair p = gen.make(n, 3000 + n);
          std::vector<double> expected = p.b;
          std::vector<double> got = p.b;
          generic.axpy(alpha, p.a, expected);
          ops.axpy(alpha, p.a, got);
          for (size_t i = 0; i < n; ++i) {
            const double magnitude =
                std::abs(alpha * p.a[i]) + std::abs(p.b[i]);
            ASSERT_NEAR(got[i], expected[i], ElementTol(magnitude))
                << CaseName(backend, gen.name, n) << " alpha=" << alpha
                << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(BackendKernelParityTest, ScaleWithinElementwiseBounds) {
  const KernelOps& generic = GenericKernelOps();
  for (const KernelBackend backend : kFastBackends) {
    const KernelOps& ops = GetKernelOps(backend);
    for (const NamedGenerator& gen : kGenerators) {
      for (const size_t n : kDims) {
        for (const double alpha : {0.5, -1.75}) {
          const VecPair p = gen.make(n, 4000 + n);
          std::vector<double> expected = p.a;
          std::vector<double> got = p.a;
          generic.scale(expected, alpha);
          ops.scale(got, alpha);
          for (size_t i = 0; i < n; ++i) {
            ASSERT_NEAR(got[i], expected[i],
                        ElementTol(std::abs(p.a[i] * alpha)))
                << CaseName(backend, gen.name, n) << " alpha=" << alpha
                << " i=" << i;
          }
        }
      }
    }
  }
}

// The pair kernels compound three effects: the score reduction drifts,
// the sigmoid maps that drift at slope <= 1/4 (plus a ~1e-13 jump if the
// |score| = 30 saturation boundary is crossed), and the row updates add
// per-element arithmetic drift on top of the gradient difference. Inputs
// are embedding-scale so sigmoids stay in their responsive range and the
// loss slope stays bounded.
TEST(BackendKernelParityTest, SgdPairUpdateWithinDerivedBounds) {
  const KernelOps& generic = GenericKernelOps();
  for (const KernelBackend backend : kFastBackends) {
    const KernelOps& ops = GetKernelOps(backend);
    for (const size_t n : {size_t{4}, size_t{16}, size_t{33}, size_t{64}}) {
      for (const double label : {1.0, 0.0}) {
        Rng rng = MakeRng(5000 + n);
        std::vector<double> center(n), context(n);
        for (size_t i = 0; i < n; ++i) {
          center[i] = UniformReal(rng, -0.3, 0.3);
          context[i] = UniformReal(rng, -0.3, 0.3);
        }
        const double lr = 0.025;

        std::vector<double> ref_context = context;
        std::vector<double> ref_gradient(n, 0.0);
        const double ref_loss = generic.sgd_pair_update(
            center, ref_context, label, lr, ref_gradient);

        std::vector<double> got_context = context;
        std::vector<double> got_gradient(n, 0.0);
        const double got_loss =
            ops.sgd_pair_update(center, got_context, label, lr, got_gradient);

        double dot_scale = 0.0;
        for (size_t i = 0; i < n; ++i) {
          dot_scale += std::abs(center[i] * context[i]);
        }
        const double score_tol = ReductionTol(n, dot_scale);
        const double sig_tol = 0.25 * score_tol + 1e-13;
        const double gradient_tol = lr * sig_tol;

        // |score| <= n * 0.09 keeps sigmoids in [p, 1-p] with p >= ~0.003,
        // so the loss slope 1/p stays below ~400.
        EXPECT_NEAR(got_loss, ref_loss, 400.0 * sig_tol + 1e-12)
            << CaseName(backend, "sgd", n);

        for (size_t d = 0; d < n; ++d) {
          const double operand =
              std::abs(center[d]) + std::abs(context[d]);
          const double tol = gradient_tol * operand +
                             ElementTol(lr * operand) + 1e-15;
          ASSERT_NEAR(got_context[d], ref_context[d], tol)
              << CaseName(backend, "sgd-context", n) << " d=" << d;
          ASSERT_NEAR(got_gradient[d], ref_gradient[d], tol)
              << CaseName(backend, "sgd-gradient", n) << " d=" << d;
        }
      }
    }
  }
}

TEST(BackendKernelParityTest, SgdPairUpdateDeltaMatchesInPlaceVariant) {
  // Within one backend the delta variant must agree with the in-place one:
  // identical score/sigmoid/loss and center gradient (same reduction), and
  // a context reconstruction within 1-2 ulps — the in-place path may fuse
  // `ctx + g*c` into a single FMA rounding while the delta path rounds
  // `g*c` on its own before the caller's later add.
  for (const KernelBackend backend : kFastBackends) {
    const KernelOps& ops = GetKernelOps(backend);
    const size_t n = 24;
    Rng rng = MakeRng(77);
    std::vector<double> center(n), context(n);
    for (size_t i = 0; i < n; ++i) {
      center[i] = UniformReal(rng, -0.3, 0.3);
      context[i] = UniformReal(rng, -0.3, 0.3);
    }
    std::vector<double> inplace = context;
    std::vector<double> gradient_a(n, 0.0), gradient_b(n, 0.0);
    std::vector<double> delta(n, 0.0);
    const double loss_a =
        ops.sgd_pair_update(center, inplace, 0.0, 0.05, gradient_a);
    const double loss_b = ops.sgd_pair_update_delta(center, context, 0.0,
                                                    0.05, gradient_b, delta);
    EXPECT_EQ(loss_a, loss_b) << linalg::KernelBackendName(backend);
    EXPECT_EQ(gradient_a, gradient_b) << linalg::KernelBackendName(backend);
    for (size_t d = 0; d < n; ++d) {
      EXPECT_NEAR(context[d] + delta[d], inplace[d],
                  ElementTol(std::abs(context[d]) + std::abs(center[d])))
          << linalg::KernelBackendName(backend) << " d=" << d;
    }
  }
}

// ---- End-to-end trained-model parity ----------------------------------------

// Downstream probe: classify each topic word ("t<topic>_w<i>") by its
// neighbors in embedding space. The whole pipeline — training *and* the
// kNN distance scans — runs under the backend being scored.
double TopicWordAccuracy(const embed::SgnsModel& model,
                         const embed::Corpus& corpus) {
  std::vector<int> ids;
  std::vector<int> labels;
  for (int id = 0; id < corpus.vocab.size(); ++id) {
    const std::string& token = corpus.vocab.Token(id);
    if (token.size() >= 4 && token[0] == 't' && token[2] == '_') {
      ids.push_back(id);
      labels.push_back(token[1] - '0');
    }
  }
  Matrix features(static_cast<int>(ids.size()), model.input.cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    linalg::Copy(model.input.ConstRowSpan(ids[i]),
                 features.RowSpan(static_cast<int>(i)));
  }
  ml::KnnClassifier knn(3);
  knn.Fit(features, labels);
  const std::vector<int> predicted = knn.PredictAll(features);
  int hits = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (predicted[i] == labels[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(labels.size());
}

TEST(BackendEndToEndParityTest, SgnsTopicClassificationWithinTolerance) {
  const embed::Corpus corpus = GoldenCorpus();

  Rng generic_rng = MakeRng(7);
  Budget unlimited;
  const embed::SgnsModel generic_model =
      *TrainSgnsOnCorpus(corpus, GoldenSgnsOptions(), generic_rng, unlimited);
  const double generic_accuracy = TopicWordAccuracy(generic_model, corpus);
  // The golden model separates the topics; a meaningless baseline would
  // sit near 1/3.
  ASSERT_GE(generic_accuracy, 0.7);

  for (const KernelBackend backend : kFastBackends) {
    BackendGuard guard(backend);
    Rng rng = MakeRng(7);
    const embed::SgnsModel model =
        *TrainSgnsOnCorpus(corpus, GoldenSgnsOptions(), rng, unlimited);
    EXPECT_TRUE(model.input.AllFinite())
        << linalg::KernelBackendName(backend);
    const double accuracy = TopicWordAccuracy(model, corpus);
    EXPECT_NEAR(accuracy, generic_accuracy, 0.2)
        << linalg::KernelBackendName(backend);
  }
}

TEST(BackendEndToEndParityTest, ShardedSgnsAtFourThreadsWithinTolerance) {
  const embed::Corpus corpus = GoldenCorpus();

  Budget unlimited;
  const StatusOr<embed::SgnsModel> generic_model = TrainSgnsShardedOnCorpus(
      corpus, GoldenSgnsOptions(), /*seed=*/7, unlimited);
  ASSERT_TRUE(generic_model.ok());
  const double generic_accuracy = TopicWordAccuracy(*generic_model, corpus);
  ASSERT_GE(generic_accuracy, 0.7);

  for (const KernelBackend backend : kFastBackends) {
    BackendGuard guard(backend);
    SetThreadCount(4);
    Budget budget;
    const StatusOr<embed::SgnsModel> model = TrainSgnsShardedOnCorpus(
        corpus, GoldenSgnsOptions(), /*seed=*/7, budget);
    SetThreadCount(0);
    ASSERT_TRUE(model.ok()) << linalg::KernelBackendName(backend);
    EXPECT_TRUE(model->input.AllFinite())
        << linalg::KernelBackendName(backend);
    const double accuracy = TopicWordAccuracy(*model, corpus);
    EXPECT_NEAR(accuracy, generic_accuracy, 0.2)
        << linalg::KernelBackendName(backend);
  }
}

TEST(BackendEndToEndParityTest, KnnPredictionsAgreeWithGeneric) {
  const Matrix features = Matrix::Random(40, 8, 1.0, /*seed=*/3);
  std::vector<int> labels(40);
  for (int i = 0; i < 40; ++i) labels[i] = (i * 7) % 3;
  const Matrix queries = Matrix::Random(15, 8, 1.0, /*seed=*/4);

  ml::KnnClassifier knn(5);
  knn.Fit(features, labels);
  const std::vector<int> generic_predictions = knn.PredictAll(queries);

  for (const KernelBackend backend : kFastBackends) {
    BackendGuard guard(backend);
    const std::vector<int> predictions = knn.PredictAll(queries);
    int agree = 0;
    for (size_t i = 0; i < predictions.size(); ++i) {
      if (predictions[i] == generic_predictions[i]) ++agree;
    }
    EXPECT_GE(agree, 12) << linalg::KernelBackendName(backend)
                         << ": only " << agree << "/15 predictions agree";
  }
}

TEST(BackendEndToEndParityTest, GraphletGramCloseToGeneric) {
  Budget unlimited;
  const std::vector<Graph> graphs = GoldenGraphs();
  const Matrix generic_gram = *kernel::GraphletKernelMatrix(graphs, unlimited);

  for (const KernelBackend backend : kFastBackends) {
    BackendGuard guard(backend);
    const Matrix gram = kernel::GraphletKernelMatrix(graphs, unlimited).value();
    ASSERT_EQ(gram.rows(), generic_gram.rows());
    double diff = 0.0, norm = 0.0;
    for (int i = 0; i < gram.rows(); ++i) {
      for (int j = 0; j < gram.cols(); ++j) {
        const double d = gram(i, j) - generic_gram(i, j);
        diff += d * d;
        norm += generic_gram(i, j) * generic_gram(i, j);
      }
    }
    const double relative = std::sqrt(diff) / std::sqrt(norm);
    EXPECT_LE(relative, 1e-12) << linalg::KernelBackendName(backend);
  }
}

// ---- Generic stays golden ---------------------------------------------------
//
// The kernels suite reads the same goldens; reading them here too catches a
// backend-dispatch bug (e.g. a fast table leaking into the generic path)
// next to the backend switching.

TEST(BackendGoldenGuaranteeTest, GenericBitIdenticalAtOneAndFourThreads) {
  linalg::SetKernelBackend(KernelBackend::kGeneric);
  const embed::Corpus corpus = GoldenCorpus();

  Rng rng = MakeRng(7);
  Budget unlimited;
  const embed::SgnsModel sequential =
      *TrainSgnsOnCorpus(corpus, GoldenSgnsOptions(), rng, unlimited);
  ExpectGolden("sgns/sequential/input", Digest(sequential.input));
  ExpectGolden("sgns/sequential/output", Digest(sequential.output));

  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    SetThreadCount(threads);
    const StatusOr<embed::SgnsModel> sharded = TrainSgnsShardedOnCorpus(
        corpus, GoldenSgnsOptions(), /*seed=*/7, unlimited);
    ASSERT_TRUE(sharded.ok());
    ExpectGolden("sgns/sharded/input", Digest(sharded->input));
    ExpectGolden("sgns/sharded/output", Digest(sharded->output));
  }
  SetThreadCount(0);
}

TEST(BackendGoldenGuaranteeTest, GenericStaysGoldenAfterBackendRoundTrip) {
  const embed::Corpus corpus = GoldenCorpus();

  // Run real work under each fast backend, then switch back and require
  // the reference digests to the last bit — proving backend state cannot
  // contaminate the golden path.
  Budget unlimited;
  for (const KernelBackend backend : kFastBackends) {
    {
      BackendGuard guard(backend);
      Rng rng = MakeRng(7);
      const embed::SgnsModel model =
          *TrainSgnsOnCorpus(corpus, GoldenSgnsOptions(), rng, unlimited);
      EXPECT_TRUE(model.input.AllFinite());
    }
    Rng rng = MakeRng(7);
    const embed::SgnsModel model =
        *TrainSgnsOnCorpus(corpus, GoldenSgnsOptions(), rng, unlimited);
    SCOPED_TRACE(testing::Message() << "after round-trip through "
                                    << linalg::KernelBackendName(backend));
    ExpectGolden("sgns/sequential/input", Digest(model.input));
    ExpectGolden("sgns/sequential/output", Digest(model.output));
  }

  ExpectGolden(
      "gram/golden-graphs/graphlet",
      Digest(kernel::GraphletKernelMatrix(GoldenGraphs(), unlimited).value()));
}

// ---- Serving-index determinism across backends and threads ------------------
//
// The serving TopK contract (serve/index.h): ties break on ascending id,
// and the ranking is a pure function of the query — so over rows whose
// distinct directions are well separated and whose duplicates are
// bit-identical, the returned *id sequence* must agree across every
// kernel backend (scores drift within tolerance; the order may not) and
// every thread count.
TEST(BackendServingParityTest, TopKIdsAgreeAcrossBackendsAndThreads) {
  // 4 distinct well-separated directions, each duplicated 3 times:
  // duplicates tie exactly under any one backend and must come back in id
  // order; the across-group order is tolerance-proof by separation.
  const Matrix directions = {
      {1.0, 0.0, 0.0, 0.0}, {0.0, 1.0, 0.0, 0.0},
      {0.0, 0.0, 1.0, 0.0}, {0.70, 0.70, 0.0, 0.14}};
  Matrix rows(12, 4);
  for (int i = 0; i < 12; ++i) {
    linalg::Copy(directions.ConstRowSpan(i % 4), rows.RowSpan(i));
  }

  std::vector<serve::ServeRequest> requests;
  for (int i = 0; i < 12; ++i) {
    serve::ServeRequest request;
    request.kind = serve::ServeRequest::Kind::kNearest;
    request.a = i;
    request.k = 6;
    requests.push_back(request);
  }

  auto id_table = [&requests](const serve::QueryEngine& engine) {
    std::vector<std::vector<int>> table;
    for (const serve::ServeOutcome& outcome : engine.ServeAll(requests)) {
      EXPECT_TRUE(outcome.status.ok());
      std::vector<int> ids;
      for (const serve::Neighbor& n : outcome.neighbors) ids.push_back(n.id);
      table.push_back(std::move(ids));
    }
    return table;
  };

  const StatusOr<serve::QueryEngine> generic_engine =
      serve::QueryEngine::Build(rows, serve::ServeOptions{});
  ASSERT_TRUE(generic_engine.ok());
  SetThreadCount(1);
  const std::vector<std::vector<int>> reference = id_table(*generic_engine);
  SetThreadCount(0);
  // Duplicates of the query's own direction lead, in id order, with the
  // query row itself excluded (row 0's duplicates are 4 and 8).
  ASSERT_EQ(reference[0][0], 4);
  ASSERT_EQ(reference[0][1], 8);

  for (const KernelBackend backend : kFastBackends) {
    BackendGuard guard(backend);
    // The engine is rebuilt under the fast backend, so normalization,
    // index build and query scoring all run through it.
    const StatusOr<serve::QueryEngine> engine =
        serve::QueryEngine::Build(rows, serve::ServeOptions{});
    ASSERT_TRUE(engine.ok());
    for (const int threads : {1, 4, 8}) {
      SetThreadCount(threads);
      EXPECT_EQ(id_table(*engine), reference)
          << linalg::KernelBackendName(backend) << " at " << threads
          << " threads";
    }
    SetThreadCount(0);
  }
}

// The dispatch itself: the public kernels must follow SetKernelBackend.
TEST(BackendGoldenGuaranteeTest, PublicKernelsFollowActiveBackend) {
  const VecPair p = MixedMagnitudePair(33, 99);
  const double generic_dot = GenericKernelOps().dot(p.a, p.b);

  for (const KernelBackend backend : kFastBackends) {
    BackendGuard guard(backend);
    EXPECT_EQ(linalg::ActiveKernelBackend(), backend);
    EXPECT_EQ(linalg::Dot(p.a, p.b), GetKernelOps(backend).dot(p.a, p.b))
        << linalg::KernelBackendName(backend);
  }
  EXPECT_EQ(linalg::ActiveKernelBackend(), KernelBackend::kGeneric);
  EXPECT_EQ(linalg::Dot(p.a, p.b), generic_dot);
}

}  // namespace
}  // namespace x2vec
