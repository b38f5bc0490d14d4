// Bit-identity regression suite for the span-based dense-kernel layer
// (ctest label: kernels).
//
// The golden digests were captured from the pre-refactor implementations
// — the ones that walked Matrix::operator() element by element and
// allocated Matrix::Row() copies in every hot loop. The span kernels keep
// the exact floating-point operation order of those loops, so every
// trained model, classifier output and Gram matrix here must reproduce its
// digest bit for bit, at 1 and N threads. A digest change means the
// refactor altered numerics, not just speed. The digests, their values and
// the shared golden fixtures live in tests/goldens.h.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/metrics.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "kg/datasets.h"
#include "corpus_training.h"
#include "goldens.h"
#include "embed/corpus.h"
#include "embed/graph2vec.h"
#include "embed/node_embeddings.h"
#include "embed/sgns.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "kernel/graph_kernels.h"
#include "kernel/node_kernels.h"
#include "kernel/wl_kernel.h"
#include "kg/knowledge_graph.h"
#include "kg/rescal.h"
#include "kg/transe.h"
#include "linalg/kernels.h"
#include "linalg/kernels_backend.h"
#include "linalg/matrix.h"
#include "ml/neighbors.h"
#include "ml/svm.h"
#include "sim/matrix_norms.h"

namespace x2vec {
namespace {

using graph::Graph;
using linalg::Matrix;

// ---- SGNS / PV-DBOW ---------------------------------------------------------

TEST(KernelBitIdentityTest, SgnsSequential) {
  const embed::Corpus corpus = GoldenCorpus();
  Rng rng = MakeRng(7);
  Budget unlimited;
  const StatusOr<embed::SgnsModel> model =
      TrainSgnsOnCorpus(corpus, GoldenSgnsOptions(), rng, unlimited);
  ASSERT_TRUE(model.ok());
  ExpectGolden("sgns/sequential/input", Digest(model->input));
  ExpectGolden("sgns/sequential/output", Digest(model->output));
}

TEST(KernelBitIdentityTest, SgnsShardedAtOneAndManyThreads) {
  const embed::Corpus corpus = GoldenCorpus();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    SetThreadCount(threads);
    Budget unlimited;
    const StatusOr<embed::SgnsModel> model = TrainSgnsShardedOnCorpus(
        corpus, GoldenSgnsOptions(), /*seed=*/7, unlimited);
    ASSERT_TRUE(model.ok());
    ExpectGolden("sgns/sharded/input", Digest(model->input));
    ExpectGolden("sgns/sharded/output", Digest(model->output));
  }
  SetThreadCount(0);
}

TEST(KernelBitIdentityTest, PvDbowSequential) {
  Rng rng = MakeRng(9);
  Budget unlimited;
  const StatusOr<embed::SgnsModel> model = TrainPvDbowOnDocuments(
      GoldenDocuments(), 40, GoldenSgnsOptions(), rng, unlimited);
  ASSERT_TRUE(model.ok());
  ExpectGolden("pvdbow/sequential/input", Digest(model->input));
}

TEST(KernelBitIdentityTest, PvDbowShardedAtOneAndManyThreads) {
  const std::vector<std::vector<int>> documents = GoldenDocuments();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    SetThreadCount(threads);
    Budget unlimited;
    const StatusOr<embed::SgnsModel> model = TrainPvDbowShardedOnDocuments(
        documents, 40, GoldenSgnsOptions(), /*seed=*/11, unlimited);
    ASSERT_TRUE(model.ok());
    ExpectGolden("pvdbow/sharded/input", Digest(model->input));
  }
  SetThreadCount(0);
}

// ---- Sequential embedders (the method suite's deepwalk, node2vec and
// graph2vec). The walk digests were captured from the materialised-corpus
// implementation and now pin the WalkSource pipeline that replaced it.

graph::Graph GoldenNodeGraph() {
  Rng rng = MakeRng(77);
  return graph::ConnectedGnp(24, 0.2, rng);
}

embed::Node2VecOptions GoldenWalkOptions() {
  embed::Node2VecOptions options;
  options.walks.walks_per_node = 4;
  options.walks.walk_length = 10;
  options.sgns.dimension = 8;
  options.sgns.window = 3;
  options.sgns.negatives = 3;
  options.sgns.epochs = 2;
  return options;
}

TEST(KernelBitIdentityTest, DeepWalkSequentialAtOneAndManyThreads) {
  const Graph g = GoldenNodeGraph();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    SetThreadCount(threads);
    Rng rng = MakeRng(19);
    Budget budget = Budget::WorkUnits(1'000'000'000);
    const StatusOr<Matrix> embedding = embed::DeepWalkEmbeddingBudgeted(
        graph::GraphView(g), GoldenWalkOptions(), rng, budget);
    ASSERT_TRUE(embedding.ok());
    ExpectGolden("walks/deepwalk", Digest(*embedding));
    EXPECT_EQ(budget.work_spent(), 9312);
  }
  SetThreadCount(0);
}

TEST(KernelBitIdentityTest, Node2VecSequentialAtOneAndManyThreads) {
  const Graph g = GoldenNodeGraph();
  embed::Node2VecOptions options = GoldenWalkOptions();
  options.walks.p = 1.0;
  options.walks.q = 0.5;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    SetThreadCount(threads);
    Rng rng = MakeRng(23);
    Budget budget = Budget::WorkUnits(1'000'000'000);
    const StatusOr<Matrix> embedding = embed::Node2VecEmbeddingBudgeted(
        graph::GraphView(g), options, rng, budget);
    ASSERT_TRUE(embedding.ok());
    ExpectGolden("walks/node2vec", Digest(*embedding));
    EXPECT_EQ(budget.work_spent(), 9312);
  }
  SetThreadCount(0);
}

TEST(KernelBitIdentityTest, Graph2VecSequentialAtOneAndManyThreads) {
  const std::vector<Graph> graphs = GoldenGraphs();
  embed::Graph2VecOptions options;
  options.wl_rounds = 2;
  options.sgns.dimension = 8;
  options.sgns.epochs = 3;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    SetThreadCount(threads);
    Rng rng = MakeRng(29);
    Budget budget = Budget::WorkUnits(1'000'000'000);
    const StatusOr<Matrix> embedding =
        embed::Graph2VecEmbeddingBudgeted(graphs, options, rng, budget);
    ASSERT_TRUE(embedding.ok());
    ExpectGolden("graph2vec/sequential", Digest(*embedding));
    EXPECT_EQ(budget.work_spent(), 432);
  }
  SetThreadCount(0);
}

TEST(KernelBitIdentityTest, Graph2VecParallelAtOneAndManyThreads) {
  const std::vector<Graph> graphs = GoldenGraphs();
  embed::Graph2VecOptions options;
  options.wl_rounds = 2;
  options.sgns.dimension = 8;
  options.sgns.epochs = 3;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    SetThreadCount(threads);
    Budget budget = Budget::WorkUnits(1'000'000'000);
    const StatusOr<Matrix> embedding = embed::Graph2VecEmbeddingParallel(
        graphs, options, /*seed=*/29, budget);
    ASSERT_TRUE(embedding.ok());
    ExpectGolden("graph2vec/parallel", Digest(*embedding));
    EXPECT_EQ(budget.work_spent(), 432);
  }
  SetThreadCount(0);
}

// ---- Knowledge-graph models -------------------------------------------------

TEST(KernelBitIdentityTest, TransEModelAndScores) {
  Rng data_rng = MakeRng(5);
  const kg::KnowledgeGraph graph = kg::CountriesKnowledgeGraph(12, data_rng);
  kg::TransEOptions options;
  options.dimension = 8;
  options.epochs = 10;
  Rng rng = MakeRng(9);
  Budget unlimited;
  const StatusOr<kg::TransEModel> trained =
      kg::TrainTransEBudgeted(graph, options, rng, unlimited);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const kg::TransEModel& model = *trained;
  ExpectGolden("transe/entities", Digest(model.entities));
  ExpectGolden("transe/relations", Digest(model.relations));
  // The score loop itself is part of the swept surface.
  std::vector<double> scores;
  std::vector<int> ranks;
  for (const kg::Triple& triple : graph.Triples()) {
    scores.push_back(model.Score(triple.head, triple.relation, triple.tail));
    ranks.push_back(model.TailRank(graph, triple));
  }
  ExpectGolden("transe/scores", Digest(scores));
  ExpectGolden("transe/tail-ranks", Digest(ranks));
}

TEST(KernelBitIdentityTest, RescalModelAndScores) {
  Rng data_rng = MakeRng(5);
  const kg::KnowledgeGraph graph = kg::CountriesKnowledgeGraph(8, data_rng);
  kg::RescalOptions options;
  options.dimension = 4;
  options.epochs = 5;
  Rng rng = MakeRng(13);
  Budget unlimited;
  const StatusOr<kg::RescalModel> trained =
      kg::TrainRescalBudgeted(graph, options, rng, unlimited);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const kg::RescalModel& model = *trained;
  ExpectGolden("rescal/entities", Digest(model.entities));
  std::vector<double> scores;
  for (const kg::Triple& triple : graph.Triples()) {
    scores.push_back(model.Score(triple.head, triple.relation, triple.tail));
  }
  ExpectGolden("rescal/scores", Digest(scores));
}

// ---- Classification probes --------------------------------------------------

TEST(KernelBitIdentityTest, KnnPredictions) {
  const Matrix features = Matrix::Random(40, 8, 1.0, /*seed=*/3);
  std::vector<int> labels(40);
  for (int i = 0; i < 40; ++i) labels[i] = (i * 7) % 3;
  ml::KnnClassifier knn(5);
  knn.Fit(features, labels);
  const Matrix queries = Matrix::Random(15, 8, 1.0, /*seed=*/4);
  ExpectGolden("ml/knn-predictions", Digest(knn.PredictAll(queries)));
}

TEST(KernelBitIdentityTest, KMeansClustering) {
  const Matrix features = Matrix::Random(40, 6, 1.0, /*seed=*/21);
  Rng rng = MakeRng(11);
  const ml::KMeansResult result = ml::KMeans(features, 4, rng);
  ExpectGolden("ml/kmeans-centroids", Digest(result.centroids));
  ExpectGolden("ml/kmeans-assignment", Digest(result.assignment));
  ExpectGolden("ml/kmeans-inertia", Digest(result.inertia));
}

TEST(KernelBitIdentityTest, SvmPredictions) {
  const Matrix features = Matrix::Random(30, 5, 1.0, /*seed=*/8);
  const Matrix gram = features * features.Transposed();
  std::vector<int> labels(30);
  for (int i = 0; i < 30; ++i) labels[i] = (i * 5) % 3;
  Rng rng = MakeRng(17);
  ml::OneVsRestSvm svm;
  svm.Fit(gram, labels, ml::SvmOptions(), rng);
  ExpectGolden("ml/svm-predictions", Digest(svm.Predict(gram)));
}

// ---- Gram fills and spectral embeddings ------------------------------------

TEST(KernelBitIdentityTest, GramFillsAtOneAndManyThreads) {
  Budget unlimited;
  const std::vector<Graph> graphs = GoldenGraphs();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    SetThreadCount(threads);
    ExpectGolden("gram/golden-graphs/graphlet",
                 Digest(*kernel::GraphletKernelMatrix(graphs, unlimited)));
    ExpectGolden("gram/golden-graphs/wl-subtree-h3",
                 Digest(*kernel::WlSubtreeKernelMatrix(graphs, 3, unlimited)));
    ExpectGolden("kernel/diffusion-path6",
                 Digest(kernel::DiffusionKernel(graphs[1], 0.5)));
  }
  SetThreadCount(0);
}

TEST(KernelBitIdentityTest, SpectralNodeEmbeddings) {
  Rng rng = MakeRng(31);
  const Graph g = graph::ConnectedGnp(12, 0.4, rng);
  ExpectGolden("spectral/laplacian-eigenmap",
               Digest(embed::LaplacianEigenmapEmbedding(g, 3)));
  ExpectGolden("spectral/isomap", Digest(embed::IsomapEmbedding(g, 3)));
}

TEST(KernelBitIdentityTest, CutNorm) {
  const Matrix m = Matrix::Random(10, 7, 1.0, /*seed=*/23);
  ExpectGolden("sim/cut-norm", Digest(sim::CutNorm(m)));
}

// ---- Span-kernel unit tests -------------------------------------------------
//
// Each kernel must equal the naive element-indexed loop it replaced, bit
// for bit, on data where summation order matters (mixed magnitudes).

std::vector<double> TestVector(int n, uint64_t seed) {
  Rng rng = MakeRng(seed);
  std::vector<double> v(n);
  for (double& x : v) {
    x = UniformReal(rng, -0.5, 0.5) *
        std::pow(10.0, static_cast<double>(UniformInt(rng, 0, 5)));
  }
  return v;
}

TEST(SpanKernelTest, DotMatchesLeftToRightLoop) {
  const std::vector<double> a = TestVector(33, 1);
  const std::vector<double> b = TestVector(33, 2);
  double expected = 0.0;
  for (size_t i = 0; i < a.size(); ++i) expected += a[i] * b[i];
  EXPECT_EQ(linalg::Dot(a, b), expected);
  EXPECT_EQ(linalg::Norm2(a), std::sqrt(linalg::Dot(a, a)));
}

TEST(SpanKernelTest, DistancesMatchReferenceLoops) {
  const std::vector<double> a = TestVector(17, 3);
  const std::vector<double> b = TestVector(17, 4);
  double squared = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    squared += diff * diff;
  }
  EXPECT_EQ(linalg::SquaredDistance(a, b), squared);
  EXPECT_EQ(linalg::Distance2(a, b), std::sqrt(squared));
}

TEST(SpanKernelTest, CosineSimilarityHandlesZeroVectors) {
  const std::vector<double> a = TestVector(8, 5);
  const std::vector<double> zero(8, 0.0);
  EXPECT_EQ(linalg::CosineSimilarity(a, zero), 0.0);
  EXPECT_EQ(linalg::CosineSimilarity(zero, zero), 0.0);
  EXPECT_DOUBLE_EQ(linalg::CosineSimilarity(a, a), 1.0);
}

TEST(SpanKernelTest, AxpyScaleCopyMatchElementwiseLoops) {
  const std::vector<double> x = TestVector(21, 6);
  std::vector<double> y = TestVector(21, 7);
  std::vector<double> expected = y;
  for (size_t i = 0; i < x.size(); ++i) expected[i] += 0.37 * x[i];
  linalg::Axpy(0.37, x, y);
  EXPECT_EQ(y, expected);

  // alpha == 1.0 must reproduce plain accumulation exactly.
  std::vector<double> z = TestVector(21, 8);
  std::vector<double> plain = z;
  for (size_t i = 0; i < x.size(); ++i) plain[i] += x[i];
  linalg::Axpy(1.0, x, z);
  EXPECT_EQ(z, plain);

  linalg::Scale(z, 0.5);
  for (size_t i = 0; i < z.size(); ++i) EXPECT_EQ(z[i], plain[i] * 0.5);

  std::vector<double> dst(x.size(), -1.0);
  linalg::Copy(x, dst);
  EXPECT_EQ(dst, x);
}

TEST(SpanKernelTest, SigmoidSaturatesExactly) {
  EXPECT_EQ(linalg::Sigmoid(30.5), 1.0);
  EXPECT_EQ(linalg::Sigmoid(-30.5), 0.0);
  EXPECT_EQ(linalg::Sigmoid(0.0), 0.5);
  EXPECT_GT(linalg::Sigmoid(2.0), 0.5);
  EXPECT_LT(linalg::Sigmoid(29.9), 1.0);
}

TEST(SpanKernelTest, SgdPairUpdateMatchesInterleavedReferenceLoop) {
  const std::vector<double> center = TestVector(16, 9);
  std::vector<double> context = TestVector(16, 10);
  std::vector<double> gradient(16, 0.0);

  // Hand-rolled replica of the historical UpdatePair loop: gradient[d]
  // reads context[d] *before* the same iteration updates it.
  std::vector<double> ref_context = context;
  std::vector<double> ref_gradient(16, 0.0);
  double score = 0.0;
  for (int d = 0; d < 16; ++d) score += center[d] * ref_context[d];
  const double g = (1.0 - linalg::Sigmoid(score)) * 0.025;
  for (int d = 0; d < 16; ++d) {
    ref_gradient[d] += g * ref_context[d];
    ref_context[d] += g * center[d];
  }

  linalg::SgdPairUpdate(center, context, /*label=*/1.0, /*lr=*/0.025,
                        gradient);
  EXPECT_EQ(context, ref_context);
  EXPECT_EQ(gradient, ref_gradient);
}

TEST(SpanKernelTest, SgdPairUpdateDeltaMatchesInPlaceUpdate) {
  const std::vector<double> center = TestVector(12, 11);
  std::vector<double> context = TestVector(12, 12);
  const std::vector<double> frozen = context;
  std::vector<double> gradient_a(12, 0.0);
  std::vector<double> gradient_b(12, 0.0);
  std::vector<double> delta(12, 0.0);

  const double loss_a = linalg::SgdPairUpdate(center, context, /*label=*/0.0,
                                              /*lr=*/0.05, gradient_a);
  const double loss_b =
      linalg::SgdPairUpdateDelta(center, frozen, /*label=*/0.0, /*lr=*/0.05,
                                 gradient_b, delta);
  EXPECT_EQ(loss_a, loss_b);
  EXPECT_EQ(gradient_a, gradient_b);
  for (int d = 0; d < 12; ++d) EXPECT_EQ(frozen[d] + delta[d], context[d]);
}

TEST(SpanKernelTest, RowDeltaBufferTracksFirstTouchOrder) {
  linalg::RowDeltaBuffer buffer;
  buffer.Reset(/*rows=*/10, /*dim=*/3);
  EXPECT_TRUE(buffer.touched().empty());

  buffer.Accumulator(7)[0] = 1.0;
  buffer.Accumulator(2)[1] = 2.0;
  buffer.Accumulator(7)[2] = 3.0;  // re-touch must not add a new slot
  ASSERT_EQ(buffer.touched(), (std::vector<int>{7, 2}));
  EXPECT_EQ(buffer.Slot(0)[0], 1.0);
  EXPECT_EQ(buffer.Slot(0)[2], 3.0);
  EXPECT_EQ(buffer.Slot(1)[1], 2.0);

  // Reset at the same shape clears only the touched slots.
  buffer.Reset(10, 3);
  EXPECT_TRUE(buffer.touched().empty());
  const std::span<double> fresh = buffer.Accumulator(7);
  for (double v : fresh) EXPECT_EQ(v, 0.0);

  // Reset at a new shape reindexes cleanly.
  buffer.Reset(4, 2);
  buffer.Accumulator(3)[1] = 9.0;
  ASSERT_EQ(buffer.touched(), (std::vector<int>{3}));
  EXPECT_EQ(buffer.Slot(0)[1], 9.0);
}

TEST(SpanKernelTest, RowSpansAliasMatrixStorage) {
  Matrix m(3, 4);
  m.RowSpan(1)[2] = 5.0;
  EXPECT_EQ(m(1, 2), 5.0);
  EXPECT_EQ(m.data()[1 * 4 + 2], 5.0);
  const std::span<const double> view = m.ConstRowSpan(1);
  EXPECT_EQ(view.data(), m.data().data() + 4);
  EXPECT_EQ(view.size(), 4u);
}

// ---- Kernel-backend selection ----------------------------------------------
//
// ResolveKernelBackend is the pure core behind X2VEC_KERNEL_BACKEND,
// exposed (like ResolveThreadCount) so the parsing and ISA-fallback rules
// are testable without mutating the process environment.

TEST(KernelBackendTest, ResolveDefaultsToGeneric) {
  const linalg::CpuFeatures none;
  EXPECT_EQ(linalg::ResolveKernelBackend(nullptr, none).value(),
            linalg::KernelBackend::kGeneric);
  EXPECT_EQ(linalg::ResolveKernelBackend("", none).value(),
            linalg::KernelBackend::kGeneric);
  EXPECT_EQ(linalg::ResolveKernelBackend("generic", none).value(),
            linalg::KernelBackend::kGeneric);
}

TEST(KernelBackendTest, ResolveNamedBackends) {
  const linalg::CpuFeatures none;
  EXPECT_EQ(linalg::ResolveKernelBackend("vectorized", none).value(),
            linalg::KernelBackend::kVectorized);
  // float32 and fp32 name no backend: they are unknown values, which the
  // environment path turns into generic plus an env-invalid count.
  for (const char* removed : {"float32", "fp32"}) {
    const StatusOr<linalg::KernelBackend> resolved =
        linalg::ResolveKernelBackend(removed, none);
    ASSERT_FALSE(resolved.ok()) << removed;
    EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument);
  }
  // A fresh process (threadsafe death-test style re-executes the binary)
  // resolves X2VEC_KERNEL_BACKEND=float32 on its first kernel dispatch.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("X2VEC_KERNEL_BACKEND", "float32", /*overwrite=*/1);
        const bool generic =
            linalg::ActiveKernelBackend() == linalg::KernelBackend::kGeneric;
        const int64_t invalid = metrics::GlobalSnapshot().counter(
            "kernels.backend_env_invalid");
        std::exit(generic && invalid == 1 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(KernelBackendTest, ResolveUnknownValueIsInvalidArgument) {
  const linalg::CpuFeatures none;
  const StatusOr<linalg::KernelBackend> resolved =
      linalg::ResolveKernelBackend("avx512-bf16", none);
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resolved.status().message().find("avx512-bf16"),
            std::string::npos);
}

TEST(KernelBackendTest, ResolveAvx2FallsBackToGenericWithoutIsaSupport) {
  linalg::CpuFeatures features;  // no AVX2, no FMA
  EXPECT_EQ(linalg::ResolveKernelBackend("avx2", features).value(),
            linalg::KernelBackend::kGeneric);
  features.avx2 = true;  // FMA still missing: the fused path stays off
  EXPECT_EQ(linalg::ResolveKernelBackend("avx2", features).value(),
            linalg::KernelBackend::kGeneric);
  features.fma = true;
  EXPECT_EQ(linalg::ResolveKernelBackend("avx2", features).value(),
            linalg::KernelBackend::kVectorized);
}

TEST(KernelBackendTest, BackendNamesAreStable) {
  EXPECT_EQ(linalg::KernelBackendName(linalg::KernelBackend::kGeneric),
            "generic");
  EXPECT_EQ(linalg::KernelBackendName(linalg::KernelBackend::kVectorized),
            "vectorized");
}

TEST(KernelBackendTest, DetectCpuFeaturesIsStableAcrossCalls) {
  const linalg::CpuFeatures first = linalg::DetectCpuFeatures();
  const linalg::CpuFeatures second = linalg::DetectCpuFeatures();
  EXPECT_EQ(first.avx2, second.avx2);
  EXPECT_EQ(first.fma, second.fma);
  // The AVX2 specialization may only be live when the CPU truly has both
  // features; on machines without them the portable lowering must serve.
  if (linalg::VectorizedUsesAvx2()) {
    EXPECT_TRUE(first.avx2);
    EXPECT_TRUE(first.fma);
  }
}

TEST(KernelBackendTest, SetKernelBackendSwitchesPublicDispatch) {
  const std::vector<double> a = TestVector(33, 21);
  const std::vector<double> b = TestVector(33, 22);
  const double generic = linalg::GenericKernelOps().dot(a, b);

  linalg::SetKernelBackend(linalg::KernelBackend::kVectorized);
  EXPECT_EQ(linalg::ActiveKernelBackend(), linalg::KernelBackend::kVectorized);
  EXPECT_EQ(linalg::Dot(a, b), linalg::VectorizedKernelOps().dot(a, b));

  linalg::SetKernelBackend(linalg::KernelBackend::kGeneric);
  EXPECT_EQ(linalg::ActiveKernelBackend(), linalg::KernelBackend::kGeneric);
  EXPECT_EQ(linalg::Dot(a, b), generic);
}

TEST(KernelBackendTest, GetKernelOpsCoversEveryBackend) {
  EXPECT_EQ(&linalg::GetKernelOps(linalg::KernelBackend::kGeneric),
            &linalg::GenericKernelOps());
  EXPECT_EQ(&linalg::GetKernelOps(linalg::KernelBackend::kVectorized),
            &linalg::VectorizedKernelOps());
}

TEST(SpanKernelTest, MatrixApplyAcceptsSpansAndVectors) {
  const Matrix m = Matrix::Random(5, 3, 1.0, /*seed=*/77);
  const std::vector<double> x = TestVector(3, 13);
  const std::vector<double> via_vector = m.Apply(x);
  const std::vector<double> via_span =
      m.Apply(std::span<const double>(x));
  EXPECT_EQ(via_vector, via_span);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(via_vector[i], linalg::Dot(m.ConstRowSpan(i), x));
  }
}

}  // namespace
}  // namespace x2vec
