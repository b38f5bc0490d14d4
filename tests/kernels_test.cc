// Bit-identity regression suite for the span-based dense-kernel layer
// (ctest label: kernels).
//
// The golden digests below were captured from the pre-refactor
// implementations — the ones that walked Matrix::operator() element by
// element and allocated Matrix::Row() copies in every hot loop. The span
// kernels keep the exact floating-point operation order of those loops, so
// every trained model, classifier output and Gram matrix here must
// reproduce its digest bit for bit, at 1 and N threads. A digest change
// means the refactor altered numerics, not just speed.
//
// Digests are FNV-1a over the raw little-endian byte patterns of the
// values, so they are sensitive to every bit of every double (including
// the sign of zero).

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
#include "data/datasets.h"
#include "kg/datasets.h"
#include "corpus_training.h"
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

// ---- Digest helpers ---------------------------------------------------------

uint64_t Fnv1aBytes(const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Digest(const std::vector<double>& values) {
  return Fnv1aBytes(values.data(), values.size() * sizeof(double));
}

uint64_t Digest(const std::vector<int>& values) {
  return Fnv1aBytes(values.data(), values.size() * sizeof(int));
}

uint64_t Digest(const Matrix& m) { return Digest(m.data()); }

// ---- Shared fixtures (seeds are part of the golden contract) ----------------

embed::Corpus GoldenCorpus() {
  Rng rng = MakeRng(42);
  return embed::Corpus::FromSentences(data::TopicCorpus(3, 5, 60, 8, rng));
}

embed::SgnsOptions GoldenSgnsOptions() {
  embed::SgnsOptions options;
  options.dimension = 16;
  options.window = 3;
  options.negatives = 3;
  options.epochs = 3;
  return options;
}

std::vector<std::vector<int>> GoldenDocuments() {
  std::vector<std::vector<int>> documents;
  for (int d = 0; d < 30; ++d) {
    std::vector<int> doc;
    for (int t = 0; t < 20; ++t) doc.push_back((d * 13 + t * 7) % 40);
    documents.push_back(std::move(doc));
  }
  return documents;
}

std::vector<Graph> GoldenGraphs() {
  Rng rng = MakeRng(1234);
  std::vector<Graph> graphs = {Graph::Complete(4), Graph::Path(6),
                               Graph::Cycle(5), Graph::Star(4)};
  for (int i = 0; i < 4; ++i) {
    graphs.push_back(graph::ConnectedGnp(7, 0.4, rng));
  }
  return graphs;
}

// ---- SGNS / PV-DBOW ---------------------------------------------------------

TEST(KernelBitIdentityTest, SgnsSequential) {
  const embed::Corpus corpus = GoldenCorpus();
  Rng rng = MakeRng(7);
  Budget unlimited;
  const StatusOr<embed::SgnsModel> model =
      TrainSgnsOnCorpus(corpus, GoldenSgnsOptions(), rng, unlimited);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(Digest(model->input), 18278926393330042903ull);
  EXPECT_EQ(Digest(model->output), 993439134845477708ull);
}

TEST(KernelBitIdentityTest, SgnsShardedAtOneAndManyThreads) {
  const embed::Corpus corpus = GoldenCorpus();
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    Budget unlimited;
    const StatusOr<embed::SgnsModel> model = TrainSgnsShardedOnCorpus(
        corpus, GoldenSgnsOptions(), /*seed=*/7, unlimited);
    ASSERT_TRUE(model.ok());
    EXPECT_EQ(Digest(model->input), 3462095741590153806ull) << threads << " threads";
    EXPECT_EQ(Digest(model->output), 293832832280350799ull) << threads << " threads";
  }
  SetThreadCount(0);
}

TEST(KernelBitIdentityTest, PvDbowSequential) {
  Rng rng = MakeRng(9);
  Budget unlimited;
  const StatusOr<embed::SgnsModel> model = TrainPvDbowOnDocuments(
      GoldenDocuments(), 40, GoldenSgnsOptions(), rng, unlimited);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(Digest(model->input), 7506412274478109361ull);
}

TEST(KernelBitIdentityTest, PvDbowShardedAtOneAndManyThreads) {
  const std::vector<std::vector<int>> documents = GoldenDocuments();
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    Budget unlimited;
    const StatusOr<embed::SgnsModel> model = TrainPvDbowShardedOnDocuments(
        documents, 40, GoldenSgnsOptions(), /*seed=*/11, unlimited);
    ASSERT_TRUE(model.ok());
    EXPECT_EQ(Digest(model->input), 16656231216226078774ull) << threads << " threads";
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
    SetThreadCount(threads);
    Rng rng = MakeRng(19);
    Budget budget = Budget::WorkUnits(1'000'000'000);
    const StatusOr<Matrix> embedding = embed::DeepWalkEmbeddingBudgeted(
        graph::GraphView(g), GoldenWalkOptions(), rng, budget);
    ASSERT_TRUE(embedding.ok());
    EXPECT_EQ(Digest(*embedding), 10486663230332059249ull) << threads << " threads";
    EXPECT_EQ(budget.work_spent(), 9312) << threads << " threads";
  }
  SetThreadCount(0);
}

TEST(KernelBitIdentityTest, Node2VecSequentialAtOneAndManyThreads) {
  const Graph g = GoldenNodeGraph();
  embed::Node2VecOptions options = GoldenWalkOptions();
  options.walks.p = 1.0;
  options.walks.q = 0.5;
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    Rng rng = MakeRng(23);
    Budget budget = Budget::WorkUnits(1'000'000'000);
    const StatusOr<Matrix> embedding = embed::Node2VecEmbeddingBudgeted(
        graph::GraphView(g), options, rng, budget);
    ASSERT_TRUE(embedding.ok());
    EXPECT_EQ(Digest(*embedding), 5938407196543842321ull) << threads << " threads";
    EXPECT_EQ(budget.work_spent(), 9312) << threads << " threads";
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
    SetThreadCount(threads);
    Rng rng = MakeRng(29);
    Budget budget = Budget::WorkUnits(1'000'000'000);
    const StatusOr<Matrix> embedding =
        embed::Graph2VecEmbeddingBudgeted(graphs, options, rng, budget);
    ASSERT_TRUE(embedding.ok());
    EXPECT_EQ(Digest(*embedding), 10778255640977380102ull) << threads << " threads";
    EXPECT_EQ(budget.work_spent(), 432) << threads << " threads";
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
    SetThreadCount(threads);
    Budget budget = Budget::WorkUnits(1'000'000'000);
    const StatusOr<Matrix> embedding = embed::Graph2VecEmbeddingParallel(
        graphs, options, /*seed=*/29, budget);
    ASSERT_TRUE(embedding.ok());
    EXPECT_EQ(Digest(*embedding), 8474447060080171401ull) << threads << " threads";
    EXPECT_EQ(budget.work_spent(), 432) << threads << " threads";
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
  EXPECT_EQ(Digest(model.entities), 2074243407751469905ull);
  EXPECT_EQ(Digest(model.relations), 2852556191302250550ull);
  // The score loop itself is part of the swept surface.
  std::vector<double> scores;
  std::vector<int> ranks;
  for (const kg::Triple& triple : graph.Triples()) {
    scores.push_back(model.Score(triple.head, triple.relation, triple.tail));
    ranks.push_back(model.TailRank(graph, triple));
  }
  EXPECT_EQ(Digest(scores), 16068623033078006014ull);
  EXPECT_EQ(Digest(ranks), 16585628102887568796ull);
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
  EXPECT_EQ(Digest(model.entities), 6493029908213810661ull);
  std::vector<double> scores;
  for (const kg::Triple& triple : graph.Triples()) {
    scores.push_back(model.Score(triple.head, triple.relation, triple.tail));
  }
  EXPECT_EQ(Digest(scores), 4873018744700757922ull);
}

// ---- Classification probes --------------------------------------------------

TEST(KernelBitIdentityTest, KnnPredictions) {
  const Matrix features = Matrix::Random(40, 8, 1.0, /*seed=*/3);
  std::vector<int> labels(40);
  for (int i = 0; i < 40; ++i) labels[i] = (i * 7) % 3;
  ml::KnnClassifier knn(5);
  knn.Fit(features, labels);
  const Matrix queries = Matrix::Random(15, 8, 1.0, /*seed=*/4);
  EXPECT_EQ(Digest(knn.PredictAll(queries)), 16954234328204494896ull);
}

TEST(KernelBitIdentityTest, KMeansClustering) {
  const Matrix features = Matrix::Random(40, 6, 1.0, /*seed=*/21);
  Rng rng = MakeRng(11);
  const ml::KMeansResult result = ml::KMeans(features, 4, rng);
  EXPECT_EQ(Digest(result.centroids), 2267001519176672800ull);
  EXPECT_EQ(Digest(result.assignment), 18288138977900006033ull);
  EXPECT_EQ(Fnv1aBytes(&result.inertia, sizeof(result.inertia)), 3711601997687623616ull);
}

TEST(KernelBitIdentityTest, SvmPredictions) {
  const Matrix features = Matrix::Random(30, 5, 1.0, /*seed=*/8);
  const Matrix gram = features * features.Transposed();
  std::vector<int> labels(30);
  for (int i = 0; i < 30; ++i) labels[i] = (i * 5) % 3;
  Rng rng = MakeRng(17);
  ml::OneVsRestSvm svm;
  svm.Fit(gram, labels, ml::SvmOptions(), rng);
  EXPECT_EQ(Digest(svm.Predict(gram)), 12354013578755776467ull);
}

// ---- Gram fills and spectral embeddings ------------------------------------

TEST(KernelBitIdentityTest, GramFillsAtOneAndManyThreads) {
  Budget unlimited;
  const std::vector<Graph> graphs = GoldenGraphs();
  for (int threads : {1, 4}) {
    SetThreadCount(threads);
    EXPECT_EQ(Digest(*kernel::GraphletKernelMatrix(graphs, unlimited)),
              11022058731005599074ull)
        << threads << " threads";
    EXPECT_EQ(Digest(*kernel::WlSubtreeKernelMatrix(graphs, 3, unlimited)),
              10193462307455244032ull)
        << threads << " threads";
    EXPECT_EQ(Digest(kernel::DiffusionKernel(graphs[1], 0.5)), 4042648994033330886ull)
        << threads << " threads";
  }
  SetThreadCount(0);
}

TEST(KernelBitIdentityTest, SpectralNodeEmbeddings) {
  Rng rng = MakeRng(31);
  const Graph g = graph::ConnectedGnp(12, 0.4, rng);
  EXPECT_EQ(Digest(embed::LaplacianEigenmapEmbedding(g, 3)), 3239205366608690076ull);
  EXPECT_EQ(Digest(embed::IsomapEmbedding(g, 3)), 2363788967733660846ull);
}

TEST(KernelBitIdentityTest, CutNorm) {
  const Matrix m = Matrix::Random(10, 7, 1.0, /*seed=*/23);
  const double value = sim::CutNorm(m);
  EXPECT_EQ(Fnv1aBytes(&value, sizeof(value)), 389602748859326270ull);
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
