// Parameterised property tests: library invariants swept across random
// seeds and sizes (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <cstdint>
#include <tuple>
#include <vector>

#include "base/budget.h"
#include "api/suite.h"
#include "base/rng.h"
#include "base/status.h"
#include "core/registry.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "gtest/gtest.h"
#include "hom/brute_force.h"
#include "hom/embeddings.h"
#include "hom/indistinguishability.h"
#include "hom/tree_hom.h"
#include "hom/treewidth.h"
#include "kernel/graph_kernels.h"
#include "kernel/wl_kernel.h"
#include "linalg/hungarian.h"
#include "ml/svm.h"
#include "wl/color_refinement.h"
#include "wl/fractional.h"

namespace x2vec {
namespace {

using graph::Graph;

// ---- WL invariance under relabelling, across seeds and densities. ----

class WlInvarianceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(WlInvarianceTest, PermutationInvariant) {
  const auto [seed, density] = GetParam();
  Rng rng = MakeRng(seed);
  const Graph g = graph::ErdosRenyiGnp(10, density, rng);
  const Graph p = graph::Permuted(g, RandomPermutation(10, rng));
  EXPECT_TRUE(wl::WlIndistinguishable(g, p));
  // Colour histograms coincide round by round.
  const wl::RefinementResult rg = wl::ColorRefinement(g);
  const wl::RefinementResult rp = wl::ColorRefinement(p);
  EXPECT_EQ(rg.colors_per_round, rp.colors_per_round);
}

TEST_P(WlInvarianceTest, StableFastAgreesWithHashed) {
  const auto [seed, density] = GetParam();
  Rng rng = MakeRng(seed + 7);
  const Graph g = graph::ErdosRenyiGnp(11, density, rng);
  wl::RefinementOptions plain;
  plain.use_vertex_labels = false;
  const std::vector<int> slow = wl::ColorRefinement(g, plain).StableColors();
  const std::vector<int> fast = wl::StableColoringFast(g);
  // Same number of classes and same partition.
  for (int u = 0; u < 11; ++u) {
    for (int v = 0; v < 11; ++v) {
      EXPECT_EQ(slow[u] == slow[v], fast[u] == fast[v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WlInvarianceTest,
    ::testing::Combine(::testing::Values(1ULL, 2ULL, 3ULL, 5ULL, 8ULL),
                       ::testing::Values(0.2, 0.5, 0.8)));

// ---- Homomorphism counting engines agree, across pattern shapes. ----

class HomEnginesTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HomEnginesTest, TreeDpMatchesBruteForce) {
  Rng rng = MakeRng(GetParam());
  const Graph tree = graph::RandomTree(2 + GetParam() % 5, rng);
  const Graph host = graph::ErdosRenyiGnp(6, 0.5, rng);
  EXPECT_EQ(static_cast<int64_t>(hom::CountTreeHoms(tree, host)),
            hom::CountHomomorphismsBruteForce(tree, host));
}

TEST_P(HomEnginesTest, EliminationMatchesBruteForce) {
  Rng rng = MakeRng(GetParam() + 100);
  const Graph pattern = graph::ErdosRenyiGnp(5, 0.5, rng);
  const Graph host = graph::ErdosRenyiGnp(6, 0.5, rng);
  EXPECT_EQ(static_cast<int64_t>(hom::CountHoms(pattern, host)),
            hom::CountHomomorphismsBruteForce(pattern, host));
}

TEST_P(HomEnginesTest, MultiplicativeOverPatternUnions) {
  Rng rng = MakeRng(GetParam() + 200);
  const Graph f1 = graph::RandomTree(3, rng);
  const Graph f2 = Graph::Cycle(3 + GetParam() % 3);
  const Graph host = graph::ErdosRenyiGnp(6, 0.6, rng);
  EXPECT_EQ(
      static_cast<int64_t>(hom::CountHoms(graph::DisjointUnion(f1, f2), host)),
      static_cast<int64_t>(hom::CountHoms(f1, host)) *
          static_cast<int64_t>(hom::CountHoms(f2, host)));
}

TEST_P(HomEnginesTest, HomIntoDisjointUnionAddsForConnectedPatterns) {
  Rng rng = MakeRng(GetParam() + 300);
  const Graph pattern = graph::RandomTree(4, rng);  // Connected.
  const Graph a = graph::ErdosRenyiGnp(5, 0.5, rng);
  const Graph b = graph::ErdosRenyiGnp(4, 0.5, rng);
  EXPECT_EQ(
      static_cast<int64_t>(
          hom::CountTreeHoms(pattern, graph::DisjointUnion(a, b))),
      static_cast<int64_t>(hom::CountTreeHoms(pattern, a)) +
          static_cast<int64_t>(hom::CountTreeHoms(pattern, b)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, HomEnginesTest,
                         ::testing::Range<uint64_t>(0, 12));

// ---- Kernel matrices stay PSD across kernels, seeds and sizes. ----

class KernelPsdTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(KernelPsdTest, GramIsPsd) {
  Budget unlimited;
  const auto [kernel_id, seed] = GetParam();
  Rng rng = MakeRng(seed);
  std::vector<Graph> graphs;
  for (int i = 0; i < 7; ++i) {
    graphs.push_back(graph::ErdosRenyiGnp(6 + i % 3, 0.45, rng));
  }
  linalg::Matrix gram;
  switch (kernel_id) {
    case 0:
      gram = kernel::WlSubtreeKernelMatrix(graphs, 3, unlimited).value();
      break;
    case 1:
      gram = kernel::DiscountedWlKernelMatrix(graphs, 5, unlimited).value();
      break;
    case 2:
      gram = kernel::WlShortestPathKernelMatrix(graphs, 2, unlimited).value();
      break;
    case 3:
      gram = kernel::ShortestPathKernelMatrix(graphs, unlimited).value();
      break;
    case 4:
      gram = kernel::GraphletKernelMatrix(graphs, unlimited).value();
      break;
    case 5:
      gram = *kernel::HomVectorKernelMatrix(
          graphs, hom::DefaultPatternFamily(10), unlimited);
      break;
    default:
      gram = *kernel::ScaledHomKernelMatrix(
          graphs, hom::DefaultPatternFamily(10), unlimited);
  }
  EXPECT_TRUE(kernel::IsPositiveSemidefinite(gram)) << "kernel " << kernel_id;
  EXPECT_TRUE(gram.AllClose(gram.Transposed(), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelPsdTest,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Values(11ULL, 22ULL)));

// ---- The indistinguishability ladder is a chain, across random pairs. ----

class LadderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LadderTest, ImplicationsHold) {
  Rng rng = MakeRng(GetParam());
  const Graph g = graph::ErdosRenyiGnp(6, 0.5, rng);
  const Graph h = GetParam() % 2 == 0
                      ? graph::Permuted(g, RandomPermutation(6, rng))
                      : graph::ErdosRenyiGnp(6, 0.5, rng);
  const bool isomorphic = graph::AreIsomorphic(g, h);
  const bool trees = hom::HomIndistinguishableTrees(g, h);
  const bool paths = hom::HomIndistinguishablePaths(g, h);
  const bool cycles = hom::HomIndistinguishableCycles(g, h);
  // iso => Hom_T => Hom_P; iso => Hom_C (the ladder of Section 4.1).
  if (isomorphic) {
    EXPECT_TRUE(trees);
    EXPECT_TRUE(cycles);
  }
  if (trees) {
    EXPECT_TRUE(paths);
  }
  // Hom_T coincides with fractional isomorphism (Thm 3.2 + Cor 4.5).
  EXPECT_EQ(trees, wl::FractionalIsomorphism(g, h).has_value());
}

INSTANTIATE_TEST_SUITE_P(Sweep, LadderTest,
                         ::testing::Range<uint64_t>(0, 16));

// ---- Hungarian vs brute force, across sizes and seeds. ----

class HungarianTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(HungarianTest, MatchesExhaustiveMinimum) {
  const auto [n, seed] = GetParam();
  const linalg::Matrix cost = linalg::Matrix::Random(n, n, 5.0, seed);
  const linalg::AssignmentResult result = linalg::SolveAssignment(cost);
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = 1e18;
  do {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += cost(i, perm[i]);
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_NEAR(result.cost, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HungarianTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 6),
                       ::testing::Values(5ULL, 6ULL, 7ULL)));

// ---- Fractional isomorphism witnesses are always valid when produced. --

class WitnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WitnessTest, WitnessSatisfiesEquations) {
  Rng rng = MakeRng(GetParam() + 900);
  const Graph g = graph::ErdosRenyiGnp(7, 0.5, rng);
  const Graph h = graph::Permuted(g, RandomPermutation(7, rng));
  const auto x = wl::FractionalIsomorphism(g, h);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR(wl::FractionalResidual(g, h, *x), 0.0, 1e-10);
  for (int i = 0; i < 7; ++i) {
    double row = 0.0;
    for (int j = 0; j < 7; ++j) {
      row += (*x)(i, j);
      EXPECT_GE((*x)(i, j), 0.0);
    }
    EXPECT_NEAR(row, 1.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WitnessTest,
                         ::testing::Range<uint64_t>(0, 8));

// ---- Method-suite robustness: finite outputs, graceful budget blowouts. --

std::vector<Graph> SuiteGraphs() {
  Rng rng = MakeRng(501);
  std::vector<Graph> graphs = {Graph::Cycle(8), Graph::Path(8),
                               Graph::Star(7), Graph::Grid(2, 4)};
  graphs.push_back(graph::ConnectedGnp(8, 0.35, rng));
  graphs.push_back(graph::ConnectedGnp(8, 0.5, rng));
  return graphs;
}

TEST(MethodSuitePropertyTest, EveryMethodProducesAllFiniteGrams) {
  const std::vector<Graph> graphs = SuiteGraphs();
  for (const core::GraphKernelMethod& method : api::DefaultMethodSuite()) {
    Rng rng = MakeRng(502);
    const linalg::Matrix gram = method.gram(graphs, rng);
    EXPECT_EQ(gram.rows(), static_cast<int>(graphs.size())) << method.name;
    EXPECT_EQ(gram.cols(), static_cast<int>(graphs.size())) << method.name;
    EXPECT_TRUE(gram.AllFinite()) << method.name;
  }
}

TEST(MethodSuitePropertyTest, EveryNodeMethodProducesAllFiniteRows) {
  const Graph g = Graph::Cycle(12);  // Connected, as Isomap requires.
  for (const core::NodeEmbeddingMethod& method :
       api::DefaultNodeMethodSuite()) {
    Rng rng = MakeRng(503);
    const linalg::Matrix embedding = method.embed(g, rng);
    EXPECT_EQ(embedding.rows(), g.NumVertices()) << method.name;
    EXPECT_TRUE(embedding.AllFinite()) << method.name;
  }
}

TEST(MethodSuitePropertyTest, ZeroBudgetSkipsEveryMethodGracefully) {
  BudgetSpec spec;
  spec.work_units = 0;
  const std::vector<core::MethodOutcome> outcomes =
      core::RunMethodSuite(api::DefaultMethodSuite(), SuiteGraphs(),
                           /*seed=*/7, spec);
  ASSERT_EQ(outcomes.size(), api::DefaultMethodSuite().size());
  for (const core::MethodOutcome& outcome : outcomes) {
    EXPECT_FALSE(outcome.status.ok()) << outcome.name;
    EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted)
        << outcome.name << ": " << outcome.status.ToString();
    EXPECT_EQ(outcome.matrix.rows(), 0) << outcome.name;
  }
}

TEST(MethodSuitePropertyTest, ZeroBudgetSkipsEveryNodeMethodGracefully) {
  const Graph g = Graph::Cycle(12);
  for (const core::NodeEmbeddingMethod& method :
       api::DefaultNodeMethodSuite()) {
    Budget budget = Budget::WorkUnits(0);
    Rng rng = MakeRng(7);
    const StatusOr<linalg::Matrix> embedding =
        method.embed_budgeted(g, rng, budget);
    EXPECT_EQ(embedding.status().code(), StatusCode::kResourceExhausted)
        << method.name << ": " << embedding.status().ToString();
  }
}

TEST(MethodSuitePropertyTest, UnlimitedSpecMatchesConvenienceWrappers) {
  const std::vector<Graph> graphs = SuiteGraphs();
  const std::vector<core::GraphKernelMethod> suite =
      api::DefaultMethodSuite();
  const BudgetSpec unlimited;  // No limits: every method must succeed.
  const std::vector<core::MethodOutcome> outcomes =
      core::RunMethodSuite(suite, graphs, /*seed=*/7, unlimited);
  ASSERT_EQ(outcomes.size(), suite.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].status.ok())
        << outcomes[i].name << ": " << outcomes[i].status.ToString();
    Rng rng = MakeRng(7 + i);  // RunMethodSuite seeds with seed + index.
    const linalg::Matrix direct = suite[i].gram(graphs, rng);
    EXPECT_EQ(outcomes[i].matrix, direct) << outcomes[i].name;
  }
}

}  // namespace
}  // namespace x2vec
