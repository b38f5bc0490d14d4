// Fault-injection and budget-exhaustion suite (ctest label: robustness).
//
// Four families of tests:
//  - Budget semantics: quotas admit exactly their work, deadlines trip,
//    exhaustion latches, and every budgeted entry point returns
//    kResourceExhausted (never crashes or hangs) on a zero budget.
//  - Self-healing trainers: poisoned options force SGNS / PV-DBOW / TransE /
//    RESCAL to diverge deterministically; recovery must heal the run
//    (finite final parameters) and, when back-off is disabled, give up with
//    kInternal after max_retries.
//  - Caller input: bad options and sentence sources that do not replay
//    their counted stream end in kInvalidArgument, never a crash.
//  - FaultInjectingRng: a scripted Rng subclass feeding degenerate bit
//    streams into the randomised pipelines, which must stay well-defined.

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/suite.h"
#include "base/budget.h"
#include "base/metrics.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/trace.h"
#include "core/registry.h"
#include "corpus_training.h"
#include "embed/corpus.h"
#include "embed/graph2vec.h"
#include "embed/node_embeddings.h"
#include "embed/sgns.h"
#include "embed/stream.h"
#include "goldens.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "hom/brute_force.h"
#include "hom/embeddings.h"
#include "hom/treewidth.h"
#include "kernel/graph_kernels.h"
#include "kg/knowledge_graph.h"
#include "kg/rescal.h"
#include "kg/transe.h"
#include "linalg/matrix.h"
#include "wl/kwl.h"

namespace x2vec {
namespace {

// ---------------------------------------------------------------------------
// Fault-injection Rng: forwards the first `healthy_draws` to the real
// engine, then replays a fixed degenerate cycle. The cycle contains 0 so
// rejection-sampling distributions (uniform_int_distribution) always
// terminate.
class FaultInjectingRng : public Rng {
 public:
  explicit FaultInjectingRng(uint64_t seed, int64_t healthy_draws)
      : Rng(seed), healthy_draws_(healthy_draws) {}

  result_type operator()() override {
    if (draws_++ < healthy_draws_) return engine_();
    static constexpr result_type kCycle[] = {0, Rng::max(), Rng::max() / 2};
    return kCycle[static_cast<size_t>(draws_) % 3];
  }

  int64_t draws() const { return draws_; }

 private:
  int64_t healthy_draws_ = 0;
  int64_t draws_ = 0;
};

// ---------------------------------------------------------------------------
// Shared fixtures.

embed::Corpus SmallCorpus() {
  return embed::Corpus::FromSentences({
      {"the", "cat", "sat", "on", "the", "mat"},
      {"the", "dog", "sat", "on", "the", "rug"},
      {"a", "cat", "and", "a", "dog"},
  });
}

kg::KnowledgeGraph SmallKg() {
  kg::KnowledgeGraph kg;
  kg.AddFact("alice", "knows", "bob");
  kg.AddFact("bob", "knows", "carol");
  kg.AddFact("carol", "knows", "alice");
  kg.AddFact("alice", "likes", "carol");
  kg.AddFact("bob", "likes", "alice");
  return kg;
}

// Poisoned SGNS options: a huge learning rate with clipping disabled
// (clip_norm far above anything reachable) drives the context rows past
// RecoveryPolicy::max_abs within the first epoch, deterministically.
embed::SgnsOptions PoisonedSgnsOptions() {
  embed::SgnsOptions options;
  options.dimension = 8;
  options.epochs = 2;
  options.learning_rate = 1e12;
  options.recovery.clip_norm = 1e300;  // Disable the gradient clip.
  return options;
}

kg::TransEOptions PoisonedTransEOptions() {
  kg::TransEOptions options;
  options.dimension = 8;
  options.epochs = 3;
  options.learning_rate = 1e10;
  options.recovery.clip_norm = 1e300;  // Disable the step clip.
  return options;
}

kg::RescalOptions PoisonedRescalOptions() {
  kg::RescalOptions options;
  options.dimension = 4;
  options.epochs = 6;
  options.learning_rate = 1e6;  // Full-batch steps amplify geometrically.
  return options;
}

// ---------------------------------------------------------------------------
// Budget semantics.

TEST(BudgetTest, UnlimitedNeverExhausts) {
  Budget budget;
  EXPECT_FALSE(budget.limited());
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_TRUE(budget.Spend(1'000'000'000));
  EXPECT_TRUE(budget.Spend());
  EXPECT_FALSE(budget.Exhausted());
}

TEST(BudgetTest, WorkQuotaAdmitsExactlyItsUnits) {
  Budget budget = Budget::WorkUnits(3);
  EXPECT_TRUE(budget.limited());
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_TRUE(budget.Spend(1));
  EXPECT_TRUE(budget.Spend(1));
  EXPECT_TRUE(budget.Spend(1));
  EXPECT_FALSE(budget.Spend(1));  // The fourth unit crosses the quota.
  EXPECT_TRUE(budget.Exhausted());
}

TEST(BudgetTest, ZeroQuotaIsExhaustedFromTheStart) {
  Budget budget = Budget::WorkUnits(0);
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_FALSE(budget.Spend(1));
}

TEST(BudgetTest, ExhaustionLatches) {
  Budget budget = Budget::WorkUnits(2);
  EXPECT_TRUE(budget.Spend(2));
  EXPECT_FALSE(budget.Spend(1));
  // Latched: even a zero-cost probe and later spends keep failing.
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_FALSE(budget.Spend(0));
  EXPECT_FALSE(budget.Spend(1));
}

TEST(BudgetTest, ExpiredDeadlineIsExhaustedImmediately) {
  Budget budget = Budget::Deadline(0.0);
  EXPECT_TRUE(budget.Exhausted());
}

TEST(BudgetTest, GenerousDeadlineIsNotExhausted) {
  Budget budget = Budget::Deadline(3600.0);
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_TRUE(budget.Spend(1));
}

TEST(BudgetTest, ShortDeadlineTripsDuringWork) {
  Budget budget = Budget::Deadline(1e-3);
  // The wall clock is consulted every kClockCheckStride units, so a tight
  // spin must observe the deadline within a bounded number of spends.
  bool tripped = false;
  for (int64_t i = 0; i < 500'000'000 && !tripped; ++i) {
    tripped = !budget.Spend(1);
  }
  EXPECT_TRUE(tripped);
  EXPECT_TRUE(budget.Exhausted());
}

TEST(BudgetTest, DeadlinePassedReadsTheClockAtOnce) {
  // One unit read the clock; the next stride-based read is 1024 units
  // away, so only DeadlinePassed() sees the deadline go by.
  Budget budget = Budget::Deadline(0.02);
  EXPECT_TRUE(budget.Spend(1));
  Budget later = Budget::Deadline(0.02);  // Expires after `budget`.
  while (later.Spend(1)) {
  }
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_TRUE(budget.DeadlinePassed());
  EXPECT_NE(budget.ExhaustedError("unit test").message().find("deadline"),
            std::string::npos);
  // A spent quota is not a passed deadline.
  Budget quota = Budget::DeadlineAndWorkUnits(3600.0, 5);
  EXPECT_TRUE(quota.Spend(5));
  EXPECT_FALSE(quota.DeadlinePassed());
}

TEST(BudgetTest, WorkQuotaTripsBeforeGenerousDeadline) {
  Budget budget = Budget::DeadlineAndWorkUnits(3600.0, 2);
  EXPECT_TRUE(budget.Spend(2));
  EXPECT_FALSE(budget.Spend(1));
  const Status error = budget.ExhaustedError("unit test");
  EXPECT_EQ(error.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(error.message().find("unit test"), std::string::npos);
  EXPECT_NE(error.message().find("work"), std::string::npos);
}

TEST(BudgetTest, DeadlineErrorNamesTheDeadline) {
  Budget budget = Budget::Deadline(0.0);
  EXPECT_TRUE(budget.Exhausted());
  const Status error = budget.ExhaustedError("unit test");
  EXPECT_EQ(error.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(error.message().find("deadline"), std::string::npos);
}

TEST(BudgetTest, SpecMintsFreshBudgets) {
  BudgetSpec spec;
  Budget unlimited = spec.MakeBudget();
  EXPECT_FALSE(unlimited.limited());

  spec.work_units = 1;
  Budget first = spec.MakeBudget();
  Budget second = spec.MakeBudget();
  EXPECT_TRUE(first.Spend(1));
  EXPECT_FALSE(first.Spend(1));
  // Exhausting one minted budget must not touch its sibling.
  EXPECT_TRUE(second.Spend(1));
}

// ---------------------------------------------------------------------------
// Zero-budget exhaustion: every budgeted entry point must return
// kResourceExhausted promptly on an already-empty budget — never crash,
// CHECK-fail or hang. (The whole test runs in milliseconds even though the
// unbudgeted work would be exponential.)

template <typename T>
void ExpectExhausted(const StatusOr<T>& result) {
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

template <typename T>
void ExpectInvalidArgument(const StatusOr<T>& result) {
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ZeroBudgetTest, BruteForceHomCounting) {
  const graph::Graph f = graph::Graph::Cycle(4);
  const graph::Graph g = graph::Graph::Complete(5);
  Budget b1 = Budget::WorkUnits(0);
  ExpectExhausted(hom::CountHomomorphismsBruteForceBudgeted(f, g, b1));
  Budget b2 = Budget::WorkUnits(0);
  ExpectExhausted(hom::CountRootedHomomorphismsBruteForceBudgeted(f, 0, g, 0, b2));
  Budget b3 = Budget::WorkUnits(0);
  ExpectExhausted(hom::WeightedHomomorphismBruteForceBudgeted(f, g, b3));
  Budget b4 = Budget::WorkUnits(0);
  ExpectExhausted(hom::CountEmbeddingsBruteForceBudgeted(f, g, b4));
  Budget b5 = Budget::WorkUnits(0);
  ExpectExhausted(hom::CountEpimorphismsBruteForceBudgeted(f, g, b5));

  // An out-of-range root of F or target in G is caller input: a typed
  // status, never an abort, whatever the budget.
  const std::pair<int, int> bad_pins[] = {{-1, 0}, {4, 0}, {0, -1}, {0, 5}};
  for (const auto& [root, target] : bad_pins) {
    for (const int64_t units : {int64_t{0}, int64_t{1'000'000}}) {
      Budget budget = Budget::WorkUnits(units);
      const auto result = hom::CountRootedHomomorphismsBruteForceBudgeted(
          f, root, g, target, budget);
      ASSERT_FALSE(result.ok()) << root << " -> " << target;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << root << " -> " << target;
    }
  }

  // So is an F and a G that differ in directedness: an undirected edge has
  // no defined image among arcs, and the count came out by search order
  // (hom(P3, 0->1->2) = 2 but hom(0->1->2, P3) = 6).
  graph::Graph arcs(3, /*directed=*/true);
  arcs.AddEdge(0, 1);
  arcs.AddEdge(1, 2);
  const graph::Graph path = graph::Graph::Path(3);
  const std::pair<const graph::Graph*, const graph::Graph*> mixed[] = {
      {&path, &arcs}, {&arcs, &path}};
  for (const auto& [pattern, host] : mixed) {
    for (const int64_t units : {int64_t{0}, int64_t{1'000'000}}) {
      SCOPED_TRACE(testing::Message() << (pattern->directed() ? "F" : "G")
                                      << " directed, " << units << " units");
      Budget c1 = Budget::WorkUnits(units);
      ExpectInvalidArgument(
          hom::CountHomomorphismsBruteForceBudgeted(*pattern, *host, c1));
      Budget c2 = Budget::WorkUnits(units);
      ExpectInvalidArgument(hom::CountRootedHomomorphismsBruteForceBudgeted(
          *pattern, 0, *host, 0, c2));
      Budget c3 = Budget::WorkUnits(units);
      ExpectInvalidArgument(
          hom::WeightedHomomorphismBruteForceBudgeted(*pattern, *host, c3));
      Budget c4 = Budget::WorkUnits(units);
      ExpectInvalidArgument(
          hom::CountEmbeddingsBruteForceBudgeted(*pattern, *host, c4));
      Budget c5 = Budget::WorkUnits(units);
      ExpectInvalidArgument(
          hom::CountEpimorphismsBruteForceBudgeted(*pattern, *host, c5));
    }
  }
}

TEST(ZeroBudgetTest, IsomorphismSearch) {
  const graph::Graph g = graph::Graph::Cycle(6);
  const graph::Graph h = graph::Graph::Cycle(6);
  Budget b1 = Budget::WorkUnits(0);
  ExpectExhausted(graph::AreIsomorphicBudgeted(g, h, b1));
  Budget b2 = Budget::WorkUnits(0);
  ExpectExhausted(graph::CountIsomorphismsBudgeted(g, h, b2));
  Budget b3 = Budget::WorkUnits(0);
  ExpectExhausted(graph::CountAutomorphismsBudgeted(g, b3));
}

TEST(ZeroBudgetTest, KWeisfeilerLeman) {
  const graph::Graph g = graph::Graph::Cycle(6);
  const graph::Graph h = graph::Graph::Path(6);
  Budget budget = Budget::WorkUnits(0);
  ExpectExhausted(wl::KwlCompareBudgeted(g, h, 2, budget));

  // Caller input ends in a typed status, never an abort. k < 1:
  for (const int k : {0, -1}) {
    Budget unlimited;
    const auto result = wl::KwlCompareBudgeted(g, h, k, unlimited);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  // Tuple counts past the pass's 2^31 - 1 entries a round (3000^3) and
  // past int64 (3000^6), built from isolated vertices:
  const graph::Graph isolated(3000);
  for (const int k : {3, 6}) {
    Budget unlimited;
    const auto result = wl::KwlCompareBudgeted(isolated, isolated, k, unlimited);
    ASSERT_FALSE(result.ok()) << k;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << k;
  }
  // A budget too small for round 0 stops the run before its tuples are
  // allocated: the 2 * 100^3 tuples' rows would take 1.2e9 ints (4.8 GB).
  const graph::Graph hundred(100);
  Budget tiny = Budget::WorkUnits(10);
  ExpectExhausted(wl::KwlCompareBudgeted(hundred, hundred, 3, tiny));
}

TEST(ZeroBudgetTest, TreewidthAndElimination) {
  const graph::Graph f = graph::Graph::Cycle(5);
  const graph::Graph g = graph::Graph::Complete(6);
  Budget b1 = Budget::WorkUnits(0);
  ExpectExhausted(hom::ExactTreewidthBudgeted(f, nullptr, b1));
  Budget b2 = Budget::WorkUnits(0);
  ExpectExhausted(hom::CountHomsBudgeted(f, g, b2));
  Budget b3 = Budget::WorkUnits(0);
  ExpectExhausted(hom::CountHomsDoubleBudgeted(f, g, b3));
  Budget b4 = Budget::WorkUnits(0);
  ExpectExhausted(hom::CountHomsViaEliminationBudgeted(
      f, g, hom::MinFillEliminationOrder(f), b4));

  // Input they cannot handle is a typed status at any budget, never an
  // abort: a directed F or G, an order that is not a permutation of V(F),
  // and a pattern past the exact search's 10 vertices.
  graph::Graph arcs(5, /*directed=*/true);
  for (int v = 0; v < 5; ++v) arcs.AddEdge(v, (v + 1) % 5);
  const std::pair<const graph::Graph*, const graph::Graph*> directed[] = {
      {&arcs, &g}, {&f, &arcs}};
  const std::vector<int> bad_orders[] = {
      {0, 1, 2, 3}, {0, 1, 2, 3, 3}, {0, 1, 2, 3, 5}, {-1, 0, 1, 2, 3}};
  for (const int64_t units : {int64_t{0}, int64_t{1'000'000}}) {
    SCOPED_TRACE(testing::Message() << units << " units");
    for (const auto& [pattern, host] : directed) {
      Budget c1 = Budget::WorkUnits(units);
      ExpectInvalidArgument(hom::CountHomsBudgeted(*pattern, *host, c1));
      Budget c2 = Budget::WorkUnits(units);
      ExpectInvalidArgument(hom::CountHomsDoubleBudgeted(*pattern, *host, c2));
      Budget c3 = Budget::WorkUnits(units);
      ExpectInvalidArgument(hom::CountHomsViaEliminationBudgeted(
          *pattern, *host, {0, 1, 2, 3, 4}, c3));
    }
    for (const std::vector<int>& order : bad_orders) {
      Budget budget = Budget::WorkUnits(units);
      ExpectInvalidArgument(
          hom::CountHomsViaEliminationBudgeted(f, g, order, budget));
    }
    Budget c4 = Budget::WorkUnits(units);
    ExpectInvalidArgument(
        hom::ExactTreewidthBudgeted(graph::Graph::Cycle(11), nullptr, c4));
  }
}

TEST(ZeroBudgetTest, AllFourTrainers) {
  Rng rng = MakeRng(1);
  Budget b1 = Budget::WorkUnits(0);
  ExpectExhausted(
      TrainSgnsOnCorpus(SmallCorpus(), embed::SgnsOptions{}, rng, b1));
  Budget b2 = Budget::WorkUnits(0);
  ExpectExhausted(TrainPvDbowOnDocuments({{0, 1, 2}, {2, 3}}, 4,
                                         embed::SgnsOptions{}, rng, b2));
  Budget b3 = Budget::WorkUnits(0);
  ExpectExhausted(kg::TrainTransEBudgeted(SmallKg(), kg::TransEOptions{}, rng, b3));
  Budget b4 = Budget::WorkUnits(0);
  ExpectExhausted(kg::TrainRescalBudgeted(SmallKg(), kg::RescalOptions{}, rng, b4));
}

TEST(ZeroBudgetTest, EmbeddingPipelines) {
  const graph::Graph g = graph::Graph::Cycle(8);
  Rng rng = MakeRng(2);
  Budget b1 = Budget::WorkUnits(0);
  ExpectExhausted(embed::Graph2VecEmbeddingBudgeted(
      {g, graph::Graph::Path(8)}, embed::Graph2VecOptions{}, rng, b1));
  Budget b2 = Budget::WorkUnits(0);
  ExpectExhausted(embed::DeepWalkEmbeddingBudgeted(
      graph::GraphView(g), embed::Node2VecOptions{}, rng, b2));
  Budget b3 = Budget::WorkUnits(0);
  ExpectExhausted(embed::Node2VecEmbeddingBudgeted(
      graph::GraphView(g), embed::Node2VecOptions{}, rng, b3));
}

// ---------------------------------------------------------------------------
// Mid-flight exhaustion: a small but non-zero budget must stop the search
// cooperatively, and a deadline must bound a genuinely exponential call.

TEST(PartialBudgetTest, TinyQuotaStopsBruteForceMidSearch) {
  // hom(C4, K7) needs thousands of candidate extensions; 10 will not do.
  const graph::Graph f = graph::Graph::Cycle(4);
  const graph::Graph g = graph::Graph::Complete(7);
  Budget budget = Budget::WorkUnits(10);
  ExpectExhausted(hom::CountHomomorphismsBruteForceBudgeted(f, g, budget));
}

TEST(PartialBudgetTest, InconclusiveIsomorphismSearchIsAnError) {
  // C8 vs two disjoint C4s: same degree sequence, so the pre-checks pass
  // and the backtracking search runs — and is cut off almost immediately.
  const graph::Graph g = graph::Graph::Cycle(8);
  const graph::Graph h = graph::Graph::Circulant(8, {2});
  ASSERT_FALSE(graph::AreIsomorphic(g, h));
  Budget budget = Budget::WorkUnits(2);
  ExpectExhausted(graph::AreIsomorphicBudgeted(g, h, budget));
}

TEST(PartialBudgetTest, DeadlineBoundsBruteForceHomCounting) {
  // hom(C7, K13) enumerates ~13 * 12^6 proper maps — seconds of work; the
  // backtracking search must notice the 50ms deadline and bail out.
  const graph::Graph f = graph::Graph::Cycle(7);
  const graph::Graph g = graph::Graph::Complete(13);
  Budget budget = Budget::Deadline(0.05);
  ExpectExhausted(hom::CountHomomorphismsBruteForceBudgeted(f, g, budget));
}

TEST(PartialBudgetTest, DeadlineStopsKwlInsideARound) {
  // A random 36-vertex graph against itself at k = 3: round 1 builds and
  // ranks the rows of 2 * 36^3 tuples (20M ints), most of a second of
  // work. The pass reads the deadline before every chunk of a round, so a
  // 50 ms deadline ends the run well inside round 1.
  Rng rng = MakeRng(5);
  const graph::Graph g = graph::ErdosRenyiGnp(36, 0.5, rng);
  const std::vector<graph::Graph> both = {g, g};
  const trace::StopWatch unbudgeted;
  Budget unlimited;
  ASSERT_TRUE(wl::KwlRefineDataset(both, 3, /*max_rounds=*/1, unlimited).ok());
  const double rounds_0_and_1 = unbudgeted.Seconds();
  const trace::StopWatch budgeted;
  Budget budget = Budget::Deadline(0.05);
  ExpectExhausted(wl::KwlCompareBudgeted(g, g, 3, budget));
  EXPECT_LT(budgeted.Seconds(), rounds_0_and_1 / 2);
}

TEST(PartialBudgetTest, MethodSuiteHonoursADeadline) {
  // 40 G(48, 96) graphs under a 0.2 s deadline. While the kernels charged
  // one unit per graph up front and then ran unbounded, the random-walk
  // kernel took 15 s, the 2-WL kernel 0.8 s and hom-20 0.5 s (Release, 4
  // threads). Every method now reads the deadline while it works; the
  // slowest, hom-20, stops once each thread finishes its current hom
  // vector: at most 0.33 s in Release, 0.39 s under ASan and 1.33 s under
  // TSan.
  constexpr double kBound = 2.0;
  Rng rng = MakeRng(77);
  std::vector<graph::Graph> graphs;
  for (int i = 0; i < 40; ++i) {
    graphs.push_back(graph::ErdosRenyiGnm(48, 96, rng));
  }
  BudgetSpec spec;
  spec.deadline_seconds = 0.2;
  for (const core::GraphKernelMethod& method : api::DefaultMethodSuite()) {
    const trace::StopWatch watch;
    const std::vector<core::MethodOutcome> outcomes =
        core::RunMethodSuite({method}, graphs, /*seed=*/7, spec);
    const double seconds = watch.Seconds();
    ASSERT_EQ(outcomes.size(), 1u);
    const StatusCode code = outcomes[0].status.code();
    EXPECT_TRUE(code == StatusCode::kOk ||
                code == StatusCode::kResourceExhausted)
        << method.name << ": " << outcomes[0].status.ToString();
    EXPECT_LT(seconds, kBound) << method.name;
  }
}

TEST(PartialBudgetTest, DeadlineStopsAKernelInsideItsPasses) {
  // The per-graph pass reads the deadline before each graph and the Gram
  // fill before each chunk of entries, so a deadline that passes while the
  // threads work on their first hom vectors (of 4 ThreadCount() graphs) or
  // their first chunks (of 5050 random-walk entries, 64 chunks) stops the
  // pass well before its end.
  Rng rng = MakeRng(78);
  std::vector<graph::Graph> hom_graphs;
  for (int i = 0; i < 4 * ThreadCount(); ++i) {
    hom_graphs.push_back(graph::ErdosRenyiGnm(32, 64, rng));
  }
  std::vector<graph::Graph> walk_graphs;
  for (int i = 0; i < 100; ++i) {
    walk_graphs.push_back(graph::ErdosRenyiGnm(20, 40, rng));
  }
  const std::vector<hom::Pattern> family = hom::DefaultPatternFamily(20);
  const auto hom_kernel = [&](Budget& budget) {
    return kernel::HomVectorKernelMatrix(hom_graphs, family, budget);
  };
  const auto walk_kernel = [&](Budget& budget) {
    return kernel::RandomWalkKernelMatrix(walk_graphs, 0.1, 30, budget);
  };
  for (const auto& gram :
       {std::function<StatusOr<linalg::Matrix>(Budget&)>(hom_kernel),
        std::function<StatusOr<linalg::Matrix>(Budget&)>(walk_kernel)}) {
    const trace::StopWatch unbudgeted;
    Budget unlimited;
    ASSERT_TRUE(gram(unlimited).ok());
    const double whole = unbudgeted.Seconds();
    const trace::StopWatch budgeted;
    Budget budget = Budget::Deadline(0.01);
    ExpectExhausted(gram(budget));
    EXPECT_LT(budgeted.Seconds(), whole / 2);
  }
}

TEST(PartialBudgetTest, TinyQuotaStopsExactTreewidth) {
  const graph::Graph g = graph::Graph::Grid(3, 3);
  Budget budget = Budget::WorkUnits(2);
  ExpectExhausted(hom::ExactTreewidthBudgeted(g, nullptr, budget));
}

TEST(PartialBudgetTest, TrainerStopsMidEpoch) {
  Rng rng = MakeRng(3);
  Budget budget = Budget::WorkUnits(5);  // A handful of pairs, then stop.
  ExpectExhausted(
      TrainSgnsOnCorpus(SmallCorpus(), embed::SgnsOptions{}, rng, budget));
  EXPECT_EQ(budget.work_spent(), 6);  // 5 admitted + the failing 6th probe.
}

// ---------------------------------------------------------------------------
// Unlimited-budget equivalence: a generous finite budget must not perturb
// results — budget probes sit outside all arithmetic and RNG draws.

TEST(BudgetEquivalenceTest, BruteForceMatchesPlain) {
  const graph::Graph f = graph::Graph::Cycle(4);
  const graph::Graph g = graph::Graph::Complete(5);
  Budget budget = Budget::WorkUnits(1'000'000'000);
  const auto counted = hom::CountHomomorphismsBruteForceBudgeted(f, g, budget);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(*counted, hom::CountHomomorphismsBruteForce(f, g));
  EXPECT_GT(budget.work_spent(), 0);
}

TEST(BudgetAccountingTest, KwlChargesEveryTupleOfBothGraphsPerRound) {
  // C6 vs C6 at k = 2: rounds 0, 1 and 2 (stable), 2 * 6^2 tuples each.
  const graph::Graph c6 = graph::Graph::Cycle(6);
  Budget budget = Budget::WorkUnits(1'000'000);
  ASSERT_TRUE(wl::KwlCompareBudgeted(c6, c6, 2, budget).ok());
  EXPECT_EQ(budget.work_spent(), 3 * 72);
  // A quota of exactly that admits the run; one unit less does not.
  Budget exact = Budget::WorkUnits(3 * 72);
  EXPECT_TRUE(wl::KwlCompareBudgeted(c6, c6, 2, exact).ok());
  Budget short_by_one = Budget::WorkUnits(3 * 72 - 1);
  ExpectExhausted(wl::KwlCompareBudgeted(c6, c6, 2, short_by_one));
}

TEST(BudgetEquivalenceTest, KwlMatchesPlain) {
  const graph::Graph g = graph::Graph::Cycle(6);
  const graph::Graph h =
      graph::Graph::FromEdges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  Budget budget = Budget::WorkUnits(1'000'000'000);
  const auto result = wl::KwlCompareBudgeted(g, h, 2, budget);
  ASSERT_TRUE(result.ok());
  const wl::KwlResult plain = wl::KwlCompare(g, h, 2);
  EXPECT_EQ(result->distinguishes, plain.distinguishes);
  EXPECT_EQ(result->distinguishing_round, plain.distinguishing_round);
  EXPECT_EQ(result->rounds_to_stable, plain.rounds_to_stable);
  EXPECT_EQ(result->num_colors, plain.num_colors);
}

TEST(BudgetEquivalenceTest, SgnsBitIdenticalUnderGenerousBudget) {
  const embed::Corpus corpus = SmallCorpus();
  embed::SgnsOptions options;
  options.dimension = 8;
  options.epochs = 2;
  Rng plain_rng = MakeRng(11);
  Budget unlimited;
  const auto plain = TrainSgnsOnCorpus(corpus, options, plain_rng, unlimited);
  ASSERT_TRUE(plain.ok());
  Rng budgeted_rng = MakeRng(11);
  Budget budget = Budget::WorkUnits(1'000'000'000);
  const auto budgeted =
      TrainSgnsOnCorpus(corpus, options, budgeted_rng, budget);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_EQ(budgeted->input, plain->input);
  EXPECT_EQ(budgeted->output, plain->output);
}

TEST(BudgetEquivalenceTest, TransEBitIdenticalUnderGenerousBudget) {
  const kg::KnowledgeGraph kg = SmallKg();
  kg::TransEOptions options;
  options.dimension = 8;
  options.epochs = 20;
  Rng plain_rng = MakeRng(12);
  Budget unlimited;
  const auto plain = kg::TrainTransEBudgeted(kg, options, plain_rng, unlimited);
  ASSERT_TRUE(plain.ok());
  Rng budgeted_rng = MakeRng(12);
  Budget budget = Budget::WorkUnits(1'000'000'000);
  const auto budgeted = kg::TrainTransEBudgeted(kg, options, budgeted_rng, budget);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_EQ(budgeted->entities, plain->entities);
  EXPECT_EQ(budgeted->relations, plain->relations);
}

TEST(BudgetEquivalenceTest, RescalBitIdenticalUnderGenerousBudget) {
  const kg::KnowledgeGraph kg = SmallKg();
  kg::RescalOptions options;
  options.dimension = 4;
  options.epochs = 30;
  Rng plain_rng = MakeRng(13);
  Budget unlimited;
  const auto plain = kg::TrainRescalBudgeted(kg, options, plain_rng, unlimited);
  ASSERT_TRUE(plain.ok());
  Rng budgeted_rng = MakeRng(13);
  Budget budget = Budget::WorkUnits(1'000'000'000);
  const auto budgeted = kg::TrainRescalBudgeted(kg, options, budgeted_rng, budget);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_EQ(budgeted->entities, plain->entities);
  ASSERT_EQ(budgeted->relations.size(), plain->relations.size());
  for (size_t r = 0; r < plain->relations.size(); ++r) {
    EXPECT_EQ(budgeted->relations[r], plain->relations[r]);
  }
}

// ---------------------------------------------------------------------------
// Self-healing: poisoned options force deterministic divergence. With
// aggressive learning-rate back-off recovery must heal the run; with
// back-off disabled the trainer must give up with kInternal. The healed
// models are pinned, so the order of backoff, reseed and retry is too, and
// each run heals in exactly one retry, counted by the shared epoch loop.

TEST(RecoveryTest, SgnsHealsForcedDivergence) {
  embed::SgnsOptions options = PoisonedSgnsOptions();
  options.recovery.lr_backoff = 1e-14;  // One retry lands at a sane rate.
  Rng rng = MakeRng(21);
  const metrics::Snapshot before = metrics::GlobalSnapshot();
  Budget unlimited;
  const auto model = TrainSgnsOnCorpus(SmallCorpus(), options, rng, unlimited);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(metrics::Delta(before, metrics::GlobalSnapshot())
                .counter("train.recovery_retries"),
            1);
  EXPECT_TRUE(model->input.AllFinite());
  EXPECT_TRUE(model->output.AllFinite());
  EXPECT_LE(model->input.MaxAbs(), options.recovery.max_abs);
  ExpectGolden("recovery/sgns", Digest(model->input, model->output));
}

TEST(RecoveryTest, SgnsGivesUpAfterMaxRetries) {
  embed::SgnsOptions options = PoisonedSgnsOptions();
  options.recovery.lr_backoff = 1.0;  // Never back off: every retry diverges.
  options.recovery.clip_backoff = 1.0;
  options.recovery.max_retries = 2;
  Rng rng = MakeRng(22);
  Budget unlimited;
  const auto model = TrainSgnsOnCorpus(SmallCorpus(), options, rng, unlimited);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInternal);
  EXPECT_NE(model.status().message().find("exhausted 2 recovery retries"),
            std::string::npos);
}

TEST(RecoveryTest, PvDbowHealsForcedDivergence) {
  embed::SgnsOptions options = PoisonedSgnsOptions();
  options.recovery.lr_backoff = 1e-14;
  const std::vector<std::vector<int>> documents = {
      {0, 1, 2, 0}, {1, 2, 3}, {3, 0, 2, 1}};
  Rng rng = MakeRng(23);
  const metrics::Snapshot before = metrics::GlobalSnapshot();
  Budget unlimited;
  const auto model = TrainPvDbowOnDocuments(documents, 4, options, rng, unlimited);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(metrics::Delta(before, metrics::GlobalSnapshot())
                .counter("train.recovery_retries"),
            1);
  EXPECT_TRUE(model->input.AllFinite());
  EXPECT_TRUE(model->output.AllFinite());
  ExpectGolden("recovery/pvdbow", Digest(model->input, model->output));
}

TEST(RecoveryTest, PvDbowGivesUpAfterMaxRetries) {
  embed::SgnsOptions options = PoisonedSgnsOptions();
  options.recovery.lr_backoff = 1.0;
  options.recovery.clip_backoff = 1.0;
  options.recovery.max_retries = 1;
  Rng rng = MakeRng(24);
  Budget unlimited;
  const auto model =
      TrainPvDbowOnDocuments({{0, 1, 2}, {2, 3, 0}}, 4, options, rng, unlimited);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInternal);
}

TEST(RecoveryTest, TransEHealsForcedDivergence) {
  kg::TransEOptions options = PoisonedTransEOptions();
  options.recovery.lr_backoff = 1e-12;
  Rng rng = MakeRng(25);
  const metrics::Snapshot before = metrics::GlobalSnapshot();
  Budget unlimited;
  const auto model = kg::TrainTransEBudgeted(SmallKg(), options, rng, unlimited);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(metrics::Delta(before, metrics::GlobalSnapshot())
                .counter("train.recovery_retries"),
            1);
  EXPECT_TRUE(model->entities.AllFinite());
  EXPECT_TRUE(model->relations.AllFinite());
  // Entities are renormalised on exit, so they must be on the unit sphere.
  for (int e = 0; e < model->entities.rows(); ++e) {
    double norm = 0.0;
    for (int d = 0; d < model->entities.cols(); ++d) {
      norm += model->entities(e, d) * model->entities(e, d);
    }
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-9);
  }
  ExpectGolden("recovery/transe", Digest(model->entities, model->relations));
}

TEST(RecoveryTest, TransEGivesUpAfterMaxRetries) {
  kg::TransEOptions options = PoisonedTransEOptions();
  options.recovery.lr_backoff = 1.0;
  options.recovery.clip_backoff = 1.0;
  options.recovery.max_retries = 2;
  Rng rng = MakeRng(26);
  Budget unlimited;
  const auto model = kg::TrainTransEBudgeted(SmallKg(), options, rng, unlimited);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInternal);
  EXPECT_NE(model.status().message().find("TransE"), std::string::npos);
}

TEST(RecoveryTest, RescalHealsForcedDivergence) {
  kg::RescalOptions options = PoisonedRescalOptions();
  options.recovery.lr_backoff = 1e-9;
  Rng rng = MakeRng(27);
  const metrics::Snapshot before = metrics::GlobalSnapshot();
  Budget unlimited;
  const auto model = kg::TrainRescalBudgeted(SmallKg(), options, rng, unlimited);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(metrics::Delta(before, metrics::GlobalSnapshot())
                .counter("train.recovery_retries"),
            1);
  EXPECT_TRUE(model->entities.AllFinite());
  for (const linalg::Matrix& relation : model->relations) {
    EXPECT_TRUE(relation.AllFinite());
  }
  ExpectGolden("recovery/rescal", Digest(model->entities, model->relations));
}

TEST(RecoveryTest, RescalGivesUpAfterMaxRetries) {
  kg::RescalOptions options = PoisonedRescalOptions();
  options.recovery.lr_backoff = 1.0;
  options.recovery.max_retries = 2;
  Rng rng = MakeRng(28);
  Budget unlimited;
  const auto model = kg::TrainRescalBudgeted(SmallKg(), options, rng, unlimited);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInternal);
  EXPECT_NE(model.status().message().find("RESCAL"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trainer option validation (shared ValidateOptions helper).

TEST(OptionValidationTest, TrainersRejectBadOptions) {
  Rng rng = MakeRng(31);
  Budget unlimited;

  embed::SgnsOptions sgns;
  sgns.learning_rate = -1.0;
  const auto sgns_result =
      TrainSgnsOnCorpus(SmallCorpus(), sgns, rng, unlimited);
  ASSERT_FALSE(sgns_result.ok());
  EXPECT_EQ(sgns_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sgns_result.status().message().find("learning_rate"),
            std::string::npos);

  kg::TransEOptions transe;
  transe.margin = -0.5;
  const auto transe_result =
      kg::TrainTransEBudgeted(SmallKg(), transe, rng, unlimited);
  ASSERT_FALSE(transe_result.ok());
  EXPECT_EQ(transe_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(transe_result.status().message().find("margin"), std::string::npos);

  kg::RescalOptions rescal;
  rescal.dimension = 0;
  const auto rescal_result =
      kg::TrainRescalBudgeted(SmallKg(), rescal, rng, unlimited);
  ASSERT_FALSE(rescal_result.ok());
  EXPECT_EQ(rescal_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rescal_result.status().message().find("dimension"),
            std::string::npos);
}

TEST(OptionValidationTest, TrainersRejectDegenerateInputs) {
  Rng rng = MakeRng(32);
  Budget unlimited;

  const auto empty_corpus = TrainSgnsOnCorpus(
      embed::Corpus{}, embed::SgnsOptions{}, rng, unlimited);
  ASSERT_FALSE(empty_corpus.ok());
  EXPECT_EQ(empty_corpus.status().code(), StatusCode::kInvalidArgument);

  kg::KnowledgeGraph lonely;
  lonely.AddEntity("only");
  const auto one_entity =
      kg::TrainTransEBudgeted(lonely, kg::TransEOptions{}, rng, unlimited);
  ASSERT_FALSE(one_entity.ok());
  EXPECT_EQ(one_entity.status().code(), StatusCode::kInvalidArgument);

  const auto no_graphs = embed::Graph2VecEmbeddingBudgeted(
      {}, embed::Graph2VecOptions{}, rng, unlimited);
  ASSERT_FALSE(no_graphs.ok());
  EXPECT_EQ(no_graphs.status().code(), StatusCode::kInvalidArgument);

  // A dataset mixing directed and undirected graphs has no joint WL
  // colouring; both graph2vec schedules reject it before doing any work,
  // so even a zero budget (which refuses all work) yields kInvalidArgument.
  graph::Graph arrow(3, /*directed=*/true);
  arrow.AddEdge(0, 1);
  arrow.AddEdge(1, 2);
  const std::vector<graph::Graph> mixed = {graph::Graph::Path(4), arrow};
  Budget none = Budget::WorkUnits(0);
  const auto mixed_sequential = embed::Graph2VecEmbeddingBudgeted(
      mixed, embed::Graph2VecOptions{}, rng, none);
  const auto mixed_sharded = embed::Graph2VecEmbeddingParallel(
      mixed, embed::Graph2VecOptions{}, 32, none);
  for (const auto* result : {&mixed_sequential, &mixed_sharded}) {
    ASSERT_FALSE(result->ok());
    EXPECT_EQ(result->status().code(), StatusCode::kInvalidArgument)
        << result->status().ToString();
  }
}

TEST(OptionValidationTest, WalkEmbeddersRejectBadWalkOptionsOnBothSchedules) {
  // Bad walk options are a typed error before any walk is generated, not a
  // CHECK abort inside the walk generator.
  const graph::Graph g = graph::Graph::Cycle(6);
  const graph::GraphView view(g);
  const auto expect_invalid = [&](const embed::Node2VecOptions& options,
                                  bool node2vec, const char* field) {
    Rng rng = MakeRng(33);
    Budget unlimited;
    const auto sequential =
        node2vec
            ? embed::Node2VecEmbeddingBudgeted(view, options, rng, unlimited)
            : embed::DeepWalkEmbeddingBudgeted(view, options, rng, unlimited);
    const auto sharded =
        node2vec
            ? embed::Node2VecEmbeddingStreaming(view, options, 33, unlimited)
            : embed::DeepWalkEmbeddingStreaming(view, options, 33, unlimited);
    for (const StatusOr<linalg::Matrix>* result : {&sequential, &sharded}) {
      ASSERT_FALSE(result->ok()) << field;
      EXPECT_EQ(result->status().code(), StatusCode::kInvalidArgument) << field;
      EXPECT_NE(result->status().message().find(field), std::string::npos)
          << result->status().ToString();
    }
  };
  for (const bool node2vec : {false, true}) {
    embed::Node2VecOptions options;
    options.walks.walk_length = 0;
    expect_invalid(options, node2vec, "walk_length");
    options = embed::Node2VecOptions{};
    options.walks.walks_per_node = -1;
    expect_invalid(options, node2vec, "walks_per_node");
  }
  // DeepWalk ignores p and q; node2vec requires both positive and finite.
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    embed::Node2VecOptions options;
    options.walks.p = bad;
    expect_invalid(options, /*node2vec=*/true, "p ");
    options = embed::Node2VecOptions{};
    options.walks.q = bad;
    expect_invalid(options, /*node2vec=*/true, "q ");
  }
}

// ---------------------------------------------------------------------------
// Sources that do not replay their counted stream: the trainers size the
// model from the counting pass, so a later pass with a token beyond it or
// an extra document must end in kInvalidArgument, never an out-of-bounds
// row access.

// Yields `first` on the counting pass and `later` on every pass after it.
class DriftingSource final : public embed::SentenceSource {
 public:
  DriftingSource(std::vector<std::vector<int>> first,
                 std::vector<std::vector<int>> later)
      : first_(std::move(first)), later_(std::move(later)) {}

  void Reset() override {
    ++passes_;
    next_ = 0;
  }
  bool Next(std::vector<int>& sentence) override {
    const std::vector<std::vector<int>>& pass = passes_ <= 1 ? first_ : later_;
    if (next_ >= pass.size()) return false;
    sentence = pass[next_++];
    return true;
  }

 private:
  std::vector<std::vector<int>> first_;
  std::vector<std::vector<int>> later_;
  int passes_ = 0;
  size_t next_ = 0;
};

embed::SgnsOptions DriftOptions() {
  embed::SgnsOptions options;
  options.dimension = 4;
  options.window = 2;
  options.negatives = 1;
  options.epochs = 1;
  return options;
}

void ExpectDriftRejected(const StatusOr<embed::SgnsModel>& result) {
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
}

// Both skip-gram trainers, fed the caller's count of `first`.
void ExpectSkipGramRejects(const std::vector<std::vector<int>>& first,
                           const std::vector<std::vector<int>>& later) {
  const embed::SgnsOptions options = DriftOptions();
  const std::vector<double> noise = {1.0, 1.0};
  {
    DriftingSource source(first, later);
    const embed::StreamStats stats =
        embed::CountStream(source, options.window, /*skipgram_window=*/true, 2);
    Rng rng = MakeRng(1);
    Budget unlimited;
    ExpectDriftRejected(embed::TrainSgnsStreaming(source, stats, noise,
                                                  options, rng, unlimited));
  }
  DriftingSource source(first, later);
  const embed::StreamStats stats =
      embed::CountStream(source, options.window, /*skipgram_window=*/true, 2);
  Budget unlimited;
  ExpectDriftRejected(embed::TrainSgnsShardedStreaming(
      source, stats, noise, options, /*seed=*/1, unlimited));
}

// Both PV-DBOW trainers, which count the stream themselves.
void ExpectPvDbowRejects(const std::vector<std::vector<int>>& first,
                         const std::vector<std::vector<int>>& later) {
  {
    DriftingSource source(first, later);
    Rng rng = MakeRng(1);
    Budget unlimited;
    ExpectDriftRejected(embed::TrainPvDbowStreaming(
        source, /*vocab_size=*/2, DriftOptions(), rng, unlimited));
  }
  DriftingSource source(first, later);
  Budget unlimited;
  ExpectDriftRejected(embed::TrainPvDbowShardedStreaming(
      source, /*vocab_size=*/2, DriftOptions(), /*seed=*/1, unlimited));
}

TEST(DriftingSourceTest, AllFourTrainersRejectATokenBeyondTheModel) {
  ExpectSkipGramRejects({{0, 1, 0, 1}}, {{0, 1, 5000, 1}});
  ExpectPvDbowRejects({{0, 1, 0, 1}}, {{0, 1, 5000, 1}});
  ExpectSkipGramRejects({{0, 1, 0, 1}}, {{0, 1, -3, 1}});
  ExpectPvDbowRejects({{0, 1, 0, 1}}, {{0, 1, -3, 1}});
}

TEST(DriftingSourceTest, AllFourTrainersRejectMoreSentencesThanCounted) {
  // PV-DBOW indexes its input rows by document: an extra document on a
  // later pass would train a row the model does not have.
  ExpectSkipGramRejects({{0, 1}}, {{0, 1}, {1, 0}});
  ExpectPvDbowRejects({{0, 1}}, {{0, 1}, {1, 0}});
}

// ---------------------------------------------------------------------------
// Fault-injecting Rng: degenerate bit streams must never break invariants
// of the randomised primitives or the trainers.

TEST(FaultInjectionTest, AliasTableStaysInRangeOnDegenerateBits) {
  const AliasTable table({1.0, 2.0, 3.0, 4.0});
  FaultInjectingRng rng(/*seed=*/41, /*healthy_draws=*/5);
  for (int i = 0; i < 1000; ++i) {
    const int sample = table.Sample(rng);
    ASSERT_GE(sample, 0);
    ASSERT_LT(sample, 4);
  }
  EXPECT_GT(rng.draws(), 5);  // The scripted regime was actually exercised.
}

TEST(FaultInjectionTest, RandomPermutationStaysValidOnDegenerateBits) {
  FaultInjectingRng rng(/*seed=*/42, /*healthy_draws=*/0);
  const std::vector<int> perm = RandomPermutation(10, rng);
  std::vector<bool> seen(10, false);
  for (int v : perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 10);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(FaultInjectionTest, SgnsStaysFiniteOnDegenerateBits) {
  embed::SgnsOptions options;
  options.dimension = 8;
  options.epochs = 2;
  FaultInjectingRng rng(/*seed=*/43, /*healthy_draws=*/100);
  Budget unlimited;
  const auto model =
      TrainSgnsOnCorpus(SmallCorpus(), options, rng, unlimited);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_TRUE(model->input.AllFinite());
  EXPECT_TRUE(model->output.AllFinite());
}

TEST(FaultInjectionTest, TransEStaysFiniteOnDegenerateBits) {
  kg::TransEOptions options;
  options.dimension = 8;
  options.epochs = 10;
  FaultInjectingRng rng(/*seed=*/44, /*healthy_draws=*/50);
  Budget unlimited;
  const auto model = kg::TrainTransEBudgeted(SmallKg(), options, rng, unlimited);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_TRUE(model->entities.AllFinite());
  EXPECT_TRUE(model->relations.AllFinite());
}

}  // namespace
}  // namespace x2vec
