#include <cmath>
#include <vector>

#include "base/budget.h"
#include "base/rng.h"
#include "base/status.h"
#include "kg/datasets.h"
#include "gtest/gtest.h"
#include "kg/knowledge_graph.h"
#include "kg/rescal.h"
#include "kg/transe.h"
#include "ml/metrics.h"

namespace x2vec::kg {
namespace {

TEST(KnowledgeGraphTest, StoreAndQuery) {
  KnowledgeGraph kg;
  kg.AddFact("Paris", "capital-of", "France");
  kg.AddFact("Berlin", "capital-of", "Germany");
  EXPECT_EQ(kg.NumEntities(), 4);
  EXPECT_EQ(kg.NumRelations(), 1);
  EXPECT_EQ(kg.Triples().size(), 2u);
  const int paris = kg.EntityId("Paris");
  const int france = kg.EntityId("France");
  const int capital_of = kg.RelationId("capital-of");
  EXPECT_TRUE(kg.HasTriple(paris, capital_of, france));
  EXPECT_FALSE(kg.HasTriple(france, capital_of, paris));
  // Duplicate facts are ignored.
  kg.AddFact("Paris", "capital-of", "France");
  EXPECT_EQ(kg.Triples().size(), 2u);
}

TEST(KnowledgeGraphTest, CountriesDatasetHasPaperExample) {
  Rng rng = MakeRng(33);
  const KnowledgeGraph kg = kg::CountriesKnowledgeGraph(10, rng);
  const int paris = kg.EntityId("Paris");
  const int france = kg.EntityId("France");
  const int santiago = kg.EntityId("Santiago");
  const int chile = kg.EntityId("Chile");
  const int capital_of = kg.RelationId("capital-of");
  ASSERT_GE(paris, 0);
  ASSERT_GE(capital_of, 0);
  EXPECT_TRUE(kg.HasTriple(paris, capital_of, france));
  EXPECT_TRUE(kg.HasTriple(santiago, capital_of, chile));
}

TEST(TransETest, TranslationGeometryEmerges) {
  Rng rng = MakeRng(34);
  const KnowledgeGraph kg = kg::CountriesKnowledgeGraph(12, rng);
  TransEOptions options;
  options.epochs = 400;
  options.dimension = 16;
  Budget unlimited;
  const StatusOr<TransEModel> trained =
      TrainTransEBudgeted(kg, options, rng, unlimited);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const TransEModel& model = *trained;

  // The paper's introduction: x_Paris - x_France ~ x_Santiago - x_Chile.
  auto difference = [&](const char* a, const char* b) {
    std::vector<double> out(model.entities.cols());
    const int ia = kg.EntityId(a);
    const int ib = kg.EntityId(b);
    for (int d = 0; d < model.entities.cols(); ++d) {
      out[d] = model.entities(ia, d) - model.entities(ib, d);
    }
    return out;
  };
  const std::vector<double> paris_france = difference("Paris", "France");
  const std::vector<double> santiago_chile = difference("Santiago", "Chile");
  const double aligned = linalg::Distance2(paris_france, santiago_chile);
  // Baseline: difference vs an unrelated pair.
  const std::vector<double> unrelated = difference("Paris", "Chile");
  const double mismatched = linalg::Distance2(unrelated, santiago_chile);
  EXPECT_LT(aligned, mismatched);
  // Score of the true triple should beat a corrupted one.
  const int capital_of = kg.RelationId("capital-of");
  const int paris = kg.EntityId("Paris");
  const int france = kg.EntityId("France");
  const int chile = kg.EntityId("Chile");
  EXPECT_LT(model.Score(paris, capital_of, france),
            model.Score(paris, capital_of, chile));
}

TEST(TransETest, LinkPredictionBeatsRandom) {
  Rng rng = MakeRng(35);
  const KnowledgeGraph kg = kg::CountriesKnowledgeGraph(15, rng);
  TransEOptions options;
  options.epochs = 300;
  Budget unlimited;
  const StatusOr<TransEModel> trained =
      TrainTransEBudgeted(kg, options, rng, unlimited);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const TransEModel& model = *trained;
  std::vector<Triple> test;
  for (size_t i = 0; i < kg.Triples().size(); i += 3) {
    test.push_back(kg.Triples()[i]);
  }
  const std::vector<int> ranks = TailRanks(model, kg, test);
  // Random ranking over ~40 entities would give MRR ~ 0.1.
  EXPECT_GT(ml::MeanReciprocalRank(ranks), 0.4);
}

TEST(RescalTest, TrainingReducesReconstructionError) {
  Rng rng = MakeRng(36);
  const KnowledgeGraph kg = kg::CountriesKnowledgeGraph(8, rng);
  RescalOptions options;
  options.epochs = 0;
  Budget unlimited;
  const StatusOr<RescalModel> untrained =
      TrainRescalBudgeted(kg, options, rng, unlimited);
  ASSERT_TRUE(untrained.ok()) << untrained.status().ToString();
  const double initial_error = untrained->ReconstructionError(kg);
  options.epochs = 200;
  options.learning_rate = 0.01;
  const StatusOr<RescalModel> trained =
      TrainRescalBudgeted(kg, options, rng, unlimited);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  EXPECT_LT(trained->ReconstructionError(kg), initial_error * 0.5);
}

TEST(RescalTest, BilinearScoresSeparateTruth) {
  Rng rng = MakeRng(37);
  KnowledgeGraph kg;
  // A clean bipartite pattern: students take courses.
  for (int s = 0; s < 4; ++s) {
    for (int c = 0; c < 4; ++c) {
      if ((s + c) % 2 == 0) {
        kg.AddFact("s" + std::to_string(s), "takes", "c" + std::to_string(c));
      }
    }
  }
  RescalOptions options;
  options.epochs = 500;
  options.dimension = 8;
  options.learning_rate = 0.02;
  Budget unlimited;
  const StatusOr<RescalModel> trained =
      TrainRescalBudgeted(kg, options, rng, unlimited);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const RescalModel& model = *trained;
  const int takes = kg.RelationId("takes");
  double true_mean = 0.0;
  double false_mean = 0.0;
  int true_count = 0;
  int false_count = 0;
  for (int s = 0; s < 4; ++s) {
    for (int c = 0; c < 4; ++c) {
      const int head = kg.EntityId("s" + std::to_string(s));
      const int tail = kg.EntityId("c" + std::to_string(c));
      const double score = model.Score(head, takes, tail);
      if ((s + c) % 2 == 0) {
        true_mean += score;
        ++true_count;
      } else {
        false_mean += score;
        ++false_count;
      }
    }
  }
  EXPECT_GT(true_mean / true_count, false_mean / false_count + 0.5);
}

}  // namespace
}  // namespace x2vec::kg
