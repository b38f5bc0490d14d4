// Knowledge-graph scenario (Section 2.3): embed a countries/capitals
// knowledge base with TransE and RESCAL, verify the paper's introduction
// example (x_Paris - x_France ~ x_Santiago - x_Chile), and evaluate link
// prediction.
//
// Run: ./build/examples/example_knowledge_graph_completion

#include <cstdio>
#include <vector>

#include "api/x2vec.h"

int main() {
  using namespace x2vec;

  Rng rng = MakeRng(314);
  const kg::KnowledgeGraph base = kg::CountriesKnowledgeGraph(16, rng);
  std::printf("knowledge graph: %d entities, %d relations, %zu facts\n",
              base.NumEntities(), base.NumRelations(), base.Triples().size());

  // --- TransE: relations as translations. -------------------------------
  kg::TransEOptions transe_options;
  transe_options.dimension = 24;
  transe_options.epochs = 500;
  Budget unlimited;
  const StatusOr<kg::TransEModel> trained_transe =
      kg::TrainTransEBudgeted(base, transe_options, rng, unlimited);
  if (!trained_transe.ok()) {
    std::printf("TransE failed: %s\n",
                trained_transe.status().ToString().c_str());
    return 1;
  }
  const kg::TransEModel& transe = *trained_transe;

  auto entity_diff = [&](const char* a, const char* b) {
    std::vector<double> out(transe.entities.cols());
    for (int d = 0; d < transe.entities.cols(); ++d) {
      out[d] = transe.entities(base.EntityId(a), d) -
               transe.entities(base.EntityId(b), d);
    }
    return out;
  };
  const std::vector<double> paris_france = entity_diff("Paris", "France");
  const std::vector<double> santiago_chile = entity_diff("Santiago", "Chile");
  const std::vector<double> berlin_germany = entity_diff("Berlin", "Germany");
  const std::vector<double> mismatched = entity_diff("Paris", "Chile");
  std::printf("\nThe introduction's translation test:\n");
  std::printf("  ||(Paris-France)-(Santiago-Chile)||   = %.3f\n",
              linalg::Distance2(paris_france, santiago_chile));
  std::printf("  ||(Paris-France)-(Berlin-Germany)||   = %.3f\n",
              linalg::Distance2(paris_france, berlin_germany));
  std::printf("  ||(Paris-Chile)-(Santiago-Chile)||    = %.3f  (control)\n",
              linalg::Distance2(mismatched, santiago_chile));

  // Link prediction: filtered tail ranks over all capital-of facts.
  std::vector<kg::Triple> test;
  const int capital_of = base.RelationId("capital-of");
  for (const kg::Triple& t : base.Triples()) {
    if (t.relation == capital_of) test.push_back(t);
  }
  const std::vector<int> ranks = kg::TailRanks(transe, base, test);
  std::printf("\nTransE link prediction over %zu capital-of facts:\n",
              test.size());
  std::printf("  MRR = %.3f, Hits@1 = %.3f, Hits@10 = %.3f\n",
              ml::MeanReciprocalRank(ranks), ml::HitsAtK(ranks, 1),
              ml::HitsAtK(ranks, 10));

  // --- RESCAL: relations as bilinear forms. ------------------------------
  kg::RescalOptions rescal_options;
  rescal_options.dimension = 16;
  rescal_options.epochs = 300;
  rescal_options.learning_rate = 0.01;
  const StatusOr<kg::RescalModel> trained_rescal =
      kg::TrainRescalBudgeted(base, rescal_options, rng, unlimited);
  if (!trained_rescal.ok()) {
    std::printf("RESCAL failed: %s\n",
                trained_rescal.status().ToString().c_str());
    return 1;
  }
  const kg::RescalModel& rescal = *trained_rescal;
  const int paris = base.EntityId("Paris");
  const int france = base.EntityId("France");
  const int chile = base.EntityId("Chile");
  std::printf("\nRESCAL bilinear scores (should be ~1 for facts, ~0 else):\n");
  std::printf("  score(Paris, capital-of, France) = %.3f\n",
              rescal.Score(paris, capital_of, france));
  std::printf("  score(Paris, capital-of, Chile)  = %.3f\n",
              rescal.Score(paris, capital_of, chile));
  std::printf("  reconstruction error ||XBX^T - A||^2 (all relations) = %.2f\n",
              rescal.ReconstructionError(base));
  return 0;
}
