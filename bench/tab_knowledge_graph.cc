// Section 2.3 table: knowledge-graph embeddings. TransE's
// relation-as-translation geometry (the Paris/France/Santiago/Chile
// example of the introduction), filtered link-prediction metrics, and
// RESCAL's bilinear reconstruction, on the synthetic countries KG.

#include <cstdio>
#include <cstring>
#include <string>

#include "base/metrics.h"
#include "base/trace.h"
#include "api/x2vec.h"

namespace {

/// Value of "--checkpoint-dir=DIR" / "--checkpoint-dir DIR", or "" when
/// absent. With a directory set, each trainer in the sweep snapshots into
/// its own subdirectory and a re-run after a kill resumes mid-sweep.
std::string CheckpointDirFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--checkpoint-dir=", 17) == 0) {
      return std::string(argv[i] + 17);
    }
    if (std::strcmp(argv[i], "--checkpoint-dir") == 0 && i + 1 < argc) {
      return std::string(argv[i + 1]);
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace x2vec;
  trace::SetEnabled(true);
  const std::string checkpoint_dir = CheckpointDirFlag(argc, argv);
  Rng rng = MakeRng(23);
  const kg::KnowledgeGraph base = kg::CountriesKnowledgeGraph(16, rng);
  std::printf("=== Section 2.3: knowledge graph embeddings ===\n\n");
  if (!checkpoint_dir.empty()) {
    std::printf("checkpointing to %s (resume-safe per-model runs)\n\n",
                checkpoint_dir.c_str());
  }
  std::printf("countries KG: %d entities, %d relations, %zu facts\n\n",
              base.NumEntities(), base.NumRelations(), base.Triples().size());

  // --- TransE sweep over dimensions. ------------------------------------
  std::printf("%-8s  %-10s  %-8s  %-8s  %-24s\n", "dim", "MRR", "Hits@1",
              "Hits@10", "translation consistency*");
  for (int dim : {8, 16, 32}) {
    kg::TransEOptions options;
    options.dimension = dim;
    options.epochs = 400;
    if (!checkpoint_dir.empty()) {
      // One subdirectory per sweep stage: keep-last GC is per directory,
      // so stages never collect each other's files. 400 epochs at a save
      // per epoch would be churn; every 50 keeps eight barriers per run.
      options.checkpoint.dir =
          checkpoint_dir + "/transe_d" + std::to_string(dim);
      options.checkpoint.every_n_epochs = 50;
    }
    Rng train_rng = MakeRng(100 + dim);
    Budget unlimited;
    const StatusOr<kg::TransEModel> trained =
        kg::TrainTransEBudgeted(base, options, train_rng, unlimited);
    if (!trained.ok()) {
      std::printf("TransE dim %d failed: %s\n", dim,
                  trained.status().ToString().c_str());
      return 1;
    }
    const kg::TransEModel& model = *trained;

    std::vector<kg::Triple> test;
    const int capital_of = base.RelationId("capital-of");
    for (const kg::Triple& t : base.Triples()) {
      if (t.relation == capital_of) test.push_back(t);
    }
    const std::vector<int> ranks = kg::TailRanks(model, base, test);

    // Mean pairwise distance between (capital - country) difference
    // vectors across all capital pairs, normalised by a mismatched-pair
    // baseline: << 1 means the introduction's translation picture holds.
    std::vector<std::vector<double>> diffs;
    for (const kg::Triple& t : test) {
      std::vector<double> d(model.entities.cols());
      for (int k = 0; k < model.entities.cols(); ++k) {
        d[k] = model.entities(t.head, k) - model.entities(t.tail, k);
      }
      diffs.push_back(std::move(d));
    }
    double aligned = 0.0;
    int aligned_count = 0;
    for (size_t i = 0; i < diffs.size(); ++i) {
      for (size_t j = i + 1; j < diffs.size(); ++j) {
        aligned += linalg::Distance2(diffs[i], diffs[j]);
        ++aligned_count;
      }
    }
    // Baseline: distances between random entity-difference vectors.
    Rng baseline_rng = MakeRng(55);
    double baseline = 0.0;
    for (int s = 0; s < aligned_count; ++s) {
      std::vector<double> a(model.entities.cols());
      std::vector<double> b(model.entities.cols());
      const int e1 = static_cast<int>(
          UniformInt(baseline_rng, 0, base.NumEntities() - 1));
      const int e2 = static_cast<int>(
          UniformInt(baseline_rng, 0, base.NumEntities() - 1));
      const int e3 = static_cast<int>(
          UniformInt(baseline_rng, 0, base.NumEntities() - 1));
      const int e4 = static_cast<int>(
          UniformInt(baseline_rng, 0, base.NumEntities() - 1));
      for (int k = 0; k < model.entities.cols(); ++k) {
        a[k] = model.entities(e1, k) - model.entities(e2, k);
        b[k] = model.entities(e3, k) - model.entities(e4, k);
      }
      baseline += linalg::Distance2(a, b);
    }
    std::printf("%-8d  %-10.3f  %-8.3f  %-8.3f  %.3f (1.0 = random)\n", dim,
                ml::MeanReciprocalRank(ranks), ml::HitsAtK(ranks, 1),
                ml::HitsAtK(ranks, 10), aligned / baseline);
  }
  std::printf("\n* mean distance between (x_capital - x_country) vectors,\n"
              "  relative to random difference pairs; the paper's\n"
              "  'is-capital-of corresponds to a translation' means << 1.\n\n");

  // --- RESCAL. -----------------------------------------------------------
  std::printf("RESCAL (bilinear forms, Section 2.3):\n");
  std::printf("%-8s  %-16s  %-16s\n", "dim", "recon err before",
              "recon err after");
  for (int dim : {8, 16}) {
    kg::RescalOptions options;
    options.dimension = dim;
    Rng before_rng = MakeRng(200 + dim);
    options.epochs = 0;
    Budget unlimited;
    const StatusOr<kg::RescalModel> untrained =
        kg::TrainRescalBudgeted(base, options, before_rng, unlimited);
    options.epochs = 300;
    options.learning_rate = 0.01;
    if (!checkpoint_dir.empty()) {
      options.checkpoint.dir =
          checkpoint_dir + "/rescal_d" + std::to_string(dim);
      options.checkpoint.every_n_epochs = 50;
    }
    Rng after_rng = MakeRng(200 + dim);
    const StatusOr<kg::RescalModel> trained =
        kg::TrainRescalBudgeted(base, options, after_rng, unlimited);
    if (!untrained.ok() || !trained.ok()) {
      const Status& failed =
          untrained.ok() ? trained.status() : untrained.status();
      std::printf("RESCAL dim %d failed: %s\n", dim,
                  failed.ToString().c_str());
      return 1;
    }
    std::printf("%-8d  %-16.2f  %-16.2f\n", dim,
                untrained->ReconstructionError(base),
                trained->ReconstructionError(base));
  }

  if (!checkpoint_dir.empty()) {
    const metrics::Snapshot snapshot = metrics::GlobalSnapshot();
    std::printf("\ncheckpoints: %lld saved, %lld resumed, %lld corrupt "
                "skipped\n",
                static_cast<long long>(snapshot.counter("checkpoint.saves")),
                static_cast<long long>(snapshot.counter("checkpoint.resumes")),
                static_cast<long long>(
                    snapshot.counter("checkpoint.corrupt_skipped")));
  }

  const Status report = trace::WriteRunReport("run_report.json");
  if (report.ok()) {
    std::printf("\nwrote run_report.json (metrics + spans, incl. "
                "checkpoint.* counters)\n");
  } else {
    std::printf("\nrun report not written: %s\n", report.ToString().c_str());
  }
  return 0;
}
