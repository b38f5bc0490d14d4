// Quickstart for the x2vec library: build graphs, run 1-WL, count
// homomorphisms, compute embeddings and kernels, and walk the
// indistinguishability ladder — the paper's core toolkit in ~100 lines.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/example_quickstart

#include <cstdio>

#include "api/x2vec.h"

int main() {
  using namespace x2vec;

  // --- 1. Graphs. -----------------------------------------------------
  graph::Graph c6 = graph::Graph::Cycle(6);
  graph::Graph triangles =
      graph::DisjointUnion(graph::Graph::Cycle(3), graph::Graph::Cycle(3));
  std::printf("G = %s, H = %s\n", c6.ToString().c_str(),
              triangles.ToString().c_str());

  // --- 2. The Weisfeiler-Leman algorithm (Section 3). ------------------
  const wl::RefinementResult refinement = wl::ColorRefinement(c6);
  std::printf("1-WL on C6: %d stable colour(s) after %d round(s)\n",
              refinement.NumStableColors(), refinement.stable_round);
  std::printf("1-WL distinguishes C6 from 2xC3? %s\n",
              wl::WlIndistinguishable(c6, triangles) ? "no" : "yes");

  // --- 3. Homomorphism vectors (Section 4). ----------------------------
  std::printf("hom(P3, C6) = %s, hom(C6, C6) = %s\n",
              linalg::Int128ToString(hom::CountPathHoms(3, c6)).c_str(),
              linalg::Int128ToString(hom::CountCycleHoms(6, c6)).c_str());
  const std::vector<hom::Pattern> family = hom::DefaultPatternFamily(20);
  const std::vector<double> embedding = hom::LogScaledHomVector(c6, family);
  std::printf("log-scaled Hom_F(C6), first 5 of %zu entries: ",
              embedding.size());
  for (int i = 0; i < 5; ++i) std::printf("%.3f ", embedding[i]);
  std::printf("\n");

  // --- 4. The indistinguishability ladder. ------------------------------
  const core::ComparisonReport report =
      core::CompareGraphs(c6, triangles, /*max_kwl=*/2);
  std::printf("%s\n", report.ToString().c_str());

  // --- 5. Node embeddings (Section 2.1 / Figure 2). --------------------
  Rng rng = MakeRng(42);
  graph::Graph social = graph::ConnectedGnp(20, 0.2, rng);
  embed::Node2VecOptions options;
  options.walks.p = 1.0;
  options.walks.q = 0.5;
  options.sgns.dimension = 8;
  Budget unlimited;
  const linalg::Matrix node_vectors = *embed::Node2VecEmbeddingBudgeted(
      graph::GraphView(social), options, rng, unlimited);
  std::printf("node2vec: embedded %d nodes into R^%d\n", node_vectors.rows(),
              node_vectors.cols());

  // --- 6. A WL-kernel SVM in four lines (Sections 2.4 / 3.5). ----------
  const data::GraphDataset dataset = data::ChemLikeDataset(10, 14, rng);
  const linalg::Matrix gram = kernel::NormalizeKernel(
      *kernel::WlSubtreeKernelMatrix(dataset.graphs, 5, unlimited));
  ml::SvmOptions svm_options;
  svm_options.c = 10.0;
  const double accuracy = ml::CrossValidatedSvmAccuracy(
      gram, dataset.labels, 4, svm_options, rng);
  std::printf("WL-kernel SVM on chem-like dataset: %.0f%% accuracy\n",
              100.0 * accuracy);
  return 0;
}
