// Social-network scenario (Section 2.1's motivation): node embeddings of a
// two-community network — spectral factorisations, DeepWalk/node2vec and
// the inductive rooted-homomorphism embedding — evaluated on community
// recovery, plus an inductive GNN (GCN) node classifier.
//
// Run: ./build/examples/example_social_network_nodes

#include <cstdio>

#include "api/x2vec.h"

namespace {

// Community purity of a 2-means clustering of the embedding rows.
double ClusterPurity(const x2vec::linalg::Matrix& embedding,
                     const std::vector<int>& communities, x2vec::Rng& rng) {
  const x2vec::ml::KMeansResult clusters =
      x2vec::ml::KMeans(embedding, 2, rng);
  int agree = 0;
  for (size_t v = 0; v < communities.size(); ++v) {
    agree += clusters.assignment[v] == communities[v] ? 1 : 0;
  }
  const int n = static_cast<int>(communities.size());
  return static_cast<double>(std::max(agree, n - agree)) / n;
}

}  // namespace

int main() {
  using namespace x2vec;

  Rng rng = MakeRng(77);
  const data::NodeClassificationDataset network =
      data::SbmNodeDataset(2, 16, 0.45, 0.04, rng);
  std::printf("social network: %s, 2 planted communities\n",
              network.graph.ToString().c_str());

  std::printf("\n%-20s  community purity (k-means on embedding)\n", "method");
  for (const core::NodeEmbeddingMethod& method :
       api::DefaultNodeMethodSuite()) {
    Rng method_rng = MakeRng(11);
    const linalg::Matrix embedding =
        method.embed(network.graph, method_rng);
    Rng cluster_rng = MakeRng(12);
    std::printf("%-20s  %.3f\n", method.name.c_str(),
                ClusterPurity(embedding, network.labels, cluster_rng));
  }

  // Inductive story (Section 2.2): train a GCN with 25% labelled nodes,
  // predict the rest.
  const int n = network.graph.NumVertices();
  const linalg::Matrix features = linalg::Matrix::Random(n, 8, 1.0, 5);
  std::vector<bool> train_mask(n, false);
  for (int v = 0; v < n; v += 4) train_mask[v] = true;
  gnn::GcnClassifier gcn(8, 16, 2, 1234);
  gnn::GcnClassifier::Options options;
  options.epochs = 300;
  options.learning_rate = 0.2;
  const double loss =
      gcn.Fit(network.graph, features, network.labels, train_mask, options);
  const std::vector<int> predictions = gcn.Predict(network.graph, features);
  std::vector<int> test_predictions;
  std::vector<int> test_labels;
  for (int v = 0; v < n; ++v) {
    if (!train_mask[v]) {
      test_predictions.push_back(predictions[v]);
      test_labels.push_back(network.labels[v]);
    }
  }
  std::printf("\nGCN (25%% labels): train loss %.3f, test accuracy %.3f\n",
              loss, ml::Accuracy(test_predictions, test_labels));

  // Link prediction flavour: embedding distance predicts adjacency.
  Rng embed_rng = MakeRng(13);
  embed::Node2VecOptions n2v;
  n2v.sgns.dimension = 16;
  Budget unlimited;
  const linalg::Matrix x = *embed::Node2VecEmbeddingBudgeted(
      graph::GraphView(network.graph), n2v, embed_rng, unlimited);
  double adjacent = 0.0;
  int adjacent_count = 0;
  double non_adjacent = 0.0;
  int non_adjacent_count = 0;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const double cosine = linalg::CosineSimilarity(x.Row(u), x.Row(v));
      if (network.graph.HasEdge(u, v)) {
        adjacent += cosine;
        ++adjacent_count;
      } else {
        non_adjacent += cosine;
        ++non_adjacent_count;
      }
    }
  }
  std::printf(
      "node2vec cosine: adjacent pairs %.3f vs non-adjacent %.3f\n",
      adjacent / adjacent_count, non_adjacent / non_adjacent_count);
  return 0;
}
