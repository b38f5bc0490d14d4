#include "api/suite.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "embed/graph2vec.h"
#include "embed/node_embeddings.h"
#include "gnn/graphsage.h"
#include "gnn/layers.h"
#include "hom/embeddings.h"
#include "kernel/graph_kernels.h"
#include "kernel/node_kernels.h"
#include "kernel/wl_kernel.h"
#include "ml/pca.h"

namespace x2vec::api {
namespace {

using core::GraphKernelMethod;
using core::NodeEmbeddingMethod;
using graph::Graph;
using linalg::Matrix;

// Node methods: one work unit per vertex, charged up front. The
// trainer-backed methods below charge much finer units instead.
template <typename Compute>
StatusOr<Matrix> ChargedPerVertex(const Graph& g, Budget& budget,
                                  std::string_view operation,
                                  Compute&& compute) {
  if (!budget.Spend(g.NumVertices())) {
    return budget.ExhaustedError(operation);
  }
  return compute();
}

}  // namespace

std::vector<GraphKernelMethod> DefaultMethodSuite() {
  // Every method passes its budget straight through: the kernels, the
  // graph2vec trainer and the GIN readout charge their own work (DESIGN.md,
  // Budgets).
  std::vector<GraphKernelMethod> suite;
  suite.push_back({"wl-subtree-t5", [](const std::vector<Graph>& graphs, Rng&,
                                       Budget& budget) {
                     return kernel::WlSubtreeKernelMatrix(graphs, 5, budget);
                   }});
  suite.push_back({"wl2-folklore-t3", [](const std::vector<Graph>& graphs,
                                         Rng&, Budget& budget) {
                     return kernel::TwoWlKernelMatrix(graphs, 3, budget);
                   }});
  suite.push_back({"hom-20", [](const std::vector<Graph>& graphs, Rng&,
                                Budget& budget) {
                     return kernel::HomVectorKernelMatrix(
                         graphs, hom::DefaultPatternFamily(20), budget);
                   }});
  suite.push_back({"graphlet-3", [](const std::vector<Graph>& graphs, Rng&,
                                    Budget& budget) {
                     return kernel::GraphletKernelMatrix(graphs, budget);
                   }});
  suite.push_back({"shortest-path", [](const std::vector<Graph>& graphs, Rng&,
                                       Budget& budget) {
                     return kernel::ShortestPathKernelMatrix(graphs, budget);
                   }});
  suite.push_back({"random-walk", [](const std::vector<Graph>& graphs, Rng&,
                                     Budget& budget) {
                     return kernel::RandomWalkKernelMatrix(graphs, 0.1, 6,
                                                           budget);
                   }});
  suite.push_back({"graph2vec",
                   [](const std::vector<Graph>& graphs, Rng& rng,
                      Budget& budget) -> StatusOr<Matrix> {
                     embed::Graph2VecOptions options;
                     options.wl_rounds = 3;
                     options.sgns.dimension = 32;
                     options.sgns.epochs = 8;
                     StatusOr<Matrix> rows = embed::Graph2VecEmbeddingBudgeted(
                         graphs, options, rng, budget);
                     if (!rows.ok()) return rows.status();
                     return kernel::LinearKernelMatrix(*rows, budget);
                   }});
  suite.push_back({"gin-random",
                   [](const std::vector<Graph>& graphs, Rng& rng,
                      Budget& budget) -> StatusOr<Matrix> {
                     // One unit per graph, charged before its readout.
                     if (!budget.Spend(graphs.size())) {
                       return budget.ExhaustedError("gin-random");
                     }
                     const gnn::GinStack stack =
                         gnn::GinStack::Random(3, 16, 1.0, rng());
                     Matrix rows(static_cast<int>(graphs.size()), 16);
                     for (size_t i = 0; i < graphs.size(); ++i) {
                       rows.SetRow(static_cast<int>(i),
                                   stack.EmbedGraph(graphs[i]));
                     }
                     // Log-compress: sum readouts grow with graph size.
                     for (double& v : rows.mutable_data()) {
                       v = std::log1p(std::max(0.0, v));
                     }
                     return kernel::LinearKernelMatrix(rows, budget);
                   }});
  return suite;
}

std::vector<NodeEmbeddingMethod> DefaultNodeMethodSuite() {
  std::vector<NodeEmbeddingMethod> suite;
  suite.push_back({"svd-adjacency",
                   [](const Graph& g, Rng&,
                      Budget& budget) -> StatusOr<Matrix> {
                     return ChargedPerVertex(g, budget, "svd-adjacency", [&] {
                       return embed::SpectralAdjacencyEmbedding(
                           g, std::min(8, g.NumVertices()));
                     });
                   }});
  suite.push_back({"svd-expdist",
                   [](const Graph& g, Rng&,
                      Budget& budget) -> StatusOr<Matrix> {
                     return ChargedPerVertex(g, budget, "svd-expdist", [&] {
                       return embed::SpectralSimilarityEmbedding(
                           g, std::min(8, g.NumVertices()), 2.0);
                     });
                   }});
  suite.push_back({"laplacian-eigenmap",
                   [](const Graph& g, Rng&,
                      Budget& budget) -> StatusOr<Matrix> {
                     return ChargedPerVertex(g, budget, "laplacian-eigenmap",
                                             [&] {
                       return embed::LaplacianEigenmapEmbedding(
                           g, std::min(4, g.NumVertices() - 2));
                     });
                   }});
  suite.push_back({"isomap",
                   [](const Graph& g, Rng&,
                      Budget& budget) -> StatusOr<Matrix> {
                     return ChargedPerVertex(g, budget, "isomap", [&] {
                       return embed::IsomapEmbedding(
                           g, std::min(4, g.NumVertices()));
                     });
                   }});
  suite.push_back({"deepwalk",
                   [](const Graph& g, Rng& rng,
                      Budget& budget) -> StatusOr<Matrix> {
                     embed::Node2VecOptions options;
                     options.sgns.dimension = 16;
                     options.sgns.epochs = 3;
                     return embed::DeepWalkEmbeddingBudgeted(
                         graph::GraphView(g), options, rng, budget);
                   }});
  suite.push_back({"node2vec-p1-q0.5",
                   [](const Graph& g, Rng& rng,
                      Budget& budget) -> StatusOr<Matrix> {
                     embed::Node2VecOptions options;
                     options.walks.p = 1.0;
                     options.walks.q = 0.5;
                     options.sgns.dimension = 16;
                     options.sgns.epochs = 3;
                     return embed::Node2VecEmbeddingBudgeted(
                         graph::GraphView(g), options, rng, budget);
                   }});
  suite.push_back({"rooted-hom-trees",
                   [](const Graph& g, Rng&,
                      Budget& budget) -> StatusOr<Matrix> {
                     return ChargedPerVertex(g, budget, "rooted-hom-trees",
                                             [&] {
                       return hom::RootedHomNodeEmbedding(
                           g, hom::RootedTreesUpTo(5));
                     });
                   }});
  suite.push_back({"graphsage-random",
                   [](const Graph& g, Rng& rng,
                      Budget& budget) -> StatusOr<Matrix> {
                     return ChargedPerVertex(g, budget, "graphsage-random",
                                             [&] {
                       const gnn::GraphSage model =
                           gnn::GraphSage::Random(2, 16, 0.8, rng());
                       return model.EmbedNodes(g);
                     });
                   }});
  suite.push_back({"diffusion-kpca",
                   [](const Graph& g, Rng&,
                      Budget& budget) -> StatusOr<Matrix> {
                     return ChargedPerVertex(g, budget, "diffusion-kpca",
                                             [&] {
                       // Node kernel (Section 2.4) turned into coordinates
                       // via kernel PCA — kernels and embeddings are two
                       // views of the same object.
                       return ml::KernelPca(
                           kernel::DiffusionKernel(g, 0.5),
                           std::min(8, g.NumVertices()));
                     });
                   }});
  return suite;
}

}  // namespace x2vec::api
