#include "gnn/layers.h"

#include <algorithm>
#include <cmath>

namespace x2vec::gnn {
namespace {

using graph::Graph;
using graph::Neighbor;

}  // namespace

GinLayer GinLayer::Random(int in_dim, int hidden_dim, int out_dim,
                          double scale, uint64_t seed) {
  GinLayer layer;
  layer.w1 = linalg::Matrix::Random(hidden_dim, in_dim, scale, seed);
  layer.w2 = linalg::Matrix::Random(out_dim, hidden_dim, scale,
                                    seed + 0x9e3779b97f4a7c15ULL);
  return layer;
}

linalg::Matrix GinLayer::Forward(const Graph& g,
                                 const linalg::Matrix& states) const {
  const int n = g.NumVertices();
  const int in_dim = states.cols();
  X2VEC_CHECK_EQ(w1.cols(), in_dim);
  linalg::Matrix next(n, w2.rows());
  std::vector<double> combined(in_dim);
  for (int v = 0; v < n; ++v) {
    for (int d = 0; d < in_dim; ++d) {
      combined[d] = (1.0 + epsilon) * states(v, d);
    }
    for (const Neighbor& nb : g.Neighbors(v)) {
      for (int d = 0; d < in_dim; ++d) combined[d] += states(nb.to, d);
    }
    std::vector<double> hidden = w1.Apply(combined);
    for (double& x : hidden) x = std::max(0.0, x);
    const std::vector<double> out = w2.Apply(hidden);
    for (int d = 0; d < static_cast<int>(out.size()); ++d) {
      next(v, d) = std::max(0.0, out[d]);
    }
  }
  return next;
}

linalg::Matrix ConstantInitialStates(const Graph& g, int dim) {
  return linalg::Matrix(g.NumVertices(), dim, 1.0);
}

linalg::Matrix RandomInitialStates(const Graph& g, int dim, uint64_t seed) {
  return linalg::Matrix::Random(g.NumVertices(), dim, 1.0, seed);
}

std::vector<double> SumReadout(const linalg::Matrix& states) {
  std::vector<double> out(states.cols(), 0.0);
  for (int v = 0; v < states.rows(); ++v) {
    for (int d = 0; d < states.cols(); ++d) out[d] += states(v, d);
  }
  return out;
}

GinStack GinStack::Random(int num_layers, int dim, double scale,
                          uint64_t seed) {
  GinStack stack;
  for (int layer = 0; layer < num_layers; ++layer) {
    stack.layers.push_back(
        GinLayer::Random(dim, dim, dim, scale, seed + 1000003ULL * layer));
  }
  return stack;
}

linalg::Matrix GinStack::Forward(const Graph& g,
                                 const linalg::Matrix& initial) const {
  linalg::Matrix states = initial;
  for (const GinLayer& layer : layers) {
    states = layer.Forward(g, states);
  }
  return states;
}

std::vector<double> GinStack::EmbedGraph(const Graph& g) const {
  X2VEC_CHECK(!layers.empty());
  const int dim = layers.front().w1.cols();
  return SumReadout(Forward(g, ConstantInitialStates(g, dim)));
}

bool GnnDistinguishes(const Graph& g, const Graph& h, const GinStack& stack,
                      double tol) {
  const std::vector<double> eg = stack.EmbedGraph(g);
  const std::vector<double> eh = stack.EmbedGraph(h);
  for (size_t d = 0; d < eg.size(); ++d) {
    const double scale = std::max({1.0, std::abs(eg[d]), std::abs(eh[d])});
    if (std::abs(eg[d] - eh[d]) > tol * scale) return true;
  }
  return false;
}

}  // namespace x2vec::gnn
