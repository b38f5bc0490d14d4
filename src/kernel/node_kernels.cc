#include "kernel/node_kernels.h"

#include <cmath>
#include <span>

#include "kernel/gram.h"
#include "linalg/eigen.h"

namespace x2vec::kernel {

linalg::Matrix Laplacian(const graph::Graph& g) {
  X2VEC_CHECK(!g.directed());
  const int n = g.NumVertices();
  linalg::Matrix l(n, n);
  for (const graph::Edge& e : g.Edges()) {
    l(e.u, e.v) -= e.weight;
    l(e.v, e.u) -= e.weight;
    l(e.u, e.u) += e.weight;
    l(e.v, e.v) += e.weight;
  }
  return l;
}

// K = V exp(-beta Lambda) V^T from the Laplacian spectrum. The kernel
// matrix is a node-pair similarity, so the triple product is materialised
// entry by entry through the module's Gram fill; each entry is an
// independent weighted dot of two eigenvector rows.
linalg::Matrix DiffusionKernel(const graph::Graph& g, double beta) {
  X2VEC_CHECK_GT(beta, 0.0);
  const linalg::EigenDecomposition eig =
      linalg::SymmetricEigen(Laplacian(g));
  const int n = static_cast<int>(eig.values.size());
  std::vector<double> mapped(eig.values.size());
  for (size_t i = 0; i < eig.values.size(); ++i) {
    mapped[i] = std::exp(-beta * eig.values[i]);
  }
  // An unlimited budget never runs out, so the fill cannot fail.
  Budget unlimited;
  return internal::FillGram(n, unlimited, "node kernel", [&](int i, int j) {
           const std::span<const double> vi = eig.vectors.ConstRowSpan(i);
           const std::span<const double> vj = eig.vectors.ConstRowSpan(j);
           double total = 0.0;
           for (int e = 0; e < n; ++e) total += vi[e] * mapped[e] * vj[e];
           return total;
         })
      .value();
}

}  // namespace x2vec::kernel
