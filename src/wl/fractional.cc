#include "wl/fractional.h"

#include <vector>

#include "wl/color_refinement.h"

namespace x2vec::wl {

std::optional<linalg::Matrix> FractionalIsomorphism(const graph::Graph& g,
                                                    const graph::Graph& h) {
  if (g.NumVertices() != h.NumVertices()) return std::nullopt;
  const JointRefinementResult joint = RefineTogether(g, h);
  if (joint.distinguishes) return std::nullopt;

  const int n = g.NumVertices();
  // Class sizes within g (equal within h because histograms match).
  std::vector<int> class_size(joint.combined.NumStableColors(), 0);
  for (int v = 0; v < n; ++v) ++class_size[joint.colors_g[v]];

  linalg::Matrix x(n, n);
  for (int v = 0; v < n; ++v) {
    for (int w = 0; w < n; ++w) {
      if (joint.colors_g[v] == joint.colors_h[w]) {
        x(v, w) = 1.0 / class_size[joint.colors_g[v]];
      }
    }
  }
  return x;
}

double FractionalResidual(const graph::Graph& g, const graph::Graph& h,
                          const linalg::Matrix& x) {
  const linalg::Matrix a = g.AdjacencyMatrix();
  const linalg::Matrix b = h.AdjacencyMatrix();
  return (a * x - x * b).FrobeniusNorm();
}

}  // namespace x2vec::wl
