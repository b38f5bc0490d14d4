#include "kernel/graph_kernels.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <string_view>

#include "base/metrics.h"
#include "base/validation.h"
#include "kernel/gram.h"
#include "kernel/wl_kernel.h"
#include "linalg/eigen.h"
#include "linalg/kernels.h"
#include "linalg/kernels_backend.h"
#include "wl/color_refinement.h"

namespace x2vec::kernel {
namespace {

using graph::Graph;

// The linear kernel of the rows features(graph), vectors of `dim`, over
// undirected graphs and, for the hom kernels, undirected `patterns`. With
// `standardise`, each coordinate is first centred and scaled to unit
// variance over the dataset.
template <typename Features>
StatusOr<linalg::Matrix> FeatureGram(const std::vector<Graph>& graphs,
                                     const std::vector<hom::Pattern>& patterns,
                                     int dim, bool standardise, Budget& budget,
                                     std::string_view operation,
                                     const Features& features) {
  Status valid =
      wl::CheckDirectedness(graphs, operation, /*allow_directed=*/false);
  for (size_t p = 0; valid.ok() && p < patterns.size(); ++p) {
    if (patterns[p].graph.directed()) {
      valid = Status::InvalidArgument(std::string(operation) + ": pattern " +
                                      std::to_string(p) + " is directed");
    }
  }
  if (!valid.ok()) return valid;
  linalg::Matrix rows(static_cast<int>(graphs.size()), dim);
  const Status status = internal::ForEachGraph(
      static_cast<int64_t>(graphs.size()), budget, operation, [&](int64_t g) {
        linalg::Copy(features(graphs[g]), rows.RowSpan(static_cast<int>(g)));
      });
  if (!status.ok()) return status;
  const int n = rows.rows();
  for (int j = 0; standardise && j < dim; ++j) {
    double mean = 0.0;
    for (int g = 0; g < n; ++g) mean += rows(g, j);
    mean /= n;
    double variance = 0.0;
    for (int g = 0; g < n; ++g) {
      variance += (rows(g, j) - mean) * (rows(g, j) - mean);
    }
    variance /= n;
    const double scale = variance > 1e-18 ? 1.0 / std::sqrt(variance) : 0.0;
    for (int g = 0; g < n; ++g) rows(g, j) = (rows(g, j) - mean) * scale;
  }
  return LinearKernelMatrix(rows, budget);
}

// One random-walk entry, on the n_g x n_h grid of vertex pairs:
// walks[u * n_h + x] counts the product walks of the current length ending
// at (u, x). The counts are exact integers below 2^53, so each step's sum
// is the product graph's 1^T A^step 1, and the terms add in its order.
double WalkSum(const Graph& g, const Graph& h, double lambda, int max_length) {
  const size_t ng = g.NumVertices();
  const size_t nh = h.NumVertices();
  std::vector<double> mask(ng * nh);
  for (size_t u = 0; u < ng; ++u) {
    for (size_t x = 0; x < nh; ++x) {
      mask[u * nh + x] = g.VertexLabel(u) == h.VertexLabel(x) ? 1.0 : 0.0;
    }
  }
  std::vector<double> walks = mask;
  std::vector<double> right(ng * nh);
  double total = std::accumulate(mask.begin(), mask.end(), 0.0);  // k = 0.
  double weight = 1.0;
  for (int step = 1; step <= max_length; ++step) {
    // right = walks A_h, then walks = mask o (A_g right).
    for (size_t u = 0; u < ng; ++u) {
      for (size_t x = 0; x < nh; ++x) {
        double count = 0.0;
        for (const graph::Neighbor& y : h.Neighbors(x)) {
          count += walks[u * nh + y.to];
        }
        right[u * nh + x] = count;
      }
    }
    double sum = 0.0;
    for (size_t u = 0; u < ng; ++u) {
      double* row = walks.data() + u * nh;
      std::fill(row, row + nh, 0.0);
      for (const graph::Neighbor& v : g.Neighbors(u)) {
        const double* from = right.data() + v.to * nh;
        for (size_t x = 0; x < nh; ++x) row[x] += from[x];
      }
      for (size_t x = 0; x < nh; ++x) {
        row[x] = mask[u * nh + x] != 0.0 ? row[x] : 0.0;
        sum += row[x];
      }
    }
    weight *= lambda;
    total += weight * sum;
  }
  return total;
}

}  // namespace

StatusOr<linalg::Matrix> ShortestPathKernelMatrix(
    const std::vector<Graph>& graphs, Budget& budget) {
  return WlShortestPathKernelMatrix(graphs, 0, budget);
}

StatusOr<linalg::Matrix> RandomWalkKernelMatrix(
    const std::vector<Graph>& graphs, double lambda, int max_length,
    Budget& budget) {
  Status valid = ValidateOptions(
      {{"lambda", lambda, OptionCheck::Rule::kPositiveFinite},
       {"max_length", static_cast<double>(max_length),
        OptionCheck::Rule::kNonNegative}});
  if (valid.ok()) {
    valid = wl::CheckDirectedness(graphs, "random-walk kernel",
                                  /*allow_directed=*/false);
  }
  if (!valid.ok()) return valid;
  return internal::FillGram(
      static_cast<int>(graphs.size()), budget, "random-walk kernel",
      [&](int i, int j) {
        return WalkSum(graphs[i], graphs[j], lambda, max_length);
      });
}

std::vector<double> ThreeGraphletCounts(const Graph& g) {
  X2VEC_CHECK(!g.directed());
  const int n = g.NumVertices();
  // counts = (empty, one edge, path/wedge, triangle) over all C(n,3)
  // vertex triples.
  std::vector<double> counts(4, 0.0);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      for (int c = b + 1; c < n; ++c) {
        const int edges = (g.HasEdge(a, b) ? 1 : 0) +
                          (g.HasEdge(a, c) ? 1 : 0) +
                          (g.HasEdge(b, c) ? 1 : 0);
        counts[edges] += 1.0;
      }
    }
  }
  return counts;
}

StatusOr<linalg::Matrix> GraphletKernelMatrix(const std::vector<Graph>& graphs,
                                              Budget& budget) {
  // O(n^3) triple enumeration per graph.
  return FeatureGram(
      graphs, {}, 3, /*standardise=*/false, budget, "graphlet kernel",
      [](const Graph& g) {
        const std::vector<double> counts = ThreeGraphletCounts(g);
        // Use the non-empty graphlets (edge+isolated, wedge, triangle),
        // normalised to a distribution so graph size does not dominate; the
        // empty triple would otherwise swamp the histogram on sparse graphs.
        std::vector<double> connected(counts.begin() + 1, counts.end());
        double total = 0.0;
        for (double c : connected) total += c;
        if (total > 0.0) {
          for (double& c : connected) c /= total;
        }
        return connected;
      });
}

StatusOr<linalg::Matrix> HomVectorKernelMatrix(
    const std::vector<Graph>& graphs,
    const std::vector<hom::Pattern>& patterns, Budget& budget) {
  // Standardised coordinates: a single highly discriminative pattern (say
  // C3) should not be drowned by large shared walk counts.
  return FeatureGram(
      graphs, patterns, static_cast<int>(patterns.size()),
      /*standardise=*/true, budget, "hom-vector kernel",
      [&](const Graph& g) { return hom::LogScaledHomVector(g, patterns); });
}

StatusOr<linalg::Matrix> ScaledHomKernelMatrix(
    const std::vector<Graph>& graphs,
    const std::vector<hom::Pattern>& patterns, Budget& budget) {
  // Group patterns by order k; scale hom(F, .) by k^{-k/2} and each order
  // class by 1/sqrt(|F_k|) so the Gram matrix realises eq. (4.1).
  std::map<int, int> order_counts;
  for (const hom::Pattern& p : patterns) ++order_counts[p.graph.NumVertices()];
  return FeatureGram(
      graphs, patterns, static_cast<int>(patterns.size()),
      /*standardise=*/false, budget, "scaled hom kernel", [&](const Graph& g) {
        std::vector<double> scaled = hom::HomVector(g, patterns);
        for (size_t i = 0; i < scaled.size(); ++i) {
          const int k = patterns[i].graph.NumVertices();
          const double class_scale =
              1.0 / std::sqrt(static_cast<double>(order_counts.at(k)));
          scaled[i] = scaled[i] * std::pow(static_cast<double>(k), -k / 2.0) *
                      class_scale;
        }
        return scaled;
      });
}

StatusOr<linalg::Matrix> LinearKernelMatrix(const linalg::Matrix& rows,
                                            Budget& budget) {
  // Gauge written here, at the serial entry, never inside the fill.
  X2VEC_METRIC_GAUGE("kernels.backend",
                     static_cast<double>(linalg::ActiveKernelBackend()));
  return internal::FillGram(
      rows.rows(), budget, "linear kernel", [&](int i, int j) {
        return linalg::Dot(rows.ConstRowSpan(i), rows.ConstRowSpan(j));
      });
}

linalg::Matrix NormalizeKernel(const linalg::Matrix& k) {
  X2VEC_CHECK_EQ(k.rows(), k.cols());
  const int n = k.rows();
  std::vector<double> diag(n);
  for (int i = 0; i < n; ++i) diag[i] = k(i, i);
  linalg::Matrix out(n, n);
  for (int i = 0; i < n; ++i) {
    const std::span<const double> in = k.ConstRowSpan(i);
    const std::span<double> normalized = out.RowSpan(i);
    for (int j = 0; j < n; ++j) {
      const double denom = std::sqrt(diag[i] * diag[j]);
      normalized[j] = denom > 0.0 ? in[j] / denom : 0.0;
    }
  }
  return out;
}

bool IsPositiveSemidefinite(const linalg::Matrix& k, double tol) {
  const std::vector<double> spectrum = linalg::Spectrum(k);
  return spectrum.empty() || spectrum.back() >= -tol;
}

}  // namespace x2vec::kernel
