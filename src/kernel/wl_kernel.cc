#include "kernel/wl_kernel.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "base/metrics.h"
#include "base/parallel.h"
#include "base/trace.h"
#include "graph/algorithms.h"
#include "wl/color_refinement.h"

namespace x2vec::kernel {
namespace {

using graph::Graph;

// The dataset's joint colouring (wl::RefineDataset): graph g's colours in
// round r are refinement.round_colors[r][first[g], first[g + 1]).
struct JointColors {
  wl::RefinementResult refinement;
  std::vector<int> first = {0};

  std::span<const int> Colors(size_t g, size_t round) const {
    return std::span<const int>(refinement.round_colors[round])
        .subspan(first[g], first[g + 1] - first[g]);
  }
  // Colour ids of every round lie below this stride.
  int64_t ColorStride() const {
    int64_t stride = 1;
    for (int count : refinement.colors_per_round) {
      stride = std::max<int64_t>(stride, count + 1);
    }
    return stride;
  }
};

JointColors RefineJointly(const std::vector<Graph>& graphs, int rounds) {
  wl::RefinementOptions options;
  options.max_rounds = rounds;
  JointColors out;
  out.refinement = wl::RefineDataset(graphs, options);
  for (const Graph& g : graphs) {
    out.first.push_back(out.first.back() + g.NumVertices());
  }
  return out;
}

SparseVector FromCounts(const std::map<int64_t, double>& counts) {
  SparseVector v;
  v.entries.assign(counts.begin(), counts.end());
  return v;
}

// Symmetric Gram fill over sparse features, parallel over the upper
// triangle; every entry is an independent merge-dot.
linalg::Matrix GramFromSparse(const std::vector<SparseVector>& features) {
  trace::Span span("kernel.gram_from_sparse");
  const int n = static_cast<int>(features.size());
  linalg::Matrix k(n, n);
  const int64_t pairs = static_cast<int64_t>(n) * (n + 1) / 2;
  const Status status = ParallelFor(pairs, 0, [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      const auto [i, j] = UpperTriangleIndex(t, n);
      const double dot = features[i].Dot(features[j]);
      k(i, j) = dot;
      k(j, i) = dot;
    }
    X2VEC_METRIC_COUNT("kernel.gram_entries", hi - lo);
    return Status::Ok();
  });
  X2VEC_CHECK(status.ok()) << status.ToString();
  span.AddWork(pairs);
  return k;
}

}  // namespace

double SparseVector::Dot(const SparseVector& other) const {
  double total = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < entries.size() && j < other.entries.size()) {
    if (entries[i].first < other.entries[j].first) {
      ++i;
    } else if (entries[i].first > other.entries[j].first) {
      ++j;
    } else {
      total += entries[i].second * other.entries[j].second;
      ++i;
      ++j;
    }
  }
  return total;
}

WlFeatureSet WlSubtreeFeatures(const std::vector<Graph>& graphs, int rounds) {
  X2VEC_CHECK_GE(rounds, 0);
  WlFeatureSet out;
  out.rounds = rounds;
  if (graphs.empty()) return out;
  const JointColors joint = RefineJointly(graphs, rounds);
  // Feature id = round * stride + colour; colour counts never exceed
  // total vertices so a fixed stride is safe.
  const int64_t stride = joint.ColorStride();
  const int usable_rounds =
      static_cast<int>(joint.refinement.colors_per_round.size());
  // Per-graph colour histograms are independent across the dataset.
  out.features =
      ParallelMap(static_cast<int64_t>(graphs.size()), [&](int64_t g) {
        std::map<int64_t, double> counts;
        for (int r = 0; r < std::min(rounds + 1, usable_rounds); ++r) {
          for (int color : joint.Colors(g, r)) {
            counts[static_cast<int64_t>(r) * stride + color] += 1.0;
          }
        }
        return FromCounts(counts);
      });
  out.dimension = stride * usable_rounds;
  return out;
}

linalg::Matrix WlSubtreeKernelMatrix(const std::vector<Graph>& graphs,
                                     int rounds) {
  return GramFromSparse(WlSubtreeFeatures(graphs, rounds).features);
}

linalg::Matrix DiscountedWlKernelMatrix(const std::vector<Graph>& graphs,
                                        int max_rounds) {
  const JointColors joint = RefineJointly(graphs, max_rounds);
  const int usable_rounds =
      static_cast<int>(joint.refinement.colors_per_round.size());
  const int64_t stride = joint.ColorStride();
  // Per-round sqrt(2^-r) weights (split across the two Gram factors),
  // precomputed once so every graph applies identical values.
  const int counted_rounds = std::min(max_rounds + 1, usable_rounds);
  std::vector<double> round_weight(counted_rounds);
  double weight = 1.0;
  for (int r = 0; r < counted_rounds; ++r) {
    round_weight[r] = std::sqrt(weight);
    weight /= 2.0;
  }
  const std::vector<SparseVector> features =
      ParallelMap(static_cast<int64_t>(graphs.size()), [&](int64_t g) {
        std::map<int64_t, double> counts;
        for (int r = 0; r < counted_rounds; ++r) {
          for (int color : joint.Colors(g, r)) {
            counts[static_cast<int64_t>(r) * stride + color] +=
                round_weight[r];
          }
        }
        return FromCounts(counts);
      });
  return GramFromSparse(features);
}

linalg::Matrix WlShortestPathKernelMatrix(const std::vector<Graph>& graphs,
                                          int rounds) {
  const JointColors joint = RefineJointly(graphs, rounds);
  const size_t last = joint.refinement.round_colors.size() - 1;
  const int64_t colors = joint.ColorStride();
  // Distance stride shared across the dataset so feature ids align.
  int64_t dist_stride = 2;
  for (const Graph& g : graphs) {
    dist_stride = std::max<int64_t>(dist_stride, g.NumVertices() + 1);
  }
  // One independent APSP + pair histogram per graph.
  const std::vector<SparseVector> features =
      ParallelMap(static_cast<int64_t>(graphs.size()), [&](int64_t g) {
        const std::vector<std::vector<int>> dist =
            graph::AllPairsShortestPaths(graphs[g]);
        const std::span<const int> color = joint.Colors(g, last);
        std::map<int64_t, double> counts;
        const int n = graphs[g].NumVertices();
        for (int u = 0; u < n; ++u) {
          for (int v = u + 1; v < n; ++v) {
            if (dist[u][v] < 0) continue;
            const int a = std::min(color[u], color[v]);
            const int b = std::max(color[u], color[v]);
            const int64_t id =
                (static_cast<int64_t>(a) * colors + b) * dist_stride +
                dist[u][v];
            counts[id] += 1.0;
          }
        }
        return FromCounts(counts);
      });
  return GramFromSparse(features);
}

}  // namespace x2vec::kernel
