#include "kernel/wl_kernel.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "base/budget.h"
#include "base/metrics.h"
#include "base/parallel.h"
#include "base/trace.h"
#include "graph/algorithms.h"
#include "wl/color_refinement.h"
#include "wl/kwl.h"

namespace x2vec::kernel {
namespace {

using graph::Graph;

// A dataset's joint colouring (of vertices by wl::RefineDataset, of vertex
// pairs by wl::KwlRefineDataset): graph g's colours in round r are
// refinement.round_colors[r][first[g], first[g + 1]).
struct JointColors {
  wl::RefinementResult refinement;
  std::vector<int> first = {0};

  // Graph g owns n^k items: its vertices (k = 1) or vertex pairs (k = 2).
  JointColors(wl::RefinementResult joint, const std::vector<Graph>& graphs,
              int k)
      : refinement(std::move(joint)) {
    for (const Graph& g : graphs) {
      first.push_back(first.back() + (k == 1 ? 1 : g.NumVertices()) *
                                         g.NumVertices());
    }
  }

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
  return JointColors(wl::RefineDataset(graphs, options), graphs, 1);
}

SparseVector FromCounts(const std::map<int64_t, double>& counts) {
  SparseVector v;
  v.entries.assign(counts.begin(), counts.end());
  return v;
}

// Per-graph sparse histograms of the joint colours in rounds
// 0..round_weight.size() - 1: feature id round * ColorStride() + colour,
// each occurrence adding its round's weight. Independent across graphs.
std::vector<SparseVector> ColorCounts(const JointColors& joint,
                                      const std::vector<double>& round_weight) {
  const int64_t stride = joint.ColorStride();
  return ParallelMap(
      static_cast<int64_t>(joint.first.size()) - 1, [&](int64_t g) {
        std::map<int64_t, double> counts;
        for (size_t r = 0; r < round_weight.size(); ++r) {
          for (int color : joint.Colors(g, r)) {
            counts[static_cast<int64_t>(r) * stride + color] += round_weight[r];
          }
        }
        return FromCounts(counts);
      });
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
  const int usable_rounds =
      static_cast<int>(joint.refinement.colors_per_round.size());
  out.features = ColorCounts(
      joint, std::vector<double>(std::min(rounds + 1, usable_rounds), 1.0));
  out.dimension = joint.ColorStride() * usable_rounds;
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
  // Per-round sqrt(2^-r) weights (split across the two Gram factors),
  // precomputed once so every graph applies identical values.
  std::vector<double> round_weight(std::min(max_rounds + 1, usable_rounds));
  double weight = 1.0;
  for (double& w : round_weight) {
    w = std::sqrt(weight);
    weight /= 2.0;
  }
  return GramFromSparse(ColorCounts(joint, round_weight));
}

StatusOr<linalg::Matrix> TwoWlKernelMatrix(const std::vector<Graph>& graphs,
                                           int rounds) {
  X2VEC_CHECK_GE(rounds, 0);
  Budget unlimited;
  StatusOr<wl::RefinementResult> pairs =
      wl::KwlRefineDataset(graphs, 2, rounds, unlimited);
  if (!pairs.ok()) return pairs.status();
  const JointColors joint(std::move(pairs).value(), graphs, 2);
  // A last round that split no class repeats the partition before it.
  const std::vector<int>& counts = joint.refinement.colors_per_round;
  size_t counted = counts.size();
  if (counted > 1 && counts[counted - 1] == counts[counted - 2]) --counted;
  return GramFromSparse(
      ColorCounts(joint, std::vector<double>(counted, 1.0)));
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
