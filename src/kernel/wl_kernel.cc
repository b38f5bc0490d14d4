#include "kernel/wl_kernel.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "base/validation.h"
#include "graph/algorithms.h"
#include "kernel/gram.h"
#include "wl/color_refinement.h"
#include "wl/kwl.h"

namespace x2vec::kernel {
namespace {

using graph::Graph;

constexpr std::string_view kSubtree = "WL subtree kernel";
constexpr std::string_view kShortestPath = "WL shortest-path kernel";

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
  int Rounds() const {
    return static_cast<int>(refinement.colors_per_round.size());
  }
};

Status CheckRounds(int rounds) {
  return ValidateOptions({{"rounds", static_cast<double>(rounds),
                           OptionCheck::Rule::kNonNegative}});
}

// The joint 1-WL colouring of at most `rounds` rounds. Bad input is
// refused, and a spent budget noticed, before the refinement, which
// charges nothing itself.
StatusOr<JointColors> RefineJointly(const std::vector<Graph>& graphs,
                                    int rounds, Budget& budget,
                                    std::string_view operation) {
  Status valid = CheckRounds(rounds);
  if (valid.ok()) valid = wl::CheckDirectedness(graphs, operation);
  if (!valid.ok()) return valid;
  if (budget.Exhausted()) return budget.ExhaustedError(operation);
  wl::RefinementOptions options;
  options.max_rounds = rounds;
  return JointColors(wl::RefineDataset(graphs, options), graphs, 1);
}

// Sparse per-graph features: count(g, histogram) adds graph g's
// (feature id -> value) entries.
template <typename Count>
StatusOr<std::vector<SparseVector>> Histograms(size_t graphs, Budget& budget,
                                               std::string_view operation,
                                               const Count& count) {
  std::vector<SparseVector> features(graphs);
  const Status status = internal::ForEachGraph(
      static_cast<int64_t>(graphs), budget, operation, [&](int64_t g) {
        std::map<int64_t, double> histogram;
        count(g, histogram);
        features[g].entries.assign(histogram.begin(), histogram.end());
      });
  if (!status.ok()) return status;
  return features;
}

// Histograms of the joint colours in rounds 0..round_weight.size() - 1:
// feature id round * ColorStride() + colour, each occurrence adding its
// round's weight.
StatusOr<std::vector<SparseVector>> ColorCounts(
    const JointColors& joint, const std::vector<double>& round_weight,
    Budget& budget, std::string_view operation) {
  const int64_t stride = joint.ColorStride();
  return Histograms(
      joint.first.size() - 1, budget, operation,
      [&](int64_t g, std::map<int64_t, double>& counts) {
        for (size_t r = 0; r < round_weight.size(); ++r) {
          for (int color : joint.Colors(g, r)) {
            counts[static_cast<int64_t>(r) * stride + color] += round_weight[r];
          }
        }
      });
}

// The Gram of sparse features, each entry one merge-dot.
StatusOr<linalg::Matrix> SparseGram(
    const StatusOr<std::vector<SparseVector>>& features, Budget& budget,
    std::string_view operation) {
  if (!features.ok()) return features.status();
  const std::vector<SparseVector>& rows = *features;
  return internal::FillGram(
      static_cast<int>(rows.size()), budget, operation,
      [&](int i, int j) { return rows[i].Dot(rows[j]); });
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

StatusOr<WlFeatureSet> WlSubtreeFeatures(const std::vector<Graph>& graphs,
                                         int rounds, Budget& budget) {
  const StatusOr<JointColors> joint =
      RefineJointly(graphs, rounds, budget, kSubtree);
  if (!joint.ok()) return joint.status();
  WlFeatureSet out;
  out.rounds = rounds;
  if (graphs.empty()) return out;
  StatusOr<std::vector<SparseVector>> features = ColorCounts(
      *joint, std::vector<double>(std::min(rounds + 1, joint->Rounds()), 1.0),
      budget, kSubtree);
  if (!features.ok()) return features.status();
  out.features = std::move(features).value();
  out.dimension = joint->ColorStride() * joint->Rounds();
  return out;
}

StatusOr<linalg::Matrix> WlSubtreeKernelMatrix(const std::vector<Graph>& graphs,
                                               int rounds, Budget& budget) {
  StatusOr<WlFeatureSet> features = WlSubtreeFeatures(graphs, rounds, budget);
  if (!features.ok()) return features.status();
  return SparseGram(std::move(features->features), budget, kSubtree);
}

StatusOr<linalg::Matrix> DiscountedWlKernelMatrix(
    const std::vector<Graph>& graphs, int max_rounds, Budget& budget) {
  constexpr std::string_view kDiscounted = "discounted WL kernel";
  const StatusOr<JointColors> joint =
      RefineJointly(graphs, max_rounds, budget, kDiscounted);
  if (!joint.ok()) return joint.status();
  // Per-round sqrt(2^-r) weights (split across the two Gram factors),
  // precomputed once so every graph applies identical values.
  std::vector<double> round_weight(std::min(max_rounds + 1, joint->Rounds()));
  double weight = 1.0;
  for (double& w : round_weight) {
    w = std::sqrt(weight);
    weight /= 2.0;
  }
  return SparseGram(ColorCounts(*joint, round_weight, budget, kDiscounted),
                    budget, kDiscounted);
}

StatusOr<linalg::Matrix> TwoWlKernelMatrix(const std::vector<Graph>& graphs,
                                           int rounds, Budget& budget) {
  constexpr std::string_view kTwoWl = "2-WL kernel";
  if (Status valid = CheckRounds(rounds); !valid.ok()) return valid;
  StatusOr<wl::RefinementResult> pairs =
      wl::KwlRefineDataset(graphs, 2, rounds, budget);
  if (!pairs.ok()) return pairs.status();
  const JointColors joint(std::move(pairs).value(), graphs, 2);
  // A last round that split no class repeats the partition before it.
  const std::vector<int>& counts = joint.refinement.colors_per_round;
  size_t counted = counts.size();
  if (counted > 1 && counts[counted - 1] == counts[counted - 2]) --counted;
  return SparseGram(
      ColorCounts(joint, std::vector<double>(counted, 1.0), budget, kTwoWl),
      budget, kTwoWl);
}

StatusOr<linalg::Matrix> WlShortestPathKernelMatrix(
    const std::vector<Graph>& graphs, int rounds, Budget& budget) {
  const StatusOr<JointColors> joint =
      RefineJointly(graphs, rounds, budget, kShortestPath);
  if (!joint.ok()) return joint.status();
  const size_t last = joint->Rounds() - 1;
  const int64_t colors = joint->ColorStride();
  // Distance stride shared across the dataset so feature ids align.
  int64_t dist_stride = 2;
  for (const Graph& g : graphs) {
    dist_stride = std::max<int64_t>(dist_stride, g.NumVertices() + 1);
  }
  // One independent APSP + pair histogram per graph.
  return SparseGram(
      Histograms(graphs.size(), budget, kShortestPath,
                 [&](int64_t g, std::map<int64_t, double>& counts) {
                   const std::vector<std::vector<int>> dist =
                       graph::AllPairsShortestPaths(graphs[g]);
                   const std::span<const int> color = joint->Colors(g, last);
                   const int n = graphs[g].NumVertices();
                   for (int u = 0; u < n; ++u) {
                     for (int v = u + 1; v < n; ++v) {
                       if (dist[u][v] < 0) continue;
                       const int a = std::min(color[u], color[v]);
                       const int b = std::max(color[u], color[v]);
                       counts[(static_cast<int64_t>(a) * colors + b) *
                                  dist_stride +
                              dist[u][v]] += 1.0;
                     }
                   }
                 }),
      budget, kShortestPath);
}

}  // namespace x2vec::kernel
