#include "wl/color_refinement.h"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <deque>
#include <map>
#include <numeric>
#include <utility>

#include "base/metrics.h"
#include "base/parallel.h"
#include "base/trace.h"

namespace x2vec::wl {
namespace {

using graph::Graph;
using graph::Neighbor;

// Datasets with fewer adjacency entries than this build their signatures
// on the calling thread: a pool dispatch costs more than such a round.
constexpr int64_t kInlineAdjacency = int64_t{1} << 12;

int CountColors(const std::vector<int>& colors) {
  return colors.empty() ? 0 : *std::max_element(colors.begin(), colors.end()) + 1;
}

// Canonical initial colouring: ids in increasing order of vertex label,
// over the labels of the whole dataset.
std::vector<int> InitialColors(std::span<const Graph* const> graphs, int n,
                               const RefinementOptions& options) {
  std::vector<int> colors(n, 0);
  if (!options.use_vertex_labels) return colors;
  std::map<int, int> label_to_color;
  for (const Graph* g : graphs) {
    for (int label : g->VertexLabels()) label_to_color.emplace(label, 0);
  }
  int next = 0;
  for (auto& [label, color] : label_to_color) color = next++;
  int x = 0;
  for (const Graph* g : graphs) {
    for (int label : g->VertexLabels()) colors[x++] = label_to_color.at(label);
  }
  return colors;
}

// The one refinement pass behind ColorRefinement, RefineDataset and
// RefineTogether. Dataset vertex x (graph i's vertices follow those of
// graphs 0..i-1) has the signature (old colour, sorted out-pairs, sorted
// in-pairs), the in-pairs for digraphs only, compared member by member and
// each pair list lexicographically with a proper prefix first. Its pairs
// live in pairs[begin[x], begin[x + 1]), the out-pairs ending at
// split[x]. Each round rebuilds every signature, in parallel over
// graphs, then ranks all of them with one sort: the new ids are dense
// ranks in signature order, exactly the ids of the same round on the
// disjoint union.
RefinementResult RefineGraphs(std::span<const Graph* const> graphs,
                              const RefinementOptions& options) {
  trace::Span span("wl.color_refinement");
  const bool directed = !graphs.empty() && graphs.front()->directed();
  std::vector<int> first_vertex = {0};
  for (const Graph* g : graphs) {
    X2VEC_CHECK_EQ(g->directed(), directed)
        << "jointly refined graphs must share directedness";
    first_vertex.push_back(first_vertex.back() + g->NumVertices());
  }
  const int n = first_vertex.back();
  std::vector<int64_t> begin(n + 1, 0);
  std::vector<int64_t> split(n);
  for (size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = *graphs[i];
    for (int v = 0; v < g.NumVertices(); ++v) {
      const int x = first_vertex[i] + v;
      split[x] = begin[x] + g.Degree(v);
      begin[x + 1] = split[x] + (directed ? g.InDegree(v) : 0);
    }
  }
  std::vector<std::pair<int, int>> pairs(static_cast<size_t>(begin[n]));
  const int64_t grain = static_cast<int64_t>(pairs.size()) < kInlineAdjacency
                            ? static_cast<int64_t>(graphs.size())
                            : 0;

  const auto fill_pairs = [&](const std::vector<Neighbor>& neighbors,
                              const int* color, std::pair<int, int>* first) {
    std::pair<int, int>* out = first;
    for (const Neighbor& nb : neighbors) {
      *out++ = {options.use_edge_labels ? nb.label : 0, color[nb.to]};
    }
    std::sort(first, out);
  };
  const auto compare = [&](const std::vector<int>& colors, int a, int b) {
    const std::pair<int, int>* p = pairs.data();
    if (const auto c = colors[a] <=> colors[b]; c != 0) return c;
    if (const auto c = std::lexicographical_compare_three_way(
            p + begin[a], p + split[a], p + begin[b], p + split[b]);
        c != 0) {
      return c;
    }
    return std::lexicographical_compare_three_way(
        p + split[a], p + begin[a + 1], p + split[b], p + begin[b + 1]);
  };

  RefinementResult result;
  result.round_colors.push_back(InitialColors(graphs, n, options));
  result.colors_per_round.push_back(CountColors(result.round_colors[0]));
  std::vector<int> order(n);
  const int max_rounds = options.max_rounds < 0 ? n : options.max_rounds;
  for (int round = 0; round < max_rounds; ++round) {
    X2VEC_METRIC_COUNT("wl.refinement_rounds", 1);
    span.AddWork(n);
    const std::vector<int>& current = result.round_colors.back();
    const Status built = ParallelFor(
        static_cast<int64_t>(graphs.size()), grain,
        [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            const Graph& g = *graphs[i];
            const int* color = current.data() + first_vertex[i];
            for (int v = 0; v < g.NumVertices(); ++v) {
              const int x = first_vertex[i] + v;
              fill_pairs(g.Neighbors(v), color, pairs.data() + begin[x]);
              if (directed) {
                fill_pairs(g.InNeighbors(v), color, pairs.data() + split[x]);
              }
            }
          }
          return Status::Ok();
        });
    X2VEC_CHECK(built.ok()) << built.ToString();

    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return compare(current, a, b) < 0;
    });
    std::vector<int> refined(n);
    int new_count = 0;
    for (int k = 0; k < n; ++k) {
      if (k > 0 && compare(current, order[k - 1], order[k]) != 0) ++new_count;
      refined[order[k]] = new_count;
    }
    if (n > 0) ++new_count;
    const bool stable = new_count == result.colors_per_round.back();
    result.round_colors.push_back(std::move(refined));
    result.colors_per_round.push_back(new_count);
    if (stable) {
      // The partition stopped splitting; the last round only renamed ids.
      result.stable_round = round + 1;
      return result;
    }
  }
  result.stable_round = static_cast<int>(result.round_colors.size()) - 1;
  return result;
}

}  // namespace

RefinementResult ColorRefinement(const Graph& g,
                                 const RefinementOptions& options) {
  const Graph* const one[] = {&g};
  return RefineGraphs(one, options);
}

RefinementResult RefineDataset(std::span<const Graph> graphs,
                               const RefinementOptions& options) {
  std::vector<const Graph*> pointers;
  pointers.reserve(graphs.size());
  for (const Graph& g : graphs) pointers.push_back(&g);
  return RefineGraphs(pointers, options);
}

JointRefinementResult RefineTogether(const Graph& g, const Graph& h,
                                     const RefinementOptions& options) {
  const Graph* const both[] = {&g, &h};
  JointRefinementResult result;
  result.combined = RefineGraphs(both, options);

  const int ng = g.NumVertices();
  const int nh = h.NumVertices();
  for (size_t round = 0; round < result.combined.round_colors.size();
       ++round) {
    const std::vector<int>& colors = result.combined.round_colors[round];
    const int num_colors = result.combined.colors_per_round[round];
    std::vector<int> hist_g(num_colors, 0);
    std::vector<int> hist_h(num_colors, 0);
    for (int v = 0; v < ng; ++v) ++hist_g[colors[v]];
    for (int v = 0; v < nh; ++v) ++hist_h[colors[ng + v]];
    if (hist_g != hist_h) {
      result.distinguishes = true;
      result.distinguishing_round = static_cast<int>(round);
      break;
    }
  }
  const std::vector<int>& stable = result.combined.StableColors();
  result.colors_g.assign(stable.begin(), stable.begin() + ng);
  result.colors_h.assign(stable.begin() + ng, stable.end());
  return result;
}

bool WlIndistinguishable(const Graph& g, const Graph& h,
                         const RefinementOptions& options) {
  return !RefineTogether(g, h, options).distinguishes;
}

std::vector<int> StableColoringFast(const Graph& g) {
  const int n = g.NumVertices();
  if (n == 0) return {};
  // Partition refinement with a worklist of splitter classes. Colours are
  // class ids; classes split by the number of edges into the splitter.
  std::vector<int> color(n, 0);
  std::vector<std::vector<int>> members = {std::vector<int>(n)};
  std::iota(members[0].begin(), members[0].end(), 0);
  std::deque<int> worklist = {0};
  std::vector<bool> queued = {true};

  std::vector<int> hits(n, 0);  // Edges from v into the current splitter.
  while (!worklist.empty()) {
    const int splitter = worklist.front();
    worklist.pop_front();
    queued[splitter] = false;

    // Count hits; collect touched classes. Copy the splitter member list:
    // splits below may reallocate `members`.
    const std::vector<int> splitter_members = members[splitter];
    std::vector<int> touched_vertices;
    for (int s : splitter_members) {
      for (const Neighbor& nb : g.Neighbors(s)) {
        if (hits[nb.to] == 0) touched_vertices.push_back(nb.to);
        ++hits[nb.to];
      }
    }
    std::vector<int> touched_classes;
    for (int v : touched_vertices) {
      bool seen = false;
      for (int c : touched_classes) {
        if (c == color[v]) {
          seen = true;
          break;
        }
      }
      if (!seen) touched_classes.push_back(color[v]);
    }

    for (int c : touched_classes) {
      // Partition class c by hit count.
      std::map<int, std::vector<int>> buckets;
      for (int v : members[c]) buckets[hits[v]].push_back(v);
      if (buckets.size() <= 1) continue;
      // Keep the largest bucket as class c; new ids for the rest. Enqueue
      // all but the largest (Hopcroft's smaller-half rule); if c itself is
      // queued, enqueue all parts.
      size_t largest_size = 0;
      int largest_key = buckets.begin()->first;
      for (const auto& [key, verts] : buckets) {
        if (verts.size() > largest_size) {
          largest_size = verts.size();
          largest_key = key;
        }
      }
      const bool c_was_queued = queued[c];
      for (auto& [key, verts] : buckets) {
        int id;
        if (key == largest_key) {
          id = c;
          members[c] = verts;
        } else {
          id = static_cast<int>(members.size());
          for (int v : verts) color[v] = id;
          members.push_back(std::move(verts));
          queued.push_back(false);
        }
        const bool enqueue = c_was_queued || key != largest_key;
        if (enqueue && !queued[id]) {
          queued[id] = true;
          worklist.push_back(id);
        }
      }
    }
    for (int v : touched_vertices) hits[v] = 0;
  }

  // Normalise colour ids to 0..k-1 in order of first appearance.
  std::vector<int> remap(members.size(), -1);
  int next = 0;
  std::vector<int> out(n);
  for (int v = 0; v < n; ++v) {
    if (remap[color[v]] == -1) remap[color[v]] = next++;
    out[v] = remap[color[v]];
  }
  return out;
}

std::vector<std::vector<int>> ColorClasses(const std::vector<int>& colors) {
  int num = 0;
  for (int c : colors) num = std::max(num, c + 1);
  std::vector<std::vector<int>> classes(num);
  for (size_t v = 0; v < colors.size(); ++v) {
    classes[colors[v]].push_back(static_cast<int>(v));
  }
  return classes;
}

std::vector<int> ColorHistogram(const std::vector<int>& colors) {
  int num = 0;
  for (int c : colors) num = std::max(num, c + 1);
  std::vector<int> hist(num, 0);
  for (int c : colors) ++hist[c];
  return hist;
}

}  // namespace x2vec::wl
