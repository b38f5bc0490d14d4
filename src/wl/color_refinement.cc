#include "wl/color_refinement.h"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <deque>
#include <map>
#include <numeric>
#include <string>
#include <utility>

#include "base/metrics.h"
#include "base/parallel.h"
#include "base/trace.h"
#include "wl/rounds.h"

namespace x2vec::wl {
namespace {

using graph::Graph;
using graph::Neighbor;
using internal::LabelledPairs;

// The pass's two signature builders, LabelledPairs (wl/rounds.h) and
// WeightSums. A builder writes vertex v's signature entries into the
// slots reserved for v (its out-degree plus, on digraphs, its in-degree)
// and returns where the first of the signature's two sorted lists ends and
// how many slots are used. Signatures compare as (old colour, first list,
// second list), each list lexicographically by the builder's Order with a
// proper prefix first.

// Weighted 1-WL (eq. 3.1): one (colour d, weight sum) entry for every
// class d that v's out-edges reach with a non-zero sum, by colour. Edge
// labels are ignored. Each sum adds its weights in adjacency order, so
// non-dyadic weights get the bits of a sequential sum.
struct WeightSums {
  using Entry = std::pair<int, double>;

  std::pair<int64_t, int64_t> operator()(const Graph& g, int v,
                                         const int* color, Entry* out) const {
    const std::vector<Neighbor>& neighbors = g.Neighbors(v);
    const int64_t degree = static_cast<int64_t>(neighbors.size());
    // Sorting (colour, adjacency position) lists each class's edges in
    // adjacency order; a position is exact in a double.
    for (int64_t i = 0; i < degree; ++i) {
      out[i] = {color[neighbors[i].to], static_cast<double>(i)};
    }
    std::sort(out, out + degree);
    int64_t size = 0;
    for (int64_t i = 0; i < degree;) {
      const int d = out[i].first;
      double sum = 0.0;
      for (; i < degree && out[i].first == d; ++i) {
        sum += neighbors[static_cast<size_t>(out[i].second)].weight;
      }
      if (sum != 0.0) out[size++] = {d, sum};
    }
    return {size, size};
  }
  // Equals < on the non-zero sums kept, and stays a total order on NaN.
  struct Order {
    std::strong_ordering operator()(const Entry& a, const Entry& b) const {
      if (const auto c = a.first <=> b.first; c != 0) return c;
      return std::strong_order(a.second, b.second);
    }
  };
};

// The 1-WL pass behind ColorRefinement, RefineDataset, RefineTogether and
// weighted 1-WL. Dataset vertex x (graph i's vertices follow those of
// graphs 0..i-1) keeps its signature in entries[begin[x], end[x]), the
// first list ending at mid[x]. Round 0 ranks the vertex labels. Each
// later round rebuilds every signature, in parallel over graphs, and
// ranks all of them with one sort: the new ids are dense ranks in
// signature order, exactly the ids of the same round on the disjoint
// union.
template <typename Signatures>
RefinementResult RefineGraphs(std::span<const Graph* const> graphs,
                              const RefinementOptions& options,
                              const Signatures& signatures) {
  using Entry = typename Signatures::Entry;
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
  std::vector<int> labels(n, 0);
  for (size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = *graphs[i];
    for (int v = 0; v < g.NumVertices(); ++v) {
      const int x = first_vertex[i] + v;
      begin[x + 1] = begin[x] + g.Degree(v) + (directed ? g.InDegree(v) : 0);
      if (options.use_vertex_labels) labels[x] = g.VertexLabel(v);
    }
  }
  std::vector<int64_t> mid(n);
  std::vector<int64_t> end(n);
  std::vector<Entry> entries(static_cast<size_t>(begin[n]));
  const int64_t grain = begin[n] < internal::kInlineEntries
                            ? static_cast<int64_t>(graphs.size())
                            : 0;

  RefinementResult result;
  result.round_colors.emplace_back(n);
  std::vector<int> order;
  result.colors_per_round.push_back(internal::RankSignatures(
      result.round_colors[0], order,
      [&](int a, int b) { return labels[a] <=> labels[b]; }));

  const auto build = [&](const std::vector<int>& current) {
    X2VEC_METRIC_COUNT("wl.refinement_rounds", 1);
    span.AddWork(n);
    return ParallelFor(
        static_cast<int64_t>(graphs.size()), grain,
        [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            const Graph& g = *graphs[i];
            const int* color = current.data() + first_vertex[i];
            for (int v = 0; v < g.NumVertices(); ++v) {
              const int x = first_vertex[i] + v;
              const auto [first, size] =
                  signatures(g, v, color, entries.data() + begin[x]);
              mid[x] = begin[x] + first;
              end[x] = begin[x] + size;
            }
          }
          return Status::Ok();
        });
  };
  const typename Signatures::Order order_entries;
  const auto compare = [&](const std::vector<int>& colors, int a, int b) {
    const Entry* p = entries.data();
    if (const auto c = colors[a] <=> colors[b]; c != 0) return c;
    if (const auto c = std::lexicographical_compare_three_way(
            p + begin[a], p + mid[a], p + begin[b], p + mid[b],
            order_entries);
        c != 0) {
      return c;
    }
    return std::lexicographical_compare_three_way(
        p + mid[a], p + end[a], p + mid[b], p + end[b], order_entries);
  };
  const Status built = internal::RunRounds(
      options.max_rounds < 0 ? n : options.max_rounds, result, build, compare,
      [](const RefinementResult&) { return false; });
  X2VEC_CHECK(built.ok()) << built.ToString();
  return result;
}

// First round whose colour histograms differ between the vertices before
// `split` and those after it (-1 if none).
int FirstDistinguishingRound(const RefinementResult& result, int split) {
  for (size_t round = 0; round < result.round_colors.size(); ++round) {
    if (internal::HistogramsDiffer(result.round_colors[round],
                                   result.colors_per_round[round], split)) {
      return static_cast<int>(round);
    }
  }
  return -1;
}

}  // namespace

RefinementResult ColorRefinement(const Graph& g,
                                 const RefinementOptions& options) {
  const Graph* const one[] = {&g};
  return RefineGraphs(one, options, LabelledPairs{options.use_edge_labels});
}

RefinementResult RefineDataset(std::span<const Graph> graphs,
                               const RefinementOptions& options) {
  std::vector<const Graph*> pointers;
  pointers.reserve(graphs.size());
  for (const Graph& g : graphs) pointers.push_back(&g);
  return RefineGraphs(pointers, options,
                      LabelledPairs{options.use_edge_labels});
}

Status CheckDirectedness(std::span<const Graph> graphs,
                         std::string_view operation, bool allow_directed) {
  for (size_t g = 0; g < graphs.size(); ++g) {
    if (graphs[g].directed() && !allow_directed) {
      return Status::InvalidArgument(std::string(operation) + ": graph " +
                                     std::to_string(g) + " is directed");
    }
    if (graphs[g].directed() != graphs[0].directed()) {
      return Status::InvalidArgument(std::string(operation) + ": graph " +
                                     std::to_string(g) +
                                     " differs from graph 0 in directedness");
    }
  }
  return Status::Ok();
}

JointRefinementResult RefineTogether(const Graph& g, const Graph& h,
                                     const RefinementOptions& options) {
  const Graph* const both[] = {&g, &h};
  JointRefinementResult result;
  result.combined =
      RefineGraphs(both, options, LabelledPairs{options.use_edge_labels});
  result.distinguishing_round =
      FirstDistinguishingRound(result.combined, g.NumVertices());
  result.distinguishes = result.distinguishing_round >= 0;
  const std::vector<int>& stable = result.combined.StableColors();
  result.colors_g.assign(stable.begin(), stable.begin() + g.NumVertices());
  result.colors_h.assign(stable.begin() + g.NumVertices(), stable.end());
  return result;
}

bool WlIndistinguishable(const Graph& g, const Graph& h,
                         const RefinementOptions& options) {
  return !RefineTogether(g, h, options).distinguishes;
}

RefinementResult WeightedColorRefinement(const Graph& g) {
  const Graph* const one[] = {&g};
  return RefineGraphs(one, RefinementOptions{}, WeightSums{});
}

bool WeightedWlDistinguishes(const Graph& g, const Graph& h) {
  const Graph* const both[] = {&g, &h};
  return FirstDistinguishingRound(
             RefineGraphs(both, RefinementOptions{}, WeightSums{}),
             g.NumVertices()) >= 0;
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
