// Reproduces Figure 7 / Example 4.8: pairs of graphs that are
// homomorphism-indistinguishable over the class of paths yet separated by
// 1-WL (hence Hom_T differs). Example 4.8 additionally demands the pair is
// NOT co-spectral (so Hom_C differs too).
//
// The paper's figure is an image we cannot read; the pairs below were
// found by exhaustive search over all graphs with up to 7 vertices using
// the exact Theorem 4.6 decider (the search driver is reproduced at the
// bottom for n <= 6, where no such pair exists — itself a finding).

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "api/x2vec.h"

namespace {

using x2vec::graph::Graph;

void Examine(const char* name, const Graph& g, const Graph& h) {
  using namespace x2vec;
  std::printf("--- %s ---\n", name);
  std::printf("%-6s %-16s %-16s\n", "k", "hom(P_k, G)", "hom(P_k, H)");
  for (int k = 1; k <= 8; ++k) {
    std::printf("%-6d %-16s %-16s\n", k,
                linalg::Int128ToString(hom::CountPathHoms(k, g)).c_str(),
                linalg::Int128ToString(hom::CountPathHoms(k, h)).c_str());
  }
  std::printf("exact Hom_P decider (Thm 4.6): %s\n",
              hom::HomIndistinguishablePaths(g, h) ? "indistinguishable"
                                                   : "distinguishable");
  std::printf("1-WL: %s   co-spectral: %s   isomorphic: %s\n\n",
              wl::WlIndistinguishable(g, h) ? "indistinguishable"
                                            : "DISTINGUISHES",
              hom::HomIndistinguishableCycles(g, h) ? "yes" : "NO",
              graph::AreIsomorphic(g, h) ? "yes" : "no");
}

}  // namespace

int main() {
  using namespace x2vec;
  std::printf("=== Figure 7 / Example 4.8: Hom_P-equal, 1-WL-separated ===\n\n");

  // Pair 1 (co-spectral variant): the length-2 spider vs C6 + K1.
  Graph spider(7);
  spider.AddEdge(0, 3);
  spider.AddEdge(0, 6);
  spider.AddEdge(1, 3);
  spider.AddEdge(1, 5);
  spider.AddEdge(2, 3);
  spider.AddEdge(2, 4);
  Examine("spider(2,2,2) vs C6 + K1", spider,
          graph::DisjointUnion(Graph::Cycle(6), Graph(1)));

  // Pair 2 (Example 4.8's full phenomenon: also NOT co-spectral).
  Graph g(7);
  for (auto [u, v] : std::vector<std::pair<int, int>>{
           {0, 1}, {0, 2}, {0, 4}, {0, 5}, {0, 6}, {1, 2}, {1, 3}, {1, 5},
           {1, 6}, {2, 3}, {2, 4}, {2, 6}, {3, 4}, {3, 5}, {4, 5}}) {
    g.AddEdge(u, v);
  }
  // H = the cone over K_{3,3}: apex 0 joined to everything, {1,2,3}x{4,5,6}.
  Graph cone(7);
  for (int v = 1; v <= 6; ++v) cone.AddEdge(0, v);
  for (int a = 1; a <= 3; ++a) {
    for (int b = 4; b <= 6; ++b) cone.AddEdge(a, b);
  }
  Examine("15-edge graph vs cone over K_{3,3} (Example 4.8)", g, cone);

  // Finding: no such pair exists on <= 6 vertices — verified by exhaustive
  // search with the exact decider. Graphs are bucketed by exact walk
  // vectors, and one joint refinement splits each bucket into 1-WL
  // classes: two graphs are 1-WL-equivalent iff their sorted stable colours
  // agree. 1-WL-equivalent graphs have equal tree counts, so Hom_P is
  // constant on a class and one decider call per pair of classes suffices.
  int pairs_found = 0;
  for (int n = 4; n <= 6; ++n) {
    const int bits = n * (n - 1) / 2;
    auto build = [n](uint32_t mask) {
      Graph b(n);
      int bit = 0;
      for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v, ++bit) {
          if ((mask >> bit) & 1) b.AddEdge(u, v);
        }
      }
      return b;
    };
    std::map<std::string, std::vector<uint32_t>> buckets;
    for (uint32_t mask = 0; mask < (1u << bits); ++mask) {
      std::string key;
      for (__int128 w : hom::PathHomVector(build(mask), 2 * n)) {
        key += linalg::Int128ToString(w) + ",";
      }
      buckets[key].push_back(mask);
    }
    for (const auto& [key, masks] : buckets) {
      if (masks.size() < 2) continue;
      std::vector<Graph> graphs;
      for (uint32_t mask : masks) graphs.push_back(build(mask));
      const wl::RefinementResult joint = wl::RefineDataset(graphs);
      const std::vector<int>& colors = joint.StableColors();
      // One representative per class, keyed by its sorted stable colours.
      std::map<std::vector<int>, size_t> classes;
      for (size_t i = 0; i < graphs.size(); ++i) {
        const auto first = colors.begin() + static_cast<std::ptrdiff_t>(i * n);
        std::vector<int> sorted(first, first + n);
        std::sort(sorted.begin(), sorted.end());
        classes.emplace(std::move(sorted), i);
      }
      for (auto a = classes.begin(); a != classes.end(); ++a) {
        for (auto b = std::next(a); b != classes.end(); ++b) {
          if (hom::HomIndistinguishablePaths(graphs[a->second],
                                             graphs[b->second])) {
            ++pairs_found;
          }
        }
      }
    }
  }
  std::printf("exhaustive search n <= 6: %d Figure-7 pairs exist "
              "(the smallest live on 7 vertices)\n",
              pairs_found);
  return 0;
}
