#include "graph/algorithms.h"

#include <cmath>
#include <queue>

namespace x2vec::graph {

std::vector<int> BfsDistances(const Graph& g, int source) {
  X2VEC_CHECK(source >= 0 && source < g.NumVertices());
  std::vector<int> dist(g.NumVertices(), -1);
  std::queue<int> queue;
  dist[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const int v = queue.front();
    queue.pop();
    for (const Neighbor& nb : g.Neighbors(v)) {
      if (dist[nb.to] == -1) {
        dist[nb.to] = dist[v] + 1;
        queue.push(nb.to);
      }
    }
  }
  return dist;
}

std::vector<std::vector<int>> AllPairsShortestPaths(const Graph& g) {
  std::vector<std::vector<int>> dist;
  dist.reserve(g.NumVertices());
  for (int v = 0; v < g.NumVertices(); ++v) {
    dist.push_back(BfsDistances(g, v));
  }
  return dist;
}

int Diameter(const Graph& g) {
  int best = 0;
  for (int v = 0; v < g.NumVertices(); ++v) {
    for (int d : BfsDistances(g, v)) best = std::max(best, d);
  }
  return best;
}

linalg::Matrix ExpDistanceSimilarity(const Graph& g, double c) {
  const int n = g.NumVertices();
  linalg::Matrix s(n, n);
  const auto dist = AllPairsShortestPaths(g);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      s(u, v) = dist[u][v] < 0 ? 0.0 : std::exp(-c * dist[u][v]);
    }
  }
  return s;
}

int64_t CountTriangles(const Graph& g) {
  X2VEC_CHECK(!g.directed());
  int64_t count = 0;
  for (const Edge& e : g.Edges()) {
    // Intersect neighbourhoods, counting common neighbours above both ends
    // to count each triangle exactly once.
    for (const Neighbor& nb : g.Neighbors(e.u)) {
      if (nb.to > e.v && g.HasEdge(e.v, nb.to)) ++count;
    }
  }
  return count;
}

int Girth(const Graph& g) {
  X2VEC_CHECK(!g.directed());
  const int n = g.NumVertices();
  int best = -1;
  // BFS from every vertex; a non-tree edge closing at depth d gives a cycle.
  for (int s = 0; s < n; ++s) {
    std::vector<int> dist(n, -1);
    std::vector<int> parent(n, -1);
    std::queue<int> queue;
    dist[s] = 0;
    queue.push(s);
    while (!queue.empty()) {
      const int v = queue.front();
      queue.pop();
      for (const Neighbor& nb : g.Neighbors(v)) {
        if (dist[nb.to] == -1) {
          dist[nb.to] = dist[v] + 1;
          parent[nb.to] = v;
          queue.push(nb.to);
        } else if (nb.to != parent[v]) {
          const int cycle = dist[v] + dist[nb.to] + 1;
          if (best == -1 || cycle < best) best = cycle;
        }
      }
    }
  }
  return best;
}

}  // namespace x2vec::graph
