#pragma once

#include <vector>

#include "graph/graph.h"

namespace x2vec::graph {

/// BFS distances from `source`; -1 marks unreachable vertices.
std::vector<int> BfsDistances(const Graph& g, int source);

/// All-pairs shortest path (hop) distances via BFS from every vertex;
/// dist[u][v] = -1 when unreachable.
std::vector<std::vector<int>> AllPairsShortestPaths(const Graph& g);

/// Maximum finite shortest-path distance (0 for empty graphs; computed over
/// reachable pairs only).
int Diameter(const Graph& g);

/// The similarity matrix S_vw = exp(-c * dist(v, w)) of Section 2.1; pairs
/// at infinite distance get similarity 0.
linalg::Matrix ExpDistanceSimilarity(const Graph& g, double c);

/// Number of triangles in an undirected graph.
int64_t CountTriangles(const Graph& g);

/// Girth (length of shortest cycle); returns -1 for forests.
int Girth(const Graph& g);

}  // namespace x2vec::graph
