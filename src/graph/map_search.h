#pragma once

// Internal to src/graph and src/hom: the one backtracking search over maps
// V(F) -> V(G) behind the counts of Theorem 4.2 — homomorphisms, rooted
// and weighted homomorphisms (hom/brute_force.h), embeddings, epimorphisms
// and isomorphisms (graph/isomorphism.h).

#include <cstdint>
#include <vector>

#include "base/budget.h"
#include "graph/graph.h"

namespace x2vec::graph::internal {

// Which maps the search enumerates. Every map is a homomorphism: it keeps
// vertex labels and sends each edge of F to an edge of G with the same
// label and direction (on digraphs both the out- and the in-arcs of each
// vertex are checked).
struct MapKind {
  bool injective = false;   // Embeddings.
  bool surjective = false;  // Epimorphisms: onto every vertex and edge of G.
  // Both flags: isomorphisms, which must also keep edge weights.
  int pinned = -1;          // If >= 0, this vertex of F maps to pinned_image.
  int pinned_image = -1;
  bool stop_at_first = false;
};

struct MapSearchResult {
  int64_t count = 0;
  // Sum over the maps of the product of G's weights on the image edges.
  double weighted_sum = 0.0;
  std::vector<int> first_map;  // The first complete map; empty if none.
  bool exhausted = false;      // The budget ran out; count is partial.
};

// Enumerates the maps of `kind` from f to g. Vertices of F are placed in
// one order for every kind: each after the first of its component is
// adjacent to an already placed vertex, components are seeded at their
// highest degree, and a pinned vertex comes first. One work unit is one
// trial of a candidate (vertex, image) pair.
MapSearchResult SearchMaps(const Graph& f, const Graph& g, const MapKind& kind,
                           Budget& budget);

}  // namespace x2vec::graph::internal
