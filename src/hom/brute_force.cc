#include "hom/brute_force.h"

#include <string>

#include "graph/map_search.h"

namespace x2vec::hom {
namespace {

using graph::Graph;
using graph::internal::MapKind;
using graph::internal::MapSearchResult;

constexpr std::string_view kOperation = "brute-force homomorphism search";

// Runs the map search and returns one field of its result, or the status
// of an exhausted budget. An F and a G that differ in directedness are
// rejected before the budget is read: an undirected edge has no defined
// image among arcs.
template <typename T>
StatusOr<T> Search(const Graph& f, const Graph& g, const MapKind& kind,
                   T MapSearchResult::*field, Budget& budget) {
  if (f.directed() != g.directed()) {
    return Status::InvalidArgument(
        std::string(kOperation) +
        ": F and G must be both directed or both undirected");
  }
  const MapSearchResult found = graph::internal::SearchMaps(f, g, kind, budget);
  if (found.exhausted) return budget.ExhaustedError(kOperation);
  return found.*field;
}

}  // namespace

StatusOr<int64_t> CountHomomorphismsBruteForceBudgeted(const Graph& f,
                                                       const Graph& g,
                                                       Budget& budget) {
  return Search(f, g, {}, &MapSearchResult::count, budget);
}

StatusOr<int64_t> CountRootedHomomorphismsBruteForceBudgeted(
    const Graph& f, int r, const Graph& g, int v, Budget& budget) {
  if (r < 0 || r >= f.NumVertices() || v < 0 || v >= g.NumVertices()) {
    return Status::InvalidArgument(
        "rooted homomorphism count: root " + std::to_string(r) + " or target " +
        std::to_string(v) + " out of range");
  }
  return Search(f, g, {.pinned = r, .pinned_image = v},
                &MapSearchResult::count, budget);
}

StatusOr<double> WeightedHomomorphismBruteForceBudgeted(const Graph& f,
                                                        const Graph& g,
                                                        Budget& budget) {
  return Search(f, g, {}, &MapSearchResult::weighted_sum, budget);
}

StatusOr<int64_t> CountEmbeddingsBruteForceBudgeted(const Graph& f,
                                                    const Graph& g,
                                                    Budget& budget) {
  return Search(f, g, {.injective = true}, &MapSearchResult::count, budget);
}

StatusOr<int64_t> CountEpimorphismsBruteForceBudgeted(const Graph& f,
                                                      const Graph& g,
                                                      Budget& budget) {
  return Search(f, g, {.surjective = true}, &MapSearchResult::count, budget);
}

int64_t CountHomomorphismsBruteForce(const Graph& f, const Graph& g) {
  Budget unlimited;
  return *CountHomomorphismsBruteForceBudgeted(f, g, unlimited);
}

int64_t CountEmbeddingsBruteForce(const Graph& f, const Graph& g) {
  Budget unlimited;
  return *CountEmbeddingsBruteForceBudgeted(f, g, unlimited);
}

int64_t CountEpimorphismsBruteForce(const Graph& f, const Graph& g) {
  Budget unlimited;
  return *CountEpimorphismsBruteForceBudgeted(f, g, unlimited);
}

}  // namespace x2vec::hom
