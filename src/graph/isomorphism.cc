#include "graph/isomorphism.h"

#include <utility>

#include "graph/map_search.h"

namespace x2vec::graph {
namespace {

constexpr std::string_view kOperation = "isomorphism search";

constexpr internal::MapKind kIsomorphisms = {.injective = true,
                                             .surjective = true};
constexpr internal::MapKind kFirstIsomorphism = {
    .injective = true, .surjective = true, .stop_at_first = true};

}  // namespace

bool AreIsomorphic(const Graph& g, const Graph& h) {
  Budget unlimited;
  return *AreIsomorphicBudgeted(g, h, unlimited);
}

std::optional<std::vector<int>> FindIsomorphism(const Graph& g,
                                                const Graph& h) {
  Budget unlimited;
  internal::MapSearchResult found =
      internal::SearchMaps(g, h, kFirstIsomorphism, unlimited);
  if (found.count > 0) return std::move(found.first_map);
  return std::nullopt;
}

int64_t CountIsomorphisms(const Graph& g, const Graph& h) {
  Budget unlimited;
  return *CountIsomorphismsBudgeted(g, h, unlimited);
}

int64_t CountAutomorphisms(const Graph& g) {
  return CountIsomorphisms(g, g);
}

StatusOr<bool> AreIsomorphicBudgeted(const Graph& g, const Graph& h,
                                     Budget& budget) {
  const internal::MapSearchResult found =
      internal::SearchMaps(g, h, kFirstIsomorphism, budget);
  // A truncated search that already found a witness still has a sound
  // positive answer; only an exhausted *negative* is inconclusive.
  if (found.count == 0 && found.exhausted) {
    return budget.ExhaustedError(kOperation);
  }
  return found.count > 0;
}

StatusOr<int64_t> CountIsomorphismsBudgeted(const Graph& g, const Graph& h,
                                            Budget& budget) {
  const internal::MapSearchResult found =
      internal::SearchMaps(g, h, kIsomorphisms, budget);
  if (found.exhausted) return budget.ExhaustedError(kOperation);
  return found.count;
}

}  // namespace x2vec::graph
