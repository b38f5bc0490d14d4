#pragma once

// Internal to src/wl: the ranking step and the round loop shared by the
// 1-WL vertex pass (color_refinement.cc, plain and weighted signatures)
// and the folklore k-WL tuple pass (kwl.cc).

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/status.h"
#include "wl/color_refinement.h"

namespace x2vec::wl::internal {

// Rounds of fewer signature entries than this (adjacency pairs in the
// vertex pass, row entries in the tuple pass) stay on the calling thread,
// where two-graph calls run faster; datasets gain from the pool above ~8k.
constexpr int64_t kInlineEntries = int64_t{1} << 14;

// The vertex pass's plain 1-WL signature (Section 3.2), one per vertex and
// round: writes vertex v's sorted (edge label, colour) out-pairs,
// then on digraphs its sorted in-pairs, into the slots at `out` and
// returns where the out-pairs end and how many slots are used.
struct LabelledPairs {
  using Entry = std::pair<int, int>;
  using Order = std::compare_three_way;
  bool use_edge_labels = true;

  std::pair<int64_t, int64_t> operator()(const graph::Graph& g, int v,
                                         const int* color, Entry* out) const {
    Entry* end = Fill(g.Neighbors(v), color, out);
    const int64_t out_pairs = end - out;
    if (g.directed()) end = Fill(g.InNeighbors(v), color, end);
    return {out_pairs, end - out};
  }
  Entry* Fill(const std::vector<graph::Neighbor>& neighbors, const int* color,
              Entry* out) const {
    Entry* first = out;
    for (const graph::Neighbor& nb : neighbors) {
      *out++ = {use_edge_labels ? nb.label : 0, color[nb.to]};
    }
    std::sort(first, out);
    return out;
  }
};

// Dense ranks in signature order: ids[x] becomes the number of distinct
// signatures sorting before x's under the three-way compare(a, b) of item
// indices. Returns the number of distinct signatures; `order` is scratch.
template <typename Compare>
int RankSignatures(std::vector<int>& ids, std::vector<int>& order,
                   const Compare& compare) {
  order.resize(ids.size());
  std::iota(order.begin(), order.end(), 0);
  // Items already in order (round 0 of an unlabelled dataset) skip the
  // sort.
  const auto less = [&](int a, int b) { return compare(a, b) < 0; };
  if (!std::is_sorted(order.begin(), order.end(), less)) {
    std::sort(order.begin(), order.end(), less);
  }
  int count = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    if (k > 0 && compare(order[k - 1], order[k]) != 0) ++count;
    ids[order[k]] = count;
  }
  return order.empty() ? 0 : count + 1;
}

// RankSignatures for signatures that mostly repeat, as the k-WL tuple
// pass's long rows do: items are grouped by hash(x), equal for equal
// signatures, so only one item per distinct signature is compared and
// sorted. The ids are RankSignatures'. The 1-WL pass keeps the plain sort:
// its signatures are short and, on one or two graphs, mostly distinct, so
// the hash and its sort are pure overhead there (Release, gcc 12.2, 4-core
// VM: 1-WL to stability on one sparse graph of 256 vertices took 0.25
// instead of 0.13 ms with this rank, of 1024 vertices 15% longer), while a
// 400-graph dataset gained only 4-13%.
template <typename Compare, typename Hash>
int RankDistinctSignatures(std::vector<int>& ids, std::vector<int>& order,
                           const Compare& compare, const Hash& hash) {
  std::vector<std::pair<uint64_t, int>> keyed(ids.size());
  for (size_t x = 0; x < ids.size(); ++x) keyed[x] = {hash(x), x};
  std::sort(keyed.begin(), keyed.end());
  std::vector<int> reps;  // One item per distinct signature.
  for (size_t k = 0, first = 0; k < keyed.size(); ++k) {
    if (k > 0 && keyed[k].first != keyed[k - 1].first) first = reps.size();
    const int x = keyed[k].second;
    size_t r = first;
    while (r < reps.size() && compare(reps[r], x) != 0) ++r;
    if (r == reps.size()) reps.push_back(x);
    ids[x] = static_cast<int>(r);
  }
  std::vector<int> rank(reps.size());
  const int count = RankSignatures(
      rank, order, [&](int a, int b) { return compare(reps[a], reps[b]); });
  for (int& id : ids) id = rank[id];
  return count;
}

// Appends rounds to `result`, which holds round 0: build(current) makes
// every item's signature from the current colours (an error is returned
// at once) and compare(current, a, b) ranks them into the next round,
// through RankDistinctSignatures when a hash(current, x) of the
// signatures is given. Stops once done(result) holds (checked before
// every round), after max_rounds rounds, or at the first round whose
// colour count does not grow; stable_round is the number of rounds run.
template <typename Build, typename Compare, typename Done,
          typename Hash = std::nullptr_t>
Status RunRounds(int max_rounds, RefinementResult& result, Build&& build,
                 Compare&& compare, Done&& done, Hash&& hash = nullptr) {
  std::vector<int> order;
  for (int round = 0; !done(result) && round < max_rounds; ++round) {
    const std::vector<int>& current = result.round_colors.back();
    if (Status built = build(current); !built.ok()) return built;
    std::vector<int> refined(current.size());
    const auto by = [&](int a, int b) { return compare(current, a, b); };
    int count = 0;
    if constexpr (std::is_null_pointer_v<std::decay_t<Hash>>) {
      count = RankSignatures(refined, order, by);
    } else {
      count = RankDistinctSignatures(refined, order, by,
                                     [&](int x) { return hash(current, x); });
    }
    const bool stable = count == result.colors_per_round.back();
    result.round_colors.push_back(std::move(refined));
    result.colors_per_round.push_back(count);
    // The partition stopped splitting; the last round only renamed ids.
    if (stable) break;
  }
  result.stable_round = static_cast<int>(result.round_colors.size()) - 1;
  return Status::Ok();
}

// True iff the colour histograms of colors[0, split) and colors[split, end)
// differ; ids lie below num_colors.
inline bool HistogramsDiffer(const std::vector<int>& colors, int num_colors,
                             int64_t split) {
  std::vector<int> hist(num_colors, 0);
  for (int64_t x = 0; x < split; ++x) ++hist[colors[x]];
  for (size_t x = split; x < colors.size(); ++x) --hist[colors[x]];
  return std::any_of(hist.begin(), hist.end(), [](int c) { return c != 0; });
}

}  // namespace x2vec::wl::internal
