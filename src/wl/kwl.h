#pragma once

#include <span>
#include <vector>

#include "base/budget.h"
#include "base/status.h"
#include "graph/graph.h"
#include "wl/color_refinement.h"

namespace x2vec::wl {

/// Result of running k-dimensional Weisfeiler-Leman jointly on two graphs
/// (Section 3.3). We implement the "folklore" k-WL, the variant matching
/// the logic characterisation of Theorem 3.1: k-WL does not distinguish
/// G and H iff G and H are C^{k+1}-equivalent. k=1 coincides with colour
/// refinement.
struct KwlResult {
  bool distinguishes = false;
  /// First round whose colour histograms differ (-1 if none; round 0 is
  /// the atomic-type colouring).
  int distinguishing_round = -1;
  int rounds_to_stable = 0;
  int num_colors = 0;  ///< Stable number of tuple colours (joint namespace).
};

/// Folklore k-WL on a dataset of graphs in one colour namespace, the tuple
/// analogue of RefineDataset: graph i's k-tuples follow those of graphs
/// 0..i-1, tuple (v_1..v_k) of a graph at v_1 n^(k-1) + ... + v_k. Round 0
/// ranks the atomic types (the k vertex labels, then whether each ordered
/// pair of positions is equal, adjacent or neither); each later round
/// ranks (old colour, sorted rows), row w holding the colours of the k
/// tuples with w substituted at one position, then w's relation to each
/// of the tuple's vertices. Rows compare lexicographically, a proper
/// prefix first. Runs at most max_rounds rounds (< 0: as many as there are
/// tuples), stopping at the first round whose colour count does not grow;
/// bit-identical at any thread count. Edge labels and weights are ignored;
/// digraphs are fine. One work unit = one tuple in one round, charged for
/// the whole round before it is allocated or built; a deadline is also
/// read during a round. kInvalidArgument for k < 1 or a round of more than
/// 2^31 - 1 entries (2kn a tuple, k^2 in round 0); kResourceExhausted when
/// the budget runs out.
[[nodiscard]] StatusOr<RefinementResult> KwlRefineDataset(
    std::span<const graph::Graph> graphs, int k, int max_rounds,
    Budget& budget);

/// Runs k-WL on V(G)^k and V(H)^k with a shared colour namespace and
/// compares per-round histograms. Fine for the n <= ~16, k <= 3
/// experiments: a round stores 2k n^(k+1) row entries per graph.
KwlResult KwlCompare(const graph::Graph& g, const graph::Graph& h, int k);

/// Convenience: true iff k-WL distinguishes g and h.
bool KwlDistinguishes(const graph::Graph& g, const graph::Graph& h, int k);

/// Budgeted variant: the two-graph case of KwlRefineDataset, stopping at
/// the first round whose histograms differ; graphs of different orders are
/// distinguished at round 0 without refinement. Charged as KwlRefineDataset
/// is, so a round costs 2 n^k units. Returns kInvalidArgument for k < 1 or
/// a tuple count too large for the pass, and kResourceExhausted if the
/// budget runs out before a verdict; with an unlimited budget the result
/// matches KwlCompare exactly (KwlCompare is a thin wrapper over this).
[[nodiscard]] StatusOr<KwlResult> KwlCompareBudgeted(const graph::Graph& g,
                                       const graph::Graph& h, int k,
                                       Budget& budget);

}  // namespace x2vec::wl
