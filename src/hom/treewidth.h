#pragma once

#include <cstdint>
#include <vector>

#include "base/budget.h"
#include "base/status.h"
#include "graph/graph.h"

namespace x2vec::hom {

/// Width of an elimination order (max number of live neighbours at
/// elimination time); the minimum over all orders is the treewidth.
int WidthOfEliminationOrder(const graph::Graph& f,
                            const std::vector<int>& order);

/// Min-fill heuristic elimination order — near-optimal on the small
/// pattern graphs used as homomorphism patterns.
std::vector<int> MinFillEliminationOrder(const graph::Graph& f);

/// Exact treewidth by branch-and-bound over elimination orders (patterns
/// of at most 10 vertices). Optionally returns an optimal order.
int ExactTreewidth(const graph::Graph& f, std::vector<int>* best_order);

/// hom(F, G) by bucket elimination (CountHomsViaEliminationBudgeted below)
/// along a min-fill order.
__int128 CountHoms(const graph::Graph& f, const graph::Graph& g);

/// Floating-point variant (for feature vectors on larger G, where counts
/// exceed 128 bits).
double CountHomsDouble(const graph::Graph& f, const graph::Graph& g);

/// ---- Budgeted variants. Both the exact-treewidth branch-and-bound
/// (factorially many elimination orders) and bucket elimination (tables of
/// size n_G^{w+1}) are super-polynomial, so callers can bound them. Work
/// units: one per branch-and-bound node expansion for ExactTreewidth, one
/// per factor-table entry written for the elimination counters. Returns
/// kResourceExhausted when the budget runs out; with an unlimited budget
/// the results match the plain functions above exactly (those are thin
/// wrappers over these). Input they cannot handle is kInvalidArgument,
/// checked before the budget is read: a pattern of more than 10 vertices
/// for ExactTreewidthBudgeted, and a directed F or G, or an order that is
/// not a permutation of V(F), for the elimination counters. The plain
/// functions abort on such input.

[[nodiscard]] StatusOr<int> ExactTreewidthBudgeted(const graph::Graph& f,
                                     std::vector<int>* best_order,
                                     Budget& budget);

/// hom(F, G) for an arbitrary pattern F by bucket (variable) elimination
/// along the given order: time and memory n_G^{w+1} where w is the order's
/// width — the Dalmau–Jonsson tractability regime of Section 4.3.
/// Exact in 128-bit integers; respects vertex labels.
[[nodiscard]] StatusOr<__int128> CountHomsViaEliminationBudgeted(
    const graph::Graph& f, const graph::Graph& g,
    const std::vector<int>& order, Budget& budget);

[[nodiscard]] StatusOr<__int128> CountHomsBudgeted(const graph::Graph& f,
                                     const graph::Graph& g, Budget& budget);

[[nodiscard]] StatusOr<double> CountHomsDoubleBudgeted(const graph::Graph& f,
                                         const graph::Graph& g,
                                         Budget& budget);

}  // namespace x2vec::hom
