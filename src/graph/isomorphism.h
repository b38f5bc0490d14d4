#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "base/budget.h"
#include "base/status.h"
#include "graph/graph.h"

namespace x2vec::graph {

/// True iff g and h are isomorphic (respecting vertex labels, edge labels
/// and edge weights). An isomorphism is a homomorphism that is injective
/// and surjective, found by the backtracking map search that also counts
/// hom/brute_force.h's maps, with degree and label pruning — exact ground
/// truth for the sizes used in the indistinguishability experiments (n up
/// to ~50 for structured instances, smaller worst case).
bool AreIsomorphic(const Graph& g, const Graph& h);

/// An isomorphism g -> h as a vertex mapping, if one exists.
std::optional<std::vector<int>> FindIsomorphism(const Graph& g,
                                                const Graph& h);

/// Number of isomorphisms from g onto h (0 if none); aut(G) is
/// CountIsomorphisms(g, g). Exponential in the worst case — small graphs
/// only.
int64_t CountIsomorphisms(const Graph& g, const Graph& h);

/// Number of automorphisms of g (the aut(F'') of Theorem 4.2's proof).
int64_t CountAutomorphisms(const Graph& g);

/// ---- Budgeted variants: isomorphism search is exponential in the worst
/// case, so servers must be able to bound or cancel it. One work unit =
/// one trial of a candidate (vertex, image) pair in the search. Returns
/// kResourceExhausted when the budget runs out; with an unlimited budget
/// the answers match the plain functions above exactly (those are thin
/// wrappers over these).

[[nodiscard]] StatusOr<bool> AreIsomorphicBudgeted(const Graph& g, const Graph& h,
                                     Budget& budget);

[[nodiscard]] StatusOr<int64_t> CountIsomorphismsBudgeted(const Graph& g, const Graph& h,
                                            Budget& budget);

}  // namespace x2vec::graph
