#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace x2vec::graph {

/// Canonical key of an unlabelled simple graph: the lexicographically
/// smallest upper-triangle edge bitmask over all vertex permutations.
/// Brute force (n! permutations) — intended for n <= 8.
uint64_t CanonicalKey(const Graph& g);

/// AHU canonical string of the subtree at v of an unlabelled tree, entered
/// from `parent` (-1: the whole tree, rooted at v). Two rooted trees are
/// isomorphic iff their strings are equal.
std::string RootedTreeCanonicalString(const Graph& tree, int v, int parent);

/// AHU canonical string of an unlabelled tree (linear time): two trees are
/// isomorphic iff their canonical strings are equal. Roots at the centre
/// (or the sorted pair of encodings for bicentral trees).
std::string TreeCanonicalString(const Graph& tree);

/// All pairwise non-isomorphic simple graphs on exactly n vertices
/// (n <= 6; counts 1, 2, 4, 11, 34, 156 for n = 1..6).
std::vector<Graph> AllGraphs(int n);

/// All pairwise non-isomorphic *connected* simple graphs on n vertices.
std::vector<Graph> AllConnectedGraphs(int n);

/// All pairwise non-isomorphic trees on n vertices (n <= 9; counts
/// 1, 1, 1, 2, 3, 6, 11, 23, 47 for n = 1..9). Enumerated via Prüfer
/// sequences and deduplicated by canonical key.
std::vector<Graph> AllTrees(int n);

/// All pairwise non-isomorphic trees with at most n vertices, smallest
/// first — the standard pattern family T for Hom_T experiments.
std::vector<Graph> TreesUpTo(int n);

/// Cycles C_3..C_n — the pattern family C of Theorem 4.3.
std::vector<Graph> CyclesUpTo(int n);

/// Paths P_1..P_n (P_k has k vertices) — the pattern family P of
/// Theorem 4.6.
std::vector<Graph> PathsUpTo(int n);

}  // namespace x2vec::graph
