#pragma once

#include <vector>

#include "graph/graph.h"

namespace x2vec::hom {

/// The homomorphism-indistinguishability quasi-order of Section 4.1: each
/// decider answers "Hom_F(G) = Hom_F(H)?" for a restriction class F,
/// through the paper's characterisation theorems (exact, no truncation):
///
///   trees    (Thm 4.4)  <->  1-WL indistinguishability
///   paths    (Thm 4.6)  <->  rational solvability of (3.2) + (3.3)
///   cycles   (Thm 4.3)  <->  co-spectrality (exact char. polynomials)
///   all F    (Thm 4.2)  <->  isomorphism (graph::AreIsomorphic)
///
/// Truncated direct comparisons of the hom vectors are provided alongside
/// so the theorems can be validated empirically (see bench/).

/// Hom_T(G) = Hom_T(H) over all trees, decided via 1-WL (Theorem 4.4).
bool HomIndistinguishableTrees(const graph::Graph& g, const graph::Graph& h);

/// Hom_P(G) = Hom_P(H) over all paths, decided exactly by testing rational
/// solvability of AX = XB with unit row/column sums (Theorem 4.6).
bool HomIndistinguishablePaths(const graph::Graph& g, const graph::Graph& h);

/// Hom_C(G) = Hom_C(H) over all cycles, decided by exact co-spectrality of
/// the integer adjacency matrices (Theorem 4.3).
bool HomIndistinguishableCycles(const graph::Graph& g, const graph::Graph& h);

/// Direct comparison: hom(T, G) == hom(T, H) for every tree T with at most
/// `max_pattern_size` vertices (empirical side of Theorem 4.4).
bool TreeHomVectorsEqual(const graph::Graph& g, const graph::Graph& h,
                         int max_pattern_size);

/// Direct comparison: hom(P_k, ·) equal for k = 1..max_k. With
/// max_k >= |G| + |H| this decides Hom_P equality outright.
bool PathHomVectorsEqual(const graph::Graph& g, const graph::Graph& h,
                         int max_k);

/// Weighted-graph analogue for Theorem 4.13: weighted tree partition
/// functions hom(T, ·) equal for all trees up to `max_pattern_size`
/// (floating-point comparison with tolerance).
bool WeightedTreeHomVectorsEqual(const graph::Graph& g, const graph::Graph& h,
                                 int max_pattern_size, double tol = 1e-6);

}  // namespace x2vec::hom
