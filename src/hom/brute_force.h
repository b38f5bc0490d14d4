#pragma once

#include <cstdint>

#include "base/budget.h"
#include "base/status.h"
#include "graph/graph.h"

namespace x2vec::hom {

/// hom(F, G): number of homomorphisms from pattern F into G, by
/// backtracking over partial maps (exact ground truth; exponential in |F|).
/// Homomorphisms preserve vertex labels, edge labels and edge direction.
/// Every count here, and graph/isomorphism.h's, comes from one map search
/// with one vertex order and one work unit.
int64_t CountHomomorphismsBruteForce(const graph::Graph& f,
                                     const graph::Graph& g);

/// emb(F, G): number of *injective* homomorphisms (embeddings), for the
/// walks-vs-paths distinction of Section 4 and the Theorem 4.2 machinery.
int64_t CountEmbeddingsBruteForce(const graph::Graph& f,
                                  const graph::Graph& g);

/// epi(F, G): number of surjective homomorphisms (onto vertices and edges;
/// arcs on digraphs), completing the hom = epi/aut * emb decomposition of
/// Theorem 4.2.
int64_t CountEpimorphismsBruteForce(const graph::Graph& f,
                                    const graph::Graph& g);

/// ---- Budgeted variants (Grohe Section 4: brute-force hom counting is
/// O(n^|F|) and #W[1]-hard in general, so callers must be able to bound
/// it). One work unit = one trial of a candidate (vertex, image) pair. The
/// search stops cooperatively and returns kResourceExhausted once the
/// budget is gone; with an unlimited budget the results are identical to
/// the plain functions above (which are thin wrappers over these). An F
/// and a G that differ in directedness are kInvalidArgument, checked
/// before the budget is read; the plain functions abort on them. The
/// rooted and weighted counts exist only in this form: they are the
/// oracles of the tree DP (hom/tree_hom.h).

[[nodiscard]] StatusOr<int64_t> CountHomomorphismsBruteForceBudgeted(const graph::Graph& f,
                                                       const graph::Graph& g,
                                                       Budget& budget);

/// hom(F, G; r -> v): homomorphisms mapping the root r of F to v
/// (Section 4.4); kInvalidArgument for an r or v out of range.
[[nodiscard]] StatusOr<int64_t> CountRootedHomomorphismsBruteForceBudgeted(
    const graph::Graph& f, int r, const graph::Graph& g, int v,
    Budget& budget);

/// Weighted homomorphism count hom(F, G) = sum_h prod_{uu' in E(F)}
/// alpha(h(u), h(u')) of Section 4.2 — the partition-function form used by
/// Theorem 4.13. F is unweighted; G carries the weights.
[[nodiscard]] StatusOr<double> WeightedHomomorphismBruteForceBudgeted(const graph::Graph& f,
                                                        const graph::Graph& g,
                                                        Budget& budget);

[[nodiscard]] StatusOr<int64_t> CountEmbeddingsBruteForceBudgeted(const graph::Graph& f,
                                                    const graph::Graph& g,
                                                    Budget& budget);

[[nodiscard]] StatusOr<int64_t> CountEpimorphismsBruteForceBudgeted(const graph::Graph& f,
                                                      const graph::Graph& g,
                                                      Budget& budget);

}  // namespace x2vec::hom
