#pragma once

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "linalg/matrix.h"

namespace x2vec::embed {

/// Parameters for random-walk corpora (DEEPWALK / NODE2VEC, Section 2.1).
struct WalkOptions {
  int walks_per_node = 10;
  int walk_length = 20;  ///< Number of vertices per walk.
  /// node2vec return parameter p: weight 1/p for stepping back to the
  /// previous vertex. p = q = 1 gives uniform (DeepWalk) walks.
  double p = 1.0;
  /// node2vec in-out parameter q: weight 1/q for stepping "outwards" to a
  /// vertex not adjacent to the previous one.
  double q = 1.0;
};

/// One second-order biased step of a node2vec walk: previous -> current ->
/// next with unnormalised weights 1/p (return to previous), 1 (stay at
/// distance 1 from previous), 1/q (move outwards), each times the edge
/// weight. previous = -1 means a uniform first step. Returns -1 at a
/// dead end (no neighbors). Draws via a single cumulative-weight roulette
/// pass — no allocation, exactly one UniformReal draw in the biased case
/// (one UniformInt in the uniform case) — rather than building a
/// single-use AliasTable. Runs over a GraphView, so both graph backends
/// (adjacency-list Graph and out-of-core CsrGraph) take identical steps
/// from identical draws. Exposed for distribution tests.
int Node2VecStep(const graph::GraphView& g, int previous, int current,
                 const WalkOptions& options, Rng& rng);

/// One truncated walk from `start`, drawing every step from `rng`: the
/// walk unit shared by the materialised generators below and the streaming
/// WalkSource (embed/stream.h). Stops early at dead ends.
std::vector<int> GenerateWalk(const graph::GraphView& g, int start,
                              const WalkOptions& options, Rng& rng);

/// CHECKs walk_length >= 1 and p, q > 0 — the shared option contract of
/// every walk generator; exposed so streaming sources validate identically.
void CheckWalkOptions(const WalkOptions& options);

/// Generates `walks_per_node` truncated random walks from every vertex.
/// With p = q = 1 the walks are uniform first-order (DeepWalk); otherwise
/// second-order biased node2vec walks. Walks stop early at isolated
/// vertices. Single-threaded reference path: all draws come from the one
/// shared generator, in walk order.
std::vector<std::vector<int>> GenerateWalks(const graph::GraphView& g,
                                            const WalkOptions& options,
                                            Rng& rng);

/// Parallel corpus generation with determinism by construction: the walk
/// started at vertex v in pass p draws from its own stream
/// Rng::Fork(seed, p * n + v), and the shuffled start order of pass p from
/// stream Rng::Fork(seed, n * walks_per_node + p), so the corpus — content
/// and order — is bit-identical at any thread count (including the serial
/// 1-thread run). Walk distribution matches GenerateWalks; the exact
/// sample differs because the draws are partitioned differently. The
/// streaming WalkSource (embed/stream.h) replays the same stream scheme,
/// so it yields this exact corpus without materialising it.
std::vector<std::vector<int>> GenerateWalksParallel(const graph::GraphView& g,
                                                    const WalkOptions& options,
                                                    uint64_t seed);

/// Empirical k-step transition frequency matrix: entry (v, w) estimates the
/// probability that a length-k uniform walk from v ends at w — the
/// random-walk similarity matrix of Section 2.1, approximated by sampling.
linalg::Matrix EmpiricalWalkSimilarity(const graph::Graph& g, int k,
                                       int samples_per_node, Rng& rng);

}  // namespace x2vec::embed
