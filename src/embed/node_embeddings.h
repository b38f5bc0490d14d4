#pragma once

#include "base/rng.h"
#include "embed/sgns.h"
#include "embed/walks.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "linalg/matrix.h"

namespace x2vec::embed {

/// Figure 2(a): rank-d SVD factor embedding of the adjacency matrix
/// ("first-order proximity" matrix factorisation of Section 2.1).
linalg::Matrix SpectralAdjacencyEmbedding(const graph::Graph& g, int d);

/// Figure 2(b): rank-d SVD factor embedding of the similarity matrix
/// S_vw = exp(-c * dist(v, w)).
linalg::Matrix SpectralSimilarityEmbedding(const graph::Graph& g, int d,
                                           double c);

/// Laplacian eigenmaps (Section 2.1 [Belkin-Niyogi]): coordinates from the
/// eigenvectors of the graph Laplacian with the d smallest non-zero
/// eigenvalues (one trivial constant eigenvector is skipped per connected
/// component).
linalg::Matrix LaplacianEigenmapEmbedding(const graph::Graph& g, int d);

/// Isomap on graphs (Section 2.1 [Tenenbaum et al.] = classical
/// multidimensional scaling [Kruskal] of the geodesic metric): double-
/// centres the squared shortest-path distance matrix and embeds along its
/// top-d eigenvectors. Requires a connected graph.
linalg::Matrix IsomapEmbedding(const graph::Graph& g, int d);

/// Shared knobs for the walk + skip-gram node embedders.
struct Node2VecOptions {
  WalkOptions walks;
  /// Skip-gram training knobs. Crash-safe checkpointing rides here: set
  /// sgns.checkpoint.dir and the trainer snapshots at epoch barriers and
  /// resumes on the next call. Walk generation is deterministic for a
  /// fixed seed/rng, so a restarted process regenerates the identical walk
  /// stream and the checkpoint fingerprint (which hashes it) matches; a
  /// changed graph or walk setup changes the fingerprint and the stale
  /// checkpoint is skipped.
  SgnsOptions sgns;
};

/// DEEPWALK (Section 2.1: uniform walks + skip-gram) and NODE2VEC
/// (Figure 2(c): biased second-order walks with return parameter p and
/// in-out parameter q + skip-gram; DeepWalk ignores p and q). Returns one
/// row per vertex, over either graph backend — adjacency-list Graph or
/// CsrGraph, possibly mmap-backed.
///
/// All four run one pipeline (DESIGN.md §13): a WalkSource regenerates the
/// walks on every pass instead of materialising them, one CountStream pass
/// builds the noise table (every vertex counts once plus its walk
/// occurrences: NoiseFromCounts with base_count 1) and the pair-schedule
/// totals, and the skip-gram trainer consumes the stream. Resident state is
/// one walk, one start permutation, the model and the noise table.
///
/// The Budgeted variants train sequentially (TrainSgnsStreaming): the walk
/// seed is one draw from `rng`, which then drives the trainer. The
/// Streaming variants train sharded (TrainSgnsShardedStreaming), with walk
/// streams MixSeed(seed, 0) and trainer streams MixSeed(seed, 1), so the
/// embedding is bit-identical at any thread count. To train on a
/// reordered stream, compose the pieces by hand with a ShuffleBufferSource
/// between the WalkSource and the trainer.
///
/// Budget: one work unit per walk, charged up front, plus the trainer's
/// unit per positive pair. kInvalidArgument for an empty graph or bad walk
/// options (walks_per_node < 0, walk_length < 1, p or q not positive and
/// finite), checked before any walk is generated; otherwise what the
/// trainer returns (kInvalidArgument for bad SGNS options,
/// kResourceExhausted, kInternal).
[[nodiscard]] StatusOr<linalg::Matrix> DeepWalkEmbeddingBudgeted(
    const graph::GraphView& g, const Node2VecOptions& options, Rng& rng,
    Budget& budget);

[[nodiscard]] StatusOr<linalg::Matrix> Node2VecEmbeddingBudgeted(
    const graph::GraphView& g, const Node2VecOptions& options, Rng& rng,
    Budget& budget);

[[nodiscard]] StatusOr<linalg::Matrix> DeepWalkEmbeddingStreaming(
    const graph::GraphView& g, const Node2VecOptions& options, uint64_t seed,
    Budget& budget);

[[nodiscard]] StatusOr<linalg::Matrix> Node2VecEmbeddingStreaming(
    const graph::GraphView& g, const Node2VecOptions& options, uint64_t seed,
    Budget& budget);

/// Encoder-decoder objective value ||X X^T - S||_F of Section 2.1, for
/// comparing factorisation embeddings against a target similarity.
double ReconstructionError(const linalg::Matrix& embedding,
                           const linalg::Matrix& similarity);

}  // namespace x2vec::embed
