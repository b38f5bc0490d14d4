#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "graph/graph.h"

namespace x2vec::wl {

/// Options for 1-WL colour refinement (Algorithm 1 of the paper and its
/// Section 3.2 variants).
struct RefinementOptions {
  /// Seed the initial colouring from vertex labels (Section 3.2); when
  /// false all vertices start with the same colour, as in Algorithm 1.
  bool use_vertex_labels = true;
  /// Distinguish neighbours by edge label during refinement (Section 3.2).
  bool use_edge_labels = true;
  /// Stop after at most this many refinement rounds (-1 = run to the stable
  /// colouring; at most n-1 rounds are ever needed).
  int max_rounds = -1;
};

/// Trace of a 1-WL run. Colour ids are canonical: within each round they
/// are assigned in lexicographic order of the (old colour, neighbourhood
/// signature) pairs, so two isomorphic graphs produce identical colour
/// histograms and repeated runs are deterministic.
struct RefinementResult {
  /// round_colors[r][v] = colour of v after r rounds; round 0 is the
  /// initial colouring. The last round equals the stable colouring (or the
  /// max_rounds cut-off).
  std::vector<std::vector<int>> round_colors;
  /// Number of distinct colours per round.
  std::vector<int> colors_per_round;
  /// First round r with colors_per_round[r] == colors_per_round[r-1]
  /// (i.e., the colouring stopped splitting); equals rounds run if cut off.
  int stable_round = 0;

  const std::vector<int>& StableColors() const { return round_colors.back(); }
  int NumStableColors() const { return colors_per_round.back(); }
};

/// Runs 1-WL on a single graph: the one-graph case of RefineDataset.
/// Handles undirected and directed graphs (directed refinement uses
/// separate in/out neighbourhood signatures).
RefinementResult ColorRefinement(const graph::Graph& g,
                                 const RefinementOptions& options = {});

/// Runs 1-WL jointly on a dataset of graphs, giving the same ids, rounds
/// and layout as ColorRefinement on their disjoint union without building
/// it: graph i's vertices sit after those of graphs 0..i-1 in every round,
/// round 0 ranks the distinct vertex labels of the whole dataset, each
/// later round ranks all signatures of the dataset together, and the run
/// stops once the dataset-wide colour count stops growing (max_rounds < 0
/// allows as many rounds as the dataset has vertices). Signatures are
/// built in parallel over graphs and ranked by one global sort, so the
/// result is bit-identical at any thread count. All graphs must share
/// directedness (CHECK). An empty dataset behaves like a 0-vertex graph.
RefinementResult RefineDataset(std::span<const graph::Graph> graphs,
                               const RefinementOptions& options = {});

/// kInvalidArgument naming `operation` and a graph unless the graphs share
/// directedness, as RefineDataset requires, and, unless `allow_directed`,
/// are undirected.
Status CheckDirectedness(std::span<const graph::Graph> graphs,
                         std::string_view operation,
                         bool allow_directed = true);

/// Result of running 1-WL jointly on two graphs in one colour namespace:
/// the same ids as on their disjoint union.
struct JointRefinementResult {
  /// Colours of g's vertices followed by h's, the same ids as on the
  /// disjoint union of g and h.
  RefinementResult combined;
  /// True if some round has different colour histograms on g and h — the
  /// "1-WL distinguishes G and H" relation.
  bool distinguishes = false;
  /// First round whose histograms differ (-1 if indistinguishable).
  int distinguishing_round = -1;
  /// Stable colours restricted to g and to h.
  std::vector<int> colors_g;
  std::vector<int> colors_h;
};

/// Runs 1-WL on g and h together (the two-graph case of RefineDataset)
/// and compares colour histograms per round. g and h must share
/// directedness (CHECK).
JointRefinementResult RefineTogether(const graph::Graph& g,
                                     const graph::Graph& h,
                                     const RefinementOptions& options = {});

/// Convenience: true iff 1-WL does NOT distinguish g and h.
bool WlIndistinguishable(const graph::Graph& g, const graph::Graph& h,
                         const RefinementOptions& options = {});

/// Weighted 1-WL (Section 3.2, eq. 3.1): the same pass with the signature
/// (old colour, a pair (class, exact weight sum) for every class the
/// vertex's out-edges reach with a non-zero sum), each sum added in
/// adjacency order. Edge labels are ignored; on digraphs only
/// out-neighbours count. Round 0 ranks the vertex labels; the run goes to
/// the stable colouring. Exact sums suit integer or dyadic weights (all
/// the paper's uses).
RefinementResult WeightedColorRefinement(const graph::Graph& g);

/// Weighted 1-WL jointly on g and h (the two-graph case, as in
/// RefineTogether); true iff some round's colour histograms differ (the
/// "weighted 1-WL distinguishes" relation of Theorem 4.13). g and h must
/// share directedness (CHECK).
bool WeightedWlDistinguishes(const graph::Graph& g, const graph::Graph& h);

/// Stable 1-WL partition via asynchronous partition refinement with the
/// smaller-half worklist strategy — the O((n+m) log n) algorithm referenced
/// in Section 3.1 [Cardon–Crochemore]. Returns colours normalised to
/// 0..k-1 (ids are NOT comparable across graphs; use RefineTogether for
/// cross-graph comparisons). Ignores labels and weights.
std::vector<int> StableColoringFast(const graph::Graph& g);

/// Groups vertices by colour: result[c] = vertices with colour c.
std::vector<std::vector<int>> ColorClasses(const std::vector<int>& colors);

/// Histogram over colours 0..max: counts[c] = #vertices with colour c.
std::vector<int> ColorHistogram(const std::vector<int>& colors);

}  // namespace x2vec::wl
