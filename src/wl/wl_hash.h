#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.h"

namespace x2vec::wl {

/// Deterministic 1-WL fingerprint of a graph: the sorted per-round colour
/// histograms hashed into 64 bits. Isomorphic graphs always collide;
/// 1-WL-distinguishable graphs collide only with hash-collision
/// probability. This is the "fingerprinting technique for chemical
/// molecules" role in which the algorithm was born [Morgan 1965],
/// mentioned at the top of Section 3.
uint64_t WlHash(const graph::Graph& g, int rounds = -1);

/// Human-readable certificate string (exact, no hashing) of
/// ColorRefinement with its default options: per round, the colour
/// histogram and what each colour id was ranked from (round 0: a vertex
/// label; later: the previous colour and the (edge label, colour) pairs,
/// in and out on digraphs). Two graphs get equal certificates iff 1-WL
/// does not distinguish them (within the round budget).
std::string WlCertificate(const graph::Graph& g, int rounds = -1);

}  // namespace x2vec::wl
