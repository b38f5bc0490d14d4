#pragma once

#include <string>

#include "graph/graph.h"

namespace x2vec::wl {

/// Canonical string of the depth-`depth` unfolding tree of vertex v: the
/// truncated universal cover, i.e. the rooted tree whose root is v and
/// where each node for vertex u has one child for every neighbour of u in
/// g (including the one it was reached from). The 1-WL colour of v after
/// round t is exactly the isomorphism type of this tree of height t
/// (Figure 5 / Section 3.5), so the string is a stable, graph-independent
/// name for that colour: two vertices (of any graphs) get equal strings
/// iff 1-WL gives them the same colour in round `depth`.
std::string UnfoldingTreeString(const graph::Graph& g, int v, int depth);

/// Renders the unfolding tree as an ASCII art outline for figures.
std::string RenderUnfoldingTree(const graph::Graph& g, int v, int depth);

}  // namespace x2vec::wl
