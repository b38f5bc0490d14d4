#include "wl/unfolding_tree.h"

#include <algorithm>
#include <vector>

namespace x2vec::wl {
namespace {

using graph::Graph;
using graph::Neighbor;

std::string CanonicalString(const Graph& g, int v, int depth) {
  std::string out = std::to_string(g.VertexLabel(v));
  if (depth == 0) return out;
  std::vector<std::string> children;
  for (const Neighbor& nb : g.Neighbors(v)) {
    children.push_back(CanonicalString(g, nb.to, depth - 1));
  }
  std::sort(children.begin(), children.end());
  out += "(";
  for (const std::string& c : children) out += c;
  out += ")";
  return out;
}

void Render(const Graph& g, int v, int depth, const std::string& prefix,
            bool last, std::string& out) {
  out += prefix;
  out += last ? "`-" : "|-";
  out += "o\n";
  if (depth == 0) return;
  // Children sorted by canonical string so the drawing is deterministic.
  std::vector<std::pair<std::string, int>> children;
  for (const Neighbor& nb : g.Neighbors(v)) {
    children.emplace_back(CanonicalString(g, nb.to, depth - 1), nb.to);
  }
  std::sort(children.begin(), children.end());
  const std::string child_prefix = prefix + (last ? "  " : "| ");
  for (size_t i = 0; i < children.size(); ++i) {
    Render(g, children[i].second, depth - 1, child_prefix,
           i + 1 == children.size(), out);
  }
}

}  // namespace

std::string UnfoldingTreeString(const Graph& g, int v, int depth) {
  X2VEC_CHECK(v >= 0 && v < g.NumVertices());
  X2VEC_CHECK_GE(depth, 0);
  return CanonicalString(g, v, depth);
}

std::string RenderUnfoldingTree(const Graph& g, int v, int depth) {
  std::string out;
  Render(g, v, depth, "", /*last=*/true, out);
  return out;
}

}  // namespace x2vec::wl
