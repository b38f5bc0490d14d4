#include "hom/tree_hom.h"

#include <algorithm>

#include "linalg/int128.h"

namespace x2vec::hom {
namespace {

using graph::Graph;
using graph::Neighbor;
using linalg::CheckedAdd;
using linalg::CheckedMul;

// Generic rooted-tree DP parameterised over the accumulator type. For each
// tree vertex t (processed children-first) computes
//   down[t][v] = #homs of the subtree at t mapping t to v,
// where a child c contributes a factor sum_{v' ~ v} down[c][v'] (weighted:
// times the edge weight alpha(v, v')).
template <typename Acc, typename Mul, typename Add>
std::vector<Acc> RootedDp(const Graph& tree, int root, const Graph& g,
                          bool weighted, Mul mul, Add add) {
  X2VEC_CHECK(graph::IsTree(tree)) << "tree pattern required";
  const int nt = tree.NumVertices();
  const int ng = g.NumVertices();

  // Children-first (post-) order via iterative DFS from the root.
  std::vector<int> parent(nt, -1);
  std::vector<int> order;
  order.reserve(nt);
  std::vector<int> stack = {root};
  std::vector<bool> seen(nt, false);
  seen[root] = true;
  while (!stack.empty()) {
    const int t = stack.back();
    stack.pop_back();
    order.push_back(t);
    for (const Neighbor& nb : tree.Neighbors(t)) {
      if (!seen[nb.to]) {
        seen[nb.to] = true;
        parent[nb.to] = t;
        stack.push_back(nb.to);
      }
    }
  }
  std::reverse(order.begin(), order.end());  // Children before parents.

  std::vector<std::vector<Acc>> down(nt, std::vector<Acc>(ng, Acc(1)));
  for (int t : order) {
    std::vector<Acc>& table = down[t];
    // Label constraint: t can only map to label-matching vertices.
    for (int v = 0; v < ng; ++v) {
      if (tree.VertexLabel(t) != g.VertexLabel(v)) table[v] = Acc(0);
    }
    for (const Neighbor& nb : tree.Neighbors(t)) {
      const int child = nb.to;
      if (child == parent[t]) continue;
      for (int v = 0; v < ng; ++v) {
        if (table[v] == Acc(0)) continue;
        Acc sum(0);
        for (const Neighbor& gn : g.Neighbors(v)) {
          Acc term = down[child][gn.to];
          if (weighted) term = mul(term, Acc(gn.weight));
          sum = add(sum, term);
        }
        table[v] = mul(table[v], sum);
      }
    }
  }
  return down[root];
}

}  // namespace

std::vector<__int128> RootedTreeHomVector(const Graph& tree, int root,
                                          const Graph& g) {
  return RootedDp<__int128>(
      tree, root, g, /*weighted=*/false,
      [](__int128 a, __int128 b) { return CheckedMul(a, b); },
      [](__int128 a, __int128 b) { return CheckedAdd(a, b); });
}

__int128 CountTreeHoms(const Graph& tree, const Graph& g) {
  const std::vector<__int128> rooted = RootedTreeHomVector(tree, 0, g);
  __int128 total = 0;
  for (__int128 x : rooted) total = CheckedAdd(total, x);
  return total;
}

double CountTreeHomsDouble(const Graph& tree, const Graph& g) {
  const std::vector<double> rooted = RootedDp<double>(
      tree, 0, g, /*weighted=*/false,
      [](double a, double b) { return a * b; },
      [](double a, double b) { return a + b; });
  double total = 0.0;
  for (double x : rooted) total += x;
  return total;
}

double WeightedTreeHom(const Graph& tree, const Graph& g) {
  const std::vector<double> rooted = RootedDp<double>(
      tree, 0, g, /*weighted=*/true,
      [](double a, double b) { return a * b; },
      [](double a, double b) { return a + b; });
  double total = 0.0;
  for (double x : rooted) total += x;
  return total;
}

__int128 CountForestHoms(const Graph& forest, const Graph& g) {
  __int128 total = 1;
  for (const std::vector<int>& component :
       graph::ConnectedComponents(forest)) {
    const Graph tree = graph::InducedSubgraph(forest, component);
    total = CheckedMul(total, CountTreeHoms(tree, g));
  }
  return total;
}

}  // namespace x2vec::hom
