#include "graph/enumeration.h"

#include <algorithm>
#include <numeric>
#include <set>

namespace x2vec::graph {
namespace {

// Upper-triangle bit index of the pair (u, v), u < v, on n vertices.
int PairBit(int n, int u, int v) {
  X2VEC_DCHECK(u < v);
  // Bits are laid out row by row: (0,1), (0,2), ..., (0,n-1), (1,2), ...
  return u * n - u * (u + 1) / 2 + (v - u - 1);
}

Graph GraphFromMask(int n, uint64_t mask) {
  Graph g(n);
  int bit = 0;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v, ++bit) {
      if ((mask >> bit) & 1ULL) g.AddEdge(u, v);
    }
  }
  return g;
}

// Centre vertices of a tree (1 or 2): iteratively strip leaves.
std::vector<int> TreeCenters(const Graph& tree) {
  const int n = tree.NumVertices();
  if (n == 1) return {0};
  std::vector<int> degree(n);
  std::vector<int> layer;
  for (int v = 0; v < n; ++v) {
    degree[v] = tree.Degree(v);
    if (degree[v] <= 1) layer.push_back(v);
  }
  int remaining = n;
  while (remaining > 2) {
    remaining -= static_cast<int>(layer.size());
    std::vector<int> next;
    for (int leaf : layer) {
      for (const Neighbor& nb : tree.Neighbors(leaf)) {
        if (--degree[nb.to] == 1) next.push_back(nb.to);
      }
      degree[leaf] = 0;
    }
    layer = std::move(next);
  }
  std::sort(layer.begin(), layer.end());
  return layer;
}

}  // namespace

std::string RootedTreeCanonicalString(const Graph& tree, int v, int parent) {
  std::vector<std::string> children;
  for (const Neighbor& nb : tree.Neighbors(v)) {
    if (nb.to != parent) {
      children.push_back(RootedTreeCanonicalString(tree, nb.to, v));
    }
  }
  std::sort(children.begin(), children.end());
  std::string out = "(";
  for (const std::string& c : children) out += c;
  out += ")";
  return out;
}

std::string TreeCanonicalString(const Graph& tree) {
  X2VEC_CHECK(IsTree(tree)) << "TreeCanonicalString needs a tree";
  const std::vector<int> centers = TreeCenters(tree);
  if (centers.size() == 1) {
    return RootedTreeCanonicalString(tree, centers[0], -1);
  }
  std::string a = RootedTreeCanonicalString(tree, centers[0], centers[1]);
  std::string b = RootedTreeCanonicalString(tree, centers[1], centers[0]);
  if (b < a) std::swap(a, b);
  return "[" + a + b + "]";
}

uint64_t CanonicalKey(const Graph& g) {
  const int n = g.NumVertices();
  X2VEC_CHECK(!g.directed());
  X2VEC_CHECK_LE(n, 8) << "brute-force canonical key is for n <= 8";
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  uint64_t best = ~0ULL;
  do {
    uint64_t mask = 0;
    for (const Edge& e : g.Edges()) {
      const int a = std::min(perm[e.u], perm[e.v]);
      const int b = std::max(perm[e.u], perm[e.v]);
      mask |= 1ULL << PairBit(n, a, b);
    }
    best = std::min(best, mask);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

std::vector<Graph> AllGraphs(int n) {
  X2VEC_CHECK(n >= 1 && n <= 6) << "AllGraphs supports 1 <= n <= 6";
  const int bits = n * (n - 1) / 2;
  std::set<uint64_t> seen;
  std::vector<Graph> out;
  for (uint64_t mask = 0; mask < (1ULL << bits); ++mask) {
    Graph g = GraphFromMask(n, mask);
    const uint64_t key = CanonicalKey(g);
    if (seen.insert(key).second) {
      out.push_back(GraphFromMask(n, key));
    }
  }
  return out;
}

std::vector<Graph> AllConnectedGraphs(int n) {
  std::vector<Graph> out;
  for (Graph& g : AllGraphs(n)) {
    if (IsConnected(g)) out.push_back(std::move(g));
  }
  return out;
}

std::vector<Graph> AllTrees(int n) {
  X2VEC_CHECK(n >= 1 && n <= 9);
  if (n == 1) return {Graph(1)};
  if (n == 2) return {Graph::Path(2)};
  std::set<std::string> seen;
  std::vector<Graph> out;
  // Iterate over all Prüfer sequences of length n-2 (n^(n-2) labelled trees).
  std::vector<int> prufer(n - 2, 0);
  while (true) {
    // Decode the current sequence.
    std::vector<int> degree(n, 1);
    for (int x : prufer) ++degree[x];
    Graph g(n);
    std::set<int> leaves;
    for (int v = 0; v < n; ++v) {
      if (degree[v] == 1) leaves.insert(v);
    }
    std::vector<int> work(prufer);
    for (int x : work) {
      const int leaf = *leaves.begin();
      leaves.erase(leaves.begin());
      g.AddEdge(leaf, x);
      if (--degree[x] == 1) leaves.insert(x);
    }
    g.AddEdge(*leaves.begin(), *std::next(leaves.begin()));
    if (seen.insert(TreeCanonicalString(g)).second) {
      out.push_back(std::move(g));
    }
    // Advance the sequence (odometer).
    int pos = static_cast<int>(prufer.size()) - 1;
    while (pos >= 0 && prufer[pos] == n - 1) {
      prufer[pos--] = 0;
    }
    if (pos < 0) break;
    ++prufer[pos];
  }
  return out;
}

std::vector<Graph> TreesUpTo(int n) {
  std::vector<Graph> out;
  for (int k = 1; k <= n; ++k) {
    for (Graph& t : AllTrees(k)) out.push_back(std::move(t));
  }
  return out;
}

std::vector<Graph> CyclesUpTo(int n) {
  std::vector<Graph> out;
  for (int k = 3; k <= n; ++k) out.push_back(Graph::Cycle(k));
  return out;
}

std::vector<Graph> PathsUpTo(int n) {
  std::vector<Graph> out;
  for (int k = 1; k <= n; ++k) out.push_back(Graph::Path(k));
  return out;
}

}  // namespace x2vec::graph
