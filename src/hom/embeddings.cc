#include "hom/embeddings.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "graph/enumeration.h"
#include "hom/tree_hom.h"
#include "hom/treewidth.h"

namespace x2vec::hom {
namespace {

using graph::Graph;

// Complete binary tree with `levels` levels (levels >= 1; 2^levels - 1
// vertices).
Graph CompleteBinaryTree(int levels) {
  const int n = (1 << levels) - 1;
  Graph t(n);
  for (int v = 1; v < n; ++v) t.AddEdge((v - 1) / 2, v);
  return t;
}

// Spider: one centre with `legs` paths of length `leg_length` attached.
Graph Spider(int legs, int leg_length) {
  Graph t(1 + legs * leg_length);
  int next = 1;
  for (int leg = 0; leg < legs; ++leg) {
    int previous = 0;
    for (int step = 0; step < leg_length; ++step) {
      t.AddEdge(previous, next);
      previous = next++;
    }
  }
  return t;
}

}  // namespace

std::vector<Pattern> DefaultPatternFamily(int count) {
  X2VEC_CHECK_GE(count, 1);
  std::vector<Pattern> family;
  // Trees: paths, stars, binary trees, spiders (treewidth 1) ...
  family.push_back({Graph::Path(2), "P2"});
  family.push_back({Graph::Path(3), "P3"});
  family.push_back({Graph::Path(4), "P4"});
  family.push_back({Graph::Path(5), "P5"});
  family.push_back({Graph::Path(7), "P7"});
  family.push_back({Graph::Star(3), "S3"});
  family.push_back({Graph::Star(4), "S4"});
  family.push_back({Graph::Star(5), "S5"});
  family.push_back({CompleteBinaryTree(2), "B2"});
  family.push_back({CompleteBinaryTree(3), "B3"});
  family.push_back({Spider(3, 2), "Spider3x2"});
  family.push_back({Spider(4, 2), "Spider4x2"});
  // ... and cycles (treewidth 2).
  family.push_back({Graph::Cycle(3), "C3"});
  family.push_back({Graph::Cycle(4), "C4"});
  family.push_back({Graph::Cycle(5), "C5"});
  family.push_back({Graph::Cycle(6), "C6"});
  family.push_back({Graph::Cycle(7), "C7"});
  family.push_back({Graph::Cycle(8), "C8"});
  family.push_back({Graph::Cycle(9), "C9"});
  family.push_back({Graph::Cycle(10), "C10"});
  // Extend with longer paths/cycles if more were requested.
  int extra_path = 8;
  int extra_cycle = 11;
  while (static_cast<int>(family.size()) < count) {
    if (family.size() % 2 == 0) {
      family.push_back(
          {Graph::Path(extra_path), "P" + std::to_string(extra_path)});
      ++extra_path;
    } else {
      family.push_back(
          {Graph::Cycle(extra_cycle), "C" + std::to_string(extra_cycle)});
      ++extra_cycle;
    }
  }
  family.resize(count);
  return family;
}

std::vector<double> HomVector(const Graph& g,
                              const std::vector<Pattern>& patterns) {
  std::vector<double> out;
  out.reserve(patterns.size());
  for (const Pattern& pattern : patterns) {
    if (graph::IsTree(pattern.graph)) {
      out.push_back(CountTreeHomsDouble(pattern.graph, g));
    } else {
      out.push_back(CountHomsDouble(pattern.graph, g));
    }
  }
  return out;
}

std::vector<double> LogScaledHomVector(const Graph& g,
                                       const std::vector<Pattern>& patterns) {
  std::vector<double> raw = HomVector(g, patterns);
  for (size_t i = 0; i < raw.size(); ++i) {
    raw[i] = std::log1p(raw[i]) / patterns[i].graph.NumVertices();
  }
  return raw;
}

std::vector<RootedPattern> RootedTreesUpTo(int max_size) {
  std::vector<RootedPattern> out;
  std::set<std::string> seen;
  int index = 0;
  for (const Graph& tree : graph::TreesUpTo(max_size)) {
    ++index;
    for (int r = 0; r < tree.NumVertices(); ++r) {
      const std::string canon = graph::RootedTreeCanonicalString(tree, r, -1);
      if (seen.insert(canon).second) {
        out.push_back({tree, r,
                       "T" + std::to_string(tree.NumVertices()) + "#" +
                           std::to_string(index) + "@" + std::to_string(r)});
      }
    }
  }
  return out;
}

linalg::Matrix RootedHomNodeEmbedding(
    const Graph& g, const std::vector<RootedPattern>& patterns) {
  const int n = g.NumVertices();
  linalg::Matrix embedding(n, static_cast<int>(patterns.size()));
  for (size_t j = 0; j < patterns.size(); ++j) {
    const std::vector<__int128> counts =
        RootedTreeHomVector(patterns[j].graph, patterns[j].root, g);
    const double scale = 1.0 / patterns[j].graph.NumVertices();
    for (int v = 0; v < n; ++v) {
      embedding(v, static_cast<int>(j)) =
          std::log1p(static_cast<double>(counts[v])) * scale;
    }
  }
  return embedding;
}

linalg::Matrix RootedHomNodeKernel(const Graph& g,
                                   const std::vector<RootedPattern>& patterns) {
  const linalg::Matrix embedding = RootedHomNodeEmbedding(g, patterns);
  return embedding * embedding.Transposed();
}

}  // namespace x2vec::hom
