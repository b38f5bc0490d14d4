#include "hom/subgraph_counts.h"

#include <optional>
#include <vector>

#include "graph/isomorphism.h"
#include "hom/treewidth.h"
#include "linalg/int128.h"

namespace x2vec::hom {
namespace {

using graph::Graph;
using linalg::CheckedAdd;
using linalg::CheckedMul;

// Quotient of f by the partition given as block ids per vertex; nullopt if
// an edge collapses into a self-loop (such quotients contribute nothing).
std::optional<Graph> Quotient(const Graph& f,
                              const std::vector<int>& block_of,
                              int num_blocks) {
  Graph q(num_blocks);
  for (int v = 0; v < f.NumVertices(); ++v) {
    // Labelled patterns: blocks must be label-consistent; we simply carry
    // the first label (mixed-label blocks are impossible for injective
    // counting of labelled patterns — handled by hom() returning 0).
    q.SetVertexLabel(block_of[v], f.VertexLabel(v));
  }
  for (const graph::Edge& e : f.Edges()) {
    const int a = block_of[e.u];
    const int b = block_of[e.v];
    if (a == b) return std::nullopt;  // Self-loop.
    if (!q.HasEdge(a, b)) q.AddEdge(a, b);
  }
  return q;
}

// Enumerates all set partitions of {0..n-1} as restricted growth strings
// (rgs[0] = 0, rgs[i] <= 1 + max of the prefix), invoking the visitor with
// (block ids, number of blocks).
template <typename Visitor>
void PartitionRecurse(int position, int n, int max_so_far,
                      std::vector<int>& rgs, Visitor&& visit) {
  if (position == n) {
    visit(rgs, max_so_far + 1);
    return;
  }
  for (int block = 0; block <= max_so_far + 1; ++block) {
    rgs[position] = block;
    PartitionRecurse(position + 1, n, std::max(max_so_far, block), rgs,
                     visit);
  }
}

template <typename Visitor>
void ForEachPartition(int n, Visitor&& visit) {
  if (n == 0) return;
  std::vector<int> rgs(n, 0);
  PartitionRecurse(1, n, 0, rgs, visit);
}

int64_t Factorial(int k) {
  int64_t out = 1;
  for (int i = 2; i <= k; ++i) out *= i;
  return out;
}

}  // namespace

__int128 CountEmbeddingsViaHoms(const Graph& f, const Graph& g) {
  X2VEC_CHECK_LE(f.NumVertices(), 9)
      << "partition-lattice expansion is for small patterns";
  if (f.NumVertices() == 0) return 1;
  __int128 total = 0;
  ForEachPartition(f.NumVertices(), [&](const std::vector<int>& block_of,
                                        int blocks) {
    const std::optional<Graph> quotient = Quotient(f, block_of, blocks);
    if (!quotient.has_value()) return;
    // Moebius coefficient: product over blocks of (-1)^{|B|-1} (|B|-1)!.
    std::vector<int> block_size(blocks, 0);
    for (int b : block_of) ++block_size[b];
    __int128 mu = 1;
    for (int size : block_size) {
      mu = CheckedMul(mu, ((size - 1) % 2 == 0 ? 1 : -1) *
                              static_cast<__int128>(Factorial(size - 1)));
    }
    total = CheckedAdd(total, CheckedMul(mu, CountHoms(*quotient, g)));
  });
  return total;
}

__int128 CountSubgraphCopies(const Graph& f, const Graph& g) {
  const __int128 embeddings = CountEmbeddingsViaHoms(f, g);
  const int64_t automorphisms = graph::CountAutomorphisms(f);
  X2VEC_CHECK(embeddings % automorphisms == 0)
      << "emb must be divisible by aut";
  return embeddings / automorphisms;
}

}  // namespace x2vec::hom
