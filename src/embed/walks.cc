#include "embed/walks.h"

#include "base/metrics.h"
#include "base/parallel.h"
#include "base/trace.h"

namespace x2vec::embed {
namespace {

using graph::Graph;
using graph::GraphView;
using graph::NeighborSpan;

// The unnormalised node2vec weight of stepping current -> candidate given
// the walk arrived from `previous`.
double StepWeight(const GraphView& g, int previous, int to, double weight,
                  const WalkOptions& options) {
  double w;
  if (to == previous) {
    w = 1.0 / options.p;
  } else if (g.HasEdge(to, previous)) {
    w = 1.0;
  } else {
    w = 1.0 / options.q;
  }
  return w * weight;
}

}  // namespace

void CheckWalkOptions(const WalkOptions& options) {
  X2VEC_CHECK_GE(options.walk_length, 1);
  X2VEC_CHECK_GT(options.p, 0.0);
  X2VEC_CHECK_GT(options.q, 0.0);
}

int Node2VecStep(const GraphView& g, int previous, int current,
                 const WalkOptions& options, Rng& rng) {
  const NeighborSpan neighbors = g.Neighbors(current);
  if (neighbors.empty()) return -1;
  if (previous < 0 || (options.p == 1.0 && options.q == 1.0)) {
    return neighbors.To(UniformInt(rng, 0, neighbors.size() - 1));
  }
  // Cumulative-weight roulette: one pass to total the weights, one draw,
  // one pass to find the drawn neighbor. Weights are recomputed in the
  // second pass instead of stored — two multiplies and a neighbour probe
  // per candidate beat a heap allocation (let alone the alias-table build
  // the previous implementation paid) for the neighborhood sizes walks
  // see.
  double total = 0.0;
  for (int64_t i = 0; i < neighbors.size(); ++i) {
    total += StepWeight(g, previous, neighbors.To(i), neighbors.Weight(i),
                        options);
  }
  double remaining = UniformReal(rng, 0.0, total);
  for (int64_t i = 0; i < neighbors.size(); ++i) {
    remaining -= StepWeight(g, previous, neighbors.To(i), neighbors.Weight(i),
                            options);
    if (remaining <= 0.0) return neighbors.To(i);
  }
  // Floating-point slack can leave `remaining` marginally positive after
  // the last subtraction; the draw belongs to the final neighbor.
  return neighbors.To(neighbors.size() - 1);
}

std::vector<int> GenerateWalk(const GraphView& g, int start,
                              const WalkOptions& options, Rng& rng) {
  std::vector<int> walk = {start};
  int previous = -1;
  while (static_cast<int>(walk.size()) < options.walk_length) {
    const int current = walk.back();
    const int next = Node2VecStep(g, previous, current, options, rng);
    if (next < 0) {
      X2VEC_METRIC_COUNT("walks.dead_ends", 1);
      break;
    }
    X2VEC_METRIC_COUNT("walks.steps", 1);
    previous = current;
    walk.push_back(next);
  }
  X2VEC_METRIC_OBSERVE("walks.length", ({2.0, 4.0, 8.0, 16.0, 32.0, 64.0}),
                       static_cast<double>(walk.size()));
  return walk;
}

std::vector<std::vector<int>> GenerateWalks(const GraphView& g,
                                            const WalkOptions& options,
                                            Rng& rng) {
  CheckWalkOptions(options);
  std::vector<std::vector<int>> walks;
  walks.reserve(static_cast<size_t>(g.NumVertices()) *
                options.walks_per_node);
  // Shuffled start order per pass, as in the reference implementations.
  for (int pass = 0; pass < options.walks_per_node; ++pass) {
    for (int start : RandomPermutation(g.NumVertices(), rng)) {
      walks.push_back(GenerateWalk(g, start, options, rng));
    }
  }
  return walks;
}

std::vector<std::vector<int>> GenerateWalksParallel(const GraphView& g,
                                                    const WalkOptions& options,
                                                    uint64_t seed) {
  CheckWalkOptions(options);
  trace::Span span("walks.generate_parallel");
  const int64_t n = g.NumVertices();
  const int64_t passes = options.walks_per_node;
  // Streams [0, passes * n) are walks keyed by (pass, start vertex);
  // streams [passes * n, passes * n + passes) drive the per-pass shuffles
  // of the start order. Both depend only on the seed and the walk's
  // logical identity, never on the thread executing it.
  std::vector<std::vector<int>> starts(passes);
  for (int64_t pass = 0; pass < passes; ++pass) {
    Rng shuffle = Rng::Fork(seed, passes * n + pass);
    starts[pass] = RandomPermutation(static_cast<int>(n), shuffle);
  }
  std::vector<std::vector<int>> walks(static_cast<size_t>(passes * n));
  const Status status =
      ParallelFor(passes * n, 0, [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
          const int64_t pass = t / n;
          const int start = starts[pass][t % n];
          Rng rng = Rng::Fork(seed, pass * n + start);
          walks[t] = GenerateWalk(g, start, options, rng);
        }
        return Status::Ok();
      });
  X2VEC_CHECK(status.ok()) << status.ToString();
  span.AddWork(passes * n);
  return walks;
}

linalg::Matrix EmpiricalWalkSimilarity(const Graph& g, int k,
                                       int samples_per_node, Rng& rng) {
  X2VEC_CHECK_GE(k, 1);
  X2VEC_CHECK_GE(samples_per_node, 1);
  const int n = g.NumVertices();
  // One base draw from the caller's generator; each start vertex then owns
  // its own forked stream, so row v is filled independently of the others
  // and the matrix does not depend on the thread count.
  const uint64_t base = rng();
  linalg::Matrix similarity(n, n);
  const Status status = ParallelFor(n, 0, [&](int64_t lo, int64_t hi) {
    for (int64_t v = lo; v < hi; ++v) {
      Rng row_rng = Rng::Fork(base, static_cast<uint64_t>(v));
      for (int sample = 0; sample < samples_per_node; ++sample) {
        int current = static_cast<int>(v);
        bool alive = true;
        for (int step = 0; step < k; ++step) {
          const auto& neighbors = g.Neighbors(current);
          if (neighbors.empty()) {
            alive = false;
            break;
          }
          current =
              neighbors[UniformInt(row_rng, 0, neighbors.size() - 1)].to;
        }
        if (alive) similarity(v, current) += 1.0 / samples_per_node;
      }
    }
    return Status::Ok();
  });
  X2VEC_CHECK(status.ok()) << status.ToString();
  return similarity;
}

}  // namespace x2vec::embed
