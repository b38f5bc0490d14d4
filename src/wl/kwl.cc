#include "wl/kwl.h"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <string>

#include "base/parallel.h"
#include "wl/rounds.h"

namespace x2vec::wl {
namespace {

using graph::Graph;

constexpr std::string_view kOperation = "k-WL refinement";

// A round stores each tuple's n rows of 2k entries (its k^2-entry atomic
// type in round 0). Datasets needing more entries than an int can count
// are refused before anything tuple-sized is allocated.
constexpr int64_t kMaxEntries = std::numeric_limits<int>::max();

// One graph of the tuple dataset: its n^k tuples are dataset indices
// [first, first + count), tuple (v_1..v_k) at first + sum_i v_i stride[i].
struct TupleBlock {
  const Graph* graph = nullptr;
  int n = 0;
  int64_t first = 0;
  int64_t count = 0;
  std::vector<int64_t> stride;    // stride[i] = n^(k-1-i).
  std::vector<uint8_t> adjacent;  // adjacent[u * n + v]: edge u -> v.

  // Atomic relation of an ordered vertex pair: equal, adjacent, neither.
  int Relation(int u, int v) const {
    return u == v ? 2 : adjacent[static_cast<size_t>(u) * n + v] ? 1 : 0;
  }
};

// Per-chunk buffers of the tuple loop.
struct Scratch {
  std::vector<int> tuple;  // The current tuple's vertices.
  std::vector<int> rows;
  std::vector<int> order;
};

// The dataset's tuples, graph after graph.
struct Tuples {
  std::vector<TupleBlock> blocks;
  int k = 0;
  int64_t total = 0;
  bool inline_only = false;  // Small passes stay on the calling thread.

  // Runs body(block, t, x, scratch) for every dataset tuple x, tuple t of
  // its block, with scratch.tuple holding its vertices, reading the
  // budget's deadline before every chunk of at most
  // Budget::kClockCheckStride tuples (as often as per-tuple Spend()s would
  // read the clock); a small pass is one chunk on the calling thread.
  template <typename Body>
  Status ForEach(Budget& budget, const Body& body) const {
    return ParallelForUntilDeadline(
        total, inline_only ? total : 0, budget, kOperation,
        [&](int64_t from, int64_t to) {
          Scratch scratch;
          scratch.tuple.resize(k);
          size_t b = 0;
          for (int64_t x = from; x < to; ++x) {
            while (x >= blocks[b].first + blocks[b].count) ++b;
            const TupleBlock& block = blocks[b];
            const int64_t t = x - block.first;
            for (int i = 0; i < k; ++i) {
              scratch.tuple[i] =
                  static_cast<int>(t / block.stride[i] % block.n);
            }
            body(block, t, x, scratch);
          }
          return Status::Ok();
        });
  }
};

// Both entry points refuse k < 1 before anything else.
Status CheckDimension(int k) {
  return k >= 1 ? Status::Ok()
                : Status::InvalidArgument("k-WL needs k >= 1, got " +
                                          std::to_string(k));
}

// The folklore k-WL pass behind KwlRefineDataset and KwlCompareBudgeted:
// round 0 ranks the atomic types and each later round the (old colour,
// sorted rows) signatures, through the round loop and ranking of the 1-WL
// pass. `done` may end the run after any round.
StatusOr<RefinementResult> RefineTuples(
    std::span<const Graph* const> graphs, int k, int max_rounds,
    Budget& budget, const std::function<bool(const RefinementResult&)>& done) {
  const int64_t width = 2 * static_cast<int64_t>(k);  // Row entries.
  const int64_t type_width = static_cast<int64_t>(k) * k;
  Tuples tuples{.blocks = std::vector<TupleBlock>(graphs.size()), .k = k};
  int64_t& total = tuples.total;
  int64_t entries = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    TupleBlock& block = tuples.blocks[i];
    block.graph = graphs[i];
    block.n = graphs[i]->NumVertices();
    block.first = total;
    // n^k, multiplied out only until it passes the limit.
    block.count = block.n <= 1 ? block.n : 1;
    for (int p = 0; block.n > 1 && p < k && block.count <= kMaxEntries; ++p) {
      block.count *= block.n;
    }
    const int64_t per_tuple = std::max(type_width, width * block.n);
    if (block.count > 0 && per_tuple > (kMaxEntries - entries) / block.count) {
      return Status::InvalidArgument(
          "k-WL with k = " + std::to_string(k) +
          " on this dataset needs more than 2^31 - 1 tuple entries a round");
    }
    entries += block.count * per_tuple;
    total += block.count;
  }
  if (!budget.Spend(total)) return budget.ExhaustedError(kOperation);

  std::vector<int64_t> row_begin = {0};
  for (TupleBlock& block : tuples.blocks) {
    const int n = block.n;
    block.stride.assign(k, 1);
    for (int i = k - 2; i >= 0; --i) block.stride[i] = block.stride[i + 1] * n;
    block.adjacent.assign(static_cast<size_t>(n) * n, 0);
    for (int u = 0; u < n; ++u) {
      for (const graph::Neighbor& nb : block.graph->Neighbors(u)) {
        block.adjacent[static_cast<size_t>(u) * n + nb.to] = 1;
      }
    }
    for (int64_t t = 0; t < block.count; ++t) {
      row_begin.push_back(row_begin.back() + width * n);
    }
  }
  tuples.inline_only = row_begin.back() < internal::kInlineEntries;

  // Round 0: atomic types, the k labels then Relation(v_i, v_j) for every
  // ordered pair of positions i != j, compared lexicographically.
  RefinementResult result;
  result.round_colors.emplace_back(total);
  {
    std::vector<int> types(static_cast<size_t>(total * type_width));
    const Status typed = tuples.ForEach(
        budget, [&](const TupleBlock& block, int64_t, int64_t x,
                    Scratch& scratch) {
          const std::vector<int>& tuple = scratch.tuple;
          int* type = types.data() + x * type_width;
          for (int i = 0; i < k; ++i) {
            *type++ = block.graph->VertexLabel(tuple[i]);
          }
          for (int i = 0; i < k; ++i) {
            for (int j = 0; j < k; ++j) {
              if (i != j) *type++ = block.Relation(tuple[i], tuple[j]);
            }
          }
        });
    if (!typed.ok()) return typed;
    std::vector<int> order;
    result.colors_per_round.push_back(internal::RankSignatures(
        result.round_colors[0], order, [&](int a, int b) {
          const int* p = types.data();
          return std::lexicographical_compare_three_way(
              p + a * type_width, p + (a + 1) * type_width,
              p + b * type_width, p + (b + 1) * type_width);
        }));
  }

  // Later rounds: tuple x's rows, sorted, fill rows[row_begin[x],
  // row_begin[x + 1]). Row w holds the colours of the k tuples with w
  // substituted at one position, then Relation(w, v_i) for each position.
  std::vector<int> rows;
  const auto build = [&](const std::vector<int>& current) -> Status {
    if (!budget.Spend(total)) return budget.ExhaustedError(kOperation);
    rows.resize(static_cast<size_t>(row_begin.back()));
    return tuples.ForEach(
        budget,
        [&](const TupleBlock& block, int64_t t, int64_t x, Scratch& scratch) {
          const std::vector<int>& tuple = scratch.tuple;
          const int n = block.n;
          scratch.rows.resize(static_cast<size_t>(n * width));
          int* row = scratch.rows.data();
          for (int w = 0; w < n; ++w) {
            for (int i = 0; i < k; ++i) {
              row[i] = current[block.first + t +
                               (w - tuple[i]) * block.stride[i]];
              row[k + i] = block.Relation(w, tuple[i]);
            }
            row += width;
          }
          const int* s = scratch.rows.data();
          scratch.order.resize(n);
          std::iota(scratch.order.begin(), scratch.order.end(), 0);
          std::sort(scratch.order.begin(), scratch.order.end(),
                    [&](int a, int b) {
                      return std::lexicographical_compare(
                          s + a * width, s + (a + 1) * width, s + b * width,
                          s + (b + 1) * width);
                    });
          int* out = rows.data() + row_begin[x];
          for (int w : scratch.order) {
            out = std::copy(s + w * width, s + (w + 1) * width, out);
          }
        });
  };
  const auto compare = [&](const std::vector<int>& colors, int a, int b) {
    if (const auto c = colors[a] <=> colors[b]; c != 0) return c;
    const int* p = rows.data();
    return std::lexicographical_compare_three_way(
        p + row_begin[a], p + row_begin[a + 1], p + row_begin[b],
        p + row_begin[b + 1]);
  };
  // Early rounds repeat a few signatures over most tuples, whose long rows
  // share long prefixes: the rank compares only the distinct ones.
  const auto hash = [&](const std::vector<int>& colors, int x) {
    uint64_t h = static_cast<uint32_t>(colors[x]);
    for (int64_t e = row_begin[x]; e < row_begin[x + 1]; ++e) {
      h = (h ^ static_cast<uint32_t>(rows[e])) * 0x9E3779B97F4A7C15ull;
    }
    return h;
  };
  const Status status = internal::RunRounds(
      max_rounds < 0 ? static_cast<int>(total) : max_rounds, result, build,
      compare, done, hash);
  if (!status.ok()) return status;
  return result;
}

}  // namespace

StatusOr<RefinementResult> KwlRefineDataset(std::span<const Graph> graphs,
                                            int k, int max_rounds,
                                            Budget& budget) {
  if (Status valid = CheckDimension(k); !valid.ok()) return valid;
  std::vector<const Graph*> pointers;
  pointers.reserve(graphs.size());
  for (const Graph& g : graphs) pointers.push_back(&g);
  return RefineTuples(pointers, k, max_rounds, budget,
                      [](const RefinementResult&) { return false; });
}

StatusOr<KwlResult> KwlCompareBudgeted(const Graph& g, const Graph& h, int k,
                                       Budget& budget) {
  if (Status valid = CheckDimension(k); !valid.ok()) return valid;
  if (budget.Exhausted()) return budget.ExhaustedError(kOperation);
  KwlResult result;
  if (g.NumVertices() != h.NumVertices()) {
    // Different orders: trivially distinguished (histogram sizes differ).
    result.distinguishes = true;
    result.distinguishing_round = 0;
    return result;
  }
  const Graph* const both[] = {&g, &h};
  StatusOr<RefinementResult> refined = RefineTuples(
      both, k, /*max_rounds=*/-1, budget, [&](const RefinementResult& r) {
        const std::vector<int>& colors = r.round_colors.back();
        if (!internal::HistogramsDiffer(colors, r.colors_per_round.back(),
                                        colors.size() / 2)) {
          return false;
        }
        result.distinguishes = true;
        result.distinguishing_round =
            static_cast<int>(r.round_colors.size()) - 1;
        return true;
      });
  if (!refined.ok()) return refined.status();
  result.num_colors = refined->colors_per_round.back();
  if (!result.distinguishes) result.rounds_to_stable = refined->stable_round;
  return result;
}

KwlResult KwlCompare(const Graph& g, const Graph& h, int k) {
  Budget unlimited;
  return *KwlCompareBudgeted(g, h, k, unlimited);
}

bool KwlDistinguishes(const Graph& g, const Graph& h, int k) {
  return KwlCompare(g, h, k).distinguishes;
}

}  // namespace x2vec::wl
