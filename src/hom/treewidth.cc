#include "hom/treewidth.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>

#include "linalg/int128.h"

namespace x2vec::hom {
namespace {

using graph::Graph;

// Dense symmetric boolean adjacency that supports fill-in edges.
class FillGraph {
 public:
  explicit FillGraph(const Graph& f) : n_(f.NumVertices()), adj_(n_ * n_, 0) {
    for (const graph::Edge& e : f.Edges()) {
      adj_[e.u * n_ + e.v] = 1;
      adj_[e.v * n_ + e.u] = 1;
    }
  }

  bool Adjacent(int u, int v) const { return adj_[u * n_ + v] != 0; }
  void Connect(int u, int v) {
    adj_[u * n_ + v] = 1;
    adj_[v * n_ + u] = 1;
  }

  // Eliminates v: connects its live neighbours pairwise; returns their count.
  int Eliminate(int v, const std::vector<bool>& eliminated) {
    std::vector<int> live;
    for (int u = 0; u < n_; ++u) {
      if (u != v && !eliminated[u] && Adjacent(u, v)) live.push_back(u);
    }
    for (size_t i = 0; i < live.size(); ++i) {
      for (size_t j = i + 1; j < live.size(); ++j) {
        Connect(live[i], live[j]);
      }
    }
    return static_cast<int>(live.size());
  }

  int FillInCost(int v, const std::vector<bool>& eliminated) const {
    std::vector<int> live;
    for (int u = 0; u < n_; ++u) {
      if (u != v && !eliminated[u] && Adjacent(u, v)) live.push_back(u);
    }
    int missing = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      for (size_t j = i + 1; j < live.size(); ++j) {
        if (!Adjacent(live[i], live[j])) ++missing;
      }
    }
    return missing;
  }

 private:
  int n_;
  std::vector<char> adj_;
};

// Branch-and-bound over elimination orders. Spends one budget unit per
// node expansion; an exhausted budget aborts the search (`aborted()`).
class TreewidthSearch {
 public:
  TreewidthSearch(const Graph& f, Budget& budget)
      : f_(f), n_(f.NumVertices()), budget_(budget) {}

  int Run(std::vector<int>* best_order) {
    best_width_ = n_ == 0 ? 0 : n_ - 1;
    // Seed the bound with the min-fill order.
    std::vector<int> heuristic = MinFillEliminationOrder(f_);
    best_width_ = WidthOfEliminationOrder(f_, heuristic);
    best_order_ = heuristic;

    aborted_ = budget_.Exhausted();
    if (!aborted_) {
      FillGraph fill(f_);
      std::vector<bool> eliminated(n_, false);
      std::vector<int> order;
      order.reserve(n_);
      Search(fill, eliminated, order, 0);
    }
    if (best_order != nullptr) *best_order = best_order_;
    return best_width_;
  }

  bool aborted() const { return aborted_; }

 private:
  void Search(const FillGraph& fill, std::vector<bool>& eliminated,
              std::vector<int>& order, int width_so_far) {
    if (width_so_far >= best_width_) return;  // Cannot improve.
    if (static_cast<int>(order.size()) == n_) {
      best_width_ = width_so_far;
      best_order_ = order;
      return;
    }
    for (int v = 0; v < n_; ++v) {
      if (aborted_) return;
      if (!budget_.Spend(1)) {
        aborted_ = true;
        return;
      }
      if (eliminated[v]) continue;
      FillGraph next = fill;  // Copy; patterns are tiny.
      eliminated[v] = true;
      const int degree = next.Eliminate(v, eliminated);
      order.push_back(v);
      Search(next, eliminated, order, std::max(width_so_far, degree));
      order.pop_back();
      eliminated[v] = false;
    }
  }

  const Graph& f_;
  const int n_;
  Budget& budget_;
  int best_width_ = 0;
  std::vector<int> best_order_;
  bool aborted_ = false;
};

// A factor over an ordered scope of F-vertices with a dense table indexed
// by assignments into V(G) (mixed radix base n_G, first scope vertex is the
// most significant digit).
template <typename Acc>
struct Factor {
  std::vector<int> scope;
  std::vector<Acc> table;
};

template <typename Acc>
Factor<Acc> Multiply(const Factor<Acc>& a, const Factor<Acc>& b, int ng,
                     Acc (*mul)(Acc, Acc), Budget& budget, bool& aborted) {
  Factor<Acc> out;
  out.scope = a.scope;
  for (int v : b.scope) {
    if (std::find(out.scope.begin(), out.scope.end(), v) == out.scope.end()) {
      out.scope.push_back(v);
    }
  }
  std::sort(out.scope.begin(), out.scope.end());
  int64_t size = 1;
  for (size_t i = 0; i < out.scope.size(); ++i) size *= ng;
  out.table.assign(size, Acc(0));

  // Position of each input-scope vertex within the output scope.
  auto positions = [&](const std::vector<int>& scope) {
    std::vector<int> pos;
    for (int v : scope) {
      pos.push_back(static_cast<int>(
          std::find(out.scope.begin(), out.scope.end(), v) -
          out.scope.begin()));
    }
    return pos;
  };
  const std::vector<int> pos_a = positions(a.scope);
  const std::vector<int> pos_b = positions(b.scope);

  std::vector<int> assignment(out.scope.size(), 0);
  for (int64_t index = 0; index < size; ++index) {
    if (!budget.Spend(1)) {
      aborted = true;
      return out;
    }
    // Decode the assignment.
    int64_t rest = index;
    for (int i = static_cast<int>(out.scope.size()) - 1; i >= 0; --i) {
      assignment[i] = static_cast<int>(rest % ng);
      rest /= ng;
    }
    int64_t ia = 0;
    for (int p : pos_a) ia = ia * ng + assignment[p];
    int64_t ib = 0;
    for (int p : pos_b) ib = ib * ng + assignment[p];
    out.table[index] = mul(a.table[ia], b.table[ib]);
  }
  return out;
}

template <typename Acc>
Factor<Acc> SumOut(const Factor<Acc>& f, int vertex, int ng,
                   Acc (*add)(Acc, Acc), Budget& budget, bool& aborted) {
  const auto it = std::find(f.scope.begin(), f.scope.end(), vertex);
  X2VEC_CHECK(it != f.scope.end());
  const int axis = static_cast<int>(it - f.scope.begin());
  const int arity = static_cast<int>(f.scope.size());

  Factor<Acc> out;
  out.scope = f.scope;
  out.scope.erase(out.scope.begin() + axis);
  int64_t out_size = 1;
  for (int i = 0; i < arity - 1; ++i) out_size *= ng;
  out.table.assign(out_size, Acc(0));

  // Strides in the input table.
  std::vector<int64_t> stride(arity, 1);
  for (int i = arity - 2; i >= 0; --i) stride[i] = stride[i + 1] * ng;

  std::vector<int> assignment(arity - 1, 0);
  for (int64_t out_index = 0; out_index < out_size; ++out_index) {
    if (!budget.Spend(1)) {
      aborted = true;
      return out;
    }
    int64_t rest = out_index;
    for (int i = arity - 2; i >= 0; --i) {
      assignment[i] = static_cast<int>(rest % ng);
      rest /= ng;
    }
    // Base input index with the summed axis at 0.
    int64_t base = 0;
    int out_pos = 0;
    for (int i = 0; i < arity; ++i) {
      if (i == axis) continue;
      base += assignment[out_pos++] * stride[i];
    }
    Acc total(0);
    for (int w = 0; w < ng; ++w) {
      total = add(total, f.table[base + w * stride[axis]]);
    }
    out.table[out_index] = total;
  }
  return out;
}

constexpr std::string_view kTreewidthOperation = "exact treewidth search";
constexpr std::string_view kEliminationOperation =
    "homomorphism counting via elimination";

// Caller input bucket elimination cannot count: digraphs (its adjacency
// factors are symmetric) and an order that is not a permutation of V(F).
Status CheckEliminationInput(const Graph& f, const Graph& g,
                             const std::vector<int>& order) {
  const std::string operation(kEliminationOperation);
  if (f.directed() || g.directed()) {
    return Status::InvalidArgument(operation +
                                   ": F and G must be undirected");
  }
  std::vector<char> seen(f.NumVertices(), 0);
  bool permutation = order.size() == seen.size();
  for (size_t i = 0; permutation && i < order.size(); ++i) {
    const int v = order[i];
    permutation = v >= 0 && v < f.NumVertices() && seen[v] == 0;
    if (permutation) seen[v] = 1;
  }
  if (!permutation) {
    return Status::InvalidArgument(
        operation + ": the order is not a permutation of V(F)");
  }
  return Status::Ok();
}

// hom(F, G) by bucket elimination along `order`. Bad input is
// kInvalidArgument, checked before the budget is read.
template <typename Acc>
StatusOr<Acc> EliminationCount(const Graph& f, const Graph& g,
                               const std::vector<int>& order,
                               Acc (*mul)(Acc, Acc), Acc (*add)(Acc, Acc),
                               Budget& budget) {
  const Status valid = CheckEliminationInput(f, g, order);
  if (!valid.ok()) return valid;
  if (budget.Exhausted()) return budget.ExhaustedError(kEliminationOperation);
  const int nf = f.NumVertices();
  const int ng = g.NumVertices();
  if (nf == 0) return Acc(1);
  if (ng == 0) return Acc(0);

  std::vector<Factor<Acc>> factors;
  // Unary label factors (also ensure every F-vertex appears in some factor).
  for (int u = 0; u < nf; ++u) {
    Factor<Acc> unary;
    unary.scope = {u};
    unary.table.assign(ng, Acc(0));
    for (int v = 0; v < ng; ++v) {
      if (f.VertexLabel(u) == g.VertexLabel(v)) unary.table[v] = Acc(1);
    }
    factors.push_back(std::move(unary));
  }
  // Binary adjacency factors per pattern edge.
  for (const graph::Edge& e : f.Edges()) {
    Factor<Acc> binary;
    binary.scope = {std::min(e.u, e.v), std::max(e.u, e.v)};
    binary.table.assign(static_cast<int64_t>(ng) * ng, Acc(0));
    for (const graph::Edge& ge : g.Edges()) {
      if (ge.label != e.label) continue;
      binary.table[static_cast<int64_t>(ge.u) * ng + ge.v] = Acc(1);
      binary.table[static_cast<int64_t>(ge.v) * ng + ge.u] = Acc(1);
    }
    factors.push_back(std::move(binary));
  }

  bool aborted = false;
  for (int x : order) {
    // Join all factors mentioning x, then sum x out.
    Factor<Acc> joint;
    bool have = false;
    std::vector<Factor<Acc>> rest;
    for (Factor<Acc>& factor : factors) {
      if (std::find(factor.scope.begin(), factor.scope.end(), x) !=
          factor.scope.end()) {
        if (!have) {
          joint = std::move(factor);
          have = true;
        } else {
          joint = Multiply(joint, factor, ng, mul, budget, aborted);
          if (aborted) return budget.ExhaustedError(kEliminationOperation);
        }
      } else {
        rest.push_back(std::move(factor));
      }
    }
    X2VEC_CHECK(have);
    rest.push_back(SumOut(joint, x, ng, add, budget, aborted));
    if (aborted) return budget.ExhaustedError(kEliminationOperation);
    factors = std::move(rest);
  }

  // Only empty-scope (scalar) factors remain.
  Acc result(1);
  for (const Factor<Acc>& factor : factors) {
    X2VEC_CHECK(factor.scope.empty());
    result = mul(result, factor.table[0]);
  }
  return result;
}

}  // namespace

int WidthOfEliminationOrder(const Graph& f, const std::vector<int>& order) {
  FillGraph fill(f);
  std::vector<bool> eliminated(f.NumVertices(), false);
  int width = 0;
  for (int v : order) {
    eliminated[v] = true;
    width = std::max(width, fill.Eliminate(v, eliminated));
  }
  return width;
}

std::vector<int> MinFillEliminationOrder(const Graph& f) {
  const int n = f.NumVertices();
  FillGraph fill(f);
  std::vector<bool> eliminated(n, false);
  std::vector<int> order;
  order.reserve(n);
  for (int step = 0; step < n; ++step) {
    int best = -1;
    int best_cost = 0;
    for (int v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      const int cost = fill.FillInCost(v, eliminated);
      if (best == -1 || cost < best_cost) {
        best = v;
        best_cost = cost;
      }
    }
    eliminated[best] = true;
    fill.Eliminate(best, eliminated);
    order.push_back(best);
  }
  return order;
}

int ExactTreewidth(const Graph& f, std::vector<int>* best_order) {
  Budget unlimited;
  return *ExactTreewidthBudgeted(f, best_order, unlimited);
}

__int128 CountHoms(const Graph& f, const Graph& g) {
  Budget unlimited;
  return *CountHomsBudgeted(f, g, unlimited);
}

double CountHomsDouble(const Graph& f, const Graph& g) {
  Budget unlimited;
  return *CountHomsDoubleBudgeted(f, g, unlimited);
}

StatusOr<int> ExactTreewidthBudgeted(const Graph& f,
                                     std::vector<int>* best_order,
                                     Budget& budget) {
  if (f.NumVertices() > 10) {
    return Status::InvalidArgument(
        std::string(kTreewidthOperation) + ": F has " +
        std::to_string(f.NumVertices()) +
        " vertices; the search is for patterns of at most 10");
  }
  if (budget.Exhausted()) return budget.ExhaustedError(kTreewidthOperation);
  TreewidthSearch search(f, budget);
  const int width = search.Run(best_order);
  if (search.aborted()) return budget.ExhaustedError(kTreewidthOperation);
  return width;
}

StatusOr<__int128> CountHomsViaEliminationBudgeted(
    const Graph& f, const Graph& g, const std::vector<int>& order,
    Budget& budget) {
  return EliminationCount<__int128>(f, g, order, &linalg::CheckedMul,
                                    &linalg::CheckedAdd, budget);
}

StatusOr<__int128> CountHomsBudgeted(const Graph& f, const Graph& g,
                                     Budget& budget) {
  return CountHomsViaEliminationBudgeted(f, g, MinFillEliminationOrder(f),
                                         budget);
}

StatusOr<double> CountHomsDoubleBudgeted(const Graph& f, const Graph& g,
                                         Budget& budget) {
  static const auto mul = [](double a, double b) { return a * b; };
  static const auto add = [](double a, double b) { return a + b; };
  return EliminationCount<double>(f, g, MinFillEliminationOrder(f), +mul,
                                  +add, budget);
}

}  // namespace x2vec::hom
