#include "graph/map_search.h"

#include <algorithm>
#include <set>
#include <utility>

namespace x2vec::graph::internal {
namespace {

class MapSearch {
 public:
  MapSearch(const Graph& f, const Graph& g, const MapKind& kind,
            Budget& budget)
      : f_(f), g_(g), kind_(kind),
        isomorphism_(kind.injective && kind.surjective), budget_(budget),
        map_(f.NumVertices(), -1), used_(g.NumVertices(), 0),
        order_(SearchOrder()) {}

  MapSearchResult Run() {
    result_.exhausted = budget_.Exhausted();
    if (!result_.exhausted && !Excluded()) Extend(0, 1.0);
    return std::move(result_);
  }

 private:
  // True iff an invariant already rules out every map of the kind.
  bool Excluded() const {
    if (!isomorphism_) {
      return kind_.surjective && (f_.NumVertices() < g_.NumVertices() ||
                                  f_.NumEdges() < g_.NumEdges());
    }
    if (f_.NumVertices() != g_.NumVertices() ||
        f_.NumEdges() != g_.NumEdges() || f_.directed() != g_.directed() ||
        f_.DegreeSequence() != g_.DegreeSequence()) {
      return true;
    }
    const std::vector<int>& lf = f_.VertexLabels();
    const std::vector<int>& lg = g_.VertexLabels();
    return !std::is_permutation(lf.begin(), lf.end(), lg.begin(), lg.end());
  }

  // Orders the vertices of f so that each one after the first of its
  // component is adjacent to an already placed one: the edge checks then
  // prune from the second vertex on. Each component is seeded at its
  // highest-degree vertex (the pinned vertex first, if any) and grows by
  // the frontier vertex with the most placed neighbours.
  std::vector<int> SearchOrder() const {
    const int n = f_.NumVertices();
    std::vector<int> order;
    order.reserve(n);
    std::vector<bool> chosen(n, false);
    const auto chosen_neighbors = [&](int v) {
      int c = 0;
      for (const Neighbor& nb : f_.Neighbors(v)) c += chosen[nb.to] ? 1 : 0;
      return c;
    };
    while (static_cast<int>(order.size()) < n) {
      int seed = order.empty() ? kind_.pinned : -1;
      if (seed < 0) {
        for (int v = 0; v < n; ++v) {
          if (!chosen[v] && (seed == -1 || f_.Degree(v) > f_.Degree(seed))) {
            seed = v;
          }
        }
      }
      std::vector<int> frontier = {seed};
      chosen[seed] = true;
      while (!frontier.empty()) {
        size_t best = 0;
        for (size_t i = 1; i < frontier.size(); ++i) {
          if (chosen_neighbors(frontier[i]) >
              chosen_neighbors(frontier[best])) {
            best = i;
          }
        }
        const int v = frontier[best];
        frontier.erase(frontier.begin() + best);
        order.push_back(v);
        for (const Neighbor& nb : f_.Neighbors(v)) {
          if (!chosen[nb.to]) {
            chosen[nb.to] = true;
            frontier.push_back(nb.to);
          }
        }
      }
    }
    return order;
  }

  // Places order_[depth] at every admissible image in turn.
  void Extend(size_t depth, double weight) {
    if (depth == order_.size()) {
      if (kind_.surjective && !kind_.injective && !Onto()) return;
      if (result_.count++ == 0) result_.first_map = map_;
      result_.weighted_sum += weight;
      stop_ = kind_.stop_at_first;
      return;
    }
    const int u = order_[depth];
    const int label = f_.VertexLabel(u);
    const bool pinned = depth == 0 && kind_.pinned >= 0;
    const int end = pinned ? kind_.pinned_image + 1 : g_.NumVertices();
    for (int w = pinned ? kind_.pinned_image : 0; w < end; ++w) {
      if (!budget_.Spend(1)) {
        result_.exhausted = stop_ = true;
        return;
      }
      // The reject path that most candidates take stays inline.
      if ((kind_.injective && used_[w]) || g_.VertexLabel(w) != label) {
        continue;
      }
      double image_weight = weight;
      if (!Admissible(u, w, &image_weight)) continue;
      map_[u] = w;
      if (kind_.injective) used_[w] = true;
      Extend(depth + 1, image_weight);
      map_[u] = -1;
      if (kind_.injective) used_[w] = false;
      if (stop_) return;
    }
  }

  // Whether u may map to w, once w is free and has u's label: the degrees
  // (isomorphisms only), then u's placed arcs. Multiplies the weights of
  // their image edges into *weight. Forced inline: GCC otherwise calls it
  // out of line, keeping the weight in memory, and the search runs slower
  // than the separate searches it replaced.
  [[gnu::always_inline]] bool Admissible(int u, int w, double* weight) const {
    if (isomorphism_ &&
        (f_.Degree(u) != g_.Degree(w) ||
         (f_.directed() && f_.InDegree(u) != g_.InDegree(w)))) {
      return false;
    }
    const int placed = MapPlacedArcs(f_.Neighbors(u), g_.Neighbors(w), weight);
    if (placed < 0 ||
        (f_.directed() &&
         MapPlacedArcs(f_.InNeighbors(u), g_.InNeighbors(w), weight) < 0)) {
      return false;
    }
    if (!isomorphism_) return true;
    // As many placed neighbours of w as of u (out-neighbours on digraphs),
    // so that no edge of G is left without a preimage.
    int placed_images = 0;
    for (const Neighbor& nb : g_.Neighbors(w)) {
      placed_images += used_[nb.to] ? 1 : 0;
    }
    return placed == placed_images;
  }

  // Each arc of `arcs` to a placed vertex needs an image arc in `images`
  // with the same label (and, for isomorphisms, the same weight). Returns
  // the number of such arcs, or -1 if one has no image.
  int MapPlacedArcs(const std::vector<Neighbor>& arcs,
                    const std::vector<Neighbor>& images,
                    double* weight) const {
    int placed = 0;
    for (const Neighbor& arc : arcs) {
      const int image = map_[arc.to];
      if (image == -1) continue;
      ++placed;
      const auto it =
          std::find_if(images.begin(), images.end(),
                       [image](const Neighbor& nb) { return nb.to == image; });
      if (it == images.end() || it->label != arc.label ||
          (isomorphism_ && it->weight != arc.weight)) {
        return -1;
      }
      *weight *= it->weight;
    }
    return placed;
  }

  // On a complete homomorphism: true iff its image is all of G. Image
  // edges are edges of G, so it covers E(G) iff it has |E(G)| distinct ones.
  bool Onto() const {
    std::vector<bool> hit(g_.NumVertices(), false);
    for (const int w : map_) hit[w] = true;
    if (std::find(hit.begin(), hit.end(), false) != hit.end()) return false;
    std::set<std::pair<int, int>> images;
    for (const Edge& e : f_.Edges()) {
      const int a = map_[e.u];
      const int b = map_[e.v];
      images.emplace(g_.directed() ? a : std::min(a, b),
                     g_.directed() ? b : std::max(a, b));
    }
    return static_cast<int>(images.size()) == g_.NumEdges();
  }

  const Graph& f_;
  const Graph& g_;
  const MapKind kind_;
  const bool isomorphism_;
  Budget& budget_;
  std::vector<int> map_;     // Image of each placed vertex of f, else -1.
  // Vertices of g in the image (injective only); bytes, not bits, as the
  // reject path reads one per candidate.
  std::vector<char> used_;
  std::vector<int> order_;
  MapSearchResult result_;
  bool stop_ = false;  // Budget gone, or the first map found when asked.
};

}  // namespace

MapSearchResult SearchMaps(const Graph& f, const Graph& g, const MapKind& kind,
                           Budget& budget) {
  return MapSearch(f, g, kind, budget).Run();
}

}  // namespace x2vec::graph::internal
