#include "wl/wl_hash.h"

#include <sstream>
#include <vector>

#include "wl/rounds.h"

namespace x2vec::wl {
namespace {

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

// Serialises, for each round, the colour histogram and the canonical
// colour "dictionary": per colour id, what ColorRefinement ranked to give
// it — the vertex label in round 0, later the previous id and the pass's
// own LabelledPairs signature, the sorted (edge label, previous id)
// out-pairs plus, on digraphs, in-pairs. Because ids are ranks of exactly
// these signatures, two graphs produce the same serialisation iff their
// refinements agree round for round — i.e. iff 1-WL does not distinguish
// them.
std::string Serialize(const graph::Graph& g, int rounds) {
  RefinementOptions options;
  options.max_rounds = rounds;
  const RefinementResult result = ColorRefinement(g, options);
  std::ostringstream os;
  os << "n=" << g.NumVertices() << (g.directed() ? ";directed;" : ";");
  std::vector<internal::LabelledPairs::Entry> pairs;
  for (size_t round = 0; round < result.round_colors.size(); ++round) {
    const std::vector<int>& colors = result.round_colors[round];
    os << "r" << round << "[";
    for (int count : ColorHistogram(colors)) os << count << ",";
    os << "]{";
    std::vector<std::string> dictionary(result.colors_per_round[round]);
    for (int v = 0; v < g.NumVertices(); ++v) {
      std::string& signature = dictionary[colors[v]];
      if (!signature.empty()) continue;
      if (round == 0) {
        signature = std::to_string(g.VertexLabel(v));
        continue;
      }
      const std::vector<int>& previous = result.round_colors[round - 1];
      pairs.resize(g.Degree(v) + (g.directed() ? g.InDegree(v) : 0));
      const auto [out_pairs, size] = internal::LabelledPairs{}(
          g, v, previous.data(), pairs.data());
      signature = std::to_string(previous[v]) + "(";
      for (int64_t i = 0; i < size; ++i) {
        if (i == out_pairs) signature += ")(";  // The in-pairs' list.
        signature += std::to_string(pairs[i].first) + ":" +
                     std::to_string(pairs[i].second) + ",";
      }
      signature += ")";
    }
    for (size_t id = 0; id < dictionary.size(); ++id) {
      os << id << ":" << dictionary[id];
    }
    os << "}";
  }
  return os.str();
}

}  // namespace

uint64_t WlHash(const graph::Graph& g, int rounds) {
  const std::string certificate = Serialize(g, rounds);
  uint64_t h = 14695981039346656037ULL;
  for (char c : certificate) {
    h = HashCombine(h, static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

std::string WlCertificate(const graph::Graph& g, int rounds) {
  return Serialize(g, rounds);
}

}  // namespace x2vec::wl
