// Section 5 experiments: matrix-norm graph distances and their relation to
// embedding distances. For a reference graph and increasing numbers of
// random edge flips, reports dist_1 (edit distance), dist_F, the cut
// distance, the Frank-Wolfe relaxed distance, and the Euclidean distance
// between log-scaled hom vectors — Section 5.2's question whether
// homomorphism distances track matrix distances, answered empirically.

#include <array>
#include <cstdio>
#include <vector>

#include "api/x2vec.h"

int main() {
  using namespace x2vec;
  using graph::Graph;
  std::printf("=== Section 5: matrix distances vs hom-embedding distance ===\n\n");

  Rng rng = MakeRng(5);
  const Graph base = graph::ConnectedGnp(8, 0.4, rng);
  const std::vector<hom::Pattern> family = hom::DefaultPatternFamily(16);
  const std::vector<double> base_embedding =
      hom::LogScaledHomVector(base, family);

  std::printf("reference: %s; perturbation = k random edge flips\n\n",
              base.ToString().c_str());
  std::printf("%-6s %-10s %-10s %-10s %-12s %-12s\n", "k", "dist_1",
              "dist_F", "dist_cut", "FrankWolfe", "hom-dist");

  // Rows of the table: per flip level, the five column averages.
  const int kLevels[] = {0, 1, 2, 4, 8, 12};
  constexpr int kColumns = 5;
  std::vector<std::array<double, kColumns>> rows;
  for (int flips : kLevels) {
    // Average over a few perturbations per level.
    double d1 = 0.0;
    double df = 0.0;
    double dcut = 0.0;
    double dfw = 0.0;
    double dhom = 0.0;
    const int kRepeats = 3;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      const Graph perturbed = graph::PerturbEdges(base, flips, rng);
      d1 += sim::GraphDistanceExact(base, perturbed,
                                    sim::MatrixNorm::kEntrywiseL1)
                .distance;
      df += sim::GraphDistanceExact(base, perturbed,
                                    sim::MatrixNorm::kFrobenius)
                .distance;
      dcut += sim::GraphDistanceExact(base, perturbed,
                                      sim::MatrixNorm::kCut)
                  .distance;
      dfw += sim::RelaxedGraphDistance(base, perturbed, 200).distance;
      dhom += linalg::Distance2(base_embedding,
                                hom::LogScaledHomVector(perturbed, family));
    }
    rows.push_back({d1 / kRepeats, df / kRepeats, dcut / kRepeats,
                    dfw / kRepeats, dhom / kRepeats});
    const std::array<double, kColumns>& row = rows.back();
    std::printf("%-6d %-10.2f %-10.2f %-10.2f %-12.4f %-12.4f\n", flips,
                row[0], row[1], row[2], row[3], row[4]);
  }

  // Section 5.2 asks whether hom distances track matrix distances; whether
  // each column grows with k is measured here, not assumed.
  const char* const kNames[kColumns] = {"dist_1", "dist_F", "dist_cut",
                                        "FrankWolfe", "hom-dist"};
  const int kDecimals[kColumns] = {2, 2, 2, 4, 4};
  std::printf("\nmonotone in k over the measured levels (a measurement):\n");
  for (int c = 0; c < kColumns; ++c) {
    size_t fall = 1;
    while (fall < rows.size() && rows[fall][c] >= rows[fall - 1][c]) ++fall;
    if (fall == rows.size()) {
      std::printf("  %-11s yes\n", kNames[c]);
    } else {
      std::printf("  %-11s no: %.*f at k=%d, then %.*f at k=%d\n", kNames[c],
                  kDecimals[c], rows[fall - 1][c], kLevels[fall - 1],
                  kDecimals[c], rows[fall][c], kLevels[fall]);
    }
  }

  std::printf(
      "\npaper-shape checks:\n"
      " - the relaxed distance lower-bounds the exact Frobenius distance\n"
      "   and is 0 exactly at k=0 (Theorem 3.2);\n"
      " - dist_1 = 2 * (edge flips needed), eq. (5.3): compare column 1\n"
      "   against 2k (alignment can only reduce it).\n\n");

  // Norm inequality of Section 5.1 on the perturbation residuals.
  const Graph perturbed = graph::PerturbEdges(base, 5, rng);
  const linalg::Matrix residual =
      base.AdjacencyMatrix() - perturbed.AdjacencyMatrix();
  std::printf("||M||_cut = %.2f  <=  ||M||_1 = %.2f  <=  n ||M||_F = %.2f\n",
              sim::CutNorm(residual), residual.EntrywiseNorm(1.0),
              8 * residual.FrobeniusNorm());

  // Blow-up alignment for graphs of different orders (Section 5.1's
  // closing remark).
  const auto [bg, bh] = sim::BlowUpAlign(Graph::Cycle(3), Graph::Cycle(4));
  std::printf("\nblow-up alignment C3 vs C4 -> both on %d vertices; "
              "relaxed distance = %.4f\n",
              bg.NumVertices(),
              sim::RelaxedGraphDistance(bg, bh, 300).distance);
  return 0;
}
