#pragma once

// The golden registry: every 64-bit digest the tests pin, by name, with the
// one digest function that computes them and the training fixtures they
// share. Header-only, like corpus_training.h. Tests read a pin only
// through ExpectGolden(name, actual); the `golden-literal` lint rule keeps
// digest literals out of every other file under tests/.
//
// A digest is FNV-1a (embed::Fnv1a) over the exact bytes of the values in
// memory, so it sees every bit of every double, the sign of zero included,
// in the byte order of a little-endian host.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ranges>
#include <source_location>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "data/datasets.h"
#include "embed/checkpoint.h"
#include "embed/corpus.h"
#include "embed/sgns.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "linalg/matrix.h"

namespace x2vec {

// ---- Digest -----------------------------------------------------------------

namespace golden_internal {

template <typename T>
concept NumberRange = std::ranges::contiguous_range<T> &&
                      std::is_arithmetic_v<std::ranges::range_value_t<T>>;

template <typename Part>
void Hash(embed::Fnv1a& hasher, const Part& part) {
  if constexpr (std::is_same_v<Part, linalg::Matrix>) {
    Hash(hasher, part.data());
  } else if constexpr (std::is_arithmetic_v<Part>) {
    hasher.Update(&part, sizeof(part));
  } else if constexpr (NumberRange<Part>) {
    hasher.Update(std::ranges::data(part),
                  std::ranges::size(part) *
                      sizeof(std::ranges::range_value_t<Part>));
  } else {
    for (const auto& element : part) Hash(hasher, element);
  }
}

}  // namespace golden_internal

/// FNV-1a over the exact bytes of `parts`, in order. A linalg::Matrix
/// hashes its row-major entries, a contiguous range of numbers (a vector, a
/// std::string of file bytes) its elements, a number itself, and any other
/// range each of its elements in turn.
template <typename... Parts>
uint64_t Digest(const Parts&... parts) {
  embed::Fnv1a hasher;
  (golden_internal::Hash(hasher, parts), ...);
  return hasher.digest();
}

// ---- Golden fixtures (their seeds are part of every pin that uses them) -----

/// 60 sentences of 8 tokens from 3 topics of 5 words plus filler, seed 42.
inline embed::Corpus GoldenCorpus() {
  Rng rng = MakeRng(42);
  return embed::Corpus::FromSentences(data::TopicCorpus(3, 5, 60, 8, rng));
}

inline embed::SgnsOptions GoldenSgnsOptions() {
  embed::SgnsOptions options;
  options.dimension = 16;
  options.window = 3;
  options.negatives = 3;
  options.epochs = 3;
  return options;
}

/// 30 documents of 20 tokens over a vocabulary of 40.
inline std::vector<std::vector<int>> GoldenDocuments() {
  std::vector<std::vector<int>> documents;
  for (int d = 0; d < 30; ++d) {
    std::vector<int> doc;
    for (int t = 0; t < 20; ++t) doc.push_back((d * 13 + t * 7) % 40);
    documents.push_back(std::move(doc));
  }
  return documents;
}

/// K4, P6, C5, the 4-leaf star and four ConnectedGnp(7, 0.4), seed 1234.
inline std::vector<graph::Graph> GoldenGraphs() {
  Rng rng = MakeRng(1234);
  std::vector<graph::Graph> graphs = {
      graph::Graph::Complete(4), graph::Graph::Path(6),
      graph::Graph::Cycle(5), graph::Graph::Star(4)};
  for (int i = 0; i < 4; ++i) {
    graphs.push_back(graph::ConnectedGnp(7, 0.4, rng));
  }
  return graphs;
}

// The golden SGNS corpus contributes 36 window-clipped pairs per sentence
// x 60 sentences = 2160 positive pairs (work units) per epoch; the golden
// documents contribute 600 PV-DBOW pairs per epoch. Budgets built from
// these exhaust mid-epoch, after a chosen checkpoint barrier.
inline constexpr int64_t kSgnsPairsPerEpoch = 2160;
inline constexpr int64_t kPvDbowPairsPerEpoch = 600;

// ---- The table --------------------------------------------------------------

/// One pinned digest: a stable name, its value, and what it pins from
/// which seed or fixture.
struct Golden {
  std::string_view name;
  uint64_t value;
  std::string_view pins;
};

// The table holds one entry per distinct computation: sites that pin the
// same computation read the same entry, so no two entries share a name or
// a value. A mismatch fails the test and prints a line of its own,
//
//   GOLDEN <name> pinned=<old> got=<new>
//
// so a deliberate regeneration (an RNG engine swap, say) is
//
//   ctest -L golden --output-on-failure | grep '^GOLDEN'
//
// followed by one edit of this table: each listed entry's value becomes its
// got= value. An entry read at several sites or thread counts prints once
// for each, and all of its lines must agree; lines that disagree are a
// determinism bug, not a regeneration. CHANGES.md records which entries
// moved and why.
//
// Fixtures of kernel_test: "labelled" is its LabelledDataset() (seed 74),
// "unlabelled" its TestDataset(10, 91). The method-suite Grams come from
// RunMethodSuite(DefaultMethodSuite(), graphs, seed 7).
inline constexpr Golden kGoldens[] = {
    // SGNS and PV-DBOW on the golden fixtures (kernels_test,
    // backend_parity_test, persist_test's resume tests).
    {"sgns/sequential/input", 18278926393330042903ull,
     "SGNS input matrix: TrainSgnsOnCorpus(GoldenCorpus(), "
     "GoldenSgnsOptions()), MakeRng(7)"},
    {"sgns/sequential/output", 993439134845477708ull,
     "the same run's output matrix"},
    {"sgns/sharded/input", 3462095741590153806ull,
     "TrainSgnsShardedOnCorpus(GoldenCorpus(), GoldenSgnsOptions()), "
     "seed 7, at 1 and 4 threads: input matrix"},
    {"sgns/sharded/output", 293832832280350799ull,
     "the same run's output matrix"},
    {"pvdbow/sequential/input", 7506412274478109361ull,
     "TrainPvDbowOnDocuments(GoldenDocuments(), 40, GoldenSgnsOptions()), "
     "MakeRng(9): document matrix"},
    {"pvdbow/sharded/input", 16656231216226078774ull,
     "TrainPvDbowShardedOnDocuments(GoldenDocuments(), 40, "
     "GoldenSgnsOptions()), seed 11, at 1 and 4 threads"},
    {"checkpoint/sgns-sequential-epoch1", 16940352043929195601ull,
     "bytes of the epoch-1 checkpoint (kind 1) of sgns/sequential's run "
     "killed in epoch 2: the layout older files must resume under"},
    {"checkpoint/sgns-sharded-epoch1", 15791905833580085654ull,
     "bytes of the epoch-1 checkpoint (kind 2) of sgns/sharded's run "
     "killed in epoch 2, at 1 and 4 threads"},
    // Walk and graph embedders (kernels_test).
    {"walks/deepwalk", 10486663230332059249ull,
     "DeepWalkEmbeddingBudgeted on ConnectedGnp(24, 0.2) seed 77, 4 walks "
     "of 10 per vertex, dimension 8, MakeRng(19), at 1 and 4 threads"},
    {"walks/node2vec", 5938407196543842321ull,
     "Node2VecEmbeddingBudgeted, the same graph and options with p 1, "
     "q 0.5, MakeRng(23), at 1 and 4 threads"},
    {"graph2vec/sequential", 10778255640977380102ull,
     "Graph2VecEmbeddingBudgeted on GoldenGraphs(), 2 WL rounds, "
     "dimension 8, 3 epochs, MakeRng(29), at 1 and 4 threads"},
    {"graph2vec/parallel", 8474447060080171401ull,
     "Graph2VecEmbeddingParallel, the same graphs and options, seed 29, "
     "at 1 and 4 threads"},
    // Knowledge-graph models (kernels_test, persist_test).
    {"transe/entities", 2074243407751469905ull,
     "TrainTransEBudgeted on CountriesKnowledgeGraph(12, MakeRng(5)), "
     "dimension 8, 10 epochs, MakeRng(9): entity matrix"},
    {"transe/relations", 2852556191302250550ull,
     "the same model's relation matrix"},
    {"transe/scores", 16068623033078006014ull,
     "the same model's Score of every triple, in order"},
    {"transe/tail-ranks", 16585628102887568796ull,
     "the same model's TailRank of every triple, in order"},
    {"rescal/entities", 6493029908213810661ull,
     "TrainRescalBudgeted on CountriesKnowledgeGraph(8, MakeRng(5)), "
     "dimension 4, 5 epochs, MakeRng(13): entity matrix"},
    {"rescal/scores", 4873018744700757922ull,
     "the same model's Score of every triple, in order"},
    // Classifiers, Gram fills and spectral embeddings (kernels_test).
    {"ml/knn-predictions", 16954234328204494896ull,
     "5-NN fit on Matrix::Random(40, 8, seed 3) with labels 7i mod 3, "
     "PredictAll on Matrix::Random(15, 8, seed 4)"},
    {"ml/kmeans-centroids", 2267001519176672800ull,
     "KMeans(Matrix::Random(40, 6, seed 21), 4), MakeRng(11): centroids"},
    {"ml/kmeans-assignment", 18288138977900006033ull,
     "the same run's assignment"},
    {"ml/kmeans-inertia", 3711601997687623616ull,
     "the same run's inertia"},
    {"ml/svm-predictions", 12354013578755776467ull,
     "OneVsRestSvm on the linear Gram of Matrix::Random(30, 5, seed 8), "
     "labels 5i mod 3, MakeRng(17): predictions"},
    {"gram/golden-graphs/graphlet", 11022058731005599074ull,
     "GraphletKernelMatrix(GoldenGraphs()) under the generic backend, at "
     "1 and 4 threads and after fast-backend round trips"},
    {"gram/golden-graphs/wl-subtree-h3", 10193462307455244032ull,
     "WlSubtreeKernelMatrix(GoldenGraphs(), 3), at 1 and 4 threads"},
    {"kernel/diffusion-path6", 4042648994033330886ull,
     "DiffusionKernel(Path(6), 0.5), GoldenGraphs()[1]"},
    {"spectral/laplacian-eigenmap", 3239205366608690076ull,
     "LaplacianEigenmapEmbedding(ConnectedGnp(12, 0.4) seed 31, 3)"},
    {"spectral/isomap", 2363788967733660846ull,
     "IsomapEmbedding of the same graph, dimension 3"},
    {"sim/cut-norm", 389602748859326270ull,
     "CutNorm(Matrix::Random(10, 7, seed 23))"},
    // Final-artifact file layouts (persist_test).
    {"artifact/sgns-model", 18414297877333131973ull,
     "bytes of SaveSgnsModel (kind 5) of Matrix::Random(5, 3) seeds 2 and "
     "3 as input and output"},
    {"artifact/embedding-matrix", 14528364926796489744ull,
     "bytes of SaveEmbeddingMatrix (kind 6) of Matrix::Random(7, 2, seed 4)"},
    {"artifact/transe-model", 17618565794956811808ull,
     "bytes of SaveTransEModel (kind 7) of Matrix::Random(6, 4, seed 5) "
     "and Matrix::Random(2, 4, seed 6)"},
    {"artifact/rescal-model", 8024725119508341775ull,
     "bytes of SaveRescalModel (kind 8) of Matrix::Random(6, 3, seed 7) "
     "and two Matrix::Random(3, 3) seeds 8 and 9"},
    // Models healed by one recovery retry (robustness_test): every matrix
    // of the model, in order.
    {"recovery/sgns", 3407966811909118685ull,
     "SGNS on SmallCorpus() with PoisonedSgnsOptions(), lr_backoff 1e-14, "
     "MakeRng(21): input then output"},
    {"recovery/pvdbow", 1949955593915328938ull,
     "PV-DBOW on 3 documents over 4 words with PoisonedSgnsOptions(), "
     "lr_backoff 1e-14, MakeRng(23): input then output"},
    {"recovery/transe", 10098389350943963532ull,
     "TransE on SmallKg() with PoisonedTransEOptions(), lr_backoff 1e-12, "
     "MakeRng(25): entities then relations"},
    {"recovery/rescal", 8753732170233246899ull,
     "RESCAL on SmallKg() with PoisonedRescalOptions(), lr_backoff 1e-9, "
     "MakeRng(27): entities then each relation"},
    // Weighted 1-WL refinement traces (wl_test): each round's size and
    // colours, the per-round counts and the stable round, as 64-bit values.
    {"wl/weighted-non-dyadic-stars", 17615029713128575043ull,
     "WeightedColorRefinement(NonDyadicStars())"},
    {"wl/weighted-cancelling", 16835682370046024225ull,
     "WeightedColorRefinement(CancellingWeights())"},
    {"wl/weighted-directed", 16254024904661667239ull,
     "WeightedColorRefinement(DirectedWeighted())"},
    // Graph-kernel Grams (kernel_test), named by the kernel call; the
    // method suite's eight Grams per dataset read their entries too.
    {"gram/labelled/wl-subtree-h3", 8060041855713182602ull,
     "WlSubtreeKernelMatrix(labelled, 3); the joint colouring is stable by "
     "round 3, so the suite's wl-subtree-t5 gives it too"},
    {"gram/labelled/discounted-wl-h3", 4700007788846284159ull,
     "DiscountedWlKernelMatrix(labelled, 3)"},
    {"gram/labelled/wl-shortest-path-h2", 13634039831283152666ull,
     "WlShortestPathKernelMatrix(labelled, 2)"},
    {"gram/labelled/two-wl-h3", 12222943699210141462ull,
     "TwoWlKernelMatrix(labelled, 3), also the suite's wl2-folklore-t3"},
    {"gram/labelled/shortest-path", 7222126725437203662ull,
     "ShortestPathKernelMatrix(labelled), also the suite's shortest-path"},
    {"gram/labelled/random-walk-0.1-6", 9902397724384988674ull,
     "RandomWalkKernelMatrix(labelled, 0.1, 6), also the suite's "
     "random-walk"},
    {"gram/labelled/random-walk-0.5-3", 3689212100142624389ull,
     "RandomWalkKernelMatrix(labelled, 0.5, 3)"},
    {"gram/labelled/hom-12", 2652513415263549985ull,
     "HomVectorKernelMatrix(labelled, DefaultPatternFamily(12))"},
    {"gram/labelled/scaled-hom-12", 14495850494772472213ull,
     "ScaledHomKernelMatrix(labelled, DefaultPatternFamily(12))"},
    {"gram/labelled/hom-20", 10742062810292458309ull,
     "the suite's hom-20, HomVectorKernelMatrix(labelled, "
     "DefaultPatternFamily(20))"},
    {"gram/labelled/graphlet", 10908621087501135836ull,
     "the suite's graphlet-3, GraphletKernelMatrix(labelled)"},
    {"gram/labelled/graph2vec", 3366866416726195867ull,
     "the suite's graph2vec: linear Gram of Graph2VecEmbeddingBudgeted "
     "rows (3 WL rounds, dimension 32, 8 epochs) on labelled"},
    {"gram/labelled/gin-random", 16042466704927158020ull,
     "the suite's gin-random: linear Gram of log1p readouts of a random "
     "3-layer, 16-wide GIN on labelled"},
    {"gram/unlabelled/wl-subtree-h5", 9288570520315065203ull,
     "the suite's wl-subtree-t5, WlSubtreeKernelMatrix(unlabelled, 5)"},
    {"gram/unlabelled/two-wl-h3", 17072278768719844127ull,
     "the suite's wl2-folklore-t3, TwoWlKernelMatrix(unlabelled, 3)"},
    {"gram/unlabelled/shortest-path", 862829817019914385ull,
     "ShortestPathKernelMatrix(unlabelled), also the suite's shortest-path"},
    {"gram/unlabelled/random-walk-0.1-6", 1480792845295228127ull,
     "RandomWalkKernelMatrix(unlabelled, 0.1, 6), also the suite's "
     "random-walk"},
    {"gram/unlabelled/random-walk-0.5-3", 9082380041892252602ull,
     "RandomWalkKernelMatrix(unlabelled, 0.5, 3)"},
    {"gram/unlabelled/hom-12", 1941975474802445705ull,
     "HomVectorKernelMatrix(unlabelled, DefaultPatternFamily(12))"},
    {"gram/unlabelled/scaled-hom-12", 10630653595353569416ull,
     "ScaledHomKernelMatrix(unlabelled, DefaultPatternFamily(12))"},
    {"gram/unlabelled/hom-20", 4672950816301059893ull,
     "the suite's hom-20, HomVectorKernelMatrix(unlabelled, "
     "DefaultPatternFamily(20))"},
    {"gram/unlabelled/graphlet", 13724878980576062677ull,
     "the suite's graphlet-3, GraphletKernelMatrix(unlabelled)"},
    {"gram/unlabelled/graph2vec", 8628217715491934564ull,
     "the suite's graph2vec on unlabelled"},
    {"gram/unlabelled/gin-random", 4579041920982689013ull,
     "the suite's gin-random on unlabelled"},
};

namespace golden_internal {

consteval bool NamesAndValuesAreUnique() {
  for (size_t i = 0; i < std::size(kGoldens); ++i) {
    for (size_t j = i + 1; j < std::size(kGoldens); ++j) {
      if (kGoldens[i].name == kGoldens[j].name ||
          kGoldens[i].value == kGoldens[j].value) {
        return false;
      }
    }
  }
  return true;
}
static_assert(NamesAndValuesAreUnique(),
              "one entry per distinct computation: a name or value repeats");

// Not constexpr: a constant evaluation that reaches it fails to compile.
inline void NoGoldenHasThisName() {}

}  // namespace golden_internal

/// The name of a table entry, looked up when the test compiles: a name
/// missing from kGoldens is a build error, not a runtime failure.
class GoldenName {
 public:
  // Implicit, so a string literal names an entry.
  consteval GoldenName(const char* name) : index_(IndexOf(name)) {}

  const Golden& entry() const { return kGoldens[index_]; }

 private:
  static consteval size_t IndexOf(std::string_view name) {
    for (size_t i = 0; i < std::size(kGoldens); ++i) {
      if (kGoldens[i].name == name) return i;
    }
    golden_internal::NoGoldenHasThisName();
    return 0;
  }

  size_t index_;
};

/// Fails the calling test unless `actual` equals the pinned value of entry
/// `name`, printing the "GOLDEN <name> pinned=<old> got=<new>" line.
inline void ExpectGolden(
    GoldenName name, uint64_t actual,
    std::source_location where = std::source_location::current()) {
  const Golden& golden = name.entry();
  if (actual == golden.value) return;
  ADD_FAILURE_AT(where.file_name(), static_cast<int>(where.line()))
      << "GOLDEN " << golden.name << " pinned=" << golden.value
      << " got=" << actual << "\n  pins: " << golden.pins;
}

}  // namespace x2vec
