#pragma once

/// Umbrella header for the x2vec library: structural vector embeddings of
/// graphs and relational structures, after Grohe's PODS 2020 keynote
/// "word2vec, node2vec, graph2vec, X2vec". Include this to get the whole
/// public API; fine-grained headers are available per module.
///
/// Lives in api — the one module above every other — because an umbrella
/// necessarily includes the whole tree; core (layer 3) cannot, under the
/// layering the `layering` lint rule enforces.

#include "api/suite.h"             // IWYU pragma: export
#include "base/budget.h"           // IWYU pragma: export
#include "base/check.h"            // IWYU pragma: export
#include "base/parallel.h"         // IWYU pragma: export
#include "base/recovery.h"         // IWYU pragma: export
#include "base/rng.h"              // IWYU pragma: export
#include "base/status.h"           // IWYU pragma: export
#include "base/validation.h"       // IWYU pragma: export
#include "core/compare.h"          // IWYU pragma: export
#include "core/registry.h"         // IWYU pragma: export
#include "data/datasets.h"         // IWYU pragma: export
#include "data/io.h"               // IWYU pragma: export
#include "embed/corpus.h"          // IWYU pragma: export
#include "embed/factorization.h"   // IWYU pragma: export
#include "embed/graph2vec.h"       // IWYU pragma: export
#include "embed/node_embeddings.h" // IWYU pragma: export
#include "embed/sgns.h"            // IWYU pragma: export
#include "embed/stream.h"          // IWYU pragma: export
#include "embed/walks.h"           // IWYU pragma: export
#include "gnn/gcn.h"               // IWYU pragma: export
#include "gnn/higher_order.h"      // IWYU pragma: export
#include "gnn/layers.h"            // IWYU pragma: export
#include "graph/algorithms.h"      // IWYU pragma: export
#include "graph/csr.h"             // IWYU pragma: export
#include "graph/enumeration.h"     // IWYU pragma: export
#include "graph/generators.h"      // IWYU pragma: export
#include "graph/graph.h"           // IWYU pragma: export
#include "graph/graph6.h"          // IWYU pragma: export
#include "graph/isomorphism.h"     // IWYU pragma: export
#include "hom/brute_force.h"       // IWYU pragma: export
#include "hom/densities.h"         // IWYU pragma: export
#include "hom/embeddings.h"        // IWYU pragma: export
#include "hom/indistinguishability.h"  // IWYU pragma: export
#include "hom/path_cycle.h"        // IWYU pragma: export
#include "hom/tree_depth.h"        // IWYU pragma: export
#include "hom/tree_hom.h"          // IWYU pragma: export
#include "hom/treewidth.h"         // IWYU pragma: export
#include "kernel/graph_kernels.h"  // IWYU pragma: export
#include "kernel/node_kernels.h"   // IWYU pragma: export
#include "kernel/wl_kernel.h"      // IWYU pragma: export
#include "kg/datasets.h"           // IWYU pragma: export
#include "kg/knowledge_graph.h"    // IWYU pragma: export
#include "kg/rescal.h"             // IWYU pragma: export
#include "kg/transe.h"             // IWYU pragma: export
#include "linalg/charpoly.h"       // IWYU pragma: export
#include "linalg/eigen.h"          // IWYU pragma: export
#include "linalg/hungarian.h"      // IWYU pragma: export
#include "linalg/linear_system.h"  // IWYU pragma: export
#include "linalg/matrix.h"         // IWYU pragma: export
#include "linalg/rational.h"       // IWYU pragma: export
#include "logic/counting_logic.h"  // IWYU pragma: export
#include "ml/logistic.h"           // IWYU pragma: export
#include "ml/metrics.h"            // IWYU pragma: export
#include "ml/neighbors.h"          // IWYU pragma: export
#include "ml/pca.h"                // IWYU pragma: export
#include "ml/svm.h"                // IWYU pragma: export
#include "ml/validation.h"         // IWYU pragma: export
#include "relational/structure.h"  // IWYU pragma: export
#include "serve/engine.h"          // IWYU pragma: export
#include "serve/index.h"           // IWYU pragma: export
#include "sim/graph_distance.h"    // IWYU pragma: export
#include "sim/matrix_norms.h"      // IWYU pragma: export
#include "wl/cfi.h"                // IWYU pragma: export
#include "wl/color_refinement.h"   // IWYU pragma: export
#include "wl/fractional.h"         // IWYU pragma: export
#include "wl/kwl.h"                // IWYU pragma: export
#include "wl/unfolding_tree.h"     // IWYU pragma: export
#include "wl/weighted_wl.h"        // IWYU pragma: export
