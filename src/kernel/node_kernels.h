#pragma once

#include "graph/graph.h"
#include "linalg/matrix.h"

namespace x2vec::kernel {

/// Node kernels (Section 2.4 [Kondor-Lafferty]): positive
/// semidefinite similarity matrices over the vertices of one graph, i.e.
/// implicit node embeddings.

/// Combinatorial graph Laplacian L = D - A.
linalg::Matrix Laplacian(const graph::Graph& g);

/// Diffusion (heat) kernel K = exp(-beta L), computed via the Laplacian
/// eigendecomposition. Always PSD.
linalg::Matrix DiffusionKernel(const graph::Graph& g, double beta);

}  // namespace x2vec::kernel
