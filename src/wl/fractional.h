#pragma once

#include <optional>

#include "graph/graph.h"
#include "linalg/matrix.h"

namespace x2vec::wl {

/// Constructs an explicit fractional isomorphism when one exists, i.e.
/// when equations (3.2) and (3.3) admit a doubly stochastic solution: the
/// block matrix X with X_vw = 1/|class| whenever v and w share a stable
/// joint 1-WL colour (the classical witness in Tinhofer's proof), so that
/// X is doubly stochastic and A X = X B exactly. Returns nullopt when
/// 1-WL distinguishes the graphs, so has_value() decides fractional
/// isomorphism (Tinhofer's theorem, Theorem 3.2).
std::optional<linalg::Matrix> FractionalIsomorphism(const graph::Graph& g,
                                                    const graph::Graph& h);

/// Residual ||A X - X B||_F of a candidate fractional isomorphism — zero
/// (up to rounding) for the witness above; used by the Theorem 3.2 bench
/// and by the Frank–Wolfe relaxation experiments of Section 5.
double FractionalResidual(const graph::Graph& g, const graph::Graph& h,
                          const linalg::Matrix& x);

}  // namespace x2vec::wl
