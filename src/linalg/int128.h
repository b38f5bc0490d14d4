#pragma once

#include "base/check.h"

namespace x2vec::linalg {

/// Checked 128-bit a * b and a + b for the exact counters (IntMatrix and the
/// hom counts); fatal on overflow. Kept out of linalg/charpoly.h, which
/// graph/graph.h carries into nearly every translation unit.
inline __int128 CheckedMul(__int128 a, __int128 b) {
  __int128 out;
  X2VEC_CHECK(!__builtin_mul_overflow(a, b, &out)) << "128-bit overflow";
  return out;
}

inline __int128 CheckedAdd(__int128 a, __int128 b) {
  __int128 out;
  X2VEC_CHECK(!__builtin_add_overflow(a, b, &out)) << "128-bit overflow";
  return out;
}

}  // namespace x2vec::linalg
