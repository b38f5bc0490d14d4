#include "linalg/charpoly.h"

#include <algorithm>

#include "linalg/int128.h"

namespace x2vec::linalg {

IntMatrix IntMatrix::Identity(int n) {
  IntMatrix m(n);
  for (int i = 0; i < n; ++i) m(i, i) = 1;
  return m;
}

IntMatrix IntMatrix::Multiply(const IntMatrix& other) const {
  X2VEC_CHECK_EQ(n_, other.n_);
  IntMatrix c(n_);
  for (int i = 0; i < n_; ++i) {
    for (int k = 0; k < n_; ++k) {
      const __int128 aik = (*this)(i, k);
      if (aik == 0) continue;
      for (int j = 0; j < n_; ++j) {
        c(i, j) = CheckedAdd(c(i, j), CheckedMul(aik, other(k, j)));
      }
    }
  }
  return c;
}

__int128 IntMatrix::Trace() const {
  __int128 t = 0;
  for (int i = 0; i < n_; ++i) t = CheckedAdd(t, (*this)(i, i));
  return t;
}

__int128 IntMatrix::Sum() const {
  __int128 s = 0;
  for (__int128 v : data_) s = CheckedAdd(s, v);
  return s;
}

std::vector<__int128> CharacteristicPolynomial(const IntMatrix& a) {
  const int n = a.size();
  // Coefficients stored as c[0..n] with c[n] = 1 (monic), so that
  // p(x) = sum_k c[k] x^k.
  std::vector<__int128> c(n + 1, 0);
  c[n] = 1;
  if (n == 0) return c;

  // Faddeev–LeVerrier: M_1 = I; for k = 1..n:
  //   c_{n-k} = -tr(A * M_k) / k,   M_{k+1} = A * M_k + c_{n-k} I.
  IntMatrix m = IntMatrix::Identity(n);
  for (int k = 1; k <= n; ++k) {
    const IntMatrix am = a.Multiply(m);
    const __int128 trace = am.Trace();
    X2VEC_CHECK(trace % k == 0) << "Faddeev-LeVerrier division must be exact";
    c[n - k] = -(trace / k);
    if (k < n) {
      m = am;
      for (int i = 0; i < n; ++i) m(i, i) = CheckedAdd(m(i, i), c[n - k]);
    }
  }
  return c;
}

std::string Int128ToString(__int128 value) {
  if (value == 0) return "0";
  const bool negative = value < 0;
  // Careful with INT128_MIN: negate digit by digit via unsigned type.
  unsigned __int128 magnitude =
      negative ? static_cast<unsigned __int128>(-(value + 1)) + 1
               : static_cast<unsigned __int128>(value);
  std::string digits;
  while (magnitude > 0) {
    digits.push_back(static_cast<char>('0' + static_cast<int>(magnitude % 10)));
    magnitude /= 10;
  }
  if (negative) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

}  // namespace x2vec::linalg
