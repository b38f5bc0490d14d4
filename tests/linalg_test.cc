#include <cmath>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "linalg/charpoly.h"
#include "linalg/eigen.h"
#include "linalg/hungarian.h"
#include "linalg/linear_system.h"
#include "linalg/matrix.h"
#include "linalg/rational.h"

namespace x2vec::linalg {
namespace {

TEST(MatrixTest, InitializerListAndAccess) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, ProductAgainstHandComputed) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{5, 6}, {7, 8}};
  Matrix c = a * b;
  Matrix expected = {{19, 22}, {43, 50}};
  EXPECT_EQ(c, expected);
}

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix a = Matrix::Random(4, 7, 1.0, 11);
  EXPECT_EQ(a.Transposed().Transposed(), a);
}

TEST(MatrixTest, IdentityIsNeutral) {
  Matrix a = Matrix::Random(5, 5, 2.0, 12);
  EXPECT_TRUE((Matrix::Identity(5) * a).AllClose(a, 1e-12));
  EXPECT_TRUE((a * Matrix::Identity(5)).AllClose(a, 1e-12));
}

TEST(MatrixTest, NormsOnKnownMatrix) {
  Matrix m = {{1, -2}, {-3, 4}};
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), std::sqrt(30.0));
  EXPECT_DOUBLE_EQ(m.OperatorOneNorm(), 6.0);  // |−2|+|4| column.
  EXPECT_DOUBLE_EQ(m.OperatorInfNorm(), 7.0);  // |−3|+|4| row.
  EXPECT_DOUBLE_EQ(m.EntrywiseNorm(1.0), 10.0);
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 4.0);
  EXPECT_DOUBLE_EQ(m.Trace(), 5.0);
}

TEST(MatrixTest, ApplyMatchesProduct) {
  Matrix a = Matrix::Random(3, 4, 1.0, 13);
  std::vector<double> x = {1.0, -1.0, 0.5, 2.0};
  std::vector<double> y = a.Apply(x);
  for (int i = 0; i < 3; ++i) {
    double expected = 0.0;
    for (int j = 0; j < 4; ++j) expected += a(i, j) * x[j];
    EXPECT_NEAR(y[i], expected, 1e-12);
  }
}

TEST(VectorOpsTest, CosineAndDistance) {
  std::vector<double> a = {1.0, 0.0};
  std::vector<double> b = {0.0, 2.0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(Distance2(a, b), std::sqrt(5.0));
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(zero, a), 0.0);
}

TEST(EigenTest, DiagonalMatrix) {
  const EigenDecomposition eig = SymmetricEigen(Matrix::Diagonal({3, 1, 2}));
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 1.0, 1e-12);
}

TEST(EigenTest, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  const EigenDecomposition eig = SymmetricEigen(Matrix{{2, 1}, {1, 2}});
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
}

TEST(EigenTest, ReconstructsMatrix) {
  // Build a random symmetric matrix and verify A = V diag(w) V^T.
  Matrix r = Matrix::Random(6, 6, 1.0, 21);
  Matrix a = r + r.Transposed();
  const EigenDecomposition eig = SymmetricEigen(a);
  const Matrix reconstructed =
      eig.vectors * Matrix::Diagonal(eig.values) * eig.vectors.Transposed();
  EXPECT_TRUE(reconstructed.AllClose(a, 1e-9));
}

TEST(EigenTest, CycleSpectrumIsCosine) {
  // C_n has eigenvalues 2cos(2 pi k / n).
  const int n = 8;
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    a(i, (i + 1) % n) = 1;
    a((i + 1) % n, i) = 1;
  }
  std::vector<double> expected;
  for (int k = 0; k < n; ++k) expected.push_back(2 * std::cos(2 * M_PI * k / n));
  std::sort(expected.rbegin(), expected.rend());
  const std::vector<double> actual = Spectrum(a);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(actual[i], expected[i], 1e-9);
}

TEST(SvdTest, ReconstructsRectangular) {
  Matrix a = Matrix::Random(5, 3, 1.0, 31);
  const SvdDecomposition svd = Svd(a);
  const Matrix reconstructed =
      svd.u * Matrix::Diagonal(svd.values) * svd.v.Transposed();
  EXPECT_TRUE(reconstructed.AllClose(a, 1e-9));
  // Singular values descending and non-negative.
  for (size_t i = 0; i + 1 < svd.values.size(); ++i) {
    EXPECT_GE(svd.values[i], svd.values[i + 1] - 1e-12);
  }
  EXPECT_GE(svd.values.back(), -1e-12);
}

TEST(SvdTest, WideMatrix) {
  Matrix a = Matrix::Random(3, 6, 1.0, 32);
  const SvdDecomposition svd = Svd(a);
  const Matrix reconstructed =
      svd.u * Matrix::Diagonal(svd.values) * svd.v.Transposed();
  EXPECT_TRUE(reconstructed.AllClose(a, 1e-9));
}

TEST(SvdTest, EmbeddingMinimisesFrobenius) {
  // For a PSD similarity matrix, X X^T with d = n reproduces S.
  Matrix r = Matrix::Random(4, 4, 1.0, 33);
  Matrix s = r * r.Transposed();  // PSD.
  Matrix x = SvdEmbedding(s, 4);
  EXPECT_TRUE((x * x.Transposed()).AllClose(s, 1e-8));
}

TEST(RationalTest, NormalisesSigns) {
  Rational r(2, -4);
  EXPECT_EQ(r.numerator(), -1);
  EXPECT_EQ(r.denominator(), 2);
  EXPECT_EQ(r.ToString(), "-1/2");
}

TEST(RationalTest, Arithmetic) {
  Rational a(1, 3);
  Rational b(1, 6);
  EXPECT_EQ(a + b, Rational(1, 2));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 18));
  EXPECT_EQ(a / b, Rational(2));
  EXPECT_LT(b, a);
}

TEST(RationalTest, LargeIntermediatesStayExact) {
  // (10^9 / (10^9+1)) * ((10^9+1) / 10^9) == 1 requires 128-bit products.
  Rational a(1000000000, 1000000001);
  Rational b(1000000001, 1000000000);
  EXPECT_EQ(a * b, Rational(1));
}

TEST(RationalSolveTest, UniqueSolution) {
  RationalMatrix a(2, 2);
  a(0, 0) = Rational(2);
  a(0, 1) = Rational(1);
  a(1, 0) = Rational(1);
  a(1, 1) = Rational(3);
  const RationalSolveResult r = SolveRational(a, {Rational(5), Rational(10)});
  ASSERT_TRUE(r.consistent);
  EXPECT_EQ(r.rank, 2);
  EXPECT_EQ(r.solution[0], Rational(1));
  EXPECT_EQ(r.solution[1], Rational(3));
}

TEST(RationalSolveTest, InconsistentSystem) {
  RationalMatrix a(2, 1);
  a(0, 0) = Rational(1);
  a(1, 0) = Rational(1);
  const RationalSolveResult r = SolveRational(a, {Rational(1), Rational(2)});
  EXPECT_FALSE(r.consistent);
}

TEST(RationalSolveTest, UnderdeterminedConsistent) {
  // x + y = 2 has solutions; particular solution sets the free var to zero.
  RationalMatrix a(1, 2);
  a(0, 0) = Rational(1);
  a(0, 1) = Rational(1);
  const RationalSolveResult r = SolveRational(a, {Rational(2)});
  ASSERT_TRUE(r.consistent);
  EXPECT_EQ(r.rank, 1);
  EXPECT_EQ(r.solution[0] + r.solution[1], Rational(2));
}

TEST(SolveDenseTest, MatchesKnownSolution) {
  Matrix a = {{3, 2}, {1, 4}};
  auto x = SolveDense(a, {7, 9});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(SolveDenseTest, SingularReturnsNullopt) {
  Matrix a = {{1, 2}, {2, 4}};
  EXPECT_FALSE(SolveDense(a, {1, 2}).has_value());
}

TEST(CharPolyTest, TwoByTwo) {
  // [[0,1],[1,0]]: p(x) = x^2 - 1.
  IntMatrix a(2);
  a(0, 1) = 1;
  a(1, 0) = 1;
  const std::vector<__int128> c = CharacteristicPolynomial(a);
  EXPECT_EQ(static_cast<int64_t>(c[2]), 1);
  EXPECT_EQ(static_cast<int64_t>(c[1]), 0);
  EXPECT_EQ(static_cast<int64_t>(c[0]), -1);
}

TEST(CharPolyTest, TriangleGraph) {
  // K3: p(x) = x^3 - 3x - 2.
  IntMatrix a(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) a(i, j) = 1;
    }
  }
  const std::vector<__int128> c = CharacteristicPolynomial(a);
  EXPECT_EQ(static_cast<int64_t>(c[3]), 1);
  EXPECT_EQ(static_cast<int64_t>(c[2]), 0);
  EXPECT_EQ(static_cast<int64_t>(c[1]), -3);
  EXPECT_EQ(static_cast<int64_t>(c[0]), -2);
}

TEST(CharPolyTest, TraceOfPowersMatchesWalkCounts) {
  // tr(A^3) of K3 is 6 (two directed triangles through each vertex... in
  // fact 3! = 6 closed walks of length 3).
  IntMatrix a(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) a(i, j) = 1;
    }
  }
  const IntMatrix a3 = a.Multiply(a).Multiply(a);
  EXPECT_EQ(static_cast<int64_t>(a3.Trace()), 6);
}

TEST(Int128ToStringTest, Renders) {
  EXPECT_EQ(Int128ToString(0), "0");
  EXPECT_EQ(Int128ToString(-42), "-42");
  __int128 big = static_cast<__int128>(1) << 100;
  EXPECT_EQ(Int128ToString(big), "1267650600228229401496703205376");
}

TEST(HungarianTest, IdentityCostPrefersDiagonal) {
  Matrix cost = {{1, 10, 10}, {10, 1, 10}, {10, 10, 1}};
  const AssignmentResult r = SolveAssignment(cost);
  EXPECT_EQ(r.assignment, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(r.cost, 3.0);
}

TEST(HungarianTest, KnownOptimal) {
  Matrix cost = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  const AssignmentResult r = SolveAssignment(cost);
  EXPECT_DOUBLE_EQ(r.cost, 5.0);  // 1 + 2 + 2.
}

TEST(HungarianTest, MatchesBruteForceOnRandom) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Matrix cost = Matrix::Random(5, 5, 10.0, 100 + seed);
    const AssignmentResult r = SolveAssignment(cost);
    // Brute force over all 120 permutations.
    std::vector<int> perm(5);
    std::iota(perm.begin(), perm.end(), 0);
    double best = 1e18;
    do {
      double total = 0.0;
      for (int i = 0; i < 5; ++i) total += cost(i, perm[i]);
      best = std::min(best, total);
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(r.cost, best, 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace x2vec::linalg
