#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "base/check.h"
#include "linalg/kernels.h"

namespace x2vec::linalg {

/// Dense row-major matrix of doubles. This is the numeric workhorse shared
/// by the embedding, GNN, kernel and similarity modules; it favours clarity
/// and correctness at the sizes used by the library (up to a few thousand
/// rows) over BLAS-grade tuning.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}
  /// rows x cols matrix filled with `fill`.
  Matrix(int rows, int cols, double fill = 0.0);
  /// From nested initializer list; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> values);

  static Matrix Identity(int n);
  /// Matrix with the given diagonal (zero elsewhere).
  static Matrix Diagonal(const std::vector<double>& diag);
  /// Entrywise i.i.d. values from [-scale, scale) with the given seed.
  static Matrix Random(int rows, int cols, double scale, uint64_t seed);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  /// Total number of entries.
  int64_t size() const { return static_cast<int64_t>(rows_) * cols_; }

  double& operator()(int i, int j) {
    X2VEC_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<size_t>(i) * cols_ + j];
  }
  double operator()(int i, int j) const {
    X2VEC_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<size_t>(i) * cols_ + j];
  }

  /// Direct access to the row-major storage (size rows()*cols()).
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& mutable_data() { return data_; }

  /// Mutable zero-copy view of row i over the row-major storage. This is
  /// the accessor hot loops should use (together with the free kernels in
  /// linalg/kernels.h); bounds are checked once per row instead of once per
  /// element. The view is invalidated by anything that reallocates the
  /// matrix (assignment, move, destruction).
  std::span<double> RowSpan(int i) {
    X2VEC_DCHECK(i >= 0 && i < rows_);
    return {data_.data() + static_cast<size_t>(i) * cols_,
            static_cast<size_t>(cols_)};
  }
  /// Read-only zero-copy view of row i.
  std::span<const double> ConstRowSpan(int i) const {
    X2VEC_DCHECK(i >= 0 && i < rows_);
    return {data_.data() + static_cast<size_t>(i) * cols_,
            static_cast<size_t>(cols_)};
  }

  /// Copies row i into a vector. Prefer ConstRowSpan() in hot loops — the
  /// `row-copy` lint rule flags this in src/ hot modules.
  std::vector<double> Row(int i) const;
  /// Copies column j into a vector.
  std::vector<double> Col(int j) const;
  /// Overwrites row i.
  void SetRow(int i, const std::vector<double>& values);

  Matrix Transposed() const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }
  /// Matrix product (inner dimensions must agree).
  friend Matrix operator*(const Matrix& a, const Matrix& b);

  bool operator==(const Matrix& other) const = default;

  /// Matrix-vector product. Accepts any contiguous range of doubles
  /// (std::vector converts implicitly), so callers can pass a row view
  /// without copying it first.
  std::vector<double> Apply(std::span<const double> x) const;

  double Trace() const;
  double FrobeniusNorm() const;
  /// max_j sum_i |M_ij| (operator 1-norm).
  double OperatorOneNorm() const;
  /// max_i sum_j |M_ij| (operator infinity-norm).
  double OperatorInfNorm() const;
  /// Entrywise l_p norm, p >= 1.
  double EntrywiseNorm(double p) const;
  /// Largest |entry|.
  double MaxAbs() const;
  /// Sum of all entries.
  double Sum() const;

  /// True if |a_ij - b_ij| <= tol everywhere (shapes must match).
  bool AllClose(const Matrix& other, double tol) const;

  /// True iff every entry is finite (no NaN/Inf) — the trainers' numeric
  /// health probe.
  bool AllFinite() const;

  /// Human-readable multi-line rendering, for debugging and benches.
  std::string ToString(int precision = 4) const;

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

/// Double-centring (I - J/n) K (I - J/n) of a square Gram matrix K, as used
/// by kernel PCA.
Matrix DoubleCentered(const Matrix& k);

/// The free vector helpers (Dot, Norm2, CosineSimilarity, Distance2, Axpy,
/// Scale, ...) live in linalg/kernels.h, included above. They take spans,
/// so they accept std::vector<double> and Matrix row views alike.

}  // namespace x2vec::linalg
