#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/rng.h"

/// \file dense_matrix.h
/// Row-major dense matrix of doubles — the workhorse value type for data
/// matrices (`D_k`), model weights and intermediate results. Dimension
/// mismatches are programmer errors and are enforced with AMALUR_CHECK rather
/// than Status: a silent wrong-shape multiply would corrupt results.

namespace amalur {
namespace la {

/// Dense row-major matrix.
class DenseMatrix {
 public:
  /// An empty 0x0 matrix.
  DenseMatrix() : rows_(0), cols_(0) {}

  /// Uninitialized-to-zero matrix of the given shape.
  DenseMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Matrix from row-major data; `data.size()` must equal `rows * cols`.
  DenseMatrix(size_t rows, size_t cols, std::vector<double> data);

  /// Matrix from nested initializer lists: `DenseMatrix({{1,2},{3,4}})`.
  DenseMatrix(std::initializer_list<std::initializer_list<double>> rows);

  static DenseMatrix Zeros(size_t rows, size_t cols) {
    return DenseMatrix(rows, cols);
  }
  static DenseMatrix Constant(size_t rows, size_t cols, double value);
  static DenseMatrix Identity(size_t n);
  /// I.i.d. N(0,1) entries.
  static DenseMatrix RandomGaussian(size_t rows, size_t cols, Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& At(size_t i, size_t j) {
    AMALUR_CHECK(i < rows_ && j < cols_)
        << "(" << i << "," << j << ") out of " << rows_ << "x" << cols_;
    return data_[i * cols_ + j];
  }
  double At(size_t i, size_t j) const {
    AMALUR_CHECK(i < rows_ && j < cols_)
        << "(" << i << "," << j << ") out of " << rows_ << "x" << cols_;
    return data_[i * cols_ + j];
  }

  /// Pointer to the start of row `i` (row-major contiguous).
  double* RowPtr(size_t i) { return data_.data() + i * cols_; }
  const double* RowPtr(size_t i) const { return data_.data() + i * cols_; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// `this * other`.
  ///
  /// Summation-order contract (both products): every output element sums
  /// its terms in ascending order of the shared index, starting from +0.0,
  /// with no zero-skipping (this is the dense reference the materialized
  /// path is priced against). Threads partition output rows only, so the
  /// result is bitwise-equal to the serial one at any thread count.
  /// `Multiply` keeps each sum in a register, four output rows at a time.
  DenseMatrix Multiply(const DenseMatrix& other) const;
  /// `thisᵀ * other` without forming the transpose. Streams `this` row by
  /// row; each output row (a column of `this`) accumulates in place.
  DenseMatrix TransposeMultiply(const DenseMatrix& other) const;

  /// `Multiply` and `TransposeMultiply` into a caller's buffer, for loops
  /// that repeat a product: `*out` keeps its storage when it already has
  /// the result's shape and is reshaped (one allocation) otherwise. `out`
  /// must be neither operand. The allocating forms call these.
  void MultiplyInto(const DenseMatrix& other, DenseMatrix* out) const;
  void TransposeMultiplyInto(const DenseMatrix& other, DenseMatrix* out) const;

  DenseMatrix Transpose() const;

  DenseMatrix Add(const DenseMatrix& other) const;
  DenseMatrix Subtract(const DenseMatrix& other) const;
  /// Element-wise (Hadamard) product.
  DenseMatrix Hadamard(const DenseMatrix& other) const;
  DenseMatrix Scale(double factor) const;

  void AddInPlace(const DenseMatrix& other);
  void SubtractInPlace(const DenseMatrix& other);
  void ScaleInPlace(double factor);
  /// `this += factor * other` (axpy).
  void AddScaled(const DenseMatrix& other, double factor);

  /// Applies `f` to every element in place. `f` is a functor/lambda inlined
  /// at the call site and the loop runs parallel over disjoint element
  /// ranges, so `f` must be pure (no shared mutable state).
  template <typename F>
  void TransformInPlace(F f) {
    double* data = data_.data();
    common::ParallelFor(0, data_.size(), size_t{1} << 13,
                        [data, &f](size_t begin, size_t end) {
                          for (size_t i = begin; i < end; ++i) {
                            data[i] = f(data[i]);
                          }
                        });
  }

  /// Per-row sums as an rows()x1 column vector.
  DenseMatrix RowSums() const;
  /// Per-column sums as a 1xcols() row vector, one serial pass with rows
  /// ascending.
  DenseMatrix ColSums() const;
  /// Sum of every element, serially in storage order.
  double Sum() const;
  /// max_ij |this - other|; shapes must agree.
  double MaxAbsDiff(const DenseMatrix& other) const;

  /// New matrix with the given columns, in the given order.
  DenseMatrix SelectColumns(const std::vector<size_t>& columns) const;
  /// Horizontal concatenation [this | other]; row counts must agree.
  DenseMatrix ConcatColumns(const DenseMatrix& other) const;
  /// Vertical concatenation [this ; other]; column counts must agree.
  DenseMatrix ConcatRows(const DenseMatrix& other) const;

  /// True when shapes match and all entries differ by at most `tolerance`.
  bool ApproxEquals(const DenseMatrix& other, double tolerance = 1e-9) const;

  bool operator==(const DenseMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
  }

  /// Compact human-readable rendering (for tests and debugging).
  std::string ToString(int max_rows = 8) const;

 private:
  /// Gives the matrix the shape rows x cols; keeps the storage (and its
  /// contents) when the shape already matches, else zero-fills a new one.
  void Reshape(size_t rows, size_t cols);

  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace la
}  // namespace amalur
