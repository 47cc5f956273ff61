#include "la/dense_matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/parallel_for.h"
#include "common/rng.h"

namespace amalur {
namespace la {

namespace {
// Minimum output rows per ParallelFor chunk of `Multiply`.
constexpr size_t kMultiplyGrain = 64;
// Minimum elements per ParallelFor chunk for element-wise reductions; below
// this the scheduling overhead beats the arithmetic.
constexpr size_t kReduceGrain = 1 << 14;

// The two product kernels. `kCols` fixes the right-hand side's width at
// compile time (1: a matrix-vector product, whose inner loops then have no
// column loop left); 0 reads it from `n`. Every output element sums its
// terms in ascending order of the shared index from +0.0, and no term is
// skipped for a zero factor.

// Rows [row_begin, row_end) of c = a·b for a (·×k) and b (k×n). Each sum
// lives in a register; four output rows at a time make four independent
// addition chains that share each load of b.
template <size_t kCols>
void MultiplyRows(const double* a, const double* b, size_t k, size_t n,
                  double* __restrict c, size_t row_begin, size_t row_end) {
  if (kCols != 0) n = kCols;
  size_t i = row_begin;
  for (; i + 4 <= row_end; i += 4) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    double* c0 = c + i * n;
    for (size_t j = 0; j < n; ++j) {
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (size_t p = 0; p < k; ++p) {
        const double b_pj = b[p * n + j];
        s0 += a0[p] * b_pj;
        s1 += a1[p] * b_pj;
        s2 += a2[p] * b_pj;
        s3 += a3[p] * b_pj;
      }
      c0[j] = s0;
      c0[n + j] = s1;
      c0[2 * n + j] = s2;
      c0[3 * n + j] = s3;
    }
  }
  for (; i < row_end; ++i) {
    const double* a_row = a + i * k;
    for (size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (size_t p = 0; p < k; ++p) s += a_row[p] * b[p * n + j];
      c[i * n + j] = s;
    }
  }
}

// Rows [col_begin, col_end) of c += aᵀ·b for a (k×m) and b (k×n); output
// row i is column i of a. The inner loops run contiguously along a's rows;
// at kCols == 1 b's elements are loop-invariant there, which `__restrict`
// lets the compiler hoist. Four shared rows are folded per pass, in order,
// so an output element makes one trip through memory per four terms.
template <size_t kCols>
void TransposeMultiplyRows(const double* a, size_t m, const double* b,
                           size_t k, size_t n, double* __restrict c,
                           size_t col_begin, size_t col_end) {
  if (kCols != 0) n = kCols;
  size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const double* a0 = a + p * m;
    const double* a1 = a0 + m;
    const double* a2 = a1 + m;
    const double* a3 = a2 + m;
    const double* b0 = b + p * n;
    const double* b1 = b0 + n;
    const double* b2 = b1 + n;
    const double* b3 = b2 + n;
    for (size_t i = col_begin; i < col_end; ++i) {
      const double a0i = a0[i], a1i = a1[i], a2i = a2[i], a3i = a3[i];
      double* c_row = c + i * n;
      for (size_t j = 0; j < n; ++j) {
        c_row[j] = (((c_row[j] + a0i * b0[j]) + a1i * b1[j]) + a2i * b2[j]) +
                   a3i * b3[j];
      }
    }
  }
  for (; p < k; ++p) {
    const double* a_row = a + p * m;
    const double* b_row = b + p * n;
    for (size_t i = col_begin; i < col_end; ++i) {
      const double a_pi = a_row[i];
      double* c_row = c + i * n;
      for (size_t j = 0; j < n; ++j) c_row[j] += a_pi * b_row[j];
    }
  }
}

}  // namespace

DenseMatrix::DenseMatrix(size_t rows, size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  AMALUR_CHECK_EQ(data_.size(), rows * cols) << "bad data length for shape";
}

DenseMatrix::DenseMatrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() ? rows.begin()->size() : 0) {
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    AMALUR_CHECK_EQ(row.size(), cols_) << "ragged initializer list";
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

DenseMatrix DenseMatrix::Constant(size_t rows, size_t cols, double value) {
  DenseMatrix out(rows, cols);
  std::fill(out.data_.begin(), out.data_.end(), value);
  return out;
}

DenseMatrix DenseMatrix::Identity(size_t n) {
  DenseMatrix out(n, n);
  for (size_t i = 0; i < n; ++i) out.data_[i * n + i] = 1.0;
  return out;
}

DenseMatrix DenseMatrix::RandomGaussian(size_t rows, size_t cols, Rng* rng) {
  DenseMatrix out(rows, cols);
  for (double& v : out.data_) v = rng->NextGaussian();
  return out;
}

DenseMatrix DenseMatrix::RandomUniform(size_t rows, size_t cols, double lo,
                                       double hi, Rng* rng) {
  DenseMatrix out(rows, cols);
  for (double& v : out.data_) v = rng->NextDouble(lo, hi);
  return out;
}

DenseMatrix DenseMatrix::Multiply(const DenseMatrix& other) const {
  DenseMatrix out;
  MultiplyInto(other, &out);
  return out;
}

DenseMatrix DenseMatrix::TransposeMultiply(const DenseMatrix& other) const {
  DenseMatrix out;
  TransposeMultiplyInto(other, &out);
  return out;
}

void DenseMatrix::MultiplyInto(const DenseMatrix& other,
                               DenseMatrix* out) const {
  AMALUR_CHECK_EQ(cols_, other.rows_) << "gemm shape mismatch";
  AMALUR_CHECK(out != this && out != &other) << "gemm output aliases an operand";
  out->Reshape(rows_, other.cols_);
  const double* a = data();
  const double* b = other.data();
  double* c = out->data();
  const size_t k = cols_, n = other.cols_;
  // Parallel over output row blocks: chunks write disjoint rows.
  common::ParallelFor(0, rows_, kMultiplyGrain,
                      [=](size_t row_begin, size_t row_end) {
                        if (n == 1) {
                          MultiplyRows<1>(a, b, k, n, c, row_begin, row_end);
                        } else {
                          MultiplyRows<0>(a, b, k, n, c, row_begin, row_end);
                        }
                      });
}

void DenseMatrix::TransposeMultiplyInto(const DenseMatrix& other,
                                        DenseMatrix* out) const {
  AMALUR_CHECK_EQ(rows_, other.rows_) << "gemm(Aᵀ,B) shape mismatch";
  AMALUR_CHECK(out != this && out != &other) << "gemm output aliases an operand";
  out->Reshape(cols_, other.cols_);
  std::fill(out->data_.begin(), out->data_.end(), 0.0);
  const double* a = data();
  const double* b = other.data();
  double* c = out->data();
  const size_t m = cols_, k = rows_, n = other.cols_;
  // Partitioning the *output* rows (this-columns) instead of the shared k
  // extent keeps writes disjoint, with no per-thread accumulators or merge.
  // Each chunk streams all of `other` but only its own column band of
  // `this`.
  common::ParallelFor(0, m, 8, [=](size_t col_begin, size_t col_end) {
    if (n == 1) {
      TransposeMultiplyRows<1>(a, m, b, k, n, c, col_begin, col_end);
    } else {
      TransposeMultiplyRows<0>(a, m, b, k, n, c, col_begin, col_end);
    }
  });
}

void DenseMatrix::Reshape(size_t rows, size_t cols) {
  if (rows == rows_ && cols == cols_) return;
  *this = DenseMatrix(rows, cols);
}

DenseMatrix DenseMatrix::Transpose() const {
  DenseMatrix out(cols_, rows_);
  // Partition output rows: chunk writes are disjoint and contiguous.
  common::ParallelFor(0, cols_, 16, [&](size_t col_begin, size_t col_end) {
    for (size_t j = col_begin; j < col_end; ++j) {
      double* out_row = out.RowPtr(j);
      for (size_t i = 0; i < rows_; ++i) out_row[i] = data_[i * cols_ + j];
    }
  });
  return out;
}

DenseMatrix DenseMatrix::Add(const DenseMatrix& other) const {
  DenseMatrix out = *this;
  out.AddInPlace(other);
  return out;
}

DenseMatrix DenseMatrix::Subtract(const DenseMatrix& other) const {
  DenseMatrix out = *this;
  out.SubtractInPlace(other);
  return out;
}

DenseMatrix DenseMatrix::Hadamard(const DenseMatrix& other) const {
  DenseMatrix out = *this;
  out.HadamardInPlace(other);
  return out;
}

DenseMatrix DenseMatrix::Scale(double factor) const {
  DenseMatrix out = *this;
  out.ScaleInPlace(factor);
  return out;
}

void DenseMatrix::AddInPlace(const DenseMatrix& other) {
  AMALUR_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "add shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void DenseMatrix::SubtractInPlace(const DenseMatrix& other) {
  AMALUR_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "sub shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

void DenseMatrix::HadamardInPlace(const DenseMatrix& other) {
  AMALUR_CHECK(rows_ == other.rows_ && cols_ == other.cols_)
      << "hadamard shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

void DenseMatrix::ScaleInPlace(double factor) {
  for (double& v : data_) v *= factor;
}

void DenseMatrix::AddScaled(const DenseMatrix& other, double factor) {
  AMALUR_CHECK(rows_ == other.rows_ && cols_ == other.cols_)
      << "axpy shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += factor * other.data_[i];
}

DenseMatrix DenseMatrix::Map(const std::function<double(double)>& f) const {
  DenseMatrix out = *this;
  out.MapInPlace(f);
  return out;
}

void DenseMatrix::MapInPlace(const std::function<double(double)>& f) {
  // Deliberately serial: callers may pass stateful functors (accumulating
  // side channels), which the parallel TransformInPlace would race on.
  for (double& v : data_) v = f(v);
}

DenseMatrix DenseMatrix::RowSums() const {
  DenseMatrix out(rows_, 1);
  const size_t grain = std::max<size_t>(1, kReduceGrain / std::max<size_t>(cols_, 1));
  common::ParallelFor(0, rows_, grain, [&](size_t row_begin, size_t row_end) {
    for (size_t i = row_begin; i < row_end; ++i) {
      const double* row = RowPtr(i);
      double acc = 0.0;
      for (size_t j = 0; j < cols_; ++j) acc += row[j];
      out.data_[i] = acc;
    }
  });
  return out;
}

DenseMatrix DenseMatrix::ColSums() const {
  DenseMatrix out(1, cols_);
  // Per-chunk partial row vectors merged in chunk order: each column still
  // accumulates its rows in ascending-chunk order, run-stable at a given
  // thread count.
  const size_t grain = std::max<size_t>(1, kReduceGrain / std::max<size_t>(cols_, 1));
  const size_t num_chunks = common::ParallelChunkCount(rows_, grain);
  if (num_chunks <= 1) {
    for (size_t i = 0; i < rows_; ++i) {
      const double* row = RowPtr(i);
      for (size_t j = 0; j < cols_; ++j) out.data_[j] += row[j];
    }
    return out;
  }
  std::vector<DenseMatrix> partials(num_chunks);
  common::ParallelForChunks(
      0, rows_, grain, [&](size_t chunk, size_t row_begin, size_t row_end) {
        DenseMatrix partial(1, cols_);
        for (size_t i = row_begin; i < row_end; ++i) {
          const double* row = RowPtr(i);
          for (size_t j = 0; j < cols_; ++j) partial.data_[j] += row[j];
        }
        partials[chunk] = std::move(partial);
      });
  for (const DenseMatrix& partial : partials) {
    if (!partial.empty()) out.AddInPlace(partial);
  }
  return out;
}

double DenseMatrix::Sum() const {
  const size_t num_chunks = common::ParallelChunkCount(data_.size(), kReduceGrain);
  if (num_chunks <= 1) {
    double acc = 0.0;
    for (double v : data_) acc += v;
    return acc;
  }
  std::vector<double> partials(num_chunks, 0.0);
  common::ParallelForChunks(
      0, data_.size(), kReduceGrain,
      [&](size_t chunk, size_t begin, size_t end) {
        double acc = 0.0;
        for (size_t i = begin; i < end; ++i) acc += data_[i];
        partials[chunk] = acc;
      });
  double total = 0.0;
  for (double partial : partials) total += partial;  // fixed chunk order
  return total;
}

double DenseMatrix::FrobeniusNorm() const {
  const size_t num_chunks = common::ParallelChunkCount(data_.size(), kReduceGrain);
  if (num_chunks <= 1) {
    double acc = 0.0;
    for (double v : data_) acc += v * v;
    return std::sqrt(acc);
  }
  std::vector<double> partials(num_chunks, 0.0);
  common::ParallelForChunks(
      0, data_.size(), kReduceGrain,
      [&](size_t chunk, size_t begin, size_t end) {
        double acc = 0.0;
        for (size_t i = begin; i < end; ++i) acc += data_[i] * data_[i];
        partials[chunk] = acc;
      });
  double total = 0.0;
  for (double partial : partials) total += partial;
  return std::sqrt(total);
}

double DenseMatrix::MaxAbsDiff(const DenseMatrix& other) const {
  AMALUR_CHECK(rows_ == other.rows_ && cols_ == other.cols_)
      << "diff shape mismatch";
  double worst = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::fabs(data_[i] - other.data_[i]));
  }
  return worst;
}

DenseMatrix DenseMatrix::SliceRows(size_t begin, size_t end) const {
  AMALUR_CHECK(begin <= end && end <= rows_) << "bad row slice";
  DenseMatrix out(end - begin, cols_);
  std::copy(data_.begin() + begin * cols_, data_.begin() + end * cols_,
            out.data_.begin());
  return out;
}

DenseMatrix DenseMatrix::SelectColumns(const std::vector<size_t>& columns) const {
  DenseMatrix out(rows_, columns.size());
  for (size_t i = 0; i < rows_; ++i) {
    const double* row = RowPtr(i);
    double* out_row = out.RowPtr(i);
    for (size_t j = 0; j < columns.size(); ++j) {
      AMALUR_CHECK_LT(columns[j], cols_) << "column index out of range";
      out_row[j] = row[columns[j]];
    }
  }
  return out;
}

DenseMatrix DenseMatrix::SelectRows(const std::vector<size_t>& rows) const {
  DenseMatrix out(rows.size(), cols_);
  for (size_t i = 0; i < rows.size(); ++i) {
    AMALUR_CHECK_LT(rows[i], rows_) << "row index out of range";
    std::copy(RowPtr(rows[i]), RowPtr(rows[i]) + cols_, out.RowPtr(i));
  }
  return out;
}

DenseMatrix DenseMatrix::ConcatColumns(const DenseMatrix& other) const {
  AMALUR_CHECK_EQ(rows_, other.rows_) << "hconcat row mismatch";
  DenseMatrix out(rows_, cols_ + other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    std::copy(RowPtr(i), RowPtr(i) + cols_, out.RowPtr(i));
    std::copy(other.RowPtr(i), other.RowPtr(i) + other.cols_,
              out.RowPtr(i) + cols_);
  }
  return out;
}

DenseMatrix DenseMatrix::ConcatRows(const DenseMatrix& other) const {
  AMALUR_CHECK_EQ(cols_, other.cols_) << "vconcat column mismatch";
  DenseMatrix out(rows_ + other.rows_, cols_);
  std::copy(data_.begin(), data_.end(), out.data_.begin());
  std::copy(other.data_.begin(), other.data_.end(),
            out.data_.begin() + data_.size());
  return out;
}

bool DenseMatrix::ApproxEquals(const DenseMatrix& other, double tolerance) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tolerance) return false;
  }
  return true;
}

std::string DenseMatrix::ToString(int max_rows) const {
  std::ostringstream out;
  out << rows_ << "x" << cols_ << " matrix\n";
  const size_t shown = std::min<size_t>(rows_, static_cast<size_t>(max_rows));
  for (size_t i = 0; i < shown; ++i) {
    out << "  [";
    for (size_t j = 0; j < cols_; ++j) {
      if (j > 0) out << ", ";
      out << At(i, j);
    }
    out << "]\n";
  }
  if (shown < rows_) out << "  ... (" << rows_ - shown << " more rows)\n";
  return out.str();
}

}  // namespace la
}  // namespace amalur
