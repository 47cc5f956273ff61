#include "ml/training_matrix.h"

#include "common/parallel_for.h"

namespace amalur {
namespace ml {

la::DenseMatrix MaterializedMatrix::RowSquaredNorms() const {
  la::DenseMatrix out(data_.rows(), 1);
  common::ParallelFor(
      0, data_.rows(), 256, [&](size_t row_begin, size_t row_end) {
        for (size_t i = row_begin; i < row_end; ++i) {
          const double* row = data_.RowPtr(i);
          double acc = 0.0;
          for (size_t j = 0; j < data_.cols(); ++j) acc += row[j] * row[j];
          out.At(i, 0) = acc;
        }
      });
  return out;
}

la::DenseMatrix SparseMaterializedMatrix::RowSquaredNorms() const {
  la::DenseMatrix out(data_.rows(), 1);
  const auto& offsets = data_.row_offsets();
  const auto& values = data_.values();
  common::ParallelFor(
      0, data_.rows(), 256, [&](size_t row_begin, size_t row_end) {
        for (size_t i = row_begin; i < row_end; ++i) {
          double acc = 0.0;
          for (size_t p = offsets[i]; p < offsets[i + 1]; ++p) {
            acc += values[p] * values[p];
          }
          out.At(i, 0) = acc;
        }
      });
  return out;
}

FactorizedFeatures::FactorizedFeatures(
    std::shared_ptr<const factorized::FactorizedTable> table, size_t label_column)
    : table_(std::move(table)), label_column_(label_column) {
  AMALUR_CHECK(table_ != nullptr) << "null table";
  AMALUR_CHECK(label_column_ < table_->cols()) << "label column out of range";
}

la::DenseMatrix FactorizedFeatures::PadToTarget(const la::DenseMatrix& x) const {
  la::DenseMatrix padded(table_->cols(), x.cols());
  for (size_t i = 0, src = 0; i < table_->cols(); ++i) {
    if (i == label_column_) continue;
    for (size_t c = 0; c < x.cols(); ++c) padded.At(i, c) = x.At(src, c);
    ++src;
  }
  return padded;
}

la::DenseMatrix FactorizedFeatures::DropLabelRow(const la::DenseMatrix& x) const {
  la::DenseMatrix out(x.rows() - 1, x.cols());
  for (size_t i = 0, dst = 0; i < x.rows(); ++i) {
    if (i == label_column_) continue;
    for (size_t c = 0; c < x.cols(); ++c) out.At(dst, c) = x.At(i, c);
    ++dst;
  }
  return out;
}

la::DenseMatrix FactorizedFeatures::LeftMultiply(const la::DenseMatrix& x) const {
  AMALUR_CHECK_EQ(x.rows(), cols()) << "feature LMM shape";
  return table_->LeftMultiply(PadToTarget(x));
}

la::DenseMatrix FactorizedFeatures::TransposeLeftMultiply(
    const la::DenseMatrix& x) const {
  return DropLabelRow(table_->TransposeLeftMultiply(x));
}

la::DenseMatrix FactorizedFeatures::RowSquaredNorms() const {
  la::DenseMatrix norms = table_->RowSquaredNorms();
  // Subtract the label column's contribution: ||t_i||² - y_i².
  la::DenseMatrix labels = Labels();
  for (size_t i = 0; i < norms.rows(); ++i) {
    norms.At(i, 0) -= labels.At(i, 0) * labels.At(i, 0);
  }
  return norms;
}

la::DenseMatrix FactorizedFeatures::ColSums() const {
  la::DenseMatrix sums = table_->ColSums();  // 1 x cT
  la::DenseMatrix out(1, cols());
  for (size_t i = 0, dst = 0; i < table_->cols(); ++i) {
    if (i == label_column_) continue;
    out.At(0, dst++) = sums.At(0, i);
  }
  return out;
}

la::DenseMatrix FactorizedFeatures::Labels() const {
  la::DenseMatrix selector(table_->cols(), 1);
  selector.At(label_column_, 0) = 1.0;
  return table_->LeftMultiply(selector);
}

}  // namespace ml
}  // namespace amalur
