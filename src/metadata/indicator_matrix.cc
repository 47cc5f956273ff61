#include "metadata/indicator_matrix.h"

#include <sstream>

namespace amalur {
namespace metadata {

CompressedIndicator::CompressedIndicator(std::vector<int64_t> target_to_source,
                                         size_t source_rows)
    : target_to_source_(std::move(target_to_source)), source_rows_(source_rows) {
  for (int64_t j : target_to_source_) {
    AMALUR_CHECK(j >= -1 && j < static_cast<int64_t>(source_rows_))
        << "CI entry " << j << " out of range";
  }
}

CompressedIndicator CompressedIndicator::Identity(size_t rows) {
  std::vector<int64_t> map(rows);
  for (size_t i = 0; i < rows; ++i) map[i] = static_cast<int64_t>(i);
  return CompressedIndicator(std::move(map), rows);
}

size_t CompressedIndicator::ContributedRows() const {
  size_t count = 0;
  for (int64_t j : target_to_source_) count += (j >= 0);
  return count;
}

la::DenseMatrix CompressedIndicator::ToDense() const {
  la::DenseMatrix out(target_rows(), source_rows_);
  for (size_t i = 0; i < target_to_source_.size(); ++i) {
    const int64_t j = target_to_source_[i];
    if (j >= 0) out.At(i, static_cast<size_t>(j)) = 1.0;
  }
  return out;
}

la::DenseMatrix CompressedIndicator::ExpandRows(const la::DenseMatrix& y) const {
  AMALUR_CHECK_EQ(y.rows(), source_rows_) << "Y row count must be rS";
  la::DenseMatrix out(target_rows(), y.cols());
  for (size_t i = 0; i < target_rows(); ++i) {
    const int64_t j = target_to_source_[i];
    if (j < 0) continue;
    const double* src = y.RowPtr(static_cast<size_t>(j));
    double* dst = out.RowPtr(i);
    for (size_t c = 0; c < y.cols(); ++c) dst[c] = src[c];
  }
  return out;
}

std::string CompressedIndicator::ToString() const {
  std::ostringstream out;
  out << "CI[";
  for (size_t i = 0; i < target_to_source_.size(); ++i) {
    if (i > 0) out << ", ";
    out << target_to_source_[i];
  }
  out << "]";
  return out.str();
}

}  // namespace metadata
}  // namespace amalur
