#include "metadata/mapping_matrix.h"

#include <sstream>

namespace amalur {
namespace metadata {

CompressedMapping::CompressedMapping(std::vector<int64_t> target_to_source,
                                     size_t source_cols)
    : target_to_source_(std::move(target_to_source)), source_cols_(source_cols) {
  std::vector<uint8_t> used(source_cols_, 0);
  for (int64_t j : target_to_source_) {
    if (j < 0) continue;
    AMALUR_CHECK_LT(static_cast<size_t>(j), source_cols_)
        << "CM entry out of source range";
    AMALUR_CHECK(!used[static_cast<size_t>(j)])
        << "source column " << j << " mapped to two target columns";
    used[static_cast<size_t>(j)] = 1;
  }
}

CompressedMapping CompressedMapping::Identity(size_t cols) {
  std::vector<int64_t> map(cols);
  for (size_t i = 0; i < cols; ++i) map[i] = static_cast<int64_t>(i);
  return CompressedMapping(std::move(map), cols);
}

std::vector<size_t> CompressedMapping::MappedTargetColumns() const {
  std::vector<size_t> cols;
  for (size_t i = 0; i < target_to_source_.size(); ++i) {
    if (target_to_source_[i] >= 0) cols.push_back(i);
  }
  return cols;
}

la::DenseMatrix CompressedMapping::ToDense() const {
  la::DenseMatrix out(target_cols(), source_cols_);
  for (size_t i = 0; i < target_to_source_.size(); ++i) {
    const int64_t j = target_to_source_[i];
    if (j >= 0) out.At(i, static_cast<size_t>(j)) = 1.0;
  }
  return out;
}

la::DenseMatrix CompressedMapping::ExpandColumns(const la::DenseMatrix& dk) const {
  AMALUR_CHECK_EQ(dk.cols(), source_cols_) << "D_k column count mismatch";
  la::DenseMatrix out(dk.rows(), target_cols());
  for (size_t i = 0; i < target_cols(); ++i) {
    const int64_t j = target_to_source_[i];
    if (j < 0) continue;
    for (size_t r = 0; r < dk.rows(); ++r) {
      out.At(r, i) = dk.At(r, static_cast<size_t>(j));
    }
  }
  return out;
}

std::string CompressedMapping::ToString() const {
  std::ostringstream out;
  out << "CM[";
  for (size_t i = 0; i < target_to_source_.size(); ++i) {
    if (i > 0) out << ", ";
    out << target_to_source_[i];
  }
  out << "]";
  return out.str();
}

}  // namespace metadata
}  // namespace amalur
