#include "metadata/redundancy_matrix.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace amalur {
namespace metadata {

RedundancyMask RedundancyMask::AllOnes(size_t target_rows, size_t target_cols) {
  return RedundancyMask(target_rows, target_cols, {}, {});
}

RedundancyMask RedundancyMask::Derive(
    size_t k, const std::vector<CompressedIndicator>& indicators,
    const std::vector<CompressedMapping>& mappings) {
  AMALUR_CHECK_EQ(indicators.size(), mappings.size()) << "metadata size mismatch";
  AMALUR_CHECK_LT(k, indicators.size()) << "source index";
  const size_t target_rows = indicators[k].target_rows();
  const size_t target_cols = mappings[k].target_cols();
  if (k == 0) return AllOnes(target_rows, target_cols);

  // This source's mapped target columns, as a membership bitmap.
  std::vector<uint8_t> mine(target_cols, 0);
  for (size_t col : mappings[k].MappedTargetColumns()) mine[col] = 1;

  // Per earlier source: its mapped target columns intersected with ours.
  std::vector<std::vector<size_t>> earlier_overlap(k);
  bool overlaps = false;
  for (size_t e = 0; e < k; ++e) {
    for (size_t col : mappings[e].MappedTargetColumns()) {
      if (mine[col]) earlier_overlap[e].push_back(col);
    }
    overlaps |= !earlier_overlap[e].empty();
  }
  // No shared target column: no row has anything masked.
  if (!overlaps) return AllOnes(target_rows, target_cols);

  // Per target row: union of overlapping columns over the earlier sources
  // that contribute to the row; interned.
  std::map<std::vector<size_t>, int32_t> intern;
  std::vector<std::vector<size_t>> column_sets;
  std::vector<int32_t> row_set_id(target_rows, -1);
  for (size_t i = 0; i < target_rows; ++i) {
    if (indicators[k].At(i) < 0) continue;  // no contribution -> all ones
    std::set<size_t> covered;
    for (size_t e = 0; e < k; ++e) {
      if (indicators[e].At(i) < 0) continue;
      covered.insert(earlier_overlap[e].begin(), earlier_overlap[e].end());
    }
    if (covered.empty()) continue;
    std::vector<size_t> key(covered.begin(), covered.end());
    auto [it, inserted] =
        intern.try_emplace(key, static_cast<int32_t>(column_sets.size()));
    if (inserted) column_sets.push_back(key);
    row_set_id[i] = it->second;
  }
  return RedundancyMask(target_rows, target_cols, std::move(row_set_id),
                        std::move(column_sets));
}

bool RedundancyMask::IsRedundant(size_t i, size_t j) const {
  AMALUR_CHECK(i < target_rows_ && j < target_cols_) << "R index";
  const int32_t set_id = row_set(i);
  if (set_id < 0) return false;
  const auto& cols = column_sets_[static_cast<size_t>(set_id)];
  return std::binary_search(cols.begin(), cols.end(), j);
}

bool RedundancyMask::HasRedundancy() const {
  for (int32_t id : row_set_id_) {
    if (id >= 0) return true;
  }
  return false;
}

size_t RedundancyMask::RedundantCellCount() const {
  size_t count = 0;
  for (int32_t id : row_set_id_) {
    if (id >= 0) count += column_sets_[static_cast<size_t>(id)].size();
  }
  return count;
}

la::DenseMatrix RedundancyMask::ToDense() const {
  la::DenseMatrix out = la::DenseMatrix::Constant(target_rows(), target_cols_, 1.0);
  for (size_t i = 0; i < row_set_id_.size(); ++i) {
    if (row_set_id_[i] < 0) continue;
    for (size_t j : column_sets_[static_cast<size_t>(row_set_id_[i])]) {
      out.At(i, j) = 0.0;
    }
  }
  return out;
}

void RedundancyMask::ApplyInPlace(la::DenseMatrix* tk) const {
  AMALUR_CHECK(tk->rows() == target_rows() && tk->cols() == target_cols_)
      << "T_k shape mismatch";
  for (size_t i = 0; i < row_set_id_.size(); ++i) {
    if (row_set_id_[i] < 0) continue;
    for (size_t j : column_sets_[static_cast<size_t>(row_set_id_[i])]) {
      tk->At(i, j) = 0.0;
    }
  }
}

std::string RedundancyMask::ToString() const {
  std::ostringstream out;
  out << "R[" << target_rows() << "x" << target_cols_ << ", "
      << RedundantCellCount() << " redundant cells]";
  return out.str();
}

}  // namespace metadata
}  // namespace amalur
