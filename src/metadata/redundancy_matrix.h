#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "la/dense_matrix.h"
#include "metadata/indicator_matrix.h"
#include "metadata/mapping_matrix.h"

/// \file redundancy_matrix.h
/// The paper's redundancy matrix (Definition III.4): a binary rT × cT matrix
/// `R_k` with R_k[i, j] = 0 iff T_k[i, j] = (I_k D_k M_kᵀ)[i, j] is redundant
/// — i.e. an earlier source (the base table chain) already contributes the
/// target cell (i, j) *and* source k contributes it too. The base table's R
/// is all ones.
///
/// The matrix is never stored densely: per target row we keep an id into a
/// small interned family of "masked target column" sets (the overlap between
/// this source's mapped columns and the union of earlier covering sources);
/// an all-ones mask, such as the base table's, keeps no per-row ids at all.
/// The factorized rewrites group rows by this id to apply the Hadamard step
/// without materializing T_k.

namespace amalur {
namespace metadata {

/// Compressed redundancy matrix `R_k`.
class RedundancyMask {
 public:
  /// All-ones mask (the base table's R).
  static RedundancyMask AllOnes(size_t target_rows, size_t target_cols);

  /// Derives R_k for source `k` given all sources' indicators and mappings
  /// (earlier sources = indices < k form the non-redundant chain).
  static RedundancyMask Derive(size_t k,
                               const std::vector<CompressedIndicator>& indicators,
                               const std::vector<CompressedMapping>& mappings);

  size_t target_rows() const { return target_rows_; }
  size_t target_cols() const { return target_cols_; }

  /// True iff R_k[i, j] == 0.
  bool IsRedundant(size_t i, size_t j) const;

  /// Whether any cell of the mask is 0.
  bool HasRedundancy() const;

  /// Number of zero cells (redundant target cells).
  size_t RedundantCellCount() const;

  /// Id of the masked-column set of target row i, or -1 when row i is all
  /// ones (nothing redundant in it).
  int32_t row_set(size_t i) const {
    AMALUR_CHECK_LT(i, target_rows_) << "row index";
    return row_set_id_.empty() ? -1 : row_set_id_[i];
  }

  /// The interned masked-column sets (sorted target column indices). A row
  /// with `row_set(i) == s` has zeros exactly at `column_sets()[s]`.
  const std::vector<std::vector<size_t>>& column_sets() const {
    return column_sets_;
  }

  /// The full dense `R_k` per Definition III.4 (tests / small inputs only).
  la::DenseMatrix ToDense() const;

  /// The Hadamard product T_k ∘ R_k, in place (`tk` is rT × cT).
  void ApplyInPlace(la::DenseMatrix* tk) const;

  std::string ToString() const;

 private:
  RedundancyMask(size_t target_rows, size_t target_cols,
                 std::vector<int32_t> row_set_id,
                 std::vector<std::vector<size_t>> column_sets)
      : target_rows_(target_rows),
        target_cols_(target_cols),
        row_set_id_(std::move(row_set_id)),
        column_sets_(std::move(column_sets)) {}

  size_t target_rows_ = 0;
  size_t target_cols_ = 0;
  /// Per target row: index into column_sets_, or -1 for an all-ones row;
  /// empty when every row is all ones.
  std::vector<int32_t> row_set_id_;
  /// Interned masked-column sets (sorted target column indices, non-empty).
  std::vector<std::vector<size_t>> column_sets_;
};

}  // namespace metadata
}  // namespace amalur
