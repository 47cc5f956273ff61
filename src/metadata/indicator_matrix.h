#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "la/dense_matrix.h"

/// \file indicator_matrix.h
/// The paper's indicator matrix and its compressed form (Definition III.3).
/// `I_k` is a binary rT × rS_k matrix with I_k[i, j] = 1 iff row j of source
/// k maps to row i of the target; `CI_k` is a row vector of size rT with
/// CI_k[i] = j (or -1). Join fan-out is naturally expressed: several target
/// rows may point at the same source row.

namespace amalur {
namespace metadata {

/// Compressed indicator matrix `CI_k` with expand/reduce kernels.
class CompressedIndicator {
 public:
  /// `target_to_source[i]` = D_k row mapped to target row i, or -1.
  /// `source_rows` = number of rows of D_k (rS_k).
  CompressedIndicator(std::vector<int64_t> target_to_source, size_t source_rows);

  /// Identity indicator: target row i ← source row i.
  static CompressedIndicator Identity(size_t rows);

  size_t target_rows() const { return target_to_source_.size(); }
  size_t source_rows() const { return source_rows_; }

  /// CI_k[i]: the D_k row mapped to target row i, or -1.
  int64_t At(size_t i) const {
    AMALUR_CHECK_LT(i, target_to_source_.size()) << "CI index";
    return target_to_source_[i];
  }
  const std::vector<int64_t>& values() const { return target_to_source_; }

  /// Number of target rows this source contributes to.
  size_t ContributedRows() const;

  /// The full binary indicator matrix `I_k` (rT × rS_k), Definition III.3
  /// (tests / small inputs only).
  la::DenseMatrix ToDense() const;

  /// `I_k · Y` for Y (rS × c): routes source-row values to target rows,
  /// zero rows where the source contributes nothing. O(rT · c).
  la::DenseMatrix ExpandRows(const la::DenseMatrix& y) const;

  /// `I_kᵀ · X` for X (rT × c): accumulates target-row values back onto
  /// source rows (scatter-add; fan-out rows accumulate). The backward
  /// operation of factorized gradient computations.
  la::DenseMatrix ReduceRows(const la::DenseMatrix& x) const;

  std::string ToString() const;

 private:
  std::vector<int64_t> target_to_source_;
  size_t source_rows_;
};

}  // namespace metadata
}  // namespace amalur
