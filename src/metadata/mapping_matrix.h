#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "la/dense_matrix.h"

/// \file mapping_matrix.h
/// The paper's mapping matrix (Definition III.1) and its compressed form
/// (Definition III.2). `M_k` is a binary cT × cS_k matrix with
/// M_k[i, j] = 1 iff column j of source k maps to target column i. The
/// compressed form `CM_k` is a row vector of size cT with CM_k[i] = j (or -1).
///
/// The class stores only the compressed form; the full `M_k` is
/// materialized on demand. Column indices refer to the *processed* source
/// matrix `D_k`, which holds only the mapped columns (§III.B).

namespace amalur {
namespace metadata {

/// Compressed mapping matrix `CM_k` with gather/scatter kernels.
class CompressedMapping {
 public:
  /// `target_to_source[i]` = D_k column mapped to target column i, or -1.
  /// `source_cols` = number of columns of D_k (cS_k).
  CompressedMapping(std::vector<int64_t> target_to_source, size_t source_cols);

  /// Identity mapping: target column i ← source column i (cS = cT).
  static CompressedMapping Identity(size_t cols);

  size_t target_cols() const { return target_to_source_.size(); }
  size_t source_cols() const { return source_cols_; }

  /// CM_k[i]: the D_k column mapped to target column i, or -1.
  int64_t At(size_t i) const {
    AMALUR_CHECK_LT(i, target_to_source_.size()) << "CM index";
    return target_to_source_[i];
  }
  const std::vector<int64_t>& values() const { return target_to_source_; }

  /// Target columns this source maps (ascending).
  std::vector<size_t> MappedTargetColumns() const;

  /// The full binary mapping matrix `M_k` (cT × cS_k), Definition III.1
  /// (tests / small inputs only).
  la::DenseMatrix ToDense() const;

  /// `D_k · M_kᵀ` (r × cT): places D_k's columns at their target positions,
  /// zero elsewhere. O(r · cS) — never materializes M_k.
  la::DenseMatrix ExpandColumns(const la::DenseMatrix& dk) const;

  /// `M_kᵀ · X` for X (cT × n): selects the X rows of mapped target columns
  /// into D_k column order (cS × n). The gather at the heart of rewrite (2).
  la::DenseMatrix GatherTargetRows(const la::DenseMatrix& x) const;

  std::string ToString() const;

 private:
  std::vector<int64_t> target_to_source_;
  size_t source_cols_;
};

}  // namespace metadata
}  // namespace amalur
