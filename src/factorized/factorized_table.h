#pragma once

#include <vector>

#include "la/dense_matrix.h"
#include "metadata/di_metadata.h"

/// \file factorized_table.h
/// The factorized target table: a virtual rT × cT matrix that is never
/// materialized. Every linear-algebra operator is rewritten over the source
/// matrices using the DI metadata — the Amalur rewrite rule (2) of §IV.A:
///
///     T X → I_1 D_1 M_1ᵀ X + ((I_2 D_2 M_2ᵀ) ∘ R_2) X + ...
///
/// implemented without materializing any rT × cT intermediate: target rows
/// are grouped into *row classes* by their redundancy mask, and each class
/// contributes a gather → small-GEMM → scatter. Compute is proportional to
/// Σ_k nnz-contributions, which is what makes factorized learning faster
/// than materialization when the target is redundant.

namespace amalur {
namespace factorized {

/// Per-source partial scores of one fixed weight vector w (cT × 1),
/// extracted once from the factorized view by
/// `FactorizedTable::ExtractPartialScores`. For source k and masked-column
/// set s (−1 = all-ones row), every D_k row j gets
///
///     partial_k[s][j] = Σ_{allowed (d, c) pairs of s} D_k[j, d] · w[c]
///
/// so scoring target row i degenerates to a lookup-and-add over the
/// compressed indicators — no dimension block is ever re-multiplied:
///
///     score(i) = Σ_k partial_k[ row_set_k(i) ][ CI_k(i) ]   (skip CI < 0)
///
/// Each row adds exactly one partial per contributing source, sources
/// ascending, and the partials are accumulated in the same column order
/// (with the same exact-zero skip) as `LeftMultiply`'s per-unique-row
/// kernel — `ScoreRow(i)` is therefore bitwise-equal to
/// `LeftMultiply(w).At(i, 0)`. This is the serving tier's deploy-time
/// cache: built once per deployed weight vector, shared read-only by every
/// concurrent scoring thread.
///
/// Non-owning: holds a pointer into the extracting table's metadata, so the
/// `FactorizedTable` must outlive the `PartialScores` (the serving snapshot
/// keeps both behind one shared_ptr).
class PartialScores {
 public:
  PartialScores() = default;

  /// Target rows scorable (rT).
  size_t rows() const {
    return metadata_ == nullptr ? 0 : metadata_->target_rows();
  }

  /// Number of cached partial values across all sources and sets.
  size_t cached_values() const { return cached_values_; }

  /// score(i) as above. When `lookups` is non-null it is incremented once
  /// per contributing source (indicator hit) — the serving cache-hit stat.
  double ScoreRow(size_t i, size_t* lookups = nullptr) const {
    double score = 0.0;
    for (size_t k = 0; k < by_set_.size(); ++k) {
      const metadata::SourceMetadata& source = metadata_->source(k);
      const int64_t j = source.indicator.At(i);
      if (j < 0) continue;
      const int32_t set = source.redundancy.row_set(i);
      score += by_set_[k][static_cast<size_t>(set + 1)][static_cast<size_t>(j)];
      if (lookups != nullptr) ++*lookups;
    }
    return score;
  }

 private:
  friend class FactorizedTable;

  const metadata::DiMetadata* metadata_ = nullptr;
  /// [source][set id + 1][D_k row]; index 0 holds the all-ones (−1) set.
  std::vector<std::vector<std::vector<double>>> by_set_;
  size_t cached_values_ = 0;
};

/// A linear-algebra view over an integration scenario's target table.
class FactorizedTable {
 public:
  /// Takes ownership of the derived metadata.
  explicit FactorizedTable(metadata::DiMetadata metadata);

  /// Target shape (rT × cT).
  size_t rows() const { return metadata_.target_rows(); }
  size_t cols() const { return metadata_.target_cols(); }
  const metadata::DiMetadata& metadata() const { return metadata_; }

  /// T · X for X (cT × n) — the paper's LMM, rewrite rule (2).
  la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const;

  /// Tᵀ · X for X (rT × n) — the transpose rewrite (gradients).
  la::DenseMatrix TransposeLeftMultiply(const la::DenseMatrix& x) const;

  /// The LMM and transpose-LMM kernels themselves, writing into buffers the
  /// caller owns: `*out` must already be rT × n (LMM) or cT × n (TLMM) and is
  /// overwritten; `*scratch` holds the per-class unique-row products and is
  /// grown on first use, so a caller that keeps both buffers across calls
  /// allocates nothing after its first call. `LeftMultiply` and
  /// `TransposeLeftMultiply` are these kernels over fresh buffers, so the
  /// results are bitwise-equal. The table itself stays immutable — it is
  /// shared across threads by model handles and serving snapshots — so
  /// reused buffers belong to the caller, one set per calling thread.
  void LeftMultiplyInto(const la::DenseMatrix& x, la::DenseMatrix* out,
                        std::vector<double>* scratch) const;
  void TransposeLeftMultiplyInto(const la::DenseMatrix& x, la::DenseMatrix* out,
                                 std::vector<double>* scratch) const;

  /// X · T for X (m × rT) — the RMM rewrite.
  la::DenseMatrix RightMultiply(const la::DenseMatrix& x) const;

  /// Row sums T·1 (rT × 1).
  la::DenseMatrix RowSums() const;

  /// Column sums Tᵀ·1 as (1 × cT).
  la::DenseMatrix ColSums() const;

  /// Per-row squared norms Σ_j T[i,j]² (rT × 1). Valid because after
  /// masking, each target cell is contributed by exactly one source.
  la::DenseMatrix RowSquaredNorms() const;

  /// The dense target (tests / the materialized execution path).
  la::DenseMatrix Materialize() const { return metadata_.MaterializeTargetMatrix(); }

  /// Extracts the per-source partial scores of `target_weights` (cT × 1) —
  /// the serving tier's deploy-time computation (see `PartialScores`). The
  /// result points into this table's metadata and must not outlive it.
  PartialScores ExtractPartialScores(const la::DenseMatrix& target_weights) const;

 private:
  friend class MorpheusReference;

  /// One redundancy row class of one source: these target rows share the
  /// same set of allowed (non-redundant) columns. Join fan-out is factored
  /// out: compute happens once per *unique source row* of the class and is
  /// then expanded to the class's target rows through the indicator — the
  /// mechanism that makes factorized learning cheaper than materialization
  /// on redundant targets.
  ///
  /// A class *without fan-out* (as many unique source rows as target rows —
  /// a star or snowflake fact under left joins, a fact whose inner join
  /// dropped rows, a union shard) has target row r ↔ unique row r: the
  /// kernels then read and write its rows in place, skipping the LMM's
  /// unique → target expansion and the transpose's fan-out gather, with the
  /// same per-element arithmetic.
  struct RowClassPlan {
    /// Distinct D_k rows used by this class.
    std::vector<metadata::RowId> unique_source_rows;
    /// Target rows of the class.
    std::vector<metadata::RowId> target_rows;
    /// Index into `unique_source_rows`, parallel to `target_rows`.
    std::vector<metadata::RowId> target_to_unique;
    /// Reverse fan-out index: for unique row u, the target rows it expands
    /// to are `fanout_targets[fanout_offsets[u] .. fanout_offsets[u+1])`, in
    /// class (ascending-row) order. Lets the transpose rewrites reduce over
    /// fan-out *per unique row* — disjoint writes under parallel execution
    /// and the same floating-point accumulation order as the serial walk.
    std::vector<metadata::RowId> fanout_offsets;  // size unique rows + 1
    std::vector<metadata::RowId> fanout_targets;  // size target_rows.size()
    /// Allowed (D_k column, target column) pairs for this class.
    std::vector<size_t> dk_cols;
    std::vector<size_t> t_cols;  // parallel to dk_cols

    /// Target row r maps to unique row r (see above).
    bool NoFanout() const {
      return unique_source_rows.size() == target_rows.size();
    }
  };

  /// Plans per source; built once at construction. Classes come in set-id
  /// order, unique rows in order of first appearance; dense per-class
  /// indexes, no hashing.
  void BuildPlans(bool ignore_redundancy);

  /// Grows `scratch` to the largest fan-out class's unique rows × n.
  void ReserveScratch(size_t n, std::vector<double>* scratch) const;

  /// The kernels behind the `...Into` calls. `kCols` fixes X's column count
  /// at compile time (1: the gradient step's vectors) or is 0 to read it at
  /// run time; both instantiations share this one body. With one column, a
  /// run-time column loop costs more than the multiply-add it wraps.
  template <size_t kCols>
  void LeftMultiplyKernel(const la::DenseMatrix& x, la::DenseMatrix* out,
                          double* unique) const;
  template <size_t kCols>
  void TransposeLeftMultiplyKernel(const la::DenseMatrix& x,
                                   la::DenseMatrix* out, double* reduced) const;

  metadata::DiMetadata metadata_;
  std::vector<std::vector<RowClassPlan>> plans_;  // [source][class]
  /// Unique rows of the largest class with fan-out (sizes the scratch).
  size_t max_fanout_unique_rows_ = 0;
};

/// The Morpheus-style baseline (rewrite rule (1) of §IV.A, after [27]):
/// identical pushdown but with *no redundancy handling* — local results are
/// simply added up via the indicator matrices. Correct only when sources do
/// not overlap on target cells (the single-database, disjoint-columns
/// setting Morpheus assumes); on overlapping silos it double-counts, which
/// is the gap rule (2) closes.
class MorpheusReference {
 public:
  explicit MorpheusReference(metadata::DiMetadata metadata);

  size_t rows() const { return table_.rows(); }
  size_t cols() const { return table_.cols(); }

  la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const {
    return table_.LeftMultiply(x);
  }
  la::DenseMatrix TransposeLeftMultiply(const la::DenseMatrix& x) const {
    return table_.TransposeLeftMultiply(x);
  }
  la::DenseMatrix RightMultiply(const la::DenseMatrix& x) const {
    return table_.RightMultiply(x);
  }
  la::DenseMatrix RowSums() const { return table_.RowSums(); }
  la::DenseMatrix ColSums() const { return table_.ColSums(); }

 private:
  FactorizedTable table_;  // with redundancy ignored in its plans
};

}  // namespace factorized
}  // namespace amalur
