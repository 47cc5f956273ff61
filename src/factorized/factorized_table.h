#pragma once

#include <cstdint>
#include <memory>
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
/// are grouped into *row classes* by their redundancy mask, and compute
/// happens once per distinct source row of a class. Compute is proportional
/// to Σ_k nnz-contributions, which is what makes factorized learning faster
/// than materialization when the target is redundant.
///
/// **The row-slot index.** Every kernel reads the integration's row-slot
/// index (`metadata::RowSlotIndex`, see di_metadata.h), and only it: each
/// source numbers the distinct D_k rows of its redundancy classes with
/// slots, and the index keeps slot_k(i) per target row i and source k.
///   - LMM: one product per slot, then one pass over the target rows that
///     adds, sources ascending, the product of each row's slot;
///   - TLMM: one serial pass that adds each X row into its slots' sums, rows
///     ascending, then per class Σ_u D_k[u]ᵀ · sum[u];
///   - `GradientStepInto`: both at once, in one serial pass (see there);
///   - `ColSums` (rows per slot), `RowSquaredNorms` (one norm per slot) and
///     `PartialScores` (one partial score per slot).
/// A class whose column pairs are all masked still gets slots: its products
/// are 0.0. Adding +0.0 changes no sum here, because every sum starts at
/// +0.0 and a sum that starts at +0.0 never holds −0.0.
///
/// A table is a view: it shares its `DiMetadata` with every copy of the
/// integration, and the metadata builds the index once, on first use, for
/// all of them.

namespace amalur {
namespace factorized {

using metadata::kNoSlot;

/// Per-source partial scores of one fixed weight vector w (cT × 1),
/// extracted once from the factorized view by
/// `FactorizedTable::ExtractPartialScores`. Every slot s of source k holds
///
///     partial_k[s] = Σ_{(d, c) allowed in s's class} D_k[row(s), d] · w[c]
///
/// so scoring target row i degenerates to a lookup-and-add over the slot
/// index — no dimension block is ever re-multiplied:
///
///     score(i) = Σ_k partial_k[ slot_k(i) ]   (skip kNoSlot)
///
/// The partials come from the LMM's own per-slot kernel, and each row adds
/// one per contributing source, sources ascending, from +0.0, as the LMM
/// does — `ScoreRow(i)` is therefore bitwise-equal to
/// `LeftMultiply(w).At(i, 0)`. This is the serving tier's deploy-time
/// cache: built once per deployed weight vector, shared read-only by every
/// concurrent scoring thread.
///
/// Non-owning: holds pointers into the extracting table's slot index, so
/// the `FactorizedTable` must outlive the `PartialScores` (the serving
/// snapshot keeps both).
class PartialScores {
 public:
  PartialScores() = default;

  /// score(i) as above, for i below the table's rT. When `lookups` is
  /// non-null it is incremented once per contributing source (indicator
  /// hit) — the serving cache-hit stat.
  double ScoreRow(size_t i, size_t* lookups = nullptr) const {
    AMALUR_CHECK_LT(i, rows_) << "row index";
    const metadata::RowId* row_slots = slots_ + i * num_sources_;
    double score = 0.0;
    for (size_t k = 0; k < num_sources_; ++k) {
      const metadata::RowId slot = row_slots[k];
      if (slot == kNoSlot) continue;
      score += partials_[slot];
      if (lookups != nullptr) ++*lookups;
    }
    return score;
  }

 private:
  friend class FactorizedTable;

  size_t rows_ = 0;
  size_t num_sources_ = 0;
  const metadata::RowId* slots_ = nullptr;  // the table's index
  std::vector<double> partials_;            // one per slot, every source
};

/// A linear-algebra view over an integration scenario's target table.
class FactorizedTable {
 public:
  /// A view over `metadata` and its row-slot index, which the metadata
  /// builds on the first view (or cost-feature read) of any of its copies;
  /// every later view copies and builds nothing.
  explicit FactorizedTable(metadata::DiMetadata metadata);

  /// Target shape (rT × cT).
  size_t rows() const { return metadata_.target_rows(); }
  size_t cols() const { return metadata_.target_cols(); }
  const metadata::DiMetadata& metadata() const { return metadata_; }

  /// T · X for X (cT × n) — the paper's LMM, rewrite rule (2).
  la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const;

  /// Tᵀ · X for X (rT × n) — the transpose rewrite (gradients).
  la::DenseMatrix TransposeLeftMultiply(const la::DenseMatrix& x) const;

  /// `GradientStepInto`'s reused buffers. The table itself stays immutable —
  /// it is shared across threads by model handles and serving snapshots —
  /// so these belong to the caller, one set per calling thread. Sized on
  /// the first step; a caller that keeps them allocates nothing after it.
  struct StepScratch {
    /// Per slot of the sources the walk reads through their slots:
    std::vector<double> partials;  // D_k·w
    std::vector<double> sums;      // Σ residuals
    /// Per column pair of the source read in place:
    std::vector<double> weights;   // w
    std::vector<double> gradient;  // Σ D·r
    /// A D_0 row of +0.0 cells, read by rows source 0 does not reach.
    std::vector<double> zero_row;
  };

  /// The data pass of one gradient step at padded weights `w` (cT × 1), in
  /// one serial walk over the target rows: writes Tᵀ·r into `*out` (cT × 1,
  /// overwritten) and returns Σ_i of the loss terms, where row i's residual
  /// r_i and loss term come from `row_loss(i, prediction_i, &loss)` (which
  /// adds its term into `loss`). `out` and the return value are
  /// bitwise-equal to `LeftMultiply(w)`, then `row_loss` over rows
  /// ascending, then `TransposeLeftMultiply(r)`:
  ///
  ///   1. Every source the walk reads through its slots gets one partial
  ///      D_k·w per slot (the LMM's per-slot kernel) and zeroed sums. Source
  ///      0 instead is read in place when it is one class without fan-out
  ///      (a star or snowflake fact under left joins): the walk forms its
  ///      dot product from D_0's row and adds its gradient into one
  ///      accumulator per column pair.
  ///   2. Target rows go in blocks of `kStepRows`, ascending; the rows after
  ///      the last full block go one at a time. Within a block each row
  ///      keeps its own prediction, which adds the sources in ascending
  ///      order from +0.0, as the LMM's row does (source 0's dot product
  ///      accumulates straight into it: the LMM adds it to +0.0, which
  ///      leaves a sum that started at +0.0 unchanged). Then `row_loss` runs
  ///      on the block's rows in row order, and each accumulator adds the
  ///      block's terms in row order: every column pair of source 0 adds
  ///      D_0 · r_i (skipping D_0 cells == 0.0, as the TLMM does), and
  ///      sum[slot_k(i)] of every other source adds r_i. A block's rows
  ///      interleave only across different accumulators, and slots of
  ///      different sources never alias, so every accumulator sees the
  ///      row-at-a-time walk's operations in its order.
  ///   3. Per source read through slots, class by class in slot order:
  ///      out[c] += D_k[u, d] · sum[u], skipping cells == 0.0.
  ///
  /// Each output element sees the TLMM's operations in the TLMM's order: a
  /// slot's sum adds its rows ascending from +0.0, which is the TLMM's
  /// reduce over fan-out, and source 0's contributions come first, rows
  /// ascending. Where the TLMM would read r_i itself (a class without
  /// fan-out), the walk's sum holds +0.0 + r_i; the two differ only for
  /// r_i = −0.0, and D·(±0.0) is a zero (or, for D = ±inf, the same default
  /// NaN) that cannot change an out[c] which starts at +0.0 and so never
  /// holds −0.0. The walk is serial at any thread count, because its
  /// accumulators fix the order; steps 1 and 3 run parallel over disjoint
  /// output. One limit: where two NaNs with different bits meet in a sum,
  /// IEEE 754 leaves open which one the result keeps, and the compiler's
  /// operand order decides; so with NaN inputs of both signs a NaN result
  /// may differ from the unfused one in its sign or payload bits.
  template <typename RowLoss>
  double GradientStepInto(const la::DenseMatrix& w, RowLoss row_loss,
                          la::DenseMatrix* out, StepScratch* scratch) const;

  /// Target column `j` (rT × 1), gathered through the slot index: row i
  /// holds the D_k cell of the one source whose class at row i keeps column
  /// j, bit for bit, or +0.0 where no source does. Unlike an LMM against a
  /// one-hot selector, no other cell is multiplied, so a row's ±inf or NaN
  /// cells elsewhere leave it alone, and a −0.0 cell stays −0.0.
  la::DenseMatrix TargetColumn(size_t j) const;

  /// Column sums Tᵀ·1 as (1 × cT).
  la::DenseMatrix ColSums() const;

  /// Per-row squared norms Σ_j T[i,j]² (rT × 1). Valid because after
  /// masking, each target cell is contributed by exactly one source.
  la::DenseMatrix RowSquaredNorms() const;

  /// The dense target (tests / the materialized execution path).
  la::DenseMatrix Materialize() const { return metadata_.MaterializeTargetMatrix(); }

  /// Extracts the per-source partial scores of `target_weights` (cT × 1) —
  /// the serving tier's deploy-time computation (see `PartialScores`). The
  /// result points into this table's slot index and must not outlive it.
  PartialScores ExtractPartialScores(const la::DenseMatrix& target_weights) const;

 private:
  friend class MorpheusReference;

  /// Target rows per block of the gradient walk: four independent
  /// prediction chains keep the core busy while each waits on its adds.
  static constexpr size_t kStepRows = 4;

  /// The hoisted pointers of the gradient walk.
  struct StepWalk {
    /// The source read in place (source 0, or none: `rows` null).
    const int64_t* rows = nullptr;  // CI_0 per target row
    const double* data = nullptr;   // D_0, row-major
    size_t stride = 0;
    const double* zero_row = nullptr;  // read where CI_0 = −1
    const size_t* dk_cols = nullptr;
    size_t pairs = 0;
    const double* weights = nullptr;
    double* gradient = nullptr;
    /// The sources read through their slots: row i's are
    /// `slots[i * slot_stride .. + num_walked)`, and slot s's partial and
    /// sum sit at index s − first_slot.
    const metadata::RowId* slots = nullptr;
    size_t slot_stride = 0;
    size_t num_walked = 0;
    size_t first_slot = 0;
    const double* partials = nullptr;
    double* sums = nullptr;
  };

  /// A view with its own index, built with `ignore_redundancy`
  /// (`MorpheusReference`); the metadata's cached index is left alone.
  FactorizedTable(metadata::DiMetadata metadata, bool ignore_redundancy);

  const std::vector<metadata::SourceSlots>& plans() const {
    return index_->sources;
  }

  /// The kernels behind the operators. `kCols` fixes X's column count at
  /// compile time (1: vectors) or is 0 to read it at run time; both
  /// instantiations share one body. With one column, a run-time column loop
  /// costs more than the multiply-add it wraps.
  ///
  /// SlotProducts: for every class of source k, row `first_slot + u` of
  /// `products` (n wide; row 0 is the source's first slot) becomes
  /// D_k[unique u] · X over the class's pairs — the LMM's products, the
  /// step's partials and the partial scores.
  template <size_t kCols>
  void SlotProducts(size_t k, const double* x, size_t n,
                    double* products) const;
  /// AddTransposeProducts: out[t_cols[p]] += D_k[unique u, dk_cols[p]] ·
  /// sums[first_slot + u] (rows as in SlotProducts), per class in slot
  /// order, skipping cells == 0.0.
  template <size_t kCols>
  void AddTransposeProducts(size_t k, const double* sums, size_t n,
                            la::DenseMatrix* out) const;
  template <size_t kCols>
  void LeftMultiplyKernel(const la::DenseMatrix& x, la::DenseMatrix* out,
                          double* products) const;
  template <size_t kCols>
  void TransposeLeftMultiplyKernel(const la::DenseMatrix& x,
                                   la::DenseMatrix* out, double* sums) const;

  /// Steps 1 and 3 of `GradientStepInto`.
  StepWalk BeginStep(const la::DenseMatrix& w, la::DenseMatrix* out,
                     StepScratch* scratch) const;
  void FinishStep(const StepWalk& walk, la::DenseMatrix* out) const;
  /// Step 2 on target rows [first, first + kRows).
  template <size_t kRows, typename RowLoss>
  static void StepRows(const StepWalk& walk, size_t first, RowLoss& row_loss,
                       double* loss);

  metadata::DiMetadata metadata_;
  /// `MorpheusReference`'s own index; null for a view over the metadata's.
  std::shared_ptr<const metadata::RowSlotIndex> own_index_;
  /// The index every kernel reads: the metadata's, or `own_index_`.
  const metadata::RowSlotIndex* index_ = nullptr;
  /// Source 0 is one class without fan-out, so the step reads it in place.
  bool first_source_in_place_ = false;
};

template <typename RowLoss>
double FactorizedTable::GradientStepInto(const la::DenseMatrix& w,
                                         RowLoss row_loss, la::DenseMatrix* out,
                                         StepScratch* scratch) const {
  const StepWalk walk = BeginStep(w, out, scratch);
  const size_t num_rows = rows();
  double loss = 0.0;
  size_t i = 0;
  for (; i + kStepRows <= num_rows; i += kStepRows) {
    StepRows<kStepRows>(walk, i, row_loss, &loss);
  }
  for (; i < num_rows; ++i) StepRows<1>(walk, i, row_loss, &loss);
  FinishStep(walk, out);
  return loss;
}

template <size_t kRows, typename RowLoss>
void FactorizedTable::StepRows(const StepWalk& walk, size_t first,
                               RowLoss& row_loss, double* loss) {
  double prediction[kRows];
  const double* d_rows[kRows];
  const metadata::RowId* row_slots[kRows];
  for (size_t b = 0; b < kRows; ++b) {
    const size_t i = first + b;
    prediction[b] = 0.0;
    // A row source 0 does not reach reads +0.0 cells, which every loop
    // below skips: it adds nothing, as if the row had no D_0 row.
    d_rows[b] =
        walk.rows == nullptr ? nullptr
        : walk.rows[i] >= 0
            ? walk.data + static_cast<size_t>(walk.rows[i]) * walk.stride
            : walk.zero_row;
    row_slots[b] = walk.slots + i * walk.slot_stride;
  }
  const size_t pairs = walk.rows == nullptr ? 0 : walk.pairs;
  for (size_t p = 0; p < pairs; ++p) {
    const size_t col = walk.dk_cols[p];
    const double weight = walk.weights[p];
    for (size_t b = 0; b < kRows; ++b) {
      const double v = d_rows[b][col];
      if (v != 0.0) prediction[b] += v * weight;
    }
  }
  for (size_t k = 0; k < walk.num_walked; ++k) {
    for (size_t b = 0; b < kRows; ++b) {
      const metadata::RowId slot = row_slots[b][k];
      if (slot != kNoSlot) {
        prediction[b] += walk.partials[slot - walk.first_slot];
      }
    }
  }
  double residual[kRows];
  for (size_t b = 0; b < kRows; ++b) {
    residual[b] = row_loss(first + b, prediction[b], loss);
  }
  for (size_t p = 0; p < pairs; ++p) {
    const size_t col = walk.dk_cols[p];
    double gradient = walk.gradient[p];
    for (size_t b = 0; b < kRows; ++b) {
      const double v = d_rows[b][col];
      if (v != 0.0) gradient += v * residual[b];
    }
    walk.gradient[p] = gradient;
  }
  for (size_t k = 0; k < walk.num_walked; ++k) {
    for (size_t b = 0; b < kRows; ++b) {
      const metadata::RowId slot = row_slots[b][k];
      if (slot != kNoSlot) walk.sums[slot - walk.first_slot] += residual[b];
    }
  }
}

/// The Morpheus-style baseline (rewrite rule (1) of §IV.A, after [27]):
/// identical pushdown but with *no redundancy handling* — local results are
/// simply added up via the indicator matrices. Correct only when sources do
/// not overlap on target cells (the single-database, disjoint-columns
/// setting Morpheus assumes); on overlapping silos it double-counts, which
/// is the gap rule (2) closes.
class MorpheusReference {
 public:
  explicit MorpheusReference(metadata::DiMetadata metadata);

  la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const {
    return table_.LeftMultiply(x);
  }

 private:
  FactorizedTable table_;  // over its own index, redundancy ignored
};

}  // namespace factorized
}  // namespace amalur
