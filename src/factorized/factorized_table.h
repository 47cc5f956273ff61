#pragma once

#include <cstdint>
#include <limits>
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
/// **The row-slot index.** Each source k numbers the distinct D_k rows of
/// its classes with *slots*, and the index keeps one slot per target row
/// and source: slot_k(i) is the slot of the D_k row that target row i reads
/// in its class, or `kNoSlot` where CI_k(i) = −1. Slots are class-major
/// (class c's follow class c−1's, classes in masked-set order) and, inside
/// a class, follow each D_k row's first appearance in ascending target
/// rows; source k's slots follow source k−1's, so one per-slot buffer holds
/// every source. A D_k row that sits in two classes has one slot in each.
/// The index is row-major (target row i's slots, sources ascending, are
/// adjacent), so a pass over the target rows reads it in order. Every
/// kernel reads this one index, and only it:
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

namespace amalur {
namespace factorized {

/// slot_k(i) of a target row that source k does not contribute to.
constexpr metadata::RowId kNoSlot = std::numeric_limits<metadata::RowId>::max();

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
/// snapshot keeps both behind one shared_ptr).
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
  ///   2. Per target row i, ascending: the prediction adds the sources in
  ///      ascending order from +0.0, as the LMM's row does (source 0's dot
  ///      product accumulates straight into it: the LMM adds it to +0.0,
  ///      which leaves a sum that started at +0.0 unchanged); then r_i goes
  ///      into source 0's accumulators (skipping D_0 cells == 0.0, as the
  ///      TLMM does) and into sum[slot_k(i)] of every other source.
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

  /// One redundancy row class of one source: its target rows share the
  /// same allowed (non-redundant) columns. Join fan-out is factored out:
  /// compute happens once per slot (distinct source row) of the class.
  struct RowClassPlan {
    /// The class's distinct D_k rows, in slot order.
    std::vector<metadata::RowId> unique_source_rows;
    /// Allowed (D_k column, target column) pairs, in D_k column order.
    std::vector<size_t> dk_cols;
    std::vector<size_t> t_cols;  // parallel to dk_cols
    /// Slot of unique_source_rows[0], counted from the source's first slot.
    size_t first_slot = 0;
  };

  /// One source's classes and slot range.
  struct SourcePlan {
    std::vector<RowClassPlan> classes;  // masked-set order
    size_t first_slot = 0;              // in the all-source slot numbering
    size_t num_slots = 0;
  };

  /// The hoisted pointers of the gradient walk.
  struct StepWalk {
    /// The source read in place (source 0, or none: `rows` null).
    const int64_t* rows = nullptr;  // CI_0 per target row
    const double* data = nullptr;   // D_0, row-major
    size_t stride = 0;
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

  /// Builds the slot index of every source; called once at construction.
  void BuildPlans(bool ignore_redundancy);

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

  metadata::DiMetadata metadata_;
  std::vector<SourcePlan> plans_;  // [source]
  /// The row-slot index, rT × num_sources row-major: slot_k(i) in the
  /// all-source numbering at [i * num_sources + k].
  std::vector<metadata::RowId> slots_;
  /// Σ_k num_slots: the kernels' per-slot buffers hold every source's slots.
  size_t total_slots_ = 0;
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
  for (size_t i = 0; i < num_rows; ++i) {
    double prediction = 0.0;
    const double* d_row = nullptr;
    if (walk.rows != nullptr && walk.rows[i] >= 0) {
      d_row = walk.data + static_cast<size_t>(walk.rows[i]) * walk.stride;
      for (size_t p = 0; p < walk.pairs; ++p) {
        const double v = d_row[walk.dk_cols[p]];
        if (v == 0.0) continue;
        prediction += v * walk.weights[p];
      }
    }
    const metadata::RowId* row_slots = walk.slots + i * walk.slot_stride;
    for (size_t k = 0; k < walk.num_walked; ++k) {
      const metadata::RowId slot = row_slots[k];
      if (slot != kNoSlot) prediction += walk.partials[slot - walk.first_slot];
    }
    const double residual = row_loss(i, prediction, &loss);
    if (d_row != nullptr) {
      for (size_t p = 0; p < walk.pairs; ++p) {
        const double v = d_row[walk.dk_cols[p]];
        if (v == 0.0) continue;
        walk.gradient[p] += v * residual;
      }
    }
    for (size_t k = 0; k < walk.num_walked; ++k) {
      const metadata::RowId slot = row_slots[k];
      if (slot != kNoSlot) walk.sums[slot - walk.first_slot] += residual;
    }
  }
  FinishStep(walk, out);
  return loss;
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
  FactorizedTable table_;  // with redundancy ignored in its plans
};

}  // namespace factorized
}  // namespace amalur
