#pragma once

#include <memory>
#include <vector>

#include "common/status.h"
#include "factorized/factorized_table.h"
#include "la/dense_matrix.h"

/// \file training_matrix.h
/// The abstraction that lets one ML implementation train over either backend:
/// a `TrainingMatrix` exposes exactly the linear-algebra operators the
/// paper's factorization rewrites cover (LMM, transpose-LMM, aggregates), so
/// gradient-descent models are oblivious to whether the data is a
/// materialized dense matrix or a factorized view over silos. Equal inputs
/// produce bit-comparable results — factorization does not change accuracy
/// (§IV: "factorized learning does not affect model training accuracy").
/// The trainers drive one `GradientStep` per iteration, which a backend may
/// fuse as long as every bit of the result stays the unfused one's.

namespace amalur {
namespace ml {

/// The loss a gradient step differentiates: squared error (linear
/// regression) or log-loss of σ(Fw) (logistic regression).
enum class Loss { kSquared, kLogistic };

/// Read-only matrix interface for training-time linear algebra.
class TrainingMatrix {
 public:
  virtual ~TrainingMatrix() = default;

  virtual size_t rows() const = 0;
  virtual size_t cols() const = 0;

  /// M · X for X (cols × n).
  virtual la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const = 0;

  /// Mᵀ · X for X (rows × n).
  virtual la::DenseMatrix TransposeLeftMultiply(
      const la::DenseMatrix& x) const = 0;

  /// Per-row squared norms (rows × 1).
  virtual la::DenseMatrix RowSquaredNorms() const = 0;

  /// Column sums (1 × cols).
  virtual la::DenseMatrix ColSums() const = 0;

  /// The data pass of one gradient-descent iteration at weights `w`
  /// (cols × 1) against labels `y` (rows × 1). Writes the unscaled gradient
  ///
  ///     Fᵀ(link(F·w) − y),   link = identity (kSquared) or σ (kLogistic),
  ///
  /// into `*gradient` (made cols × 1) and returns the loss at `w`, exactly as
  /// `MeanSquaredError` / `LogLoss` compute it. Scaling by 1/n, L2 and the
  /// update stay with the trainer.
  ///
  /// The default is the unfused sequence `LeftMultiply`, [`Sigmoid`], the
  /// loss, `Subtract`, `TransposeLeftMultiply`; a decorator that overrides
  /// only those operators (a timing wrapper, say) inherits it. An override
  /// fuses the pass but must return bitwise-equal losses and gradients.
  /// Overrides may keep reusable buffers in the matrix object itself (never
  /// in data shared with other views), so one object must not run
  /// `GradientStep` from two threads at once.
  virtual double GradientStep(const la::DenseMatrix& w,
                              const la::DenseMatrix& y, Loss loss,
                              la::DenseMatrix* gradient) const;
};

/// Backend over an ordinary dense matrix (the materialized path).
class MaterializedMatrix : public TrainingMatrix {
 public:
  explicit MaterializedMatrix(la::DenseMatrix data) : data_(std::move(data)) {}

  size_t rows() const override { return data_.rows(); }
  size_t cols() const override { return data_.cols(); }
  la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const override {
    return data_.Multiply(x);
  }
  la::DenseMatrix TransposeLeftMultiply(const la::DenseMatrix& x) const override {
    return data_.TransposeMultiply(x);
  }
  la::DenseMatrix RowSquaredNorms() const override;
  la::DenseMatrix ColSums() const override { return data_.ColSums(); }

  const la::DenseMatrix& data() const { return data_; }

 private:
  la::DenseMatrix data_;
};

/// Backend over a factorized target table (the pushed-down path). Operates
/// on a *feature view*: the label column of the target schema is excluded
/// from the virtual matrix, without materializing anything.
///
/// A view is cheap and per run: `GradientStep` keeps its buffers here (the
/// shared table stays immutable), so each training run makes its own view.
class FactorizedFeatures : public TrainingMatrix {
 public:
  /// Wraps `table`, excluding target column `label_column` from the view.
  FactorizedFeatures(std::shared_ptr<const factorized::FactorizedTable> table,
                     size_t label_column);

  size_t rows() const override { return table_->rows(); }
  size_t cols() const override { return table_->cols() - 1; }
  la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const override;
  la::DenseMatrix TransposeLeftMultiply(const la::DenseMatrix& x) const override;
  la::DenseMatrix RowSquaredNorms() const override;
  la::DenseMatrix ColSums() const override;

  /// The default step's arithmetic in one pass over reused buffers: pad `w`
  /// to target space, run the LMM kernel into the prediction buffer, turn
  /// predictions into residuals while summing the loss (rows ascending, as
  /// the metrics do), run the transpose kernel, drop the label row. Sized on
  /// the first call; no allocation of the view's size after it.
  double GradientStep(const la::DenseMatrix& w, const la::DenseMatrix& y,
                      Loss loss, la::DenseMatrix* gradient) const override;

  /// The label column as a dense rows×1 vector (one cheap factorized LMM).
  la::DenseMatrix Labels() const;

  const factorized::FactorizedTable& table() const { return *table_; }

 private:
  /// Target row of feature row f (the label row is skipped).
  size_t TargetRow(size_t f) const { return f < label_column_ ? f : f + 1; }
  /// Copies X (features-space, cols()×n) into the feature rows of `padded`
  /// (target-space, cT×n); the label row is left as it is.
  void PadInto(const la::DenseMatrix& x, la::DenseMatrix* padded) const;
  /// Copies the feature rows of `target` (cT×n) into `out` (cols()×n).
  void DropLabelRowInto(const la::DenseMatrix& target,
                        la::DenseMatrix* out) const;

  /// `GradientStep`'s reused buffers.
  struct StepBuffers {
    la::DenseMatrix padded_weights;   // cT × 1, label row 0
    la::DenseMatrix predictions;      // rT × 1, then the residuals
    la::DenseMatrix target_gradient;  // cT × 1
    std::vector<double> scratch;      // the kernels' unique-row products
  };

  std::shared_ptr<const factorized::FactorizedTable> table_;
  size_t label_column_;
  mutable StepBuffers step_;
};

}  // namespace ml
}  // namespace amalur
