#include "ml/training_matrix.h"

#include <algorithm>

#include "common/parallel_for.h"
#include "ml/metrics.h"

namespace amalur {
namespace ml {

double TrainingMatrix::GradientStep(const la::DenseMatrix& w,
                                    const la::DenseMatrix& y, Loss loss,
                                    la::DenseMatrix* gradient) const {
  la::DenseMatrix predictions = LeftMultiply(w);
  if (loss == Loss::kLogistic) predictions = Sigmoid(predictions);
  const double value = loss == Loss::kLogistic
                           ? LogLoss(predictions, y)
                           : MeanSquaredError(predictions, y);
  *gradient = TransposeLeftMultiply(predictions.Subtract(y));
  return value;
}

la::DenseMatrix MaterializedMatrix::RowSquaredNorms() const {
  la::DenseMatrix out(data_.rows(), 1);
  common::ParallelFor(
      0, data_.rows(), 256, [&](size_t row_begin, size_t row_end) {
        for (size_t i = row_begin; i < row_end; ++i) {
          const double* row = data_.RowPtr(i);
          double acc = 0.0;
          for (size_t j = 0; j < data_.cols(); ++j) acc += row[j] * row[j];
          out.At(i, 0) = acc;
        }
      });
  return out;
}

FactorizedFeatures::FactorizedFeatures(
    std::shared_ptr<const factorized::FactorizedTable> table, size_t label_column)
    : table_(std::move(table)), label_column_(label_column) {
  AMALUR_CHECK(table_ != nullptr) << "null table";
  AMALUR_CHECK(label_column_ < table_->cols()) << "label column out of range";
}

void FactorizedFeatures::PadInto(const la::DenseMatrix& x,
                                 la::DenseMatrix* padded) const {
  for (size_t f = 0; f < cols(); ++f) {
    std::copy(x.RowPtr(f), x.RowPtr(f) + x.cols(),
              padded->RowPtr(TargetRow(f)));
  }
}

void FactorizedFeatures::DropLabelRowInto(const la::DenseMatrix& target,
                                          la::DenseMatrix* out) const {
  for (size_t f = 0; f < cols(); ++f) {
    const double* row = target.RowPtr(TargetRow(f));
    std::copy(row, row + target.cols(), out->RowPtr(f));
  }
}

la::DenseMatrix FactorizedFeatures::LeftMultiply(const la::DenseMatrix& x) const {
  AMALUR_CHECK_EQ(x.rows(), cols()) << "feature LMM shape";
  la::DenseMatrix padded(table_->cols(), x.cols());
  PadInto(x, &padded);
  return table_->LeftMultiply(padded);
}

la::DenseMatrix FactorizedFeatures::TransposeLeftMultiply(
    const la::DenseMatrix& x) const {
  const la::DenseMatrix target = table_->TransposeLeftMultiply(x);
  la::DenseMatrix out(cols(), x.cols());
  DropLabelRowInto(target, &out);
  return out;
}

double FactorizedFeatures::GradientStep(const la::DenseMatrix& w,
                                        const la::DenseMatrix& y, Loss loss,
                                        la::DenseMatrix* gradient) const {
  AMALUR_CHECK(w.rows() == cols() && w.cols() == 1) << "step: w is cols x 1";
  AMALUR_CHECK(y.rows() == rows() && y.cols() == 1) << "step: y is rows x 1";
  StepBuffers& b = step_;
  if (b.padded_weights.rows() != table_->cols()) {  // this view's first step
    b.padded_weights = la::DenseMatrix(table_->cols(), 1);
    b.predictions = la::DenseMatrix(rows(), 1);
    b.target_gradient = la::DenseMatrix(table_->cols(), 1);
  }
  if (gradient->rows() != cols() || gradient->cols() != 1) {
    *gradient = la::DenseMatrix(cols(), 1);
  }
  PadInto(w, &b.padded_weights);
  table_->LeftMultiplyInto(b.padded_weights, &b.predictions, &b.scratch);

  // Residuals in place, loss summed rows ascending — the order and the
  // per-row terms of MeanSquaredError / LogLoss and Subtract.
  double* residual = b.predictions.data();
  const double* labels = y.data();
  const size_t n = rows();
  double acc = 0.0;
  if (loss == Loss::kLogistic) {
    for (size_t i = 0; i < n; ++i) {
      const double p = Sigmoid(residual[i]);
      acc -= LogLossTerm(p, labels[i]);
      residual[i] = p - labels[i];
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const double d = residual[i] - labels[i];
      acc += d * d;
      residual[i] = d;
    }
  }

  table_->TransposeLeftMultiplyInto(b.predictions, &b.target_gradient,
                                    &b.scratch);
  DropLabelRowInto(b.target_gradient, gradient);
  return n == 0 ? 0.0 : acc / static_cast<double>(n);
}

la::DenseMatrix FactorizedFeatures::RowSquaredNorms() const {
  la::DenseMatrix norms = table_->RowSquaredNorms();
  // Subtract the label column's contribution: ||t_i||² - y_i².
  la::DenseMatrix labels = Labels();
  for (size_t i = 0; i < norms.rows(); ++i) {
    norms.At(i, 0) -= labels.At(i, 0) * labels.At(i, 0);
  }
  return norms;
}

la::DenseMatrix FactorizedFeatures::ColSums() const {
  la::DenseMatrix sums = table_->ColSums();  // 1 x cT
  la::DenseMatrix out(1, cols());
  for (size_t i = 0, dst = 0; i < table_->cols(); ++i) {
    if (i == label_column_) continue;
    out.At(0, dst++) = sums.At(0, i);
  }
  return out;
}

la::DenseMatrix FactorizedFeatures::Labels() const {
  la::DenseMatrix selector(table_->cols(), 1);
  selector.At(label_column_, 0) = 1.0;
  return table_->LeftMultiply(selector);
}

}  // namespace ml
}  // namespace amalur
