#include "ml/linear_models.h"

#include "common/logging.h"
#include "ml/metrics.h"

namespace amalur {
namespace ml {

namespace {

/// Gradient descent over `features.GradientStep`: one gradient buffer for
/// the whole run, w ← w − η (g/n + λw) per iteration.
LinearModel TrainGradientDescent(const TrainingMatrix& features,
                                 const la::DenseMatrix& labels,
                                 const GradientDescentOptions& options,
                                 Loss loss) {
  AMALUR_CHECK(labels.rows() == features.rows() && labels.cols() == 1)
      << "labels must be rows×1";
  const double n = static_cast<double>(features.rows());
  LinearModel model{la::DenseMatrix(features.cols(), 1), {}};
  model.loss_history.reserve(options.iterations);
  la::DenseMatrix gradient(features.cols(), 1);
  for (size_t it = 0; it < options.iterations; ++it) {
    model.loss_history.push_back(
        features.GradientStep(model.weights, labels, loss, &gradient));
    gradient.ScaleInPlace(1.0 / n);
    if (options.l2 > 0.0) gradient.AddScaled(model.weights, options.l2);
    model.weights.AddScaled(gradient, -options.learning_rate);
  }
  return model;
}

}  // namespace

LinearModel TrainLinearRegression(const TrainingMatrix& features,
                                  const la::DenseMatrix& labels,
                                  const GradientDescentOptions& options) {
  return TrainGradientDescent(features, labels, options, Loss::kSquared);
}

LinearModel TrainLogisticRegression(const TrainingMatrix& features,
                                    const la::DenseMatrix& labels,
                                    const GradientDescentOptions& options) {
  return TrainGradientDescent(features, labels, options, Loss::kLogistic);
}

la::DenseMatrix PredictLinear(const TrainingMatrix& features,
                              const la::DenseMatrix& weights) {
  return features.LeftMultiply(weights);
}

la::DenseMatrix PredictLogistic(const TrainingMatrix& features,
                                const la::DenseMatrix& weights) {
  return Sigmoid(features.LeftMultiply(weights));
}

}  // namespace ml
}  // namespace amalur
