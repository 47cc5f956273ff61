#include "ml/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace amalur {
namespace ml {

double MeanSquaredError(const la::DenseMatrix& predictions,
                        const la::DenseMatrix& labels) {
  AMALUR_CHECK(predictions.rows() == labels.rows() && predictions.cols() == 1 &&
               labels.cols() == 1)
      << "MSE expects n×1 vectors";
  if (predictions.rows() == 0) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < predictions.rows(); ++i) {
    const double d = predictions.At(i, 0) - labels.At(i, 0);
    acc += d * d;
  }
  return acc / static_cast<double>(predictions.rows());
}

double LogLoss(const la::DenseMatrix& probabilities,
               const la::DenseMatrix& labels) {
  AMALUR_CHECK(probabilities.rows() == labels.rows() &&
               probabilities.cols() == 1 && labels.cols() == 1)
      << "log-loss expects n×1 vectors";
  if (probabilities.rows() == 0) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < probabilities.rows(); ++i) {
    acc -= LogLossTerm(probabilities.At(i, 0), labels.At(i, 0));
  }
  return acc / static_cast<double>(probabilities.rows());
}

double LogLossTerm(double probability, double label) {
  constexpr double kEps = 1e-12;
  const double p = std::clamp(probability, kEps, 1.0 - kEps);
  return label * std::log(p) + (1.0 - label) * std::log(1.0 - p);
}

double BinaryAccuracy(const la::DenseMatrix& probabilities,
                      const la::DenseMatrix& labels) {
  AMALUR_CHECK(probabilities.rows() == labels.rows()) << "accuracy shape";
  if (probabilities.rows() == 0) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < probabilities.rows(); ++i) {
    const double predicted = probabilities.At(i, 0) >= 0.5 ? 1.0 : 0.0;
    correct += predicted == labels.At(i, 0) ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(probabilities.rows());
}

double Sigmoid(double x) {
  // Branching form avoids overflow in exp for large |x|.
  if (x >= 0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

la::DenseMatrix Sigmoid(const la::DenseMatrix& x) {
  // Statically-dispatched (and parallel) transform instead of Map's
  // std::function-per-element.
  la::DenseMatrix out = x;
  out.TransformInPlace([](double v) { return Sigmoid(v); });
  return out;
}

}  // namespace ml
}  // namespace amalur
