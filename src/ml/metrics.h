#pragma once

#include "la/dense_matrix.h"

/// \file metrics.h
/// Evaluation metrics for the ML workloads.

namespace amalur {
namespace ml {

/// Mean squared error between predictions and labels (both n×1).
double MeanSquaredError(const la::DenseMatrix& predictions,
                        const la::DenseMatrix& labels);

/// Binary log-loss for probabilities in (0,1) against 0/1 labels (both n×1);
/// probabilities are clamped away from {0,1} for stability.
double LogLoss(const la::DenseMatrix& probabilities, const la::DenseMatrix& labels);

/// One row's log-likelihood y·log(p) + (1 − y)·log(1 − p), with p clamped
/// as `LogLoss` clamps it; `LogLoss` is minus the mean of these terms.
double LogLossTerm(double probability, double label);

/// Fraction of correct 0/1 predictions at threshold 0.5.
double BinaryAccuracy(const la::DenseMatrix& probabilities,
                      const la::DenseMatrix& labels);

/// Numerically stable logistic function of one value.
double Sigmoid(double x);

/// `Sigmoid` applied element-wise.
la::DenseMatrix Sigmoid(const la::DenseMatrix& x);

}  // namespace ml
}  // namespace amalur
