#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "core/amalur.h"
#include "factorized/factorized_table.h"
#include "la/dense_matrix.h"

/// \file deployed_model.h
/// The serving tier's unit of deployment: an immutable snapshot of a trained
/// model, captured once at deploy time and shared read-only (behind a
/// `shared_ptr`) by any number of concurrent scoring threads. The snapshot
/// copies everything serving needs — weights, training schema, the
/// factorized view, and a per-dimension partial-score cache
/// (`factorized::PartialScores`) — so fact rows are scored by indicator
/// lookup instead of re-multiplying the dimension blocks, and no request
/// ever touches live catalog or registry storage.
///
/// Determinism: `PredictBatch` partitions the batch across the shared
/// thread pool with the house fixed-order-merge pattern (each chunk writes
/// disjoint output rows), and every row's score is an independent
/// lookup-and-add — results are bitwise-identical to a serial pass at any
/// thread count, and unaffected by concurrent redeploys (a redeploy swaps
/// the registry's pointer; in-flight batches keep their snapshot).

namespace amalur {
namespace serving {

/// A batched scoring request addresses target rows of the deployed model's
/// integration scenario by index (the serving tier's row handle).
struct RowRef {
  size_t row = 0;
};

/// Monotonic per-model serving counters (relaxed atomics — stats, not
/// synchronization). Snapshot via `DeployedModel::stats()`.
struct ServingStats {
  uint64_t requests = 0;    ///< PredictBatch/EvaluateBatch calls
  uint64_t rows = 0;        ///< rows scored across all requests
  uint64_t cache_hits = 0;  ///< partial-score lookups served
};

/// An immutable deployed-model snapshot. Create via `Create` (or
/// `core::ModelHandle::Deploy` / `ModelRegistry::Deploy`, which call it);
/// thereafter the object is logically const — safe to share across threads
/// without locks. Serving counters are relaxed atomics and do not affect
/// scoring results.
class DeployedModel {
 public:
  /// Builds a snapshot of `model` under `name` over the handle's
  /// `InSampleView()` (so a default-constructed handle is
  /// `kFailedPrecondition`); non-factorized plans get their factorized view
  /// built here, so every deployment serves through the partial-score
  /// cache. Returns a mutable pointer so the registry can stamp the version
  /// before publication; after publication the object is shared as
  /// `const`.
  static Result<std::shared_ptr<DeployedModel>> Create(
      const std::string& name, const core::ModelHandle& model);

  /// Deployment identity.
  const std::string& name() const { return name_; }
  /// Monotonic per-name version, stamped by the registry (1 on first
  /// deploy, +1 per redeploy; 0 for snapshots created outside a registry).
  uint64_t version() const { return version_; }

  core::TrainingTask task() const { return task_; }
  const std::string& label_column() const { return label_column_; }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  const std::vector<std::string>& source_names() const {
    return source_names_;
  }

  /// Scorable target rows of the integration scenario.
  size_t rows() const { return table_->rows(); }

  /// Scores the referenced target rows through the partial-score cache:
  /// y-hat = T·w for regression, sigma(T·w) for classification (n × 1, in
  /// request order). Any out-of-range row is `kInvalidArgument` (checked
  /// before scoring starts — no partial result escapes). An empty batch
  /// returns an empty 0 × 1 matrix. Bitwise-deterministic: equal batches
  /// give bit-equal scores at any thread count, concurrent redeploys
  /// notwithstanding, and each row matches the model's in-sample
  /// `ModelHandle::Predict()` score bit for bit whatever plan trained it.
  Result<la::DenseMatrix> PredictBatch(common::Span<RowRef> batch) const;

  /// Predicts the batch and scores it against the snapshot's own labels
  /// (gathered from the silos at deploy time). An empty batch is
  /// `kInvalidArgument` — an all-zero report would impersonate a perfect
  /// model.
  Result<core::EvaluationReport> EvaluateBatch(common::Span<RowRef> batch) const;

  /// Snapshot of the serving counters.
  ServingStats stats() const;

 private:
  friend class ModelRegistry;

  DeployedModel() = default;

  /// Shared batch validation: every row reference must be in range.
  Status ValidateBatch(common::Span<RowRef> batch) const;

  std::string name_;
  uint64_t version_ = 0;
  core::TrainingTask task_ = core::TrainingTask::kLinearRegression;
  std::string label_column_;
  std::vector<std::string> feature_names_;
  std::vector<std::string> source_names_;

  /// The factorized view the snapshot scores through (owns the metadata the
  /// partial-score cache points into).
  std::shared_ptr<const factorized::FactorizedTable> table_;
  /// Deploy-time partial scores of the padded weight vector (label weight
  /// 0) — the factorized serving fast path.
  factorized::PartialScores partials_;
  /// Target labels (rT × 1), for EvaluateBatch.
  la::DenseMatrix labels_;

  mutable std::atomic<uint64_t> requests_{0};
  mutable std::atomic<uint64_t> rows_served_{0};
  mutable std::atomic<uint64_t> cache_hits_{0};
};

}  // namespace serving
}  // namespace amalur
