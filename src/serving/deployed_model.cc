#include "serving/deployed_model.h"

#include <utility>

#include "common/parallel_for.h"
#include "common/span.h"
#include "common/status.h"
#include "ml/metrics.h"
#include "ml/training_matrix.h"

namespace amalur {
namespace serving {

namespace {
// ParallelFor grain for batch scoring: a row score is a handful of lookups,
// so chunks need some width before fan-out pays. Chunk boundaries are a pure
// function of (batch size, grain, thread count) and each chunk writes
// disjoint output rows — the house determinism pattern.
constexpr size_t kBatchGrain = 64;
}  // namespace

Result<std::shared_ptr<DeployedModel>> DeployedModel::Create(
    const std::string& name, const core::ModelHandle& model) {
  if (name.empty()) return Status::InvalidArgument("empty deployment name");
  // The view in-sample scoring runs over, whatever plan trained the model,
  // so every deployment serves through the partial-score cache and agrees
  // with `ModelHandle::Predict()`.
  AMALUR_ASSIGN_OR_RETURN(
      std::shared_ptr<const factorized::FactorizedTable> table,
      model.InSampleView());

  const size_t label = model.label_index();
  const la::DenseMatrix& weights = model.weights();
  if (weights.cols() != 1 || weights.rows() + 1 != table->cols() ||
      label >= table->cols()) {
    return Status::FailedPrecondition(
        "model for deployment '", name, "' has ", weights.rows(),
        " weights but the target schema has ", table->cols(),
        " columns (label at ", label, "); the handle is inconsistent");
  }

  auto out = std::shared_ptr<DeployedModel>(new DeployedModel());
  out->name_ = name;
  out->task_ = model.task();
  out->label_column_ = model.label_column();
  out->feature_names_ = model.feature_names();
  out->source_names_ = model.source_names();

  // Pad the weights to target-column space with a zero at the label — the
  // same layout FactorizedFeatures gives the training LMM's weights, so
  // the partial scores reproduce training-time predictions bit for bit.
  la::DenseMatrix target_weights(table->cols(), 1);
  for (size_t j = 0, f = 0; j < table->cols(); ++j) {
    if (j == label) continue;
    target_weights.At(j, 0) = weights.At(f++, 0);
  }
  out->partials_ = table->ExtractPartialScores(target_weights);
  out->labels_ = ml::FactorizedFeatures(table, label).Labels();
  out->table_ = std::move(table);
  return out;
}

Status DeployedModel::ValidateBatch(common::Span<RowRef> batch) const {
  const size_t limit = table_->rows();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].row >= limit) {
      return Status::InvalidArgument(
          "batch entry ", i, " references target row ", batch[i].row,
          " but deployment '", name_, "' serves ", limit, " rows");
    }
  }
  return Status::OK();
}

Result<la::DenseMatrix> DeployedModel::PredictBatch(
    common::Span<RowRef> batch) const {
  AMALUR_RETURN_NOT_OK(ValidateBatch(batch));
  la::DenseMatrix out(batch.size(), 1);
  std::atomic<uint64_t> hits{0};
  common::ParallelFor(
      0, batch.size(), kBatchGrain, [&](size_t begin, size_t end) {
        size_t chunk_hits = 0;
        for (size_t i = begin; i < end; ++i) {
          out.At(i, 0) = partials_.ScoreRow(batch[i].row, &chunk_hits);
        }
        hits.fetch_add(chunk_hits, std::memory_order_relaxed);
      });
  if (task_ == core::TrainingTask::kLogisticRegression) out = ml::Sigmoid(out);
  requests_.fetch_add(1, std::memory_order_relaxed);
  rows_served_.fetch_add(batch.size(), std::memory_order_relaxed);
  cache_hits_.fetch_add(hits.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return out;
}

Result<core::EvaluationReport> DeployedModel::EvaluateBatch(
    common::Span<RowRef> batch) const {
  if (batch.empty()) {
    return Status::InvalidArgument(
        "cannot evaluate an empty batch: the all-zero report of a zero-row "
        "evaluation impersonates a perfect model");
  }
  AMALUR_ASSIGN_OR_RETURN(la::DenseMatrix predictions, PredictBatch(batch));
  la::DenseMatrix labels(batch.size(), 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    labels.At(i, 0) = labels_.At(batch[i].row, 0);
  }
  return core::MakeEvaluationReport(task_, predictions, labels);
}

ServingStats DeployedModel::stats() const {
  ServingStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.rows = rows_served_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace serving
}  // namespace amalur
