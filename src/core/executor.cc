#include "core/executor.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "factorized/factorized_table.h"
#include "ml/training_matrix.h"

namespace amalur {
namespace core {

namespace {

/// Trains the requested model over any backend.
ml::LinearModel TrainOver(const ml::TrainingMatrix& features,
                          const la::DenseMatrix& labels,
                          const TrainRequest& request) {
  if (request.task == TrainingTask::kLogisticRegression) {
    return ml::TrainLogisticRegression(features, labels, request.gd);
  }
  return ml::TrainLinearRegression(features, labels, request.gd);
}

/// A diverging run (a learning rate too large for the data, or NaN/Inf in
/// the features) must come back as an error, never as a model with
/// non-finite weights.
Status CheckFinite(const TrainOutcome& outcome) {
  const char* strategy = ExecutionStrategyToString(outcome.strategy_used);
  const std::vector<double>& losses = outcome.loss_history;
  for (size_t it = 0; it < losses.size(); ++it) {
    if (!std::isfinite(losses[it])) {
      return Status::FailedPrecondition(
          strategy, " training diverged: the loss of iteration ", it + 1,
          " of ", losses.size(), " is ", losses[it],
          "; lower the learning rate or check the inputs for NaN/Inf");
    }
  }
  for (size_t j = 0; j < outcome.weights.size(); ++j) {
    if (!std::isfinite(outcome.weights.data()[j])) {
      return Status::FailedPrecondition(
          strategy, " training diverged: weight ", j, " is ",
          outcome.weights.data()[j],
          "; lower the learning rate or check the inputs for NaN/Inf");
    }
  }
  return Status::OK();
}

}  // namespace

const char* TrainingTaskToString(TrainingTask task) {
  switch (task) {
    case TrainingTask::kLinearRegression:
      return "linear_regression";
    case TrainingTask::kLogisticRegression:
      return "logistic_regression";
  }
  return "?";
}

Result<TrainOutcome> Executor::Run(const metadata::DiMetadata& metadata,
                                   const Plan& plan,
                                   const TrainRequest& request) const {
  const auto label_index =
      metadata.target_schema().IndexOf(request.label_column);
  if (!label_index.has_value()) {
    return Status::NotFound("label column '", request.label_column,
                            "' in the target schema");
  }

  TrainOutcome outcome;
  outcome.strategy_used = plan.strategy;
  // Scope the request's thread knob over the whole run: every kernel under
  // this frame (dense, factorized, sigmoid) picks it up. Report the
  // parallelism actually applied, not the request — a knob above the pool's
  // capacity still chunks for the requested count but executes narrower.
  common::ScopedNumThreads thread_scope(request.num_threads);
  outcome.threads_used = std::min(common::NumThreads(),
                                  common::ThreadPool::Global()->parallelism());
  // The integration's row-slot index is built at most once, off the clock;
  // the factorized view below copies and builds nothing.
  if (plan.strategy == ExecutionStrategy::kFactorize) metadata.slot_index();
  Stopwatch stopwatch;

  switch (plan.strategy) {
    case ExecutionStrategy::kFactorize: {
      ml::FactorizedFeatures features(
          std::make_shared<const factorized::FactorizedTable>(metadata),
          *label_index);
      const la::DenseMatrix labels = features.Labels();
      ml::LinearModel model = TrainOver(features, labels, request);
      outcome.weights = std::move(model.weights);
      outcome.loss_history = std::move(model.loss_history);
      break;
    }
    case ExecutionStrategy::kMaterialize: {
      const la::DenseMatrix target = metadata.MaterializeTargetMatrix();
      std::vector<size_t> feature_cols;
      for (size_t j = 0; j < target.cols(); ++j) {
        if (j != *label_index) feature_cols.push_back(j);
      }
      ml::MaterializedMatrix features(target.SelectColumns(feature_cols));
      ml::MaterializedMatrix label_view(target.SelectColumns({*label_index}));
      ml::LinearModel model =
          TrainOver(features, label_view.data(), request);
      outcome.weights = std::move(model.weights);
      outcome.loss_history = std::move(model.loss_history);
      break;
    }
    case ExecutionStrategy::kFederate: {
      if (request.task != TrainingTask::kLinearRegression) {
        return Status::Unimplemented(
            "federated execution currently supports linear regression");
      }
      // The integration's shape picks the protocol: horizontally
      // partitioned scenarios (unions, union-of-stars) run FedAvg with one
      // participant per fact shard; vertically partitioned ones (pairwise
      // joins, stars, snowflakes — whose silos carry composed indicator
      // blocks) run the n-ary vertical FLR with one party per silo.
      federated::MessageBus bus;
      if (metadata.IsHorizontallyPartitioned()) {
        AMALUR_ASSIGN_OR_RETURN(std::vector<federated::HflPartition> shards,
                                federated::AlignForHfl(metadata, *label_index));
        federated::HflOptions options;
        options.rounds = request.gd.iterations;
        options.local_epochs = 1;
        options.learning_rate = request.gd.learning_rate;
        options.l2 = request.gd.l2;
        options.secure_aggregation =
            request.privacy != federated::VflPrivacy::kPlaintext;
        options.policy = request.federated_policy;
        AMALUR_ASSIGN_OR_RETURN(
            federated::HflResult result,
            federated::TrainHorizontalFlr(shards, options, &bus));
        // AlignForHfl builds features as the target schema minus the label,
        // so the global model is already in target-feature order.
        outcome.weights = std::move(result.weights);
        outcome.loss_history = std::move(result.loss_history);
        outcome.bytes_transferred = result.bytes_transferred;
        outcome.federated_silos = shards.size();
        outcome.federated_rounds = options.rounds;
        break;
      }
      AMALUR_ASSIGN_OR_RETURN(
          federated::NaryVflAlignment alignment,
          federated::AlignForVflNary(metadata, *label_index));
      federated::VflOptions options;
      options.iterations = request.gd.iterations;
      options.learning_rate = request.gd.learning_rate;
      options.l2 = request.gd.l2;
      options.privacy = request.privacy;
      options.policy = request.federated_policy;
      AMALUR_ASSIGN_OR_RETURN(
          federated::NaryVflResult result,
          federated::TrainVerticalFlrNary(alignment.parties, alignment.labels,
                                          options, &bus));
      // Re-assemble [θ_0; ...; θ_{N−1}] into target-feature order (feature
      // index = target column index minus the label offset).
      outcome.weights = la::DenseMatrix(metadata.target_cols() - 1, 1);
      auto feature_index = [&](size_t target_col) {
        return target_col < *label_index ? target_col : target_col - 1;
      };
      for (size_t k = 0; k < alignment.parties.size(); ++k) {
        const federated::VflParty& party = alignment.parties[k];
        for (size_t j = 0; j < party.columns.size(); ++j) {
          outcome.weights.At(feature_index(party.columns[j]), 0) =
              result.thetas[k].At(j, 0);
        }
      }
      outcome.loss_history = std::move(result.loss_history);
      outcome.bytes_transferred = result.bytes_transferred;
      outcome.federated_silos = alignment.parties.size();
      outcome.federated_rounds = result.rounds;
      break;
    }
  }
  outcome.seconds = stopwatch.ElapsedSeconds();
  AMALUR_RETURN_NOT_OK(CheckFinite(outcome));
  return outcome;
}

}  // namespace core
}  // namespace amalur
