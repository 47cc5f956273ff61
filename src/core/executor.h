#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/optimizer.h"
#include "federated/hfl.h"
#include "federated/vfl.h"
#include "metadata/di_metadata.h"
#include "ml/linear_models.h"

/// \file executor.h
/// Plan execution (Figure 3's "Optimization & Execution"): compiles the
/// optimizer's plan into the concrete training run — a factorized trainer
/// over silo matrices, a materialized trainer over the exported target, or
/// a federated protocol picked by the integration's shape: vertically
/// partitioned scenarios (pairwise joins, stars, snowflakes) run the n-ary
/// vertical FLR with one party per silo, horizontally partitioned ones
/// (unions, union-of-stars) run FedAvg with one participant per fact
/// shard — and reports what actually ran.

namespace amalur {
namespace core {

/// Supported downstream tasks.
enum class TrainingTask : int8_t {
  kLinearRegression = 0,
  kLogisticRegression = 1,
};

const char* TrainingTaskToString(TrainingTask task);

/// What the user asks Amalur to train.
struct TrainRequest {
  TrainingTask task = TrainingTask::kLinearRegression;
  /// Target-schema column holding the label.
  std::string label_column = "y";
  ml::GradientDescentOptions gd;
  /// Federated wire protection (only used by federated plans). Vertical
  /// runs take it literally (plaintext vs Paillier residual exchange);
  /// horizontal runs map any non-plaintext setting to secure aggregation
  /// over additive secret shares.
  federated::VflPrivacy privacy = federated::VflPrivacy::kPlaintext;
  /// Worker threads for the training kernels. 0 keeps the runtime default
  /// (`AMALUR_NUM_THREADS`, else hardware concurrency); 1 forces serial
  /// execution. The effective count is reported in
  /// `TrainOutcome::threads_used` and the executed plan's explanation.
  size_t num_threads = 0;
  /// When set, overrides the optimizer's choice: `Amalur::Train` executes
  /// this strategy regardless of the cost estimate (the estimate is still
  /// computed and attached to the plan for `Explain`). Ablations and tests
  /// use this to pin a backend; privacy constraints are NOT overridden —
  /// forcing a data-moving strategy over a privacy-constrained integration
  /// is rejected with `kFailedPrecondition`.
  std::optional<ExecutionStrategy> force_strategy;
  /// Reliability policy handed to the federated protocols. Federated plans
  /// train over the in-process bus, which never loses a message, so of its
  /// fields only `min_quorum` can change a run: a quorum above a union's
  /// non-empty fact shards is `kInvalidArgument`. The field is retired with
  /// the next benchmark change. Ignored by non-federated strategies.
  federated::FederatedPolicy federated_policy;
};

/// The result of an executed plan.
struct TrainOutcome {
  ExecutionStrategy strategy_used = ExecutionStrategy::kMaterialize;
  /// Final weights in target-feature order. For federated runs the
  /// per-party blocks [θ_0; ...; θ_{N−1}] (vertical) or the FedAvg global
  /// model (horizontal) are re-ordered to target columns.
  la::DenseMatrix weights;
  std::vector<double> loss_history;
  /// Wall-clock of the training run. It excludes metadata derivation and
  /// the integration's one-time row-slot index build, which a factorized
  /// run does before the clock starts unless the cost estimate already
  /// did.
  double seconds = 0.0;
  /// Bytes moved between parties (federated runs only).
  size_t bytes_transferred = 0;
  /// Federated runs only: number of participating silos (feature-holding
  /// parties for vertical runs, fact shards for horizontal runs) and
  /// protocol rounds executed. Zero for non-federated plans.
  size_t federated_silos = 0;
  size_t federated_rounds = 0;
  /// Parallelism the kernels actually ran with: the requested count (the
  /// request's `num_threads` when set, else the runtime default) capped by
  /// the pool's capacity. Chunk-geometry determinism follows the *requested*
  /// count; this field reports the execution width.
  size_t threads_used = 1;
};

/// Executes plans against derived metadata.
class Executor {
 public:
  /// Runs `request` under `plan`. Federated plans require the linear
  /// regression task; vertical scenarios additionally need the shared
  /// sample space (every silo contributes every target row), horizontal
  /// ones >= 2 fact shards.
  Result<TrainOutcome> Run(const metadata::DiMetadata& metadata,
                           const Plan& plan, const TrainRequest& request) const;
};

}  // namespace core
}  // namespace amalur
