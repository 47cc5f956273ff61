#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "federated/message_bus.h"
#include "federated/reliable_transfer.h"
#include "la/dense_matrix.h"
#include "metadata/di_metadata.h"

/// \file hfl.h
/// Horizontal federated learning (FedAvg) for the union scenario (Example 4
/// of Table I): parties hold row partitions over a shared feature space.
/// Each round every party runs local gradient steps and the server averages
/// the models, optionally through *secure aggregation* built on additive
/// secret sharing — the server only ever sees the sum of the updates, never
/// an individual party's model. Union-of-stars integrations are naturally
/// horizontally partitioned — one FedAvg participant per fact shard
/// (`AlignForHfl`) — and per-party local work fans out over the shared pool
/// with a fixed-order merge, so rounds are bitwise-reproducible at any
/// thread count.

namespace amalur {
namespace federated {

/// One party's horizontal partition.
struct HflPartition {
  la::DenseMatrix features;  // n_p × d
  la::DenseMatrix labels;    // n_p × 1
};

/// Hyper-parameters for FedAvg.
struct HflOptions {
  size_t rounds = 30;
  size_t local_epochs = 1;
  double learning_rate = 0.1;
  /// L2 regularization strength of the local gradient steps (0 = off).
  double l2 = 0.0;
  /// Aggregate updates via additive secret sharing instead of plaintext.
  bool secure_aggregation = true;
  /// Reliability policy. Under `on_silo_loss = kDegrade` a party whose
  /// round broadcast exhausts its retry budget is marked down and FedAvg
  /// re-weights over the surviving shards (the round average divides by the
  /// survivors' rows, not the global total); a down party is probed once
  /// per round boundary and re-admitted when it answers again. Falling
  /// below `min_quorum` reachable participants is `kUnavailable` even when
  /// degrading; a `min_quorum` above the party count is `kInvalidArgument`
  /// before anything is sent.
  FederatedPolicy policy;
};

/// A trained global model plus communication accounting.
struct HflResult {
  la::DenseMatrix weights;  // d × 1
  /// Global training MSE after each round (over the round's participants).
  std::vector<double> loss_history;
  size_t bytes_transferred = 0;
  size_t messages = 0;
  /// Reliability telemetry, all empty or 0 unless the bus loses or delays
  /// messages. Parties that were declared lost at least once (degrade mode
  /// only; a silo appears once even if it later rejoined).
  std::vector<std::string> silos_dropped;
  /// Rounds that ran with fewer participants than parties.
  size_t rounds_degraded = 0;
  /// Retransmissions performed by the reliable-delivery layer.
  size_t retries = 0;
  /// Bytes burnt on transmissions that never arrived (`MessageBus::WastedBytes`).
  size_t bytes_wasted = 0;
};

/// Runs FedAvg linear regression over the partitions. With secure
/// aggregation, a feature or label value outside the secret-sharing
/// fixed-point range (`AdditiveSecretSharing::EncodableBound()`, NaN and
/// ±Inf included) is `kInvalidArgument` naming the party, column and row,
/// and a row-weighted local model that leaves the range during training is
/// divergence: `kFailedPrecondition`.
Result<HflResult> TrainHorizontalFlr(const std::vector<HflPartition>& parties,
                                     const HflOptions& options, MessageBus* bus);

/// Builds one horizontal partition per *non-empty* fact shard of a union
/// (pairwise) or union-of-stars integration: shard s's partition covers its
/// contiguous target-row block, assembled only from the silos whose
/// indicators reach that block (its fact, that fact's dimension subgraph,
/// and any conformed dimension shared between shards) — no cross-shard
/// data is materialized. A shard with zero target rows (an empty fact
/// silo, or every row dropped by an inner-join edge) is skipped rather
/// than becoming a 0/0 FedAvg participant; fewer than two non-empty shards
/// is `kFailedPrecondition`. Features are the target schema minus
/// `label_column`, in target order, so the FedAvg global model lands
/// directly in target-feature order.
Result<std::vector<HflPartition>> AlignForHfl(
    const metadata::DiMetadata& metadata, size_t label_column);

}  // namespace federated
}  // namespace amalur
