#include "federated/hfl.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/status.h"
#include "federated/secret_sharing.h"
#include "ml/metrics.h"

namespace amalur {
namespace federated {

namespace {

/// Seed of the protocol RNG (secret-share randomness).
constexpr uint64_t kProtocolSeed = 7;

std::string PartyName(size_t p) { return "P" + std::to_string(p); }

/// Secure aggregation's entry check: every feature and label value must lie
/// inside the secret-sharing fixed-point range (`|v| < bound`, which NaN
/// fails); a model trained on a value outside it could not be encoded.
/// Names the first offending party, column and row.
Status CheckInputsEncodable(const std::vector<HflPartition>& parties,
                            double bound) {
  for (size_t p = 0; p < parties.size(); ++p) {
    const la::DenseMatrix& x = parties[p].features;
    const la::DenseMatrix& y = parties[p].labels;
    // Column x.cols() of row i stands for the row's label.
    for (size_t i = 0; i < x.rows(); ++i) {
      for (size_t j = 0; j <= x.cols(); ++j) {
        const double v = j < x.cols() ? x.At(i, j) : y.At(i, 0);
        if (std::fabs(v) < bound) continue;
        return Status::InvalidArgument(
            "party ", PartyName(p), " holds ", v, " in ",
            j < x.cols() ? "feature column " + std::to_string(j)
                         : std::string("the label column"),
            " (row ", i,
            "); secure aggregation encodes only values of magnitude below ",
            bound);
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<HflResult> TrainHorizontalFlr(const std::vector<HflPartition>& parties,
                                     const HflOptions& options,
                                     MessageBus* bus) {
  if (bus == nullptr) return Status::InvalidArgument("bus must not be null");
  if (parties.size() < 2) {
    return Status::InvalidArgument("HFL needs at least two parties");
  }
  const size_t d = parties[0].features.cols();
  size_t total_rows = 0;
  for (size_t p = 0; p < parties.size(); ++p) {
    if (parties[p].features.cols() != d) {
      return Status::InvalidArgument("party ", p,
                                     " has a different feature width");
    }
    if (parties[p].labels.rows() != parties[p].features.rows() ||
        parties[p].labels.cols() != 1) {
      return Status::InvalidArgument("party ", p, " labels must be n×1");
    }
    total_rows += parties[p].features.rows();
  }
  if (total_rows == 0) return Status::InvalidArgument("no training rows");
  if (options.policy.min_quorum > parties.size()) {
    return Status::InvalidArgument(
        "min_quorum ", options.policy.min_quorum, " exceeds the ",
        parties.size(), " parties: no round can reach quorum");
  }

  AdditiveSecretSharing sharing;
  if (options.secure_aggregation) {
    AMALUR_RETURN_NOT_OK(
        CheckInputsEncodable(parties, sharing.EncodableBound()));
  }
  bus->Reset();
  Rng rng(kProtocolSeed);
  HflResult result;
  result.weights = la::DenseMatrix(d, 1);

  const FederatedPolicy& policy = options.policy;
  const size_t quorum = std::max<size_t>(policy.min_quorum, 1);
  // Liveness per party. A live party's broadcast gets the full retry
  // budget; once declared lost (degrade mode) it receives a single cheap
  // probe per round boundary and is re-admitted the first round it answers
  // again — by then it resumes from the *current* global model, exactly as
  // a FedAvg straggler rejoining would.
  std::vector<bool> live(parties.size(), true);
  std::vector<la::DenseMatrix> local_models(parties.size());
  WireTelemetry wire;

  for (size_t round = 0; round < options.rounds; ++round) {
    bus->BeginRound(round);
    wire.round_ms = 0;

    // Server broadcasts the global model; delivery doubles as the round's
    // health check. On a healthy wire each transfer is exactly one send +
    // one receive per channel — byte-identical to the unhardened protocol,
    // and the protocol RNG is only consumed for the participants' shares,
    // so a full-strength round is bitwise-identical to the pre-policy code.
    std::vector<size_t> participants;
    participants.reserve(parties.size());
    for (size_t p = 0; p < parties.size(); ++p) {
      FederatedPolicy attempt = policy;
      if (!live[p]) attempt.max_retries = 0;  // single rejoin probe
      auto delivered = TransferDense(bus, attempt, "server", PartyName(p),
                                     PartyName(p), result.weights, &wire);
      if (delivered.ok()) {
        local_models[p] = std::move(delivered).ValueOrDie();
        live[p] = true;
        participants.push_back(p);
        continue;
      }
      if (!live[p]) continue;  // still down; probe again next round
      if (policy.on_silo_loss == SiloLossAction::kFail) {
        return Status::Unavailable("silo ", PartyName(p), " lost at round ",
                                   round, ": ", delivered.status().message());
      }
      live[p] = false;
      if (std::find(result.silos_dropped.begin(), result.silos_dropped.end(),
                    PartyName(p)) == result.silos_dropped.end()) {
        result.silos_dropped.push_back(PartyName(p));
      }
    }
    if (participants.size() < quorum) {
      return Status::Unavailable(
          "quorum lost at round ", round, ": ", participants.size(),
          " reachable participants < min_quorum ", quorum, " (",
          parties.size() - participants.size(), " silo(s) down)");
    }
    const size_t m = participants.size();
    if (m < parties.size()) result.rounds_degraded += 1;
    size_t round_rows = 0;
    for (size_t p : participants) round_rows += parties[p].features.rows();
    if (round_rows == 0) {
      // Every reachable participant is an empty partition: no evidence
      // this round, the global model simply carries over.
      result.loss_history.push_back(result.loss_history.empty()
                                        ? 0.0
                                        : result.loss_history.back());
      continue;
    }

    // Each participant: local GD epochs from the broadcast model, then
    // submit the row-weighted model n_p·w_p (so the server average is
    // weighted). Bus transfers are serial; the per-party epochs —
    // independent by construction — fan out over the shared pool, one
    // participant per slot (fixed-order merge), so rounds are
    // bitwise-reproducible at any thread count.
    common::ParallelForChunks(0, m, 1, [&](size_t, size_t begin, size_t end) {
      for (size_t idx = begin; idx < end; ++idx) {
        const size_t p = participants[idx];
        la::DenseMatrix& local = local_models[p];
        const la::DenseMatrix& x = parties[p].features;
        const la::DenseMatrix& y = parties[p].labels;
        if (x.rows() == 0) {
          // An empty partition holds no evidence: its weighted model is
          // exactly 0 (weight n_p = 0 in the fixed-order merge), never
          // a NaN from the 1/0 local average below.
          local = la::DenseMatrix(local.rows(), local.cols());
          continue;
        }
        const double inv_rows = 1.0 / static_cast<double>(x.rows());
        for (size_t epoch = 0; epoch < options.local_epochs; ++epoch) {
          la::DenseMatrix residual = x.Multiply(local).Subtract(y);
          la::DenseMatrix gradient = x.TransposeMultiply(residual);
          gradient.ScaleInPlace(inv_rows);
          if (options.l2 > 0.0) gradient.AddScaled(local, options.l2);
          local.AddScaled(gradient, -options.learning_rate);
        }
        local.ScaleInPlace(static_cast<double>(x.rows()));
      }
    });

    // Aggregation over the round's participants. Degraded rounds re-weight:
    // the average divides by the survivors' rows, so the global model stays
    // an unbiased FedAvg over the data that actually participated.
    la::DenseMatrix aggregate(d, 1);
    if (options.secure_aggregation && m >= 2) {
      // Each participant splits its weighted model into one share per
      // participant and routes share q to participant q; every participant
      // forwards only the *sum* of the shares it received; the server
      // reconstructs the global sum and learns nothing about any
      // individual model.
      std::vector<std::vector<ShareMatrix>> outgoing(m);
      for (size_t i = 0; i < m; ++i) {
        const la::DenseMatrix& model = local_models[participants[i]];
        for (size_t j = 0; j < model.size(); ++j) {
          const double v = model.data()[j];
          if (std::fabs(v) < sharing.EncodableBound()) continue;
          return Status::FailedPrecondition(
              "federate training diverged: weight ", j,
              " of party ", PartyName(participants[i]),
              "'s row-weighted local model is ", v, " in round ", round + 1,
              ", outside the secret-sharing fixed-point range (magnitude "
              "below ",
              sharing.EncodableBound(),
              "); lower the learning rate or check the inputs for NaN/Inf");
        }
        outgoing[i] = sharing.Share(model, m, &rng);
      }
      std::vector<ShareMatrix> share_sums(m);
      for (size_t q = 0; q < m; ++q) {
        ShareMatrix sum = outgoing[q][q];  // own share stays local
        for (size_t i = 0; i < m; ++i) {
          if (i == q) continue;
          // Ship the share as raw 64-bit words (reliable transfer).
          AMALUR_ASSIGN_OR_RETURN(
              std::vector<uint64_t> words,
              TransferWords(bus, policy, PartyName(participants[i]),
                            PartyName(participants[q]),
                            PartyName(participants[q]), outgoing[i][q].data,
                            &wire));
          ShareMatrix received{sum.rows, sum.cols, std::move(words)};
          sum = AdditiveSecretSharing::AddShares(sum, received);
        }
        share_sums[q] = std::move(sum);
      }
      std::vector<ShareMatrix> at_server;
      at_server.reserve(m);
      for (size_t q = 0; q < m; ++q) {
        AMALUR_ASSIGN_OR_RETURN(
            std::vector<uint64_t> words,
            TransferWords(bus, policy, PartyName(participants[q]), "server",
                          PartyName(participants[q]), share_sums[q].data,
                          &wire));
        at_server.push_back(ShareMatrix{d, 1, std::move(words)});
      }
      aggregate = sharing.Reconstruct(at_server);
    } else {
      // Plaintext (or a lone survivor, where sharing protects nothing):
      // each participant uploads its weighted model directly.
      for (size_t p : participants) {
        AMALUR_ASSIGN_OR_RETURN(
            la::DenseMatrix at_server,
            TransferDense(bus, policy, PartyName(p), "server", PartyName(p),
                          local_models[p], &wire));
        aggregate.AddInPlace(at_server);
      }
    }
    aggregate.ScaleInPlace(1.0 / static_cast<double>(round_rows));
    result.weights = std::move(aggregate);

    // Telemetry: MSE over the round's participants under the fresh model
    // (plaintext scalars, as in standard FedAvg evaluation).
    double squared_error = 0.0;
    for (size_t p : participants) {
      la::DenseMatrix residual =
          parties[p].features.Multiply(result.weights).Subtract(
              parties[p].labels);
      for (size_t i = 0; i < residual.rows(); ++i) {
        squared_error += residual.At(i, 0) * residual.At(i, 0);
      }
    }
    result.loss_history.push_back(squared_error /
                                  static_cast<double>(round_rows));
  }

  result.bytes_transferred = bus->TotalBytes();
  result.messages = bus->TotalMessages();
  result.retries = wire.retries;
  result.bytes_wasted = bus->WastedBytes();
  return result;
}

Result<std::vector<HflPartition>> AlignForHfl(
    const metadata::DiMetadata& metadata, size_t label_column) {
  if (metadata.num_shards() < 2) {
    return Status::FailedPrecondition(
        "horizontal federation needs >= 2 fact shards (a union or "
        "union-of-stars scenario)");
  }
  if (label_column >= metadata.target_cols()) {
    return Status::OutOfRange("label column out of range");
  }
  std::vector<size_t> feature_columns;
  for (size_t j = 0; j < metadata.target_cols(); ++j) {
    if (j != label_column) feature_columns.push_back(j);
  }

  // One dense block per shard, covering exactly that shard's target rows.
  std::vector<la::DenseMatrix> shard_blocks;
  shard_blocks.reserve(metadata.num_shards());
  for (size_t s = 0; s < metadata.num_shards(); ++s) {
    shard_blocks.emplace_back(
        metadata.ShardRowEnd(s) - metadata.ShardRowBegin(s),
        metadata.target_cols());
  }
  // Each silo adds its masked contribution T_k ∘ R_k into every shard block
  // its indicator reaches — `shards_reaching(k)`, a singleton for every
  // non-conformed silo, so assembly stays O(rows of the own block) in the
  // common case — built at the block's height: D_k M_kᵀ is silo-sized,
  // rows route through CI_k restricted to [begin, end), and
  // redundancy-masked cells are zeroed before the row is added, so every
  // cell holds exactly the sum `MaterializeTargetMatrix` forms. A conformed
  // dimension shared between shards serves each referencing block from its
  // single silo. No full-target temporary, no cross-shard data.
  std::vector<double> masked_row(metadata.target_cols());
  for (size_t k = 0; k < metadata.num_sources(); ++k) {
    const metadata::SourceMetadata& source = metadata.source(k);
    const la::DenseMatrix expanded = source.mapping.ExpandColumns(source.data);
    const auto& masked_sets = source.redundancy.column_sets();
    for (size_t s : metadata.shards_reaching(k)) {
      const size_t begin = metadata.ShardRowBegin(s);
      const size_t end = metadata.ShardRowEnd(s);
      la::DenseMatrix& block = shard_blocks[s];
      for (size_t i = begin; i < end; ++i) {
        const int64_t source_row = source.indicator.At(i);
        if (source_row < 0) continue;
        const double* in = expanded.RowPtr(static_cast<size_t>(source_row));
        double* out = block.RowPtr(i - begin);
        std::copy(in, in + metadata.target_cols(), masked_row.begin());
        const int32_t set_id = source.redundancy.row_set(i);
        if (set_id >= 0) {
          for (size_t j : masked_sets[static_cast<size_t>(set_id)]) {
            masked_row[j] = 0.0;  // contributed upstream, not here
          }
        }
        for (size_t j = 0; j < metadata.target_cols(); ++j) {
          out[j] += masked_row[j];
        }
      }
    }
  }

  // A shard with zero target rows (an empty fact silo, or every row of the
  // shard dropped by an inner-join edge) must not become a FedAvg
  // participant: its local average is 0/0. Skip it — a participant that
  // holds no rows contributes weight 0 to the merge anyway. The surviving
  // participant count is exactly `metadata.num_active_shards()`, which the
  // optimizer's explanation reports.
  std::vector<HflPartition> partitions;
  partitions.reserve(metadata.num_shards());
  for (la::DenseMatrix& block : shard_blocks) {
    if (block.rows() == 0) continue;
    HflPartition partition;
    partition.features = block.SelectColumns(feature_columns);
    partition.labels = block.SelectColumns({label_column});
    partitions.push_back(std::move(partition));
  }
  if (partitions.size() < 2) {
    return Status::FailedPrecondition(
        "horizontal federation needs >= 2 non-empty fact shards, got ",
        partitions.size());
  }
  return partitions;
}

}  // namespace federated
}  // namespace amalur

