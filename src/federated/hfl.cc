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

  AdditiveSecretSharing sharing;
  if (options.secure_aggregation) {
    AMALUR_RETURN_NOT_OK(
        CheckInputsEncodable(parties, sharing.EncodableBound()));
  }
  bus->Reset();
  Rng rng(kProtocolSeed);
  HflResult result;
  result.weights = la::DenseMatrix(d, 1);

  const size_t m = parties.size();
  std::vector<la::DenseMatrix> local_models(m);
  for (size_t round = 0; round < options.rounds; ++round) {
    // Server broadcasts the global model.
    for (size_t p = 0; p < m; ++p) {
      bus->Send("server", PartyName(p), result.weights);
      AMALUR_ASSIGN_OR_RETURN(local_models[p],
                              bus->Receive("server", PartyName(p)));
    }

    // Each party: local GD epochs from the broadcast model, then submit the
    // row-weighted model n_p·w_p (so the server average is weighted). Bus
    // transfers are serial; the per-party epochs — independent by
    // construction — fan out over the shared pool, one party per slot, each
    // writing only its own model, so rounds are bitwise-reproducible at any
    // thread count.
    common::ParallelFor(0, m, 1, [&](size_t begin, size_t end) {
      for (size_t p = begin; p < end; ++p) {
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

    la::DenseMatrix aggregate(d, 1);
    if (options.secure_aggregation) {
      // Each party splits its weighted model into one share per party and
      // routes share q to party q; every party forwards only the *sum* of
      // the shares it received; the server reconstructs the global sum and
      // learns nothing about any individual model.
      std::vector<std::vector<ShareMatrix>> outgoing(m);
      for (size_t i = 0; i < m; ++i) {
        const la::DenseMatrix& model = local_models[i];
        for (size_t j = 0; j < model.size(); ++j) {
          const double v = model.data()[j];
          if (std::fabs(v) < sharing.EncodableBound()) continue;
          return Status::FailedPrecondition(
              "federate training diverged: weight ", j, " of party ",
              PartyName(i), "'s row-weighted local model is ", v, " in round ",
              round + 1,
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
          // Ship the share as raw 64-bit words.
          bus->SendBytes(PartyName(i), PartyName(q), outgoing[i][q].data);
          AMALUR_ASSIGN_OR_RETURN(
              std::vector<uint64_t> words,
              bus->ReceiveBytes(PartyName(i), PartyName(q)));
          ShareMatrix received{sum.rows, sum.cols, std::move(words)};
          sum = AdditiveSecretSharing::AddShares(sum, received);
        }
        share_sums[q] = std::move(sum);
      }
      std::vector<ShareMatrix> at_server;
      at_server.reserve(m);
      for (size_t q = 0; q < m; ++q) {
        bus->SendBytes(PartyName(q), "server", share_sums[q].data);
        AMALUR_ASSIGN_OR_RETURN(std::vector<uint64_t> words,
                                bus->ReceiveBytes(PartyName(q), "server"));
        at_server.push_back(ShareMatrix{d, 1, std::move(words)});
      }
      aggregate = sharing.Reconstruct(at_server);
    } else {
      // Plaintext: each party uploads its weighted model directly.
      for (size_t p = 0; p < m; ++p) {
        bus->Send(PartyName(p), "server", local_models[p]);
        AMALUR_ASSIGN_OR_RETURN(la::DenseMatrix at_server,
                                bus->Receive(PartyName(p), "server"));
        aggregate.AddInPlace(at_server);
      }
    }
    aggregate.ScaleInPlace(1.0 / static_cast<double>(total_rows));
    result.weights = std::move(aggregate);

    // Telemetry: MSE over every party under the fresh model (plaintext
    // scalars, as in standard FedAvg evaluation).
    double squared_error = 0.0;
    for (const HflPartition& party : parties) {
      la::DenseMatrix residual =
          party.features.Multiply(result.weights).Subtract(party.labels);
      for (size_t i = 0; i < residual.rows(); ++i) {
        squared_error += residual.At(i, 0) * residual.At(i, 0);
      }
    }
    result.loss_history.push_back(squared_error /
                                  static_cast<double>(total_rows));
  }

  result.bytes_transferred = bus->TotalBytes();
  result.messages = bus->TotalMessages();
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

