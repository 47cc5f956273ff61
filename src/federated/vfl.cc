#include "federated/vfl.h"

#include <algorithm>
#include <cmath>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/status.h"
#include "federated/paillier.h"

namespace amalur {
namespace federated {

namespace {

/// Seed of the protocol RNG (encryption randomness and Paillier keys).
constexpr uint64_t kProtocolSeed = 99;
/// Paillier key size (prime bits) and fixed-point precision.
constexpr int kPaillierPrimeBits = 30;
constexpr int kFractionalBits = 12;

/// Homomorphic Xᵀ·[[d]]: for each column j, Π_i CipherScale([[d_i]], x_ij)
/// with fixed-point-encoded scalars (negatives via the upper half-space).
/// The result's fixed-point scale is scale² (both factors scaled).
std::vector<PaillierCiphertext> HomomorphicTransposeDot(
    const Paillier& paillier, const la::DenseMatrix& x,
    const std::vector<PaillierCiphertext>& encrypted_d, double scale,
    Rng* rng) {
  const uint64_t n = paillier.public_key().n;
  std::vector<PaillierCiphertext> out;
  out.reserve(x.cols());
  for (size_t j = 0; j < x.cols(); ++j) {
    // Start from a fresh encryption of zero so even all-zero columns yield
    // a randomized ciphertext.
    PaillierCiphertext acc = paillier.EncryptRaw(0, rng);
    for (size_t i = 0; i < x.rows(); ++i) {
      const int64_t fixed = std::llround(x.At(i, j) * scale);
      if (fixed == 0) continue;
      const uint64_t scalar =
          fixed > 0 ? static_cast<uint64_t>(fixed)
                    : n - static_cast<uint64_t>(-fixed);
      acc = paillier.CipherAdd(acc,
                               paillier.CipherScale(encrypted_d[i], scalar));
    }
    out.push_back(acc);
  }
  return out;
}

/// Decodes a plaintext in [0, n) produced by scale²-scaled homomorphic
/// arithmetic back to a double.
double DecodeScaled(uint64_t message, uint64_t n, double scale_squared) {
  if (message > n / 2) {
    return -static_cast<double>(n - message) / scale_squared;
  }
  return static_cast<double>(message) / scale_squared;
}

std::string DefaultPartyName(size_t k) { return "P" + std::to_string(k); }

/// The Paillier protocol's entry check: every feature and label value must
/// lie inside the fixed-point range (`|v| < bound`, which NaN fails), or
/// encryption and `HomomorphicTransposeDot`'s encoding could not represent
/// it. Names the first offending party, column and row.
Status CheckInputsEncodable(const std::vector<VflParty>& parties,
                            const std::vector<std::string>& names,
                            const la::DenseMatrix& labels, double bound) {
  for (size_t i = 0; i < labels.rows(); ++i) {
    const double v = labels.At(i, 0);
    if (std::fabs(v) < bound) continue;
    return Status::InvalidArgument(
        "label party ", names[0], " holds ", v, " in the label column (row ",
        i, "); the Paillier protocol encodes only values of magnitude below ",
        bound);
  }
  for (size_t k = 0; k < parties.size(); ++k) {
    const la::DenseMatrix& x = parties[k].x;
    const std::vector<size_t>& columns = parties[k].columns;
    for (size_t i = 0; i < x.rows(); ++i) {
      for (size_t j = 0; j < x.cols(); ++j) {
        const double v = x.At(i, j);
        if (std::fabs(v) < bound) continue;
        return Status::InvalidArgument(
            "party ", names[k], " holds ", v, " in feature column ",
            j < columns.size() ? columns[j] : j, " (row ", i,
            "); the Paillier protocol encodes only values of magnitude below ",
            bound);
      }
    }
  }
  return Status::OK();
}

/// The Paillier protocol's in-training check: a partial prediction or
/// residual start that leaves the fixed-point range means gradient descent
/// diverged (the inputs passed the entry check).
Status CheckEncodable(const la::DenseMatrix& values, double bound,
                      const char* what, const std::string& party,
                      size_t round) {
  for (size_t i = 0; i < values.size(); ++i) {
    const double v = values.data()[i];
    if (std::fabs(v) < bound) continue;
    return Status::FailedPrecondition(
        "federate training diverged: ", what, " of party ", party, " is ", v,
        " at row ", i, " in round ", round + 1,
        ", outside the Paillier fixed-point range (magnitude below ", bound,
        "); lower the learning rate or check the inputs for NaN/Inf");
  }
  return Status::OK();
}

}  // namespace

Result<NaryVflResult> TrainVerticalFlrNary(const std::vector<VflParty>& parties,
                                           const la::DenseMatrix& labels,
                                           const VflOptions& options,
                                           MessageBus* bus) {
  if (bus == nullptr) return Status::InvalidArgument("bus must not be null");
  const size_t n_parties = parties.size();
  if (n_parties < 2) {
    return Status::InvalidArgument(
        "vertical FLR needs at least two parties, got ", n_parties,
        "; a single party holds every feature — train locally instead of "
        "federating");
  }
  const size_t n_rows = parties[0].x.rows();
  if (labels.rows() != n_rows || labels.cols() != 1) {
    return Status::InvalidArgument(
        "party blocks and labels must be row-aligned; labels must be n×1");
  }
  for (size_t k = 1; k < n_parties; ++k) {
    if (parties[k].x.rows() != n_rows) {
      return Status::InvalidArgument(
          "party ", k, "'s feature block has ", parties[k].x.rows(),
          " rows; every party must be row-aligned with party 0's ", n_rows);
    }
  }
  if (n_rows == 0) return Status::InvalidArgument("no training rows");
  const double inv_n = 1.0 / static_cast<double>(n_rows);

  std::vector<std::string> names(n_parties);
  for (size_t k = 0; k < n_parties; ++k) {
    names[k] = parties[k].name.empty() ? DefaultPartyName(k) : parties[k].name;
  }

  NaryVflResult result;
  result.loss_history.reserve(options.iterations);
  result.thetas.reserve(n_parties);
  for (size_t k = 0; k < n_parties; ++k) {
    result.thetas.emplace_back(parties[k].x.cols(), 1);
  }
  result.rounds = options.iterations;
  bus->Reset();
  Rng rng(kProtocolSeed);

  // Reliable-delivery context. VFL has no quorum to fall back on — every
  // party owns feature columns the model cannot do without — so a transfer
  // that exhausts its retry budget ends the run with `kUnavailable`. The
  // blamed silo is the non-coordinator endpoint of the dead channel: when a
  // message to/from the label party (or the Paillier coordinator "C") dies,
  // the data party on the other end is the one presumed lost.
  WireTelemetry wire;
  auto blame = [&](const std::string& from, const std::string& to) {
    return (to == names[0] || to == "C") ? from : to;
  };

  // Coordinator C owns the Paillier keys in the secure mode; the data
  // parties use the public key only. (GenerateKeys is deterministic in the
  // seed.)
  Paillier paillier(
      Paillier::GenerateKeys(kProtocolSeed ^ 0xC0FFEE, kPaillierPrimeBits),
      kFractionalBits);
  const double scale = static_cast<double>(uint64_t{1} << kFractionalBits);
  const double scale_squared = scale * scale;
  const uint64_t n_pub = paillier.public_key().n;

  const double bound = paillier.EncodableBound();
  if (options.privacy == VflPrivacy::kPaillier) {
    AMALUR_RETURN_NOT_OK(CheckInputsEncodable(parties, names, labels, bound));
  }

  // The round's buffers, sized by the first round and reused by every
  // later one: u_k and the gradient of θ_k per party, the label party's
  // residual d, and the u_k and d payloads received over the bus.
  std::vector<la::DenseMatrix> u(n_parties);
  std::vector<la::DenseMatrix> gradients(n_parties);
  std::vector<la::DenseMatrix> u_at_root(n_parties);
  std::vector<la::DenseMatrix> d_at(n_parties);
  la::DenseMatrix residual(n_rows, 1);
  for (size_t it = 0; it < options.iterations; ++it) {
    bus->BeginRound(it);
    wire.round_ms = 0;
    if (options.privacy == VflPrivacy::kPlaintext) {
      // Local forward passes, one silo per slot — fixed-order merge keeps
      // the round bitwise-reproducible at any thread count.
      common::ParallelForChunks(
          0, n_parties, 1, [&](size_t, size_t begin, size_t end) {
            for (size_t k = begin; k < end; ++k) {
              parties[k].x.MultiplyInto(result.thetas[k], &u[k]);
            }
          });

      // Parties -> label party: u_k; the label party forms the residual d
      // and the loss, then broadcasts d. Each hop is a reliable transfer —
      // on a healthy wire exactly one send + one receive per channel, so
      // the traffic is byte-identical to the unhardened protocol.
      for (size_t k = 1; k < n_parties; ++k) {
        AMALUR_ASSIGN_OR_RETURN(
            u_at_root[k],
            TransferDense(bus, options.policy, names[k], names[0],
                          blame(names[k], names[0]), u[k], &wire));
      }
      // d = ((u_0 + u_1) + ...) + u_{N−1} − y, built in place; the loss
      // sums d_i² in ascending i in the same pass as the subtraction (the
      // order of ml::MeanSquaredError).
      std::copy(u[0].data(), u[0].data() + n_rows, residual.data());
      for (size_t k = 1; k < n_parties; ++k) residual.AddInPlace(u_at_root[k]);
      double squared_error = 0.0;
      double* d = residual.data();
      const double* y = labels.data();
      for (size_t i = 0; i < n_rows; ++i) {
        d[i] -= y[i];
        squared_error += d[i] * d[i];
      }
      result.loss_history.push_back(squared_error /
                                    static_cast<double>(n_rows));
      for (size_t k = 1; k < n_parties; ++k) {
        AMALUR_ASSIGN_OR_RETURN(
            d_at[k], TransferDense(bus, options.policy, names[0], names[k],
                                   blame(names[0], names[k]), residual,
                                   &wire));
      }

      // Local gradient steps, again one silo per slot.
      common::ParallelForChunks(
          0, n_parties, 1, [&](size_t, size_t begin, size_t end) {
            for (size_t k = begin; k < end; ++k) {
              parties[k].x.TransposeMultiplyInto(k == 0 ? residual : d_at[k],
                                                 &gradients[k]);
              gradients[k].ScaleInPlace(inv_n);
            }
          });
      for (size_t k = 0; k < n_parties; ++k) {
        if (options.l2 > 0.0) {
          gradients[k].AddScaled(result.thetas[k], options.l2);
        }
        result.thetas[k].AddScaled(gradients[k], -options.learning_rate);
      }
      continue;
    }

    // ---- Paillier protocol (semi-honest, coordinator C holds the keys).
    // The encrypted partial-prediction sum travels a ring: party 0 sends
    // [[u_0 − y]] to party 1, each party k adds [[u_k]], and the last party
    // holds [[d]] = [[Σ_k u_k − y]]. Serial: the shared RNG threads through
    // every encryption in protocol order.
    for (size_t k = 0; k < n_parties; ++k) {
      parties[k].x.MultiplyInto(result.thetas[k], &u[k]);
    }
    la::DenseMatrix u0_minus_y = u[0].Subtract(labels);
    AMALUR_RETURN_NOT_OK(CheckEncodable(u0_minus_y, bound,
                                        "the residual start u_0 - y",
                                        names[0], it));
    for (size_t k = 1; k < n_parties; ++k) {
      AMALUR_RETURN_NOT_OK(CheckEncodable(u[k], bound, "the partial prediction",
                                          names[k], it));
    }
    std::vector<PaillierCiphertext> enc_sum =
        paillier.EncryptMatrix(u0_minus_y, &rng);
    // Ring hops are reliable transfers of the *packed* ciphertexts: a
    // retransmission resends the same words, never re-encrypts, so wire
    // faults cannot shift the protocol's RNG schedule.
    for (size_t k = 1; k < n_parties; ++k) {
      AMALUR_ASSIGN_OR_RETURN(
          std::vector<uint64_t> words,
          TransferCiphertextWords(bus, options.policy, names[k - 1], names[k],
                                  blame(names[k - 1], names[k]),
                                  PackCiphertexts(enc_sum), &wire));
      enc_sum = UnpackCiphertexts(words);
      for (size_t i = 0; i < n_rows; ++i) {
        enc_sum[i] = paillier.CipherAdd(
            enc_sum[i], paillier.EncryptDouble(u[k].At(i, 0), &rng));
      }
    }
    // The last party broadcasts [[d]] so every silo can compute its
    // gradient homomorphically.
    const size_t last = n_parties - 1;
    std::vector<std::vector<PaillierCiphertext>> enc_d_at(n_parties);
    {
      const std::vector<uint64_t> packed_d = PackCiphertexts(enc_sum);
      for (size_t k = 0; k < last; ++k) {
        AMALUR_ASSIGN_OR_RETURN(
            std::vector<uint64_t> words,
            TransferCiphertextWords(bus, options.policy, names[last], names[k],
                                    blame(names[last], names[k]), packed_d,
                                    &wire));
        enc_d_at[k] = UnpackCiphertexts(words);
      }
    }
    enc_d_at[last] = enc_sum;

    // Each party computes its masked encrypted gradient and routes it
    // through C for decryption; C only ever sees gradient + mask.
    auto masked_gradient =
        [&](const la::DenseMatrix& x,
            const std::vector<PaillierCiphertext>& d_cipher,
            const std::string& party) -> Result<la::DenseMatrix> {
      std::vector<PaillierCiphertext> enc_grad =
          HomomorphicTransposeDot(paillier, x, d_cipher, scale, &rng);
      la::DenseMatrix mask(x.cols(), 1);
      for (size_t j = 0; j < x.cols(); ++j) mask.At(j, 0) = rng.NextDouble(-8, 8);
      for (size_t j = 0; j < x.cols(); ++j) {
        // Mask enters at scale², matching the gradient's fixed-point scale;
        // |mask| < 8 keeps it far inside the plaintext range.
        const int64_t fixed = std::llround(mask.At(j, 0) * scale_squared);
        const uint64_t message =
            fixed >= 0 ? static_cast<uint64_t>(fixed)
                       : n_pub - static_cast<uint64_t>(-fixed);
        enc_grad[j] =
            paillier.CipherAdd(enc_grad[j], paillier.EncryptRaw(message, &rng));
      }
      AMALUR_ASSIGN_OR_RETURN(
          std::vector<uint64_t> at_c,
          TransferCiphertextWords(bus, options.policy, party, "C",
                                  blame(party, "C"), PackCiphertexts(enc_grad),
                                  &wire));
      std::vector<PaillierCiphertext> ciphers = UnpackCiphertexts(at_c);
      la::DenseMatrix decrypted(x.cols(), 1);
      for (size_t j = 0; j < x.cols(); ++j) {
        decrypted.At(j, 0) =
            DecodeScaled(paillier.DecryptRaw(ciphers[j]), n_pub, scale_squared);
      }
      AMALUR_ASSIGN_OR_RETURN(
          la::DenseMatrix back,
          TransferDense(bus, options.policy, "C", party, blame("C", party),
                        decrypted, &wire));
      back.SubtractInPlace(mask);  // party removes its own mask
      return back;
    };

    for (size_t k = 0; k < n_parties; ++k) {
      AMALUR_ASSIGN_OR_RETURN(
          la::DenseMatrix gradient,
          masked_gradient(parties[k].x, enc_d_at[k], names[k]));
      gradient.ScaleInPlace(inv_n);
      if (options.l2 > 0.0) {
        gradient.AddScaled(result.thetas[k], options.l2);
      }
      result.thetas[k].AddScaled(gradient, -options.learning_rate);
    }

    // Telemetry: C decrypts the residual to report the training loss. This
    // is an observability concession of the harness (documented), not part
    // of the privacy protocol.
    double loss = 0.0;
    for (size_t i = 0; i < n_rows; ++i) {
      const double di = paillier.DecryptDouble(enc_sum[i]);
      loss += di * di;
    }
    result.loss_history.push_back(loss * inv_n);
  }

  result.bytes_transferred = bus->TotalBytes();
  result.messages = bus->TotalMessages();
  result.retries = wire.retries;
  result.bytes_wasted = bus->WastedBytes();
  return result;
}

Result<NaryVflAlignment> AlignForVflNary(const metadata::DiMetadata& metadata,
                                         size_t label_column) {
  const size_t n_sources = metadata.num_sources();
  if (n_sources < 2) {
    return Status::InvalidArgument(
        "VFL alignment needs >= 2 sources, got ", n_sources,
        n_sources == 1
            ? "; a single source holds every feature and the label — train "
              "locally (or factorized) instead of federating"
            : "");
  }
  if (label_column >= metadata.target_cols()) {
    return Status::OutOfRange("label column out of range");
  }
  // The VFL setting requires a shared sample space: every target row must be
  // contributed by every silo (Example 2's inner join generalized to fully
  // covering stars and snowflakes, whose composed indicators DeriveGraph
  // assigned per silo).
  for (size_t k = 0; k < n_sources; ++k) {
    if (metadata.source(k).indicator.ContributedRows() !=
        metadata.target_rows()) {
      return Status::FailedPrecondition(
          "source ", k, " does not cover the full sample space; VFL needs an "
          "inner-join scenario (or a fully covering star/snowflake)");
    }
  }
  // The label lives with the fact root (party 0).
  if (metadata.source(0).mapping.At(label_column) < 0) {
    return Status::FailedPrecondition("base party does not hold the label");
  }

  NaryVflAlignment alignment;
  alignment.parties.resize(n_sources);
  // Which silo owns each target column: the redundancy chain guarantees
  // that under full row coverage every column is provided by exactly one
  // silo (earlier sources mask later copies everywhere); -1 = unclaimed.
  std::vector<int64_t> owner(metadata.target_cols(), -1);
  for (size_t k = 0; k < n_sources; ++k) {
    VflParty& party = alignment.parties[k];
    party.name = DefaultPartyName(k);
    // Masked contribution: T_k ∘ R_k — built silo-locally from the silo's
    // own (composed) indicator/mapping/redundancy triple.
    la::DenseMatrix t_k = metadata.SourceContribution(k);
    metadata.source(k).redundancy.ApplyInPlace(&t_k);
    if (k == 0) {
      alignment.labels = la::DenseMatrix(metadata.target_rows(), 1);
      for (size_t i = 0; i < metadata.target_rows(); ++i) {
        alignment.labels.At(i, 0) = t_k.At(i, label_column);
      }
    }
    for (size_t c : metadata.source(k).mapping.MappedTargetColumns()) {
      if (c == label_column) continue;
      bool contributes = false;
      for (size_t i = 0; i < metadata.target_rows() && !contributes; ++i) {
        contributes = !metadata.source(k).redundancy.IsRedundant(i, c);
      }
      if (!contributes) continue;  // fully redundant: provided upstream
      if (owner[c] != -1) {
        return Status::FailedPrecondition(
            "target column ", c, " is contributed by silos ", owner[c],
            " and ", k,
            "; vertical federation needs each feature column owned by "
            "exactly one silo");
      }
      owner[c] = static_cast<int64_t>(k);
      party.columns.push_back(c);
    }
    party.x = t_k.SelectColumns(party.columns);
  }
  return alignment;
}

}  // namespace federated
}  // namespace amalur
