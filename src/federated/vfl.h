#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "federated/message_bus.h"
#include "la/dense_matrix.h"
#include "metadata/di_metadata.h"

/// \file vfl.h
/// Vertical federated linear regression (FLR) after Yang et al. [35] and
/// §V.A of the paper, generalized to N feature-holding silos: party 0 holds
/// features X_0 and the labels, parties 1..N−1 hold X_1..X_{N−1} over the
/// *same aligned rows*; the objective is
///
///     min_{Θ_0..Θ_{N−1}} Σ_i (Σ_k Θ_k X_k⁽ⁱ⁾ − Y⁽ⁱ⁾)².
///
/// Two wire modes: plaintext (baseline — partial predictions are summed at
/// the label party, the residual is broadcast back) and Paillier (the
/// secure protocol: the encrypted partial-prediction sum travels a ring
/// through every party, the residual stays encrypted, gradients are
/// computed homomorphically by the data parties and decrypted by a
/// coordinator that only ever sees masked gradients). All traffic flows
/// through the `MessageBus`, so the encryption blow-up of §V.B is directly
/// measurable. `TrainVerticalFlrNary` is the one entry point for any N >= 2;
/// at N = 2 both wire modes reproduce the historical pairwise protocol bit
/// for bit (messages, RNG schedule and arithmetic order are unchanged).

namespace amalur {
namespace federated {

/// Wire protection for the VFL protocol.
enum class VflPrivacy : int8_t {
  /// Residuals and intermediate sums travel in the clear (baseline).
  kPlaintext = 0,
  /// Paillier-encrypted residual exchange with masked coordinator
  /// decryption.
  kPaillier = 1,
};

/// Empty, and nothing reads it. It stays only because the facade
/// benchmark's replay still copies `core::TrainRequest::federated_policy`
/// into `VflOptions::policy`; the struct and both fields go with the next
/// change to that benchmark.
struct FederatedPolicy {};

/// Hyper-parameters of the federated trainer.
struct VflOptions {
  size_t iterations = 100;
  double learning_rate = 0.1;
  double l2 = 0.0;
  VflPrivacy privacy = VflPrivacy::kPlaintext;
  /// Inert: nothing reads it. It goes with `FederatedPolicy`.
  FederatedPolicy policy;
};

/// One silo of the n-ary vertical protocol: its aligned local feature block
/// plus bookkeeping for reassembling the global model.
struct VflParty {
  /// Wire name on the bus (defaults to "P<k>" when empty).
  std::string name;
  /// n × p_k local feature block (rows aligned across all parties).
  la::DenseMatrix x;
  /// Target column index of each local feature (used by the executor to
  /// scatter θ_k back into target-feature order; may be empty for callers
  /// that train on raw blocks).
  std::vector<size_t> columns;
};

/// A trained n-ary federated model plus communication accounting.
struct NaryVflResult {
  /// θ_k per party (p_k × 1), in party order.
  std::vector<la::DenseMatrix> thetas;
  std::vector<double> loss_history;
  size_t rounds = 0;
  size_t bytes_transferred = 0;
  size_t messages = 0;
};

/// Trains n-ary vertical FLR. `parties[0]` is the label party (it also
/// coordinates rounds); `labels` (n × 1) live with it. Every party's block
/// must be row-aligned. Party-local forward/gradient work fans out over the
/// shared pool (`ParallelFor`, one party per slot) in the plaintext mode; the Paillier mode is serial because the protocol threads one RNG
/// through the encryption schedule.
///
/// The call starts with `bus->Reset()`, which drops whatever the caller
/// queued on the bus and zeroes its counters, so `bytes_transferred` and
/// `messages` count this run alone. A receive that finds no message ends
/// the run with its status.
///
/// The plaintext round works in buffers the call allocates once: each
/// party's partial prediction u_k = X_k θ_k and gradient, and the label
/// party's residual d = Σ_k u_k − y, built in place in party order with the
/// loss summed in the same pass. After the first round its only large
/// allocations are the bus's payload copies, 2(N−1) n × 1 blocks per round
/// (N−1 u_k in, N−1 broadcasts of d out); the received payloads replace the
/// previous round's.
///
/// Paillier mode rejects, with `kInvalidArgument` naming the party, column
/// and row, a feature or label value outside the fixed-point range
/// (`Paillier::EncodableBound()`, NaN and ±Inf included). During training,
/// divergence is `kFailedPrecondition`, naming the party and round: a
/// partial prediction or residual start of magnitude at least
/// EncodableBound()/N (the ring sum of N such pieces could wrap), or a
/// homomorphic gradient that could wrap modulo n. The gradient check is
/// the Cauchy–Schwarz bound ‖x̂_j‖₂·‖d̂‖₂ + 8·scale² ≥ n/2 on the
/// fixed-point column and residual (the mask stays below 8), with ‖d̂‖₂
/// read from the residual the coordinator already decrypts for the loss.
Result<NaryVflResult> TrainVerticalFlrNary(const std::vector<VflParty>& parties,
                                           const la::DenseMatrix& labels,
                                           const VflOptions& options,
                                           MessageBus* bus);

/// Row-aligned n-ary VFL inputs derived from DI metadata (§V.A: silo k's
/// block is I_k D_k M_kᵀ restricted to its feature columns — for snowflake
/// silos I_k is the *composed* indicator `DeriveGraph` assigned along the
/// dimension chain — redundancy-masked so every target column is provided
/// by exactly one silo).
struct NaryVflAlignment {
  /// One party per silo, in source order; party 0 (the fact root) holds the
  /// labels.
  std::vector<VflParty> parties;
  la::DenseMatrix labels;
};

/// Builds the n-ary alignment. `label_column` is the target column holding
/// Y (owned by the fact root). Requires every target row to be contributed
/// by every silo (the shared-sample-space / inner-join setting of Example 2
/// generalized: fully-covering stars and snowflakes qualify).
Result<NaryVflAlignment> AlignForVflNary(const metadata::DiMetadata& metadata,
                                         size_t label_column);

}  // namespace federated
}  // namespace amalur
