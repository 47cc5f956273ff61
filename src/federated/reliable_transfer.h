#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "federated/message_bus.h"
#include "la/dense_matrix.h"

/// \file reliable_transfer.h
/// The retry/timeout/quorum policy the protocols (`vfl.cc`, `hfl.cc`) train
/// under, and the transfers that retransmit when a receive comes back
/// empty. On the in-process bus, which never loses a message, each transfer
/// is one send and one receive; only a fault-simulating bus fires retries.

namespace amalur {
namespace federated {

/// How the coordinator reacts when a silo stops answering.
enum class SiloLossAction : int8_t {
  /// Abort the run with `kUnavailable` naming the lost silo.
  kFail = 0,
  /// Keep going on the surviving quorum: HFL re-weights FedAvg over the
  /// reachable shards (lost silos may rejoin at a later round boundary);
  /// VFL cannot shed a feature-owning party and still fails with
  /// `kUnavailable` — vertical degradation is structurally impossible.
  kDegrade = 1,
};

/// Coordinator policy for a fault-tolerant federated run. The defaults are
/// transparent for healthy runs: retries only fire on a fault, so a
/// no-fault run's traffic, RNG schedule and weights are bitwise-identical
/// to the pre-policy protocols. Time is *simulated* (accumulated in
/// `WireTelemetry`), never slept — chaos runs stay fast and deterministic:
/// each failed receive costs a fixed 50 ms timeout, and retransmission k
/// (counting from 0) waits min(25·2^k, 400) ms of backoff.
struct FederatedPolicy {
  /// Minimum reachable participants a round may proceed with (HFL). Falling
  /// below it is `kUnavailable` even under `kDegrade`; a quorum above the
  /// party count can never be met and is `kInvalidArgument` at entry.
  size_t min_quorum = 1;
  /// Simulated per-round budget: once a round has burnt this much virtual
  /// time on timeouts/backoffs, remaining unresponsive silos are declared
  /// lost without consuming the rest of their retry budget.
  size_t max_round_timeout_ms = 60000;
  SiloLossAction on_silo_loss = SiloLossAction::kFail;
  /// Retransmissions after the initial send (so max_retries + 1 delivery
  /// attempts per message in total).
  size_t max_retries = 3;
};

/// Accumulated reliability telemetry of one training run. `round_ms` is
/// reset by the protocol at each round boundary; the rest only grows.
struct WireTelemetry {
  size_t retries = 0;
  size_t virtual_ms = 0;
  size_t round_ms = 0;
};

/// Reliable-delivery helpers: send + receive on (`from` -> `to`) with
/// retransmission, simulated timeout and bounded exponential backoff per
/// `policy`, charging virtual time to `wire`. On a healthy channel
/// each performs exactly one send and one receive — byte-for-byte what the
/// unhardened protocols did. When the budget (retries or the round's
/// `max_round_timeout_ms`) is exhausted, returns `kUnavailable` naming
/// `blame` (the remote silo from the caller's perspective) and the channel.
Result<la::DenseMatrix> TransferDense(MessageBus* bus,
                                      const FederatedPolicy& policy,
                                      const std::string& from,
                                      const std::string& to,
                                      const std::string& blame,
                                      const la::DenseMatrix& payload,
                                      WireTelemetry* wire);
Result<std::vector<uint64_t>> TransferWords(MessageBus* bus,
                                            const FederatedPolicy& policy,
                                            const std::string& from,
                                            const std::string& to,
                                            const std::string& blame,
                                            const std::vector<uint64_t>& payload,
                                            WireTelemetry* wire);
/// Ciphertext payloads retransmit the *same* packed words — a resend never
/// re-encrypts, so wire faults cannot perturb the protocol's RNG schedule.
Result<std::vector<uint64_t>> TransferCiphertextWords(
    MessageBus* bus, const FederatedPolicy& policy, const std::string& from,
    const std::string& to, const std::string& blame,
    const std::vector<uint64_t>& packed, WireTelemetry* wire);

}  // namespace federated
}  // namespace amalur
