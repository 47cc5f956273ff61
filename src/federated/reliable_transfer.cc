#include "federated/reliable_transfer.h"

#include <algorithm>
#include <utility>

#include "common/status.h"

namespace amalur {
namespace federated {

namespace {

/// Simulated cost of one failed receive attempt.
constexpr size_t kMessageTimeoutMs = 50;
/// Backoff before the first retransmission, and the cap of its doubling.
constexpr size_t kBaseBackoffMs = 25;
constexpr size_t kMaxBackoffMs = 400;

/// Simulated backoff before retransmission attempt `attempt` (0-based):
/// min(base << attempt, max), with the shift clamped so it cannot overflow.
size_t BackoffMs(size_t attempt) {
  const size_t shift = std::min<size_t>(attempt, 20);
  return std::min(kBaseBackoffMs << shift, kMaxBackoffMs);
}

/// Generic reliable transfer: `send(payload)` + `receive()` with
/// retransmission, simulated timeouts and capped exponential backoff. The
/// same payload object is resent verbatim on every attempt, so retries
/// never consume protocol randomness.
template <typename Payload, typename SendFn, typename ReceiveFn>
Result<Payload> ReliableTransfer(const FederatedPolicy& policy,
                                 const std::string& from,
                                 const std::string& to,
                                 const std::string& blame, SendFn&& send,
                                 ReceiveFn&& receive, WireTelemetry* wire) {
  for (size_t attempt = 0;; ++attempt) {
    send();
    auto received = receive();
    if (received.ok()) return std::move(received).ValueOrDie();
    // Failed receive: the message never surfaced within the (simulated)
    // timeout window. Charge the timeout, then either give up or back off
    // and retransmit.
    wire->virtual_ms += kMessageTimeoutMs;
    wire->round_ms += kMessageTimeoutMs;
    const bool budget_spent = attempt >= policy.max_retries;
    const bool round_expired = wire->round_ms > policy.max_round_timeout_ms;
    if (budget_spent || round_expired) {
      return Status::Unavailable(
          "silo ", blame, " unreachable: channel ", from, " -> ", to,
          " dead after ", attempt + 1, " delivery attempts (",
          round_expired && !budget_spent ? "round timeout budget exhausted"
                                         : "retry budget exhausted",
          ", ", wire->round_ms, " ms of simulated round time)");
    }
    const size_t backoff = BackoffMs(attempt);
    wire->virtual_ms += backoff;
    wire->round_ms += backoff;
    wire->retries += 1;
  }
}

}  // namespace

Result<la::DenseMatrix> TransferDense(MessageBus* bus,
                                      const FederatedPolicy& policy,
                                      const std::string& from,
                                      const std::string& to,
                                      const std::string& blame,
                                      const la::DenseMatrix& payload,
                                      WireTelemetry* wire) {
  return ReliableTransfer<la::DenseMatrix>(
      policy, from, to, blame, [&] { bus->Send(from, to, payload); },
      [&] { return bus->Receive(from, to); }, wire);
}

Result<std::vector<uint64_t>> TransferWords(MessageBus* bus,
                                            const FederatedPolicy& policy,
                                            const std::string& from,
                                            const std::string& to,
                                            const std::string& blame,
                                            const std::vector<uint64_t>& payload,
                                            WireTelemetry* wire) {
  return ReliableTransfer<std::vector<uint64_t>>(
      policy, from, to, blame, [&] { bus->SendBytes(from, to, payload); },
      [&] { return bus->ReceiveBytes(from, to); }, wire);
}

Result<std::vector<uint64_t>> TransferCiphertextWords(
    MessageBus* bus, const FederatedPolicy& policy, const std::string& from,
    const std::string& to, const std::string& blame,
    const std::vector<uint64_t>& packed, WireTelemetry* wire) {
  return ReliableTransfer<std::vector<uint64_t>>(
      policy, from, to, blame,
      [&] { bus->SendCiphertextWords(from, to, packed); },
      [&] { return bus->ReceiveBytes(from, to); }, wire);
}

}  // namespace federated
}  // namespace amalur
