#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "la/dense_matrix.h"

/// \file message_bus.h
/// In-process network simulation for the federated runtime. Parties never
/// touch each other's memory: every exchanged tensor goes through the bus,
/// which meters exact transfer volumes — the quantity the §V
/// discussion (and the communication-cost analysis) needs. Latency is not
/// simulated.
///
/// **Threading contract.** The protocols drive the bus exclusively from the
/// round-loop thread — the `ParallelForChunks` regions inside `vfl.cc` /
/// `hfl.cc` only do silo-local math and never reach the bus. The bus is
/// nevertheless *internally synchronized* (one mutex guards queues and
/// accounting, including `TotalBytes()`/`TotalMessages()`), so a monitor or
/// test thread reading the stats while a protocol runs is clean under
/// ThreadSanitizer by construction, not by call-site discipline.
///
/// This bus never loses a message. The transfer calls stay virtual so that
/// a derived bus can wrap them, as the facade benchmark's `TimedMessageBus`
/// (facadebench/cpp/replay.h) does to time each transfer; the protocols
/// keep programming against `MessageBus*`.

namespace amalur {
namespace federated {

/// Synchronous in-process message bus with byte accounting.
class MessageBus {
 public:
  /// Serialized wire size of one Paillier ciphertext: the (lo, hi) word
  /// pair `PackCiphertexts` emits — 16 bytes, 2x the plaintext-double rate.
  /// Ciphertext traffic is metered per *ciphertext* at this constant (via
  /// `SendCiphertextWords`, which also CHECKs the payload shape), never per
  /// value at the plaintext-double rate — a protocol metering encrypted
  /// payloads as if they were doubles would under-count and hide the §V.B
  /// encryption blow-up from `bytes_transferred`.
  static constexpr size_t kCiphertextWireBytes = 16;

  MessageBus() = default;
  virtual ~MessageBus() = default;
  // The mutex makes the bus non-copyable — protocols share one by pointer.
  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  /// Sends a dense payload from `from` to `to`. Payload bytes are
  /// 8 per cell plus a fixed 32-byte envelope.
  virtual void Send(const std::string& from, const std::string& to,
                    la::DenseMatrix payload);

  /// Sends an opaque byte payload (already-encrypted data).
  virtual void SendBytes(const std::string& from, const std::string& to,
                         std::vector<uint64_t> payload);

  /// Sends a packed ciphertext payload (`PackCiphertexts` output: 2 words
  /// per ciphertext). Accounted at `kCiphertextWireBytes` per ciphertext —
  /// the serialized ciphertext size — and rejects payloads that are not
  /// whole (lo, hi) pairs, so a protocol cannot accidentally ship (and
  /// meter) half-width ciphertexts at the plaintext-double rate. For a
  /// well-formed packing this coincides with `SendBytes`'s raw word rate;
  /// the typed path exists to keep that true by construction (the shape
  /// CHECK plus one named constant) rather than by caller discipline.
  virtual void SendCiphertextWords(const std::string& from,
                                   const std::string& to,
                                   std::vector<uint64_t> packed);

  /// Pops the oldest dense payload on the channel; error when empty.
  virtual Result<la::DenseMatrix> Receive(const std::string& from,
                                          const std::string& to);

  /// Pops the oldest byte payload on the channel; error when empty.
  virtual Result<std::vector<uint64_t>> ReceiveBytes(const std::string& from,
                                                     const std::string& to);

  /// Total bytes sent over all channels, envelopes included.
  size_t TotalBytes() const;
  /// Total messages sent over all channels.
  size_t TotalMessages() const;

  /// Clears queues and statistics. `TrainVerticalFlrNary` and
  /// `TrainHorizontalFlr` call it on entry.
  void Reset();

 private:
  static constexpr size_t kEnvelopeBytes = 32;

  using Channel = std::pair<std::string, std::string>;

  static size_t DensePayloadBytes(const la::DenseMatrix& payload) {
    return payload.size() * sizeof(double);
  }
  static size_t WordPayloadBytes(const std::vector<uint64_t>& payload) {
    return payload.size() * sizeof(uint64_t);
  }
  static size_t CiphertextPayloadBytes(const std::vector<uint64_t>& packed) {
    return (packed.size() / 2) * kCiphertextWireBytes;
  }

  void AccountLocked(size_t payload_bytes) REQUIRES(mu_);

  mutable common::Mutex mu_;
  std::map<Channel, std::deque<la::DenseMatrix>> dense_queues_ GUARDED_BY(mu_);
  std::map<Channel, std::deque<std::vector<uint64_t>>> byte_queues_
      GUARDED_BY(mu_);
  size_t total_bytes_ GUARDED_BY(mu_) = 0;
  size_t total_messages_ GUARDED_BY(mu_) = 0;
};

}  // namespace federated
}  // namespace amalur
