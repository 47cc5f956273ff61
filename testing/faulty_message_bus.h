#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "federated/message_bus.h"
#include "la/dense_matrix.h"

/// \file faulty_message_bus.h
/// Deterministic chaos for the federated `MessageBus`, for tests, benches
/// and examples: a caller builds a `FaultyMessageBus` and passes it to
/// `TrainVerticalFlrNary` / `TrainHorizontalFlr` in place of the plain bus.
/// The protocols' retry/timeout/quorum layer (`federated/reliable_transfer.h`)
/// is what absorbs the faults it injects.
///
/// A `FaultSchedule` describes, per silo, which faults its links suffer —
/// random message drops, delivery delays, duplicated transmissions, and
/// crash-at-round / rejoin-at-round lifecycle events. `FaultyMessageBus`
/// applies the schedule to every transfer while keeping byte metering
/// honest: delivered payloads (including successful retransmissions) land
/// in `TotalBytes()` exactly as on the plain bus, while transmissions that
/// never arrive — dropped messages, payloads addressed to a crashed silo,
/// redundant retransmissions of a delayed message — accumulate in
/// `WastedBytes()` instead of silently disappearing.
///
/// Everything is seeded through `common::Rng` and consumed on the protocol
/// round thread only, so a chaos run is bitwise-reproducible: the same seed
/// yields the same drops, the same retransmissions, the same byte counts
/// and the same final weights at any thread count.

namespace amalur {
namespace federated {

/// Fault behavior of one silo's links (and its crash lifecycle). All link
/// faults apply to the silo's *outbound* messages; the crash window applies
/// to both directions (a dead silo neither sends nor receives).
struct SiloFaultProfile {
  /// Probability that an outbound message is lost on the wire.
  double drop_rate = 0.0;
  /// Probability that an outbound message is delayed: the receiver's next
  /// `delay_attempts` receive attempts miss it before it surfaces.
  double delay_rate = 0.0;
  size_t delay_attempts = 1;
  /// Probability that an outbound message is transmitted twice; the bus's
  /// delivery layer deduplicates, metering the redundant copy as waste.
  double duplicate_rate = 0.0;
  /// The silo is down for rounds in [crash_at_round, rejoin_at_round).
  /// -1 = never crashes / never rejoins.
  int64_t crash_at_round = -1;
  int64_t rejoin_at_round = -1;
};

/// A deterministic, seeded chaos plan: one default profile applied to every
/// silo plus per-silo overrides (an override *replaces* the default for
/// that silo, it does not merge).
class FaultSchedule {
 public:
  explicit FaultSchedule(uint64_t seed) : seed_(seed) {}

  uint64_t seed() const { return seed_; }

  /// Profile for every silo without an explicit override.
  void SetDefault(const SiloFaultProfile& profile) { default_ = profile; }
  /// Per-silo override (replaces the default for `silo`).
  void Set(const std::string& silo, const SiloFaultProfile& profile) {
    overrides_[silo] = profile;
  }

  const SiloFaultProfile& ProfileFor(const std::string& silo) const {
    auto it = overrides_.find(silo);
    return it == overrides_.end() ? default_ : it->second;
  }

  /// Whether `silo` is inside its crash window at `round`.
  bool IsDownAt(const std::string& silo, size_t round) const;

 private:
  uint64_t seed_ = 0;
  SiloFaultProfile default_;
  std::map<std::string, SiloFaultProfile> overrides_;
};

/// A `MessageBus` that routes every transfer through a `FaultSchedule`.
///
/// Fault semantics per send, decided by one deterministic draw from the
/// schedule's RNG (in protocol order — bus calls happen only on the round
/// thread, so the fault stream is reproducible):
///
///  * **suppressed** — the sender is crashed: nothing is transmitted and
///    nothing is metered (a dead silo spends no bytes).
///  * **dropped** — the receiver is crashed, or the sender's `drop_rate`
///    fired: the payload is transmitted but never delivered; its bytes
///    (payload + envelope) count toward `WastedBytes()`, not `TotalBytes()`.
///  * **delayed** — metered normally at send time (it will arrive), but the
///    receiver's next `delay_attempts` receive attempts return `kNotFound`
///    before it surfaces. A retransmission sent while a delayed copy is
///    pending is recognized as redundant and metered as waste — the
///    delivery layer deduplicates, so the receiver never sees stale extras.
///  * **duplicated** — delivered once; the redundant wire copy is waste.
///
/// `Reset()` (called by every protocol at training start) re-seeds the RNG
/// from the schedule, so each training run over the same bus replays the
/// same fault stream.
class FaultyMessageBus : public MessageBus {
 public:
  explicit FaultyMessageBus(FaultSchedule schedule)
      : schedule_(std::move(schedule)), rng_(schedule_.seed()) {}

  void Send(const std::string& from, const std::string& to,
            la::DenseMatrix payload) override;
  void SendBytes(const std::string& from, const std::string& to,
                 std::vector<uint64_t> payload) override;
  void SendCiphertextWords(const std::string& from, const std::string& to,
                           std::vector<uint64_t> packed) override;
  Result<la::DenseMatrix> Receive(const std::string& from,
                                  const std::string& to) override;
  Result<std::vector<uint64_t>> ReceiveBytes(const std::string& from,
                                             const std::string& to) override;

  void BeginRound(size_t round) override;
  void Reset() override;

  size_t WastedBytes() const override;
  /// Messages lost on the wire (a subset of the waste).
  size_t MessagesDropped() const;
  size_t MessagesSuppressed() const;
  size_t MessagesDuplicated() const;

  /// Whether `silo` is crashed at the current round.
  bool IsDown(const std::string& silo) const;

 private:
  enum class Outcome { kDeliver, kDrop, kDelay, kDuplicate, kSuppress };

  template <typename Payload>
  struct Delayed {
    Payload payload;
    size_t remaining_attempts = 0;
  };

  /// Classifies one send; consumes exactly one RNG draw unless an endpoint
  /// is crashed.
  Outcome ClassifyLocked(const std::string& from, const std::string& to,
                         size_t* delay_attempts) REQUIRES(fault_mu_);

  /// Shared send path for all three payload kinds. Selects the in-flight
  /// queue for `Payload` under the lock (tag overloads below), so guarded
  /// state is never passed by reference from an unlocked context.
  template <typename Payload>
  void ApplySendFaults(const Channel& channel, Payload payload,
                       size_t payload_bytes,
                       void (FaultyMessageBus::*enqueue)(const Channel&,
                                                         Payload))
      EXCLUDES(fault_mu_);

  /// Payload-type → delayed-queue member selection (the tag pointer is only
  /// a compile-time discriminator and is always null).
  std::map<Channel, std::deque<Delayed<la::DenseMatrix>>>& DelayedQueue(
      const la::DenseMatrix*) REQUIRES(fault_mu_) {
    return delayed_dense_;
  }
  std::map<Channel, std::deque<Delayed<std::vector<uint64_t>>>>& DelayedQueue(
      const std::vector<uint64_t>*) REQUIRES(fault_mu_) {
    return delayed_words_;
  }

  void EnqueueDensePayload(const Channel& channel, la::DenseMatrix payload) {
    EnqueueDense(channel, std::move(payload));
  }
  void EnqueueWordPayload(const Channel& channel,
                          std::vector<uint64_t> payload) {
    EnqueueWords(channel, std::move(payload));
  }

  FaultSchedule schedule_;

  mutable common::Mutex fault_mu_;
  Rng rng_ GUARDED_BY(fault_mu_);
  size_t round_ GUARDED_BY(fault_mu_) = 0;
  size_t bytes_wasted_ GUARDED_BY(fault_mu_) = 0;
  size_t messages_dropped_ GUARDED_BY(fault_mu_) = 0;
  size_t messages_suppressed_ GUARDED_BY(fault_mu_) = 0;
  size_t messages_duplicated_ GUARDED_BY(fault_mu_) = 0;
  std::map<Channel, std::deque<Delayed<la::DenseMatrix>>> delayed_dense_
      GUARDED_BY(fault_mu_);
  std::map<Channel, std::deque<Delayed<std::vector<uint64_t>>>> delayed_words_
      GUARDED_BY(fault_mu_);
};

}  // namespace federated
}  // namespace amalur
