#include "testing/faulty_message_bus.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace amalur {
namespace federated {

bool FaultSchedule::IsDownAt(const std::string& silo, size_t round) const {
  const SiloFaultProfile& profile = ProfileFor(silo);
  if (profile.crash_at_round < 0) return false;
  if (static_cast<int64_t>(round) < profile.crash_at_round) return false;
  return profile.rejoin_at_round < 0 ||
         static_cast<int64_t>(round) < profile.rejoin_at_round;
}

void FaultyMessageBus::BeginRound(size_t round) {
  common::MutexLock lock(fault_mu_);
  round_ = round;
}

void FaultyMessageBus::Reset() {
  {
    common::MutexLock lock(fault_mu_);
    rng_ = Rng(schedule_.seed());
    round_ = 0;
    bytes_wasted_ = 0;
    messages_dropped_ = 0;
    messages_suppressed_ = 0;
    messages_duplicated_ = 0;
    delayed_dense_.clear();
    delayed_words_.clear();
  }
  MessageBus::Reset();
}

size_t FaultyMessageBus::WastedBytes() const {
  common::MutexLock lock(fault_mu_);
  return bytes_wasted_;
}

size_t FaultyMessageBus::MessagesDropped() const {
  common::MutexLock lock(fault_mu_);
  return messages_dropped_;
}

size_t FaultyMessageBus::MessagesSuppressed() const {
  common::MutexLock lock(fault_mu_);
  return messages_suppressed_;
}

size_t FaultyMessageBus::MessagesDuplicated() const {
  common::MutexLock lock(fault_mu_);
  return messages_duplicated_;
}

bool FaultyMessageBus::IsDown(const std::string& silo) const {
  common::MutexLock lock(fault_mu_);
  return schedule_.IsDownAt(silo, round_);
}

size_t FaultyMessageBus::current_round() const {
  common::MutexLock lock(fault_mu_);
  return round_;
}

FaultyMessageBus::Outcome FaultyMessageBus::ClassifyLocked(
    const std::string& from, const std::string& to, size_t* delay_attempts) {
  if (schedule_.IsDownAt(from, round_)) return Outcome::kSuppress;
  if (schedule_.IsDownAt(to, round_)) return Outcome::kDrop;
  // Link faults follow the *sender's* profile. One draw per send keeps the
  // fault stream aligned with the protocol's message sequence, so the same
  // seed reproduces the same faults regardless of thread count.
  const SiloFaultProfile& profile = schedule_.ProfileFor(from);
  const double draw = rng_.NextDouble();
  if (draw < profile.drop_rate) return Outcome::kDrop;
  if (draw < profile.drop_rate + profile.delay_rate) {
    *delay_attempts = std::max<size_t>(profile.delay_attempts, 1);
    return Outcome::kDelay;
  }
  if (draw <
      profile.drop_rate + profile.delay_rate + profile.duplicate_rate) {
    return Outcome::kDuplicate;
  }
  return Outcome::kDeliver;
}

template <typename Payload>
void FaultyMessageBus::ApplySendFaults(
    const Channel& channel, Payload payload, size_t payload_bytes,
    void (FaultyMessageBus::*enqueue)(const Channel&, Payload)) {
  const size_t wire_bytes = payload_bytes + kEnvelopeBytes;
  Outcome outcome;
  size_t delay_attempts = 0;
  {
    common::MutexLock lock(fault_mu_);
    auto& delayed = DelayedQueue(static_cast<const Payload*>(nullptr));
    // A send on a channel that still has a delayed message in flight is a
    // retransmission of that message: the original *will* arrive, so the
    // resend is redundant wire traffic — metered as waste, never enqueued
    // (the receiver must not see stale duplicates). No RNG is consumed, so
    // retries cannot shift the fault stream of later messages.
    auto it = delayed.find(channel);
    if (it != delayed.end() && !it->second.empty()) {
      bytes_wasted_ += wire_bytes;
      messages_duplicated_ += 1;
      return;
    }
    outcome = ClassifyLocked(channel.first, channel.second, &delay_attempts);
    switch (outcome) {
      case Outcome::kSuppress:
        messages_suppressed_ += 1;
        return;
      case Outcome::kDrop:
        bytes_wasted_ += wire_bytes;
        messages_dropped_ += 1;
        return;
      case Outcome::kDelay:
        delayed[channel].push_back(
            Delayed<Payload>{std::move(payload), delay_attempts});
        break;
      case Outcome::kDuplicate:
        // Delivered once below; the redundant wire copy is pure waste.
        bytes_wasted_ += wire_bytes;
        messages_duplicated_ += 1;
        break;
      case Outcome::kDeliver:
        break;
    }
  }
  // The message will arrive (now or after the delay), so it is metered as
  // delivered traffic — `TotalBytes()` stays the honest transfer volume.
  MeterTransfer(channel, payload_bytes);
  if (outcome != Outcome::kDelay) {
    (this->*enqueue)(channel, std::move(payload));
  }
}

void FaultyMessageBus::Send(const std::string& from, const std::string& to,
                           la::DenseMatrix payload) {
  const size_t payload_bytes = DensePayloadBytes(payload);
  ApplySendFaults(Channel{from, to}, std::move(payload), payload_bytes,
                  &FaultyMessageBus::EnqueueDensePayload);
}

void FaultyMessageBus::SendBytes(const std::string& from, const std::string& to,
                                 std::vector<uint64_t> payload) {
  const size_t payload_bytes = WordPayloadBytes(payload);
  ApplySendFaults(Channel{from, to}, std::move(payload), payload_bytes,
                  &FaultyMessageBus::EnqueueWordPayload);
}

void FaultyMessageBus::SendCiphertextWords(const std::string& from,
                                           const std::string& to,
                                           std::vector<uint64_t> packed) {
  AMALUR_CHECK_EQ(packed.size() % 2, 0u)
      << "ciphertext payloads are (lo, hi) word pairs";
  const size_t payload_bytes = CiphertextPayloadBytes(packed);
  ApplySendFaults(Channel{from, to}, std::move(packed), payload_bytes,
                  &FaultyMessageBus::EnqueueWordPayload);
}

Result<la::DenseMatrix> FaultyMessageBus::Receive(const std::string& from,
                                                  const std::string& to) {
  const Channel channel{from, to};
  {
    common::MutexLock lock(fault_mu_);
    auto it = delayed_dense_.find(channel);
    if (it != delayed_dense_.end() && !it->second.empty()) {
      Delayed<la::DenseMatrix>& head = it->second.front();
      if (head.remaining_attempts > 0) {
        head.remaining_attempts -= 1;
        return Status::NotFound("message on channel ", from, " -> ", to,
                                " still in flight");
      }
      la::DenseMatrix payload = std::move(head.payload);
      it->second.pop_front();
      EnqueueDense(channel, std::move(payload));
    }
  }
  return MessageBus::Receive(from, to);
}

Result<std::vector<uint64_t>> FaultyMessageBus::ReceiveBytes(
    const std::string& from, const std::string& to) {
  const Channel channel{from, to};
  {
    common::MutexLock lock(fault_mu_);
    auto it = delayed_words_.find(channel);
    if (it != delayed_words_.end() && !it->second.empty()) {
      Delayed<std::vector<uint64_t>>& head = it->second.front();
      if (head.remaining_attempts > 0) {
        head.remaining_attempts -= 1;
        return Status::NotFound("message on channel ", from, " -> ", to,
                                " still in flight");
      }
      std::vector<uint64_t> payload = std::move(head.payload);
      it->second.pop_front();
      EnqueueWords(channel, std::move(payload));
    }
  }
  return MessageBus::ReceiveBytes(from, to);
}

}  // namespace federated
}  // namespace amalur
