#include "federated/message_bus.h"

#include "common/logging.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace amalur {
namespace federated {

void MessageBus::AccountLocked(size_t payload_bytes) {
  total_bytes_ += payload_bytes + kEnvelopeBytes;
  total_messages_ += 1;
}

void MessageBus::Send(const std::string& from, const std::string& to,
                      la::DenseMatrix payload) {
  const Channel channel{from, to};
  common::MutexLock lock(mu_);
  AccountLocked(DensePayloadBytes(payload));
  dense_queues_[channel].push_back(std::move(payload));
}

void MessageBus::SendBytes(const std::string& from, const std::string& to,
                           std::vector<uint64_t> payload) {
  const Channel channel{from, to};
  common::MutexLock lock(mu_);
  AccountLocked(WordPayloadBytes(payload));
  byte_queues_[channel].push_back(std::move(payload));
}

void MessageBus::SendCiphertextWords(const std::string& from,
                                     const std::string& to,
                                     std::vector<uint64_t> packed) {
  AMALUR_CHECK_EQ(packed.size() % 2, 0u)
      << "ciphertext payloads are (lo, hi) word pairs";
  const Channel channel{from, to};
  common::MutexLock lock(mu_);
  AccountLocked(CiphertextPayloadBytes(packed));
  byte_queues_[channel].push_back(std::move(packed));
}

Result<la::DenseMatrix> MessageBus::Receive(const std::string& from,
                                            const std::string& to) {
  common::MutexLock lock(mu_);
  auto it = dense_queues_.find({from, to});
  if (it == dense_queues_.end() || it->second.empty()) {
    return Status::NotFound("no pending message on channel ", from, " -> ", to);
  }
  la::DenseMatrix payload = std::move(it->second.front());
  it->second.pop_front();
  return payload;
}

Result<std::vector<uint64_t>> MessageBus::ReceiveBytes(const std::string& from,
                                                       const std::string& to) {
  common::MutexLock lock(mu_);
  auto it = byte_queues_.find({from, to});
  if (it == byte_queues_.end() || it->second.empty()) {
    return Status::NotFound("no pending bytes on channel ", from, " -> ", to);
  }
  std::vector<uint64_t> payload = std::move(it->second.front());
  it->second.pop_front();
  return payload;
}

size_t MessageBus::TotalBytes() const {
  common::MutexLock lock(mu_);
  return total_bytes_;
}

size_t MessageBus::TotalMessages() const {
  common::MutexLock lock(mu_);
  return total_messages_;
}

void MessageBus::Reset() {
  common::MutexLock lock(mu_);
  dense_queues_.clear();
  byte_queues_.clear();
  total_bytes_ = 0;
  total_messages_ = 0;
}

}  // namespace federated
}  // namespace amalur
